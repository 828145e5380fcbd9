"""White-box tests of placement internals (heuristics, VC math, paths)."""

from __future__ import annotations

import math

import pytest

from repro.core.tag import Tag
from repro.models.voc import VocCluster, voc_from_tag
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer, _cluster_plan
from repro.placement.secondnet import SecondNetPlacer
from repro.placement.state import TenantAllocation
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Journal, Ledger


@pytest.fixture
def setup(small_datacenter):
    ledger = Ledger(small_datacenter)
    return small_datacenter, ledger, CloudMirrorPlacer(ledger)


class TestLowBandwidthThreshold:
    def test_nominal_per_slot(self, setup):
        topology, ledger, placer = setup
        tor = topology.level_nodes(1)[0]
        # Children are servers: 1000 Mbps / 4 slots = 250 per slot.
        assert placer._low_bw_threshold(tor) == pytest.approx(250.0)

    def test_unlimited_topology_uses_nominals(self):
        spec = DatacenterSpec(
            servers_per_rack=4, racks_per_pod=2, pods=1, slots_per_server=4
        )
        topology = three_level_tree(spec, unlimited=True)
        ledger = Ledger(topology)
        placer = CloudMirrorPlacer(ledger)
        tor = topology.level_nodes(1)[0]
        # 10G nominal / 4 slots despite infinite enforced capacity.
        assert placer._low_bw_threshold(tor) == pytest.approx(2500.0)


class TestFindTiersToColoc:
    def test_prefers_trunk_pair_with_highest_saving(self, setup):
        topology, ledger, placer = setup
        tag = Tag("t")
        tag.add_component("hot-a", 4)
        tag.add_component("hot-b", 4)
        tag.add_component("cold-a", 4)
        tag.add_component("cold-b", 4)
        tag.add_edge("hot-a", "hot-b", 400.0, 400.0)
        tag.add_edge("cold-a", "cold-b", 300.0, 300.0)
        allocation = TenantAllocation(tag, ledger)
        # Trunk colocation needs room for both endpoints: evaluate at the
        # agg level, whose ToR children hold 64 slots (a 4-slot server
        # cannot yield Eq. 4 saving for two 4-VM tiers).
        agg = topology.level_nodes(2)[0]
        want = allocation.remaining_tiers()
        candidate = placer._find_tiers_to_coloc(allocation, want, agg, set())
        assert candidate is not None
        assert set(candidate.request) == {"hot-a", "hot-b"}

    def test_low_bandwidth_tiers_excluded(self, setup):
        topology, ledger, placer = setup
        tag = Tag("t")
        tag.add_component("light", 4)
        tag.add_self_loop("light", 10.0)  # far below the 250 threshold
        allocation = TenantAllocation(tag, ledger)
        tor = topology.level_nodes(1)[0]
        want = allocation.remaining_tiers()
        assert placer._find_tiers_to_coloc(allocation, want, tor, set()) is None

    def test_hose_candidate_when_heavy(self, setup):
        topology, ledger, placer = setup
        tag = Tag("t")
        tag.add_component("heavy", 4)
        tag.add_self_loop("heavy", 400.0)
        allocation = TenantAllocation(tag, ledger)
        agg = topology.level_nodes(2)[0]
        want = allocation.remaining_tiers()
        candidate = placer._find_tiers_to_coloc(allocation, want, agg, set())
        assert candidate is not None
        assert candidate.request == {"heavy": 4}
        assert candidate.saving > 0


class TestOktopusVcMath:
    """The VC walk's per-cluster bandwidth, VC bound and child order.

    The walk places under a ToR whose children are the 4-slot, 1000 Mbps
    servers of ``small_datacenter``; each case reads the resulting
    per-server layout.
    """

    @pytest.fixture
    def oktopus(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        tor = small_datacenter.level_nodes(1)[0]
        servers = list(tor.children)
        return ledger, OktopusPlacer(ledger), tor, servers

    @staticmethod
    def _walk(placer, ledger, tag, want, tor):
        allocation = TenantAllocation(tag, ledger)
        (cluster,) = _cluster_plan(tag)
        placed = placer._alloc_cluster(allocation, cluster, want, tor.node_id, tor)
        layout = {
            server.node_id: counts[cluster.name]
            for server, counts in allocation.iter_server_placements()
        }
        return placed, layout

    @staticmethod
    def _hose(size: int, bandwidth: float) -> Tag:
        tag = Tag("t")
        tag.add_component("c", size)
        if bandwidth:
            tag.add_self_loop("c", bandwidth)
        return tag

    @staticmethod
    def _fill(ledger, server, slots: int) -> None:
        assert ledger.reserve_slots(server, slots, Journal())

    def test_cluster_bw_aggregates_hose_and_core(self):
        tag = Tag("t")
        tag.add_component("c", 4)
        tag.add_component("peer", 2)
        tag.add_self_loop("c", 50.0)
        tag.add_edge("c", "peer", 100.0, 100.0)
        tag.add_edge("peer", "c", 80.0, 80.0)
        assert VocCluster("c", 4, 50.0, 100.0, 80.0) in voc_from_tag(tag).clusters
        plan = {cluster.name: cluster for cluster in _cluster_plan(tag)}
        assert plan["c"].bandwidth == pytest.approx(150.0)

    def test_plan_is_cached_per_tag_in_demand_order(self):
        tag = Tag("t")
        tag.add_component("small", 2)
        tag.add_component("big", 8)
        tag.add_self_loop("big", 10.0)
        plan = _cluster_plan(tag)
        assert [cluster.name for cluster in plan] == ["big", "small"]
        assert _cluster_plan(tag) is plan

    def test_max_feasible_full_fit(self, oktopus):
        ledger, placer, tor, servers = oktopus
        # All 4 under one server: crossing min(4,0)*100 = 0 <= NIC.
        placed, layout = self._walk(placer, ledger, self._hose(4, 100.0), 4, tor)
        assert (placed, layout) == (4, {servers[0].node_id: 4})

    def test_max_feasible_ascending_branch(self, oktopus):
        ledger, placer, tor, servers = oktopus
        # Can't host a majority (4 < 10): crossing = m*400 <= 1000 -> m <= 2
        # per server, so 4 VMs take two servers.
        placed, layout = self._walk(placer, ledger, self._hose(20, 400.0), 4, tor)
        assert (placed, layout) == (4, {servers[0].node_id: 2, servers[1].node_id: 2})

    def test_zero_bandwidth_cluster_unconstrained(self, oktopus):
        ledger, placer, tor, servers = oktopus
        placed, layout = self._walk(placer, ledger, self._hose(8, 0.0), 4, tor)
        assert (placed, layout) == (4, {servers[0].node_id: 4})

    def test_equal_free_siblings_keep_child_order(self, oktopus):
        ledger, placer, tor, servers = oktopus
        self._fill(ledger, servers[0], 1)
        # No server holds 6: fill by free slots, ties in child order.
        placed, layout = self._walk(placer, ledger, self._hose(8, 0.0), 6, tor)
        assert (placed, layout) == (6, {servers[1].node_id: 4, servers[2].node_id: 2})

    def test_zero_bandwidth_cluster_goes_best_fit(self, oktopus):
        ledger, placer, tor, servers = oktopus
        self._fill(ledger, servers[1], 2)
        self._fill(ledger, servers[2], 1)
        self._fill(ledger, servers[3], 2)
        # Smallest hole that holds 2: servers 1 and 3 tie, child order wins.
        placed, layout = self._walk(placer, ledger, self._hose(8, 0.0), 2, tor)
        assert (placed, layout) == (2, {servers[1].node_id: 2})

    def test_best_fit_skips_hose_infeasible_holes(self, oktopus):
        ledger, placer, tor, servers = oktopus
        self._fill(ledger, servers[1], 1)
        # 3 of 6 under one server cross 3*400 > 1000 Mbps wherever they
        # land, so no server takes the whole remainder and the fill loop
        # caps every server at 1000/400 = 2 VMs.
        placed, layout = self._walk(placer, ledger, self._hose(6, 400.0), 3, tor)
        assert (placed, layout) == (3, {servers[0].node_id: 2, servers[2].node_id: 1})

    def test_fill_stops_at_first_full_sibling(self, oktopus):
        ledger, placer, tor, servers = oktopus
        for server in servers[2:]:
            self._fill(ledger, server, 4)
        allocation = TenantAllocation(self._hose(20, 100.0), ledger)
        (cluster,) = _cluster_plan(allocation.tag)
        examined = []
        count_id = allocation.count_id

        def spy(node_id, tier):
            examined.append(node_id)
            return count_id(node_id, tier)

        allocation.count_id = spy
        placed = placer._alloc_cluster(allocation, cluster, 10, tor.node_id, tor)
        assert placed == 8
        assert set(examined) == {servers[0].node_id, servers[1].node_id}


class TestSecondNetPaths:
    def test_path_links_same_rack(self, small_datacenter):
        placer = SecondNetPlacer(Ledger(small_datacenter))
        tor = small_datacenter.level_nodes(1)[0]
        a, b = list(small_datacenter.servers_under(tor))[:2]
        links = placer._path_links(a, b)
        # One hop up from a, one hop down to b.
        assert {(n.name, up) for n, up in links} == {
            (a.name, True),
            (b.name, False),
        }

    def test_path_links_cross_pod(self, small_datacenter):
        placer = SecondNetPlacer(Ledger(small_datacenter))
        pods = small_datacenter.level_nodes(2)
        src = next(iter(small_datacenter.servers_under(pods[0])))
        dst = next(iter(small_datacenter.servers_under(pods[1])))
        links = placer._path_links(src, dst)
        ups = [n.level for n, up in links if up]
        downs = [n.level for n, up in links if not up]
        # server+tor+agg up on the source side, mirrored down on the dest.
        assert sorted(ups) == [0, 1, 2]
        assert sorted(downs) == [0, 1, 2]

    def test_hops_heuristic_ordering(self, small_datacenter):
        placer = SecondNetPlacer(Ledger(small_datacenter))
        tor_a = small_datacenter.level_nodes(1)[0]
        tor_far = small_datacenter.level_nodes(1)[-1]
        server = next(iter(small_datacenter.servers_under(tor_a)))
        assert placer._hops(tor_a, server) < placer._hops(tor_far, server)


class TestSubtreeChoice:
    def test_invalid_choice_rejected(self, small_ledger):
        with pytest.raises(ValueError):
            CloudMirrorPlacer(small_ledger, subtree_choice="random")

    def test_best_fit_prefers_fuller_subtree(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger)
        # Occupy half of rack 0 so it becomes the tighter fit.
        from repro.topology.ledger import Journal

        tor0 = small_datacenter.level_nodes(1)[0]
        servers0 = list(small_datacenter.servers_under(tor0))
        for server in servers0[:8]:
            ledger.reserve_slots(server, 4, Journal())
        tag = Tag("t")
        tag.add_component("a", 16)
        chosen = placer._find_lowest_subtree(tag, 1)
        assert chosen is tor0  # 32 free slots beats the untouched racks

    def test_most_free_prefers_empty_subtree(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger, subtree_choice="most-free")
        from repro.topology.ledger import Journal

        tor0 = small_datacenter.level_nodes(1)[0]
        for server in list(small_datacenter.servers_under(tor0))[:8]:
            ledger.reserve_slots(server, 4, Journal())
        tag = Tag("t")
        tag.add_component("a", 16)
        chosen = placer._find_lowest_subtree(tag, 1)
        assert chosen is not tor0


class TestExternalDemandPath:
    def test_insufficient_root_path_rejects_candidate(self, small_datacenter):
        ledger = Ledger(small_datacenter)
        placer = CloudMirrorPlacer(ledger)
        tag = Tag("edge")
        tag.add_component("web", 2)
        tag.add_component("internet", external=True)
        # More external demand than the ToR uplink (1000*16/4 = 4000).
        tag.add_edge("web", "internet", send=3000.0, recv=3000.0)
        demand = placer._external_demand(tag)
        assert demand.out == pytest.approx(6000.0)
        tor = small_datacenter.level_nodes(1)[0]
        assert not placer._root_path_available(tor, demand)
