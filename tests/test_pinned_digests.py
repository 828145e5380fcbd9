"""Pinned SHA-256 digests of exact outputs on fixed inputs.

Each digest hashes the exact ``repr`` of one output — a placement's
per-server layout, Fig. 13 guarantees and rates, max-min rates, or a
temporal admission stream's outcomes plus its ledger fingerprint — so a
one-ulp drift in any float or one moved VM fails the test.  The digests
were generated at commit 387e0e6 from the frozen seed implementations
that the before/after benches then carried (the dict-backed ledger and
the three placers over it, the scalar max-min kernel with its
enforcement model and dynamics loop, and the W-``Ledger``-planes
temporal facade), after asserting that each output equalled the live
code's exactly.  Those copies are gone; these pins keep their parity
checks in tier-1, under both kernel backends.

The Oktopus churn digests (accept/reject sequence, ledger fingerprint,
utilization and WCS samples of the Figs. 7-12 figure loop at paper
scale) were generated at commit fc8f9a1, before the placer's VC walk
was flattened into one pass per subtree, and pin that rewrite as
decision-for-decision identical.

The layers with a line-for-line reference also have randomized lockstep
suites: ``ReferenceLedger`` in ``tests/topology/test_flat_equivalence.py``,
``ReferenceTemporalLedger`` in
``tests/temporal/test_temporal_equivalence.py`` and ``reference_maxmin``
in ``tests/enforcement/test_maxmin_equivalence.py``.

``benchmarks/test_bench_temporal_enforcement.py`` times the enforcement
and temporal inputs built here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.tag import Tag
from repro.enforcement.dynamics import ElasticSwitchDynamics
from repro.enforcement.elasticswitch import PairFlow, enforce
from repro.enforcement.maxmin import FlowSpec, maxmin_rates
from repro.placement.base import Placement
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer
from repro.placement.ha import HaPolicy
from repro.placement.secondnet import SecondNetPlacer
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.cluster import ClusterManager, run_arrival_departure
from repro.simulation.service import ledger_fingerprint
from repro.temporal.admission import TemporalCluster
from repro.temporal.profile import TemporalTag, diurnal_profile
from repro.topology.builder import (
    DatacenterSpec,
    PodSpec,
    RackSpec,
    heterogeneous_tree,
    three_level_tree,
)
from repro.topology.ledger import Ledger
from repro.workloads.bing import bing_pool
from repro.workloads.patterns import mapreduce, three_tier
from repro.workloads.scaling import scale_pool


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ----------------------------------------------------------------------
# Single-tenant placement on an empty 2-pod tree (the runtime scenario)
# ----------------------------------------------------------------------

PLACERS = {
    "cm": CloudMirrorPlacer,
    "ovoc": OktopusPlacer,
    "secondnet": SecondNetPlacer,
}

PLACEMENT = {
    ("cm", 25): "c83d18474dc7c1989465d3926d0f31e0aa8b4805d7a5b8c455cdc88de25bb39f",
    ("cm", 100): "171aaca8f10090778d6ba5a5852b480784c8637fc3662b269e16d9b5bf7147db",
    ("cm", 400): "79fb5a42bbb98a37a83b605f95177f975700a8d3578bc22fbdc051d8393e0889",
    ("cm", 1000): "a4b280ab9ef267102dec4a490137203507a2654301d9144ee9409006acb26d1c",
    ("ovoc", 25): "c83d18474dc7c1989465d3926d0f31e0aa8b4805d7a5b8c455cdc88de25bb39f",
    ("ovoc", 100): "bc794e8daf176a82d79f5dad509911fa1b048059de687c90a9a64219f5df9c73",
    ("ovoc", 400): "8dd38d1cfb1fd9b7daf2048651759c00707c37f55489d17dcde69e7c8d875a27",
    ("ovoc", 1000): "d5feaf829c444494ca3e1d6be16f4bfce85ae9f9d787c7616e2202cd4a51ddea",
    ("secondnet", 25): "3b4af695a162f996b019e13fd6c9e1ae5c405f770e40f186d097c90f379dbbf2",
    ("secondnet", 100): "a842060f0874a02264df8b65d81f110292bfa9c4d9122abaeb12a48108fcc75a",
}


def _tenant(vms: int) -> Tag:
    third = max(1, vms // 3)
    return three_tier(
        f"rt-{vms}", (vms - 2 * third, third, third), b1=200.0, b2=50.0, b3=20.0
    )


def _layout(result) -> object:
    """Canonical per-server VM layout of a placement (or the rejection)."""
    if not isinstance(result, Placement):
        return "rejected"
    return sorted(
        (server.node_id, tuple(sorted(counts.items())))
        for server, counts in result.allocation.iter_server_placements()
    )


@pytest.fixture(scope="module")
def runtime_topology():
    return three_level_tree(DatacenterSpec(pods=2))


@pytest.mark.parametrize(
    "algorithm, vms", list(PLACEMENT), ids=[f"{a}-{v}" for a, v in PLACEMENT]
)
def test_placement_layout(runtime_topology, algorithm, vms):
    placer = PLACERS[algorithm](Ledger(runtime_topology))
    layout = _layout(placer.place(_tenant(vms)))
    assert _digest(layout) == PLACEMENT[algorithm, vms]


# ----------------------------------------------------------------------
# Fig. 13 enforcement, the raw max-min kernel and the dynamics loop
# ----------------------------------------------------------------------

ENFORCE = {
    ("tag", 50): "0e3d779aaa0aae897eb58c30db85fdcca8098293d8febaf823b5f706776d85b9",
    ("hose", 50): "db34a607bef293d6d09210c9ad699f1fb3329e68d95df8f2f1e6caa3fd8f8cc2",
    ("tag", 200): "f65d5d658dbd86b6f0542b977c04011873d856ba315c240d58ca8eca987a20af",
    ("hose", 200): "dada4994bb42595dfd05d4781459b2f65bb352bc53bc3416c9b0679971054b8d",
    ("tag", 800): "1e802f280e426ac51d9686861f8bee7557d2fa7e62c416a74bc4adf9b37a95a4",
    ("hose", 800): "7f03c18e6bd435ba7ca9fe3b6866a76235151a5038fd1dba2b51f2523baeaf85",
}
CHAIN_800 = "8dedb69a807d3a5e3f12a917b2f0866e73abafc5adef89c488c58a53ef100277"
DYNAMICS_200X30 = "1e3f2af63187813960c44b14ac8ecd2f2c24181da646ff9448e89f31cb36a5b4"


def fig13_inputs(senders: int, guarantee: float = 450.0):
    """The Fig. 13 TAG and flow set with ``senders`` C2 senders."""
    tag = Tag("fig13")
    tag.add_component("C1", size=1)
    tag.add_component("C2", size=max(2, senders + 1))
    tag.add_edge("C1", "C2", send=guarantee, recv=guarantee)
    tag.add_self_loop("C2", guarantee)
    flows = [PairFlow("C1", 0, "C2", 0, links=("into-Z",))]
    flows.extend(
        PairFlow("C2", sender + 1, "C2", 0, links=("into-Z",))
        for sender in range(senders)
    )
    return tag, flows, {"into-Z": 1000.0}


@pytest.mark.parametrize(
    "mode, senders", list(ENFORCE), ids=[f"{m}-{s}" for m, s in ENFORCE]
)
def test_fig13_enforcement(mode, senders):
    result = enforce(*fig13_inputs(senders), mode=mode)
    assert _digest((result.guarantees, result.rates)) == ENFORCE[mode, senders]


def test_maxmin_parking_lot_chain():
    # Many rounds: every flow crosses three consecutive distinct links.
    n = 800
    capacities = {i: 100.0 + 7.0 * i for i in range(n)}
    flows = [FlowSpec(tuple(range(i, min(i + 3, n)))) for i in range(n)]
    assert _digest(maxmin_rates(flows, capacities)) == CHAIN_800


def test_dynamics_final_rates():
    tag, flows, capacities = fig13_inputs(200)
    dynamics = ElasticSwitchDynamics(tag, capacities, mode="tag")
    for flow in flows:
        dynamics.add_flow(flow)
    assert _digest(dynamics.run(30)[-1].rates) == DYNAMICS_200X30


# ----------------------------------------------------------------------
# Temporal admission over W windows (60 alternating day/night tenants)
# ----------------------------------------------------------------------

TEMPORAL = {
    4: "e828b701b5035340fb0d19bf61af89063f82370df66fa416fbe9ac6df04aafa9",
    12: "249238137725ef70a6d28c6ecc2152bfbea4461fdde41af6a4471ac9fbb30b56",
    24: "23c39b9ff9a7b126ea31bbe3be2cfece27f790e75834e9958610fb9373e3d09c",
}

TEMPORAL_SPEC = DatacenterSpec(
    servers_per_rack=8,
    racks_per_pod=4,
    pods=2,
    slots_per_server=4,
    server_uplink=2000.0,
    tor_oversub=4.0,
    agg_oversub=4.0,
)


def temporal_tenants(windows: int) -> list[TemporalTag]:
    day = diurnal_profile(windows, peak_window=windows // 3, trough=0.2)
    night = diurnal_profile(
        windows, peak_window=windows // 3 + windows // 2, trough=0.2
    )
    tenants = []
    for i in range(60):
        if i % 2 == 0:
            base = three_tier(f"web-{i}", (4, 4, 2), 675.0, 225.0, 60.0)
            profile = day
        else:
            base = mapreduce(f"batch-{i}", 6, 3, 600.0, intra_bw=240.0)
            profile = night
        tenants.append(TemporalTag(base, profile))
    return tenants


@pytest.mark.parametrize("windows", list(TEMPORAL), ids=[f"W{w}" for w in TEMPORAL])
def test_temporal_admission_stream(windows):
    cluster = TemporalCluster(TEMPORAL_SPEC, windows=windows)
    outcomes = [cluster.admit(t) is not None for t in temporal_tenants(windows)]
    pinned = (outcomes, ledger_fingerprint(cluster.ledger))
    assert _digest(pinned) == TEMPORAL[windows]


# ----------------------------------------------------------------------
# Paper-scale Oktopus churn through the figure loop (Figs. 7-12)
# ----------------------------------------------------------------------

OVOC_CHURN = {
    "plain": "10ad719e10ac41b056c1545e41f31bd549b2db8e7dfba9b8cce02f0fde6e3ff9",
    "ha": "17ca67e97b0691767f8470cb4eec97eda161ef28ba93ec4d3fedcc17a73bb55d",
    "hetero": "e5b38946f989b119b9e080dfcbf810d748538828d04a0bc9a9565b519d585b64",
}
CHURN_ARRIVALS = 1500


def _churn_fabric(variant: str):
    if variant != "hetero":
        return three_level_tree(DatacenterSpec(pods=2))
    # Uneven child counts at every switch level, and racks of differing
    # slots and NICs, so sibling orderings break ties differently.
    return heterogeneous_tree(
        (
            PodSpec(
                racks=(
                    RackSpec(servers=32),
                    RackSpec(servers=20, slots_per_server=16),
                    RackSpec(servers=27, server_uplink=4_000.0),
                    RackSpec(servers=32),
                    RackSpec(servers=9, slots_per_server=40),
                )
            ),
            PodSpec(
                racks=(RackSpec(servers=24),) * 7 + (RackSpec(servers=13),),
                agg_oversub=4.0,
            ),
            PodSpec(racks=(RackSpec(servers=32, slots_per_server=12),) * 3),
        )
    )


class _DecisionLog:
    """A placer wrapper that records every accept / reject in order."""

    def __init__(self, placer) -> None:
        self.placer = placer
        self.accepts: list[bool] = []

    def place(self, tag):
        result = self.placer.place(tag)
        self.accepts.append(isinstance(result, Placement))
        return result


@pytest.mark.parametrize("variant", list(OVOC_CHURN))
def test_ovoc_figure_loop_churn(variant):
    """Bing pool at bmax 800, load 0.9, Poisson churn, seed 0."""
    topology = _churn_fabric(variant)
    pool = list(scale_pool(bing_pool(), 800.0))
    arrivals = poisson_arrivals(
        pool, CHURN_ARRIVALS, 0.9, topology.total_slots, seed=0
    )
    ha = HaPolicy(required_wcs=0.5, laa_level=0) if variant == "ha" else None
    ledger = Ledger(topology)
    log = _DecisionLog(OktopusPlacer(ledger, ha=ha))
    metrics = run_arrival_departure(ClusterManager(ledger, log), arrivals, pool)
    pinned = (
        log.accepts,
        ledger_fingerprint(ledger),
        [(s.slot_fraction, s.bandwidth_fraction) for s in metrics.utilization],
        metrics.wcs.values,
    )
    assert _digest(pinned) == OVOC_CHURN[variant]
