"""The improved Oktopus placer for VC / VOC models (paper §5 baseline).

Oktopus [Ballani et al., SIGCOMM 2011] places Virtual Clusters by greedily
packing VMs into the lowest subtree whose links can carry the hose
crossing ``min(m, N - m) * B``.  The paper's authors "substantially
improved" it before using it as a baseline, and this implementation adopts
the same three improvements (§5):

* handle the case when an allocation fails part-way (rollback and
  escalate, instead of failing the tenant outright),
* place the clusters of one VOC under a common subtree to localize
  inter-cluster traffic,
* generalize VOC to arbitrary per-cluster sizes, hose and core bandwidth.

Bandwidth is reserved with the footnote-7 VOC requirement — the
abstraction under test pays for its own aggregation — using the same
exact-recompute machinery as CloudMirror, so the comparison isolates the
model + placement strategy rather than bookkeeping details.
"""

from __future__ import annotations

import weakref
from operator import itemgetter
from typing import NamedTuple

from repro.core.tag import Tag
from repro.models.voc import voc_from_tag, voc_uplink_requirement
from repro.placement.base import Placement, PlacementResult, Rejection
from repro.placement.ha import HaPolicy, tier_cap_left
from repro.placement.state import TenantAllocation
from repro.topology.ledger import Ledger
from repro.topology.tree import Node

__all__ = ["OktopusPlacer"]


class _Cluster(NamedTuple):
    """One VOC cluster as the VC walk sees it."""

    name: str
    size: int
    bandwidth: float  # per-VM hose: intra-cluster plus inter-cluster


# Per-tag cluster plans, keyed weakly like the compiled requirements in
# repro.placement.state: the figure loops place the same ~80 pool tags
# thousands of times, and a plan is a pure function of the tag.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Tag, tuple[_Cluster, ...]]" = (
    weakref.WeakKeyDictionary()
)

_FREE = itemgetter(0)


def _cluster_plan(tag: Tag) -> tuple[_Cluster, ...]:
    """The VOC clusters of ``tag`` in placement order, biggest demand first.

    A VM's hose must carry its intra-cluster and inter-cluster traffic
    (Fig. 2(b): the hose aggregates all destinations), so the per-VM
    bandwidth the VC placement reasons about is ``hose_bw +
    max(core_out, core_in)``; demand is ``size * bandwidth``, ties broken
    by size and then by TAG component order.
    """
    plan = _PLAN_CACHE.get(tag)
    if plan is None:
        clusters = [
            _Cluster(c.name, c.size, c.hose_bw + max(c.core_out, c.core_in))
            for c in voc_from_tag(tag).clusters
        ]
        clusters.sort(key=lambda c: (c.size * c.bandwidth, c.size), reverse=True)
        plan = _PLAN_CACHE[tag] = tuple(clusters)
    return plan


class OktopusPlacer:
    """Places tenants by converting their TAG to a generalized VOC."""

    def __init__(
        self,
        ledger: Ledger,
        *,
        ha: HaPolicy | None = None,
        use_candidate_index: bool = True,
    ) -> None:
        self.ledger = ledger
        self.topology = ledger.topology
        self.ha = ha or HaPolicy()
        # Incrementally-maintained subtree candidate order; ``False``
        # falls back to the full per-level scan (the lockstep baseline).
        self._index = ledger.ensure_candidate_index() if use_candidate_index else None

    def place(self, tag: Tag) -> PlacementResult:
        if tag.size > self.ledger.free_slots(self.topology.root):
            return Rejection(tag, "not enough free VM slots in the datacenter")
        plan = _cluster_plan(tag)
        allocation = TenantAllocation(tag, self.ledger, voc_uplink_requirement)
        subtree = self._find_lowest_subtree(tag)
        while subtree is not None:
            savepoint = allocation.savepoint()
            if self._alloc_tenant(allocation, plan, subtree):
                if not self.ledger.has_overcommit() and allocation.finalize(subtree):
                    return Placement(allocation)
            allocation.rollback(savepoint)
            if subtree.is_root:
                break
            subtree = self._find_lowest_subtree(tag, subtree.level + 1)
        return Rejection(tag, "no subtree could satisfy the VOC request")

    # ------------------------------------------------------------------
    def _find_lowest_subtree(self, tag: Tag, min_level: int = 0) -> Node | None:
        """Lowest-level best-fit subtree with enough aggregate free slots."""
        size = tag.size
        index = self._index
        if index is not None:
            for level in range(min_level, self.topology.num_levels):
                node_id = index.best_fit(level, size)
                if node_id is not None:
                    return self.ledger.flat.node_of[node_id]
            return None
        free_slots_id = self.ledger.free_slots_id
        for level in range(min_level, self.topology.num_levels):
            best: Node | None = None
            best_free = 0
            for node in self.topology.level_nodes(level):
                free = free_slots_id(node.node_id)
                if free < size:
                    continue
                if best is None or free < best_free:
                    best = node
                    best_free = free
            if best is not None:
                return best
        return None

    def _alloc_tenant(
        self,
        allocation: TenantAllocation,
        plan: tuple[_Cluster, ...],
        subtree: Node,
    ) -> bool:
        """Place every cluster of ``plan`` under ``subtree``, in order."""
        for cluster in plan:
            placed = self._alloc_cluster(
                allocation, cluster, cluster.size, subtree.node_id, subtree
            )
            if placed < cluster.size:
                return False
            if self.ledger.has_overcommit():
                return False
        return True

    def _alloc_cluster(
        self,
        allocation: TenantAllocation,
        cluster: _Cluster,
        want: int,
        node_id: int,
        ceiling: Node,
    ) -> int:
        """Greedy Oktopus allocation of ``want`` VMs of one cluster.

        Prefers a single child that can host the whole remainder (best-fit
        to keep large holes intact), otherwise fills children in
        decreasing free-slot order under the VC hose constraint: a
        subtree holding ``m`` of the cluster's ``N`` VMs must carry
        ``min(m, N - m) * B`` on its uplink.  That crossing first rises
        with ``m`` then falls, so a child takes either every VM it is
        offered or the low ascending range ``available / B - here``.
        Returns the number of VMs placed.
        """
        ledger = self.ledger
        flat = ledger.flat
        tier, size, bandwidth = cluster
        ha = self.ha
        guarded = ha.guarantees_wcs
        if flat.is_server[node_id]:
            count = min(want, ledger.slot_cap[node_id] - ledger.used_slots_id(node_id))
            server = flat.node_of[node_id]
            if guarded:
                count = min(count, tier_cap_left(ha, allocation, server, tier))
            if count <= 0 or not allocation.place(server, tier, count, ceiling):
                return 0
            return count
        available_up_id = ledger.available_up_id
        available_down_id = ledger.available_down_id
        count_id = allocation.count_id
        children = flat.children_ids[node_id]
        # (free, child) by free slots, most first; the sort is stable, so
        # ties keep child order.  Only the child being filled changes, so
        # every later child still holds its free count from here.
        ranked = sorted(
            zip(map(ledger.free_slots_id, children), children),
            key=_FREE,
            reverse=True,
        )
        # Best-fit whole-remainder target: the first hose-feasible child
        # of the smallest free count that still holds ``want`` (a later
        # child of the target's free count cannot displace it).
        target = -1
        best = 0
        for position, (free, child_id) in enumerate(ranked):
            if free < want:
                break
            if target >= 0 and free >= best:
                continue
            if bandwidth:
                here = count_id(child_id, tier) + want
                crossing = min(here, size - here) * bandwidth
                if crossing and crossing > min(
                    max(0.0, available_up_id(child_id)),
                    max(0.0, available_down_id(child_id)),
                ):
                    continue
            target = position
            best = free
        if target > 0:
            ranked.insert(0, ranked.pop(target))
        placed = 0
        for free, child_id in ranked:
            if free <= 0:  # so is every later child
                break
            count = want - placed
            if free < count:
                count = free
            if guarded:
                cap = tier_cap_left(ha, allocation, flat.node_of[child_id], tier)
                if cap < count:
                    if cap <= 0:
                        continue
                    count = cap
            if bandwidth:
                here = count_id(child_id, tier)
                crossing = min(here + count, size - here - count) * bandwidth
                if crossing:
                    available = min(
                        max(0.0, available_up_id(child_id)),
                        max(0.0, available_down_id(child_id)),
                    )
                    if crossing > available:
                        count = min(count, int(available / bandwidth) - here)
                        if count <= 0:
                            continue
            got = self._alloc_cluster(allocation, cluster, count, child_id, ceiling)
            if got:
                placed += got
                if placed >= want:
                    break
        return placed
