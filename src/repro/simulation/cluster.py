"""Cluster manager: drives a placer through arrival/departure streams.

Separates the event mechanics (heap of pending departures, metric
accounting, WCS sampling) from the placement algorithms, so the same loop
runs CloudMirror, Oktopus and SecondNet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.obs import core as obs
from repro.placement.base import Placement, Rejection
from repro.placement.ha import allocation_wcs
from repro.simulation.arrivals import Arrival
from repro.simulation.metrics import RunMetrics, UtilizationSample
from repro.topology.ledger import Ledger

__all__ = ["ClusterManager", "run_arrival_departure", "run_arrivals_until_full"]


def unexpected_result(placer, result) -> SimulationError:
    """The error an event loop raises when a placer breaks its protocol."""
    return SimulationError(
        f"{type(placer).__name__}.place returned {type(result).__name__}, "
        "expected a Placement or a Rejection"
    )


@dataclass(frozen=True)
class _Departure:
    time: float
    sequence: int
    allocation: object

    def __lt__(self, other: "_Departure") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)


class ClusterManager:
    """Admits and releases tenants against one shared ledger."""

    def __init__(
        self,
        ledger: Ledger,
        placer,
        *,
        laa_level: int = 0,
        collect_wcs: bool = True,
        collect_utilization: bool = True,
    ) -> None:
        self.ledger = ledger
        self.placer = placer
        self.laa_level = laa_level
        self.collect_wcs = collect_wcs
        self.collect_utilization = collect_utilization
        self.metrics = RunMetrics()
        # Keyed by object identity so departures are O(1) instead of an
        # O(n) list scan — long arrival/departure runs used to go
        # quadratic in live tenants.  Insertion order is preserved, so
        # iteration over ``active`` matches the old list's order.
        self._active: dict[int, object] = {}

    @property
    def active(self) -> list[object]:
        """Live allocations, in admission order."""
        return list(self._active.values())

    def admit(self, tag: Tag):
        """Place one tenant, updating metrics; returns the result."""
        self.metrics.record_arrival(tag.size, tag.total_bandwidth)
        # obs.timed measures with perf_counter either way and doubles as
        # a "place" span when a trial trace is being recorded.
        with obs.timed("place") as timer:
            result = self.placer.place(tag)
        self.metrics.runtime_seconds += timer.seconds
        if isinstance(result, Rejection):
            self.metrics.record_rejection(tag.size, tag.total_bandwidth)
            self._sample_utilization()
            return result
        if not isinstance(result, Placement):
            raise unexpected_result(self.placer, result)
        self._active[id(result.allocation)] = result.allocation
        if self.collect_wcs:
            self._sample_wcs(result.allocation)
        self._sample_utilization()
        return result

    def depart(self, allocation) -> None:
        if id(allocation) not in self._active:
            raise KeyError("departing allocation is not active")
        allocation.release()
        del self._active[id(allocation)]

    def _sample_utilization(self) -> None:
        # The bandwidth sample walks every finite-capacity server, which
        # dominates placement itself on large topologies; benchmarks that
        # only care about placement throughput switch it off.
        if not self.collect_utilization:
            return
        topology = self.ledger.topology
        total_slots = topology.total_slots
        slot_fraction = 1.0 - self.ledger.free_slots(topology.root) / total_slots
        # Sampled after *every* admission: the ledger sums its flat
        # usage array over a precomputed finite-capacity server id list
        # instead of walking Node objects.
        bandwidth_fraction = self.ledger.server_bandwidth_fraction()
        self.metrics.utilization.append(
            UtilizationSample(slot_fraction, bandwidth_fraction)
        )

    def _sample_wcs(self, allocation) -> None:
        try:
            per_tier = allocation_wcs(allocation, self.laa_level)
        except (AttributeError, ValueError):  # pipe allocations, size-0 tiers
            return
        for tier, wcs in per_tier.items():
            # Single-VM tiers cannot survive any fault-domain failure; the
            # WCS statistics follow [11] and cover multi-VM components.
            if allocation.tag.component(tier).size > 1:
                self.metrics.wcs.add(wcs)


def run_arrival_departure(
    manager: ClusterManager, arrivals: Sequence[Arrival], pool: Sequence[Tag]
) -> RunMetrics:
    """Standard §5.1 loop: Poisson arrivals, exponential departures."""
    departures: list[_Departure] = []
    sequence = 0
    for arrival in arrivals:
        while departures and departures[0].time <= arrival.time:
            manager.depart(heapq.heappop(departures).allocation)
        result = manager.admit(pool[arrival.tenant_index])
        if isinstance(result, Placement):
            sequence += 1
            heapq.heappush(
                departures,
                _Departure(arrival.time + arrival.dwell, sequence, result.allocation),
            )
    return manager.metrics


def run_arrivals_until_full(
    manager: ClusterManager,
    pool: Sequence[Tag],
    indices: Sequence[int],
    *,
    stop_on_rejection: bool = True,
) -> list[int]:
    """Table 1 loop: arrivals only, stop at the first rejection.

    Returns the indices of accepted tenants (so a second algorithm can be
    fed exactly the same accepted set, as the paper does).
    """
    accepted: list[int] = []
    for index in indices:
        result = manager.admit(pool[index])
        if isinstance(result, Rejection):
            if stop_on_rejection:
                break
        else:
            accepted.append(index)
    return accepted
