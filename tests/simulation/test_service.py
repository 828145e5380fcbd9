"""The cohort-batched service loop: differential parity and O(1) memory.

The load-bearing suite is differential: for every placer the repo ships,
:class:`~repro.simulation.service.ServiceLoop` at cohort size 1 *and* at
a large cohort must produce the bit-identical accept/reject sequence and
ledger end-state as the per-event :class:`ClusterManager` loop on the
same arrival list.  The loop is a performance restructuring — any
decision drift is a bug, not a tradeoff.
"""

from __future__ import annotations

import heapq

import pytest

from repro.errors import SimulationError
from repro.obs import core as obs
from repro.placement.ha import HaPolicy
from repro.placement.base import Rejection
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.cluster import ClusterManager
from repro.simulation.runner import make_placer
from repro.simulation.service import (
    LatencyHistogram,
    RejectionWindow,
    ServiceLoop,
    StreamingServiceMetrics,
    ledger_fingerprint,
)
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.bing import bing_pool
from repro.workloads.patterns import three_tier
from repro.workloads.scaling import scale_pool

SPEC = DatacenterSpec(servers_per_rack=8, racks_per_pod=4, pods=2)


def _pool():
    return [
        three_tier(
            f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=150.0, b2=60.0, b3=30.0
        )
        for i in range(8)
    ]


def _events(pool, count=400, load=1.4, seed=11):
    topology = three_level_tree(SPEC)
    return poisson_arrivals(pool, count, load, topology.total_slots, seed=seed)


def _per_event_run(placer_name, pool, events, ha=None):
    """The reference: ClusterManager driven one event at a time."""
    ledger = Ledger(three_level_tree(SPEC))
    manager = ClusterManager(
        ledger, make_placer(placer_name, ledger, ha), collect_wcs=False
    )
    decisions = []
    departures: list[tuple[float, int, object]] = []
    sequence = 0
    for arrival in events:
        while departures and departures[0][0] <= arrival.time:
            manager.depart(heapq.heappop(departures)[2])
        result = manager.admit(pool[arrival.tenant_index])
        accepted = not isinstance(result, Rejection)
        decisions.append(accepted)
        if accepted:
            sequence += 1
            heapq.heappush(
                departures,
                (arrival.time + arrival.dwell, sequence, result.allocation),
            )
    return decisions, ledger_fingerprint(ledger), manager.metrics


def _service_run(placer_name, pool, events, *, cohort, ha=None):
    ledger = Ledger(three_level_tree(SPEC))
    placer = make_placer(placer_name, ledger, ha)
    decisions = []
    loop = ServiceLoop(
        ledger, placer, pool, cohort=cohort, on_decision=decisions.append
    )
    report = loop.run(events)
    return decisions, ledger_fingerprint(ledger), report


class TestDifferentialParity:
    @pytest.mark.parametrize("placer_name", ["cm", "ovoc", "secondnet"])
    @pytest.mark.parametrize("cohort", [1, 64])
    def test_bit_identical_to_per_event_loop(self, placer_name, cohort):
        pool = _pool()
        events = _events(pool)
        expected, end_state, _ = _per_event_run(placer_name, pool, events)
        decisions, fingerprint, report = _service_run(
            placer_name, pool, events, cohort=cohort
        )
        assert decisions == expected
        assert fingerprint == end_state
        assert report["arrivals"] == len(events)
        assert report["accepted"] == sum(expected)
        assert report["rejected"] == len(expected) - sum(expected)

    @pytest.mark.parametrize("cohort", [1, 64])
    def test_ha_policy_parity(self, cohort):
        ha = HaPolicy(required_wcs=0.5, laa_level=0)
        pool = _pool()
        events = _events(pool)
        expected, end_state, _ = _per_event_run("cm", pool, events, ha=ha)
        decisions, fingerprint, _ = _service_run(
            "cm", pool, events, cohort=cohort, ha=ha
        )
        assert decisions == expected
        assert fingerprint == end_state

    @pytest.mark.parametrize("cohort", [1, 64])
    def test_opportunistic_ha_parity(self, cohort):
        # cm+oppHA steers its search by a running mean over every tenant
        # it has seen, so arrivals the root gate would bounce must still
        # reach place().  On this input the gated loop accepts the same
        # tenants but places them differently.
        ha = HaPolicy(opportunistic=True, laa_level=0)
        pool = scale_pool(bing_pool(), 800.0)
        events = _events(pool, count=150, load=3.0, seed=0)
        expected, end_state, _ = _per_event_run("cm", pool, events, ha=ha)
        decisions, fingerprint, _ = _service_run(
            "cm", pool, events, cohort=cohort, ha=ha
        )
        assert decisions == expected
        assert fingerprint == end_state

    def test_counts_match_reference_metrics(self):
        pool = _pool()
        events = _events(pool)
        _, _, reference = _per_event_run("cm", pool, events)
        _, _, report = _service_run("cm", pool, events, cohort=32)
        assert report["arrivals"] == reference.tenants_total
        assert report["rejected"] == reference.tenants_rejected
        assert report["vms_total"] == reference.vms_total
        assert report["vms_rejected"] == reference.vms_rejected
        assert report["bw_total"] == pytest.approx(reference.bw_total)
        assert report["bw_rejected"] == pytest.approx(reference.bw_rejected)
        assert report["rejection_rate"] == pytest.approx(
            reference.tenant_rejection_rate
        )


class TestStreamingMemory:
    def _footprint_after(self, count):
        pool = _pool()
        events = _events(pool, count=count, load=2.0)
        ledger = Ledger(three_level_tree(SPEC))
        loop = ServiceLoop(
            ledger, make_placer("cm", ledger), pool, cohort=32, heartbeat=128
        )
        loop.run(events)
        return loop.metrics.footprint()

    def test_footprint_independent_of_event_count(self):
        # The O(1)-memory claim: a 10x longer run stores not one more
        # scalar than a short one.
        assert self._footprint_after(200) == self._footprint_after(2000)

    def test_metrics_gauges_exported(self):
        pool = _pool()
        events = _events(pool, count=300)
        with obs.enabled_scope() as counters:
            ledger = Ledger(three_level_tree(SPEC))
            loop = ServiceLoop(
                ledger, make_placer("cm", ledger), pool, cohort=16, heartbeat=64
            )
            loop.run(events)
            assert counters["service.metrics_entries"] == loop.metrics.footprint()
            # The persistent index footprint is O(topology), not O(events).
            assert counters["service.index_entries"] > 0

    def test_index_is_built_once_per_level(self):
        pool = _pool()
        events = _events(pool, count=400, load=1.8)
        with obs.enabled_scope() as counters:
            ledger = Ledger(three_level_tree(SPEC))
            loop = ServiceLoop(ledger, make_placer("cm", ledger), pool, cohort=32)
            loop.run(events)
            # Dirty-bit repair, never a rebuild: one build per level
            # across hundreds of arrivals and departures.
            assert counters["candidates.level_builds"] <= ledger.topology.num_levels

    def test_report_on_empty_stream(self):
        pool = _pool()
        ledger = Ledger(three_level_tree(SPEC))
        loop = ServiceLoop(ledger, make_placer("cm", ledger), pool)
        report = loop.run([])
        assert report["arrivals"] == 0
        assert report["rejection_rate"] == 0.0
        assert report["timing"]["p50_place_ms"] == 0.0


class TestServiceLoopValidation:
    def test_rejects_bad_parameters(self):
        ledger = Ledger(three_level_tree(SPEC))
        placer = make_placer("cm", ledger)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, _pool(), cohort=0)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, _pool(), heartbeat=0)
        with pytest.raises(SimulationError):
            ServiceLoop(ledger, placer, [])


class _NonePlacer:
    """A placer that breaks the protocol: it returns neither outcome."""

    def place(self, tag):
        return None


class TestPlacerProtocolErrors:
    PROTOCOL_ERROR = r"_NonePlacer\.place returned NoneType"

    def test_service_loop_names_placer_and_result(self):
        ledger = Ledger(three_level_tree(SPEC))
        pool = _pool()
        loop = ServiceLoop(ledger, _NonePlacer(), pool)
        with pytest.raises(SimulationError, match=self.PROTOCOL_ERROR):
            loop.run(_events(pool, count=10))

    def test_cluster_manager_names_placer_and_result(self):
        ledger = Ledger(three_level_tree(SPEC))
        manager = ClusterManager(ledger, _NonePlacer())
        with pytest.raises(SimulationError, match=self.PROTOCOL_ERROR):
            manager.admit(_pool()[0])


class TestLatencyHistogram:
    def test_quantiles_track_inserted_scale(self):
        histogram = LatencyHistogram()
        for _ in range(95):
            histogram.add(1e-4)
        for _ in range(5):
            histogram.add(1e-1)
        assert histogram.quantile(0.5) == pytest.approx(1e-4, rel=0.5)
        assert histogram.quantile(0.99) == pytest.approx(1e-1, rel=0.5)
        assert histogram.mean == pytest.approx((95 * 1e-4 + 5 * 1e-1) / 100)

    def test_under_and_overflow_buckets(self):
        histogram = LatencyHistogram(buckets=8, lo=1e-3, hi=1.0)
        histogram.add(1e-9)
        histogram.add(50.0)
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1
        assert histogram.quantile(0.0) == pytest.approx(5e-4)
        assert histogram.quantile(1.0) == 1.0

    def test_empty_and_validation(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        assert histogram.mean == 0.0
        with pytest.raises(SimulationError):
            histogram.quantile(1.5)
        with pytest.raises(SimulationError):
            LatencyHistogram(buckets=2)

    def test_footprint_constant(self):
        histogram = LatencyHistogram()
        before = histogram.footprint()
        for i in range(10_000):
            histogram.add(1e-6 * (i + 1))
        assert histogram.footprint() == before


class TestRejectionWindow:
    def test_windowed_rate_forgets_old_decisions(self):
        window = RejectionWindow(size=4)
        for _ in range(4):
            window.add(True)
        assert window.rate == 1.0
        for _ in range(4):
            window.add(False)
        assert window.rate == 0.0
        window.add(True)
        assert window.rate == 0.25

    def test_partial_fill_and_validation(self):
        window = RejectionWindow(size=8)
        assert window.rate == 0.0
        window.add(True)
        window.add(False)
        assert window.filled == 2
        assert window.rate == 0.5
        with pytest.raises(SimulationError):
            RejectionWindow(size=0)


class TestStreamingServiceMetrics:
    def test_running_utilization_mean(self):
        metrics = StreamingServiceMetrics()
        metrics.sample_utilization(0.2, 0.1)
        metrics.sample_utilization(0.6, 0.3)
        assert metrics.mean_slot_utilization == pytest.approx(0.4)
        assert metrics.mean_bw_utilization == pytest.approx(0.2)
        assert metrics.last_slot_utilization == 0.6
        assert metrics.util_samples == 2
