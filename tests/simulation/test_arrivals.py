"""Tests for the Poisson arrival stream and the load formula."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.tag import Tag
from repro.errors import SimulationError
from repro.simulation.arrivals import (
    arrival_rate_for_load,
    arrival_stream,
    diurnal_arrivals,
    poisson_arrivals,
    trace_arrivals,
)


def _pool():
    tags = []
    for i, size in enumerate((10, 20, 30)):
        tag = Tag(f"t{i}")
        tag.add_component("app", size)
        tag.add_self_loop("app", 10.0)
        tags.append(tag)
    return tags


class TestLoadFormula:
    def test_paper_formula_inversion(self):
        # load = Ts * lambda * Td / slots  =>  lambda = load*slots/(Ts*Td)
        rate = arrival_rate_for_load(0.5, total_slots=51200, mean_tenant_size=57, mean_dwell=1.0)
        assert rate == pytest.approx(0.5 * 51200 / 57)

    def test_validation(self):
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.0, 100, 10, 1.0)
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.5, 100, 0, 1.0)


class TestPoissonArrivals:
    def test_count_and_monotone_times(self):
        arrivals = poisson_arrivals(_pool(), 100, 0.5, 1000, seed=3)
        assert len(arrivals) == 100
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(a.dwell > 0 for a in arrivals)

    def test_uniform_tenant_sampling(self):
        arrivals = poisson_arrivals(_pool(), 3000, 0.5, 1000, seed=3)
        counts = np.bincount([a.tenant_index for a in arrivals], minlength=3)
        assert counts.min() > 800  # roughly uniform over 3 tenants

    def test_mean_interarrival_matches_rate(self):
        pool = _pool()
        load, slots = 0.5, 1000
        arrivals = poisson_arrivals(pool, 5000, load, slots, seed=1)
        mean_size = np.mean([t.size for t in pool])
        expected_gap = mean_size / (load * slots)
        gaps = np.diff([0.0] + [a.time for a in arrivals])
        assert np.mean(gaps) == pytest.approx(expected_gap, rel=0.1)

    def test_deterministic_by_seed(self):
        a = poisson_arrivals(_pool(), 50, 0.5, 1000, seed=9)
        b = poisson_arrivals(_pool(), 50, 0.5, 1000, seed=9)
        assert [(x.time, x.tenant_index) for x in a] == [
            (x.time, x.tenant_index) for x in b
        ]

    def test_validation(self):
        with pytest.raises(SimulationError):
            poisson_arrivals([], 10, 0.5, 1000)
        with pytest.raises(SimulationError):
            poisson_arrivals(_pool(), 0, 0.5, 1000)


class TestLoadFormulaEdgeCases:
    def test_rate_scales_inversely_with_dwell(self):
        # Doubling dwell halves the arrival rate needed for the same load.
        fast = arrival_rate_for_load(0.5, 1000, 10, mean_dwell=1.0)
        slow = arrival_rate_for_load(0.5, 1000, 10, mean_dwell=2.0)
        assert fast == pytest.approx(2 * slow)

    def test_vanishing_load_gives_vanishing_rate(self):
        # load -> 0+ stays valid and the rate goes to zero continuously.
        rate = arrival_rate_for_load(1e-12, 1000, 10, mean_dwell=1.0)
        assert 0 < rate < 1e-9

    def test_zero_slots_rejected(self):
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.5, 0, 10, 1.0)
        with pytest.raises(SimulationError):
            arrival_rate_for_load(0.5, 1000, 10, 0.0)

    def test_poisson_dwell_scaling(self):
        # Dwells are exponential with the requested mean; the arrival
        # spacing stretches so the offered load stays fixed.
        short = poisson_arrivals(_pool(), 4000, 0.5, 1000, mean_dwell=1.0, seed=2)
        long = poisson_arrivals(_pool(), 4000, 0.5, 1000, mean_dwell=4.0, seed=2)
        assert np.mean([a.dwell for a in long]) == pytest.approx(
            4 * np.mean([a.dwell for a in short]), rel=0.05
        )
        assert long[-1].time == pytest.approx(4 * short[-1].time, rel=0.05)


class TestArrivalStream:
    def test_identical_to_materialized_when_block_covers_count(self):
        materialized = poisson_arrivals(_pool(), 200, 0.5, 1000, seed=5)
        streamed = list(
            arrival_stream(_pool(), 200, 0.5, 1000, seed=5, block=200)
        )
        assert streamed == materialized

    def test_small_blocks_keep_count_and_monotonicity(self):
        streamed = list(
            arrival_stream(_pool(), 100, 0.5, 1000, seed=5, block=7)
        )
        assert len(streamed) == 100
        times = [a.time for a in streamed]
        assert times == sorted(times)
        assert all(a.dwell > 0 for a in streamed)
        assert all(0 <= a.tenant_index < 3 for a in streamed)

    def test_validation(self):
        with pytest.raises(SimulationError):
            list(arrival_stream([], 10, 0.5, 1000))
        with pytest.raises(SimulationError):
            list(arrival_stream(_pool(), 0, 0.5, 1000))
        with pytest.raises(SimulationError):
            list(arrival_stream(_pool(), 10, 0.5, 1000, block=0))
        with pytest.raises(SimulationError):
            list(arrival_stream(_pool(), 10, 0.5, 1000, mean_dwell=0.0))


class TestDiurnalArrivals:
    def test_count_monotone_and_load_preserving(self):
        flat = list(arrival_stream(_pool(), 4000, 0.5, 1000, seed=3))
        cyclic = list(
            diurnal_arrivals(_pool(), 4000, 0.5, 1000, seed=3, day_length=0.5)
        )
        assert len(cyclic) == 4000
        times = [a.time for a in cyclic]
        assert times == sorted(times)
        # Factors are normalized by their mean, so the time-averaged rate
        # (total span for the same event count) matches the flat stream.
        assert cyclic[-1].time == pytest.approx(flat[-1].time, rel=0.15)

    def test_rate_modulation_follows_factors(self):
        # A 2-window day with a 9:1 ratio should cram most arrivals into
        # the fast half-day windows.
        cyclic = list(
            diurnal_arrivals(
                _pool(), 6000, 0.5, 1000,
                factors=(9.0, 1.0), day_length=1.0, seed=4,
            )
        )
        window_length = 0.5
        fast = sum(
            1 for a in cyclic if int(a.time / window_length) % 2 == 0
        )
        assert fast / len(cyclic) > 0.8

    def test_validation(self):
        with pytest.raises(SimulationError):
            list(diurnal_arrivals(_pool(), 10, 0.5, 1000, factors=(1.0, 0.0)))
        with pytest.raises(SimulationError):
            list(diurnal_arrivals(_pool(), 10, 0.5, 1000, factors=()))
        with pytest.raises(SimulationError):
            list(diurnal_arrivals(_pool(), 10, 0.5, 1000, day_length=0.0))


class TestTraceArrivals:
    def test_passthrough(self):
        events = [(0.0, 0, 1.0), (0.5, 2, 0.25), (0.5, 1, 3.0)]
        arrivals = list(trace_arrivals(events, pool_size=3))
        assert [(a.time, a.tenant_index, a.dwell) for a in arrivals] == events

    def test_streams_without_materializing(self):
        def generate():
            for i in range(10):
                yield (float(i), i % 3, 1.0)

        stream = trace_arrivals(generate(), pool_size=3)
        first = next(stream)
        assert first.time == 0.0  # consumed lazily, one event at a time

    def test_validation(self):
        with pytest.raises(SimulationError, match="non-decreasing"):
            list(trace_arrivals([(1.0, 0, 1.0), (0.5, 0, 1.0)]))
        with pytest.raises(SimulationError, match="dwell"):
            list(trace_arrivals([(0.0, 0, 0.0)]))
        with pytest.raises(SimulationError, match="out of range"):
            list(trace_arrivals([(0.0, 5, 1.0)], pool_size=3))
        with pytest.raises(SimulationError, match="out of range"):
            list(trace_arrivals([(0.0, -1, 1.0)]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_times(self, bad):
        # NaN compares false both ways, so an order check alone lets
        # (1.0, nan, 0.5) through as sorted.
        events = [(1.0, 0, 1.0), (bad, 0, 1.0), (0.5, 0, 1.0)]
        with pytest.raises(SimulationError, match="finite"):
            list(trace_arrivals(events))

    def test_rejects_nan_dwell(self):
        with pytest.raises(SimulationError, match="dwell"):
            list(trace_arrivals([(0.0, 0, math.nan)]))

    def test_accepts_infinite_dwell(self):
        (arrival,) = trace_arrivals([(0.0, 0, math.inf)])
        assert arrival.dwell == math.inf
