"""Determinism: identical seeds give bit-identical results, serial or parallel."""

from __future__ import annotations

from repro.engine import Engine, Scenario, Variant, registry
from repro.simulation.arrivals import poisson_arrivals
from repro.simulation.runner import simulate_rejections
from repro.topology.builder import DatacenterSpec
from repro.workloads.bing import bing_pool

TINY = Scenario(
    name="determinism",
    title="tiny determinism scenario",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=(0.4, 0.8),
    bmaxes=(800.0,),
    seeds=(0, 1),
    arrivals=40,
    pods=1,
)


class TestArrivalDeterminism:
    def test_same_seed_identical_stream(self):
        pool = bing_pool()
        first = poisson_arrivals(pool, 200, 0.5, 6400, seed=7)
        second = poisson_arrivals(pool, 200, 0.5, 6400, seed=7)
        assert first == second  # Arrival is frozen: exact field equality

    def test_different_seed_differs(self):
        pool = bing_pool()
        assert poisson_arrivals(pool, 200, 0.5, 6400, seed=7) != poisson_arrivals(
            pool, 200, 0.5, 6400, seed=8
        )


class TestEngineDeterminism:
    def test_serial_reruns_identical(self):
        first = Engine(n_jobs=1).run(TINY)
        second = Engine(n_jobs=1).run(TINY)
        assert first.fingerprints() == second.fingerprints()

    def test_serial_vs_parallel_bit_identical(self):
        """The acceptance property: n_jobs > 1 changes wall time only."""
        serial = Engine(n_jobs=1).run(TINY)
        parallel = Engine(n_jobs=2).run(TINY)
        assert len(serial) == len(parallel) == TINY.trial_count
        assert serial.fingerprints() == parallel.fingerprints()
        # Spot-check a raw metric beyond the fingerprint.
        for s_result, p_result in zip(serial, parallel):
            assert s_result.payload.bw_rejected == p_result.payload.bw_rejected
            assert s_result.payload.wcs.values == p_result.payload.wcs.values

    def test_engine_matches_direct_simulate_rejections(self):
        """The engine's cached-context path reproduces the direct API."""
        trial_result = Engine().run(
            TINY.override(loads=(0.4,), seeds=(3,), variants=(Variant("cm"),))
        ).results[0]
        legacy = simulate_rejections(
            bing_pool(),
            "cm",
            load=0.4,
            bmax=800.0,
            spec=DatacenterSpec(pods=1),
            arrivals=40,
            seed=3,
        )
        engine_metrics = trial_result.payload
        assert engine_metrics.bw_rejected == legacy.bw_rejected
        assert engine_metrics.bw_total == legacy.bw_total
        assert engine_metrics.vms_rejected == legacy.vms_rejected
        assert engine_metrics.wcs.values == legacy.wcs.values

    def test_registered_fig08_deterministic_across_modes(self):
        scenario = registry.get("fig08").scenario.override(
            loads=(0.5,), pods=1, arrivals=40, seeds=(0, 1)
        )
        serial = Engine(n_jobs=1).run(scenario)
        parallel = Engine(n_jobs=2).run(scenario)
        assert serial.fingerprints() == parallel.fingerprints()
