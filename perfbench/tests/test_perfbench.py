"""Tests for the benchmark's own code (tracer, checks, workloads).

Run with the program importable: ``PYTHONPATH=src python -m pytest perfbench``.
The workload runs here are shrunk copies of the real workloads (fewer
pods and arrivals) so the suite stays fast; the kernel backend is
whatever the process already has, since decisions are backend-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from perfbench import checks, measure, tracer
from perfbench.workloads import WORKLOADS, instantiate, prepare

ROOT = Path(__file__).resolve().parents[2]


def _active_backend() -> str:
    from repro import _kernels

    return _kernels.kernels_info()["backend"]


def _small(name: str, **changes):
    """A fast copy of a workload (no recorded digest, active backend)."""
    fields = {"digest": "", "backend": _active_backend(), "pods": 1}
    fields.update(changes)
    return dataclasses.replace(WORKLOADS[name], **fields)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# --------------------------------------------------------------------- spans
def test_self_time_of_nested_and_sibling_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    recorder = tracer.SpanRecorder()

    def leaf():
        clock.now += 2.0

    leaf_span = recorder.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        leaf_span()
        clock.now += 0.5
        leaf_span()

    middle_span = recorder.wrap("middle", middle)

    def outer():
        clock.now += 3.0
        middle_span()

    outer_span = recorder.wrap("outer", outer)
    outer_span()
    leaf_span()  # a root-level sibling of ``outer``

    calls, total, self_s, longest = recorder.stats["leaf"]
    assert (calls, total, self_s, longest) == (3, 6.0, 6.0, 2.0)
    assert recorder.stats["middle"][1:3] == [5.5, 1.5]
    assert recorder.stats["outer"][1:3] == [8.5, 3.0]
    assert recorder.root_s == 10.5
    # Spans are kept with their parent's id; roots have parent 0.
    by_id = {span[0]: span for span in recorder.spans}
    parents = {span[2]: [] for span in recorder.spans}
    for span in recorder.spans:
        parents[span[2]].append(by_id[span[1]][2] if span[1] else None)
    assert parents == {"leaf": ["middle", "middle", None], "middle": ["outer"], "outer": [None]}


def test_span_closes_when_the_wrapped_call_raises(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    recorder = tracer.SpanRecorder()

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        recorder.wrap("boom", boom)()
    assert recorder.stats["boom"][:3] == [1, 1.0, 1.0]
    assert recorder._stack == []


def test_span_list_is_bounded_but_aggregates_are_exact():
    recorder = tracer.SpanRecorder(max_spans=3)
    noop = recorder.wrap("noop", lambda: None)
    for _ in range(5):
        noop()
    assert len(recorder.spans) == 3
    assert recorder.dropped == 2
    assert recorder.stats["noop"][0] == 5


def test_chrome_trace_export(tmp_path):
    recorder = tracer.SpanRecorder()
    inner = recorder.wrap("inner", lambda: None)
    recorder.wrap("outer", inner)()
    path = tmp_path / "trace.json"
    assert tracer.chrome_trace(recorder, path, process_name="t") == 2
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["inner", "outer"]
    assert complete[0]["args"]["parent"] == complete[1]["args"]["id"]


# --------------------------------------------------------------- percentiles
@pytest.mark.parametrize(
    "samples, expected",
    [(10_000, 99), (1000, 99), (999, 98), (500, 98), (100, 90), (11, 9), (10, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert checks.tail_percentile(samples) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(11, 3000):
        p = checks.tail_percentile(n)
        beyond = n - math.ceil(p * n / 100)
        assert beyond >= 10, n
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10, n


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert checks.percentile(values, 50) == 50.0
    assert checks.percentile(values, 99) == 99.0
    assert checks.percentile(values, 0) == 1.0


# -------------------------------------------------------------------- checks
def test_digest_rejects_one_flipped_decision():
    decisions = [True, False, True, True]
    digest = checks.decision_digest(decisions, "f" * 64)
    flipped = list(decisions)
    flipped[2] = False
    assert checks.decision_digest(flipped, "f" * 64) != digest
    assert checks.decision_digest(decisions, "e" * 64) != digest


def test_consistency_check_catches_a_flipped_decision():
    workload = _small("toy-gate-overload", arrivals=2000)
    probe = tracer.Probe()
    with tracer.Patcher() as patcher:
        probe.install(patcher)
        prepared = prepare(workload, 1)
        instance = instantiate(prepared, probe)
        instance.run(prepared.events())
    state = dict(
        arrivals=workload.arrivals,
        departures=probe.departures,
        live=list(probe.live.values()),
        ledger=instance.ledger,
    )
    assert checks.consistency_errors(decisions=instance.decisions, **state) == []
    flipped = list(instance.decisions)
    flipped[flipped.index(True)] = False
    assert checks.consistency_errors(decisions=flipped, **state)
    assert checks.consistency_errors(decisions=instance.decisions[:-1], **state)


def test_timings_are_scaled_to_reference_seconds(monkeypatch):
    from perfbench.calibrate import REFERENCE_CALL_S

    # A host twice as slow as the reference one: its raw times halve.
    monkeypatch.setattr(measure, "call_seconds", lambda: 2 * REFERENCE_CALL_S)
    result = measure.run(prepare(_small("toy-gate-overload", arrivals=2000), 1),
                         seconds=0, traced=False)
    metrics, raw = result["metrics"], result["detail"]["raw"]
    assert metrics["events_per_s"] == pytest.approx(2 * raw["events_per_s"])
    assert metrics["place_p50_ms"] == pytest.approx(raw["place_p50_ms"] / 2)
    assert metrics["place_p99_ms"] == pytest.approx(raw["place_p99_ms"] / 2)


def test_recorded_digest_is_enforced_at_the_default_seed():
    workload = _small("toy-gate-overload", arrivals=2000)
    seed = workload.default_seed
    first = measure.run(prepare(workload, seed), seconds=0, traced=False)
    assert any("recorded" in error for error in first["errors"])
    pinned = dataclasses.replace(workload, digest=first["detail"]["digest"])
    assert measure.run(prepare(pinned, seed), seconds=0, traced=False)["errors"] == []


# ------------------------------------------------------------------ patching
def _snapshot():
    from repro import _kernels
    from repro.placement.candidates import CandidateIndex
    from repro.placement.cloudmirror import CloudMirrorPlacer
    from repro.placement.oktopus import OktopusPlacer
    from repro.placement.secondnet import PipeAllocation, SecondNetPlacer
    from repro.placement.state import TenantAllocation
    from repro.simulation import cluster
    from repro.topology.ledger import Ledger

    owners = (
        CloudMirrorPlacer, OktopusPlacer, SecondNetPlacer, TenantAllocation,
        PipeAllocation, CandidateIndex, Ledger,
    )
    classes = {cls: dict(vars(cls)) for cls in owners}
    modules = {
        "kernels": {name: getattr(_kernels, name) for name in tracer.KERNEL_NAMES},
        "wcs": cluster.allocation_wcs,
    }
    return classes, modules


def test_wrappers_restore_classes_and_kernel_attributes():
    from repro import _kernels
    from repro.topology.ledger import Ledger

    before = _snapshot()
    original_adjust = _kernels.ledger_adjust
    with tracer.Patcher() as patcher:
        tracer.Probe().install(patcher)
        tracer.install_layers(patcher, tracer.SpanRecorder())
        assert _kernels.ledger_adjust is not original_adjust
        assert "reserve_slots" in vars(Ledger)  # shadows the mixin's method
    assert _snapshot() == before
    assert "reserve_slots" not in vars(Ledger)

    with pytest.raises(RuntimeError):
        with tracer.Patcher() as patcher:
            tracer.install_layers(patcher, tracer.SpanRecorder())
            raise RuntimeError("mid-run failure")
    assert _snapshot() == before


def test_kernel_names_match_the_dispatch_surface():
    from repro import _kernels

    assert tracer.KERNEL_NAMES == _kernels._KERNEL_NAMES


# ----------------------------------------------------------------- workloads
@pytest.mark.parametrize("name", ["toy-gate-overload", "paper-ovoc-figure"])
def test_traced_and_untraced_runs_agree(name):
    from repro.obs import core as obs

    arrivals = 3000 if name == "toy-gate-overload" else 300
    workload = _small(name, arrivals=arrivals)
    plain = measure.run(prepare(workload, 1), seconds=0, traced=False)
    traced = measure.run(prepare(workload, 1), seconds=0, traced=True)
    assert plain["errors"] == [] and traced["errors"] == []
    assert plain["detail"]["digest"] == traced["detail"]["digest"]
    assert not obs.enabled()
    layers = traced["metrics"]
    assert set(layers) == {name for name, *_ in measure.LAYER_METRICS}
    assert layers["placement.calls"] + layers["simulation.gate_rejects"] == arrivals
    assert layers["placement.calls"] == plain["detail"]["place_calls"]


def test_figure_loop_matches_simulate_rejections():
    from repro.simulation.runner import simulate_rejections
    from repro.topology.builder import DatacenterSpec
    from repro.workloads.bing import bing_pool

    workload = _small("paper-ovoc-figure", arrivals=300)
    result = measure.run(prepare(workload, 3), seconds=0, traced=False)
    reference = simulate_rejections(
        bing_pool(),
        "ovoc",
        load=workload.load,
        bmax=workload.bmax,
        spec=DatacenterSpec(pods=workload.pods),
        arrivals=workload.arrivals,
        seed=3,
    )
    assert result["metrics"]["bw_rejected_pct"] == 100.0 * reference.bw_rejection_rate


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in measure.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in measure.LAYER_METRICS
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(w.digest for w in WORKLOADS.values())
