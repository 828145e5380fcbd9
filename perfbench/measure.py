"""One measured run of one workload, untraced or traced.

A run repeats the workload — a fresh ledger, placer and loop over the
same seeded arrivals — until ``seconds`` of host time have passed (at
least once).  Every repetition must reach the same decision digest, and
each is checked for consistency before its numbers count.

Untraced runs give the end-to-end metrics: ``events_per_s`` (median over
repetitions of arrivals decided per host CPU second of the loop's one
thread), ``place_p50_ms`` and ``place_p99_ms`` (nearest-rank percentiles
of the CPU time of every placer ``place()`` call, pooled over
repetitions; when fewer than 10 samples lie beyond p99 the highest
percentile with 10 beyond it is reported and named) and
``bw_rejected_pct`` (the simulated share of offered bandwidth rejected;
exact for a seed).  The three timings are in reference seconds (see
:mod:`perfbench.calibrate`); the raw host values sit in the detail.
Traced runs give the per-layer metrics, averaged per repetition; span
times are raw wall-clock.

The loop is single-threaded, CPU-bound and does no I/O, so its thread
CPU time equals its wall time on an idle host; on a shared virtual
machine it leaves out the time the hypervisor runs other guests, which
otherwise shows up as multi-millisecond stalls in the tail.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
from time import perf_counter, thread_time

from perfbench.calibrate import REFERENCE_CALL_S, call_seconds
from perfbench.checks import (
    consistency_errors,
    decision_digest,
    percentile,
    tail_percentile,
)
from perfbench.tracer import (
    KERNEL_NAMES,
    Patcher,
    Probe,
    SpanRecorder,
    chrome_trace,
    install_layers,
)
from perfbench.workloads import Prepared, instantiate

__all__ = ["END_TO_END", "LAYER_METRICS", "OBS_COUNTERS", "run"]

# (name, unit, better)
END_TO_END = (
    ("events_per_s", "1/s", "higher"),
    ("place_p50_ms", "ms", "lower"),
    ("place_p99_ms", "ms", "lower"),
    ("bw_rejected_pct", "%", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# repro.obs counters read in the traced run (totals per repetition; the
# two service.* entries are gauges the ServiceLoop sets at heartbeats).
OBS_COUNTERS = (
    "ledger.journal_ops",
    "ledger.slot_mutations",
    "ledger.rollback_ops",
    "placement.reservation_updates",
    "candidates.level_builds",
    "candidates.level_repairs",
    "candidates.level_repaired_nodes",
    "candidates.rack_builds",
    "candidates.rack_repairs",
    "candidates.rack_repaired_servers",
    "service.metrics_entries",
    "service.index_entries",
)

_P99 = "place_p99_ms, events_per_s"
_EPS = "events_per_s"
_EPS_P99 = "events_per_s, place_p99_ms"


def _layer_metrics() -> tuple[tuple[str, str, str, str], ...]:
    rows = [
        ("placement.calls", "count", "lower", _P99),
        ("placement.accepts", "count", "higher", "bw_rejected_pct"),
        ("placement.accept_ratio", "ratio", "higher", "bw_rejected_pct"),
        ("placement.self_ms", "ms", "lower", _P99),
        ("placement.max_ms", "ms", "lower", _P99),
        ("state.trial_places", "count", "lower", "place_p99_ms"),
        ("state.trial_place_ms", "ms", "lower", "place_p99_ms"),
        ("state.savepoints", "count", "lower", "place_p99_ms"),
        ("state.rollbacks", "count", "lower", "place_p99_ms"),
        ("state.rollback_ms", "ms", "lower", "place_p99_ms"),
        ("state.rollbacks_per_call", "ratio", "lower", "place_p99_ms"),
        ("state.finalize_ms", "ms", "lower", "place_p99_ms"),
        ("candidates.lookups", "count", "lower", _EPS),
        ("candidates.lookup_ms", "ms", "lower", _EPS),
        ("candidates.touch_paths", "count", "lower", _EPS),
        ("candidates.touch_ms", "ms", "lower", _EPS),
        ("ledger.adjusts", "count", "lower", _EPS_P99),
        ("ledger.adjust_ms", "ms", "lower", _EPS_P99),
        ("ledger.reserve_slots", "count", "lower", _EPS_P99),
        ("ledger.release_slots", "count", "lower", _EPS_P99),
        ("ledger.rollbacks", "count", "lower", _EPS_P99),
        ("ledger.rollback_ms", "ms", "lower", _EPS_P99),
    ]
    for name in KERNEL_NAMES:
        rows.append((f"kernels.{name}.calls", "count", "lower", _EPS_P99))
        rows.append((f"kernels.{name}.ms", "ms", "lower", _EPS_P99))
    rows += [
        ("simulation.self_ms", "ms", "lower", _EPS),
        ("simulation.gate_rejects", "count", "higher", _EPS),
        ("simulation.util_sweep_ms", "ms", "lower", _EPS),
        ("simulation.wcs_ms", "ms", "lower", _EPS),
        ("simulation.departures", "count", "higher", _EPS),
        ("simulation.depart_ms", "ms", "lower", _EPS),
        ("arrivals.gen_ms", "ms", "lower", _EPS),
    ]
    rows += [(f"obs.{name}", "count", "lower", "counts only") for name in OBS_COUNTERS]
    rows += [
        ("trace.events_per_s", "1/s", "higher", "tracing overhead"),
        ("trace.spans", "count", "lower", "tracing overhead"),
    ]
    return tuple(rows)


# (name, unit, better, end-to-end metric it should move)
LAYER_METRICS = _layer_metrics()


def _layer_values(recorder: SpanRecorder, probe: Probe, counters: dict,
                  arrivals: int, wall: float, cpu: float) -> dict[str, float]:
    stats = recorder.stats
    counts = recorder.counts
    calls = recorder.calls
    self_ms = recorder.self_ms

    placer_calls = calls("placement")
    accepts = sum(probe.accepts)
    rollbacks = calls("state.rollback")
    values = {
        "placement.calls": placer_calls,
        "placement.accepts": accepts,
        "placement.accept_ratio": accepts / placer_calls if placer_calls else 0.0,
        "placement.self_ms": self_ms("placement"),
        "placement.max_ms": stats["placement"][3] * 1e3 if placer_calls else 0.0,
        "state.trial_places": calls("state.trial_place"),
        "state.trial_place_ms": self_ms("state.trial_place"),
        "state.savepoints": counts.get("state.savepoints", 0),
        "state.rollbacks": rollbacks,
        "state.rollback_ms": self_ms("state.rollback"),
        "state.rollbacks_per_call": rollbacks / placer_calls if placer_calls else 0.0,
        "state.finalize_ms": self_ms("state.finalize"),
        "candidates.lookups": calls("candidates.lookup"),
        "candidates.lookup_ms": self_ms("candidates.lookup"),
        "candidates.touch_paths": calls("candidates.touch"),
        "candidates.touch_ms": self_ms("candidates.touch"),
        "ledger.adjusts": calls("ledger.adjust"),
        "ledger.adjust_ms": self_ms("ledger.adjust"),
        "ledger.reserve_slots": counts.get("ledger.reserve_slots", 0),
        "ledger.release_slots": counts.get("ledger.release_slots", 0),
        "ledger.rollbacks": calls("ledger.rollback"),
        "ledger.rollback_ms": self_ms("ledger.rollback"),
    }
    for name in KERNEL_NAMES:
        values[f"kernels.{name}.calls"] = calls(f"kernels.{name}")
        values[f"kernels.{name}.ms"] = self_ms(f"kernels.{name}")
    values.update(
        {
            "simulation.self_ms": (wall - recorder.root_s) * 1e3,
            "simulation.gate_rejects": arrivals - placer_calls,
            "simulation.util_sweep_ms": self_ms("simulation.util_sweep"),
            "simulation.wcs_ms": self_ms("simulation.wcs"),
            "simulation.departures": probe.departures,
            "simulation.depart_ms": self_ms("simulation.depart"),
            "arrivals.gen_ms": self_ms("arrivals.gen"),
        }
    )
    for name in OBS_COUNTERS:
        values[f"obs.{name}"] = counters.get(name, 0)
    values["trace.events_per_s"] = arrivals / cpu
    values["trace.spans"] = sum(entry[0] for entry in stats.values())
    return values


def run(prepared: Prepared, *, seconds: float, traced: bool, trace_path=None) -> dict:
    """Measure one run; returns metrics, detail and the check outcome."""
    from repro import _kernels
    from repro.obs import core as obs
    from repro.simulation.service import ledger_fingerprint

    workload = prepared.workload
    backend = _kernels.kernels_info()["backend"]
    if backend != workload.backend:
        raise RuntimeError(f"kernel backend is {backend}, workload needs {workload.backend}")
    probe = Probe()
    recorder = SpanRecorder() if traced else None
    errors: list[str] = []
    digests: list[str] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    latencies: list[float] = []
    raw_latencies: list[float] = []
    references: list[float] = []
    bw_pcts: list[float] = []
    layer_sums: dict[str, float] = {}
    extra_counters: dict[str, int] = {}
    attempted = failed = reps = 0
    with contextlib.ExitStack() as stack:
        patcher = stack.enter_context(Patcher())
        probe.install(patcher)
        if traced:
            install_layers(patcher, recorder)
            counters = stack.enter_context(obs.enabled_scope())
        elif obs.enabled():
            raise RuntimeError("repro.obs counters are on in an untraced run")
        started = perf_counter()
        reference = call_seconds()
        references.append(reference)
        while reps == 0 or perf_counter() - started < seconds:
            probe.reset()
            instance = instantiate(prepared, probe)
            events = prepared.events()
            if traced:
                recorder.reset()
                recorder.keep = reps == 0
                counters.clear()
                events = recorder.arrivals(events)
            gc.collect()
            t0, c0 = perf_counter(), thread_time()
            outcome = instance.run(events)
            cpu = thread_time() - c0
            wall = perf_counter() - t0
            # Host speed around this repetition: the reference calls
            # measured just before and just after it.
            after = call_seconds()
            references.append(after)
            scale = REFERENCE_CALL_S / ((reference + after) / 2)
            reference = after
            reps += 1
            arrivals = outcome["arrivals"]
            attempted += arrivals
            failed += probe.failed
            if arrivals != workload.arrivals:
                errors.append(f"loop decided {arrivals} of {workload.arrivals} arrivals")
            errors += consistency_errors(
                arrivals=arrivals,
                decisions=instance.decisions,
                departures=probe.departures,
                live=list(probe.live.values()),
                ledger=instance.ledger,
                unknown_releases=probe.unknown_releases,
            )
            if probe.first_error is not None:
                errors.append(f"placer raised: {probe.first_error}")
            digests.append(
                decision_digest(instance.decisions, ledger_fingerprint(instance.ledger))
            )
            rates.append(arrivals / (cpu * scale))
            raw_rates.append(arrivals / cpu)
            latencies += [seconds * scale for seconds in probe.latencies]
            raw_latencies += probe.latencies
            bw_pcts.append(outcome["bw_rejected_pct"])
            if traced:
                values = _layer_values(recorder, probe, counters, arrivals, wall, cpu * scale)
                for name, value in values.items():
                    layer_sums[name] = layer_sums.get(name, 0.0) + value
                for name, value in counters.items():
                    if name not in OBS_COUNTERS:
                        extra_counters[name] = value
            del instance, events
    if len(set(digests)) != 1:
        errors.append(f"decision digests differ across repetitions: {sorted(set(digests))}")
    if len(set(bw_pcts)) != 1:
        errors.append("bw_rejected_pct differs across repetitions")
    if prepared.seed == workload.default_seed and digests[0] != workload.digest:
        errors.append(
            f"digest {digests[0]} != recorded {workload.digest or '(none)'} "
            f"for the default seed {workload.default_seed}"
        )
    detail = {
        "workload": workload.name,
        "seed": prepared.seed,
        "backend": backend,
        "reps": reps,
        "arrivals_per_rep": workload.arrivals,
        "digest": digests[0],
        "reference_call_ms": statistics.median(references) * 1e3,
    }
    if traced:
        metrics = {name: layer_sums[name] / reps for name, *_ in LAYER_METRICS}
        detail["extra_obs_counters"] = extra_counters
        detail["spans_kept"] = len(recorder.spans)
        detail["spans_dropped"] = recorder.dropped
        if trace_path is not None:
            chrome_trace(recorder, trace_path, process_name=f"perfbench {workload.name}")
            detail["chrome_trace"] = str(trace_path)
    else:
        latencies.sort()
        raw_latencies.sort()
        tail = tail_percentile(len(latencies))
        if tail is None:
            raise RuntimeError(f"only {len(latencies)} place() calls; need more than 10")
        metrics = {
            "events_per_s": statistics.median(rates),
            "place_p50_ms": percentile(latencies, 50) * 1e3,
            "place_p99_ms": percentile(latencies, tail) * 1e3,
            "bw_rejected_pct": bw_pcts[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["place_calls"] = len(latencies)
        detail["tail_percentile"] = tail
        detail["place_max_ms"] = latencies[-1] * 1e3
        detail["raw"] = {
            "events_per_s": statistics.median(raw_rates),
            "place_p50_ms": percentile(raw_latencies, 50) * 1e3,
            "place_p99_ms": percentile(raw_latencies, tail) * 1e3,
        }
    return {
        "metrics": metrics,
        "detail": detail,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
    }
