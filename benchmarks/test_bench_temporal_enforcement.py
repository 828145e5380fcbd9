"""Benchmark: temporal admission and max-min enforcement throughput.

Live-code timings on the fixed inputs whose outputs
``tests/test_pinned_digests.py`` pins bit-for-bit, recorded in
``BENCH_temporal_enforcement.json`` as ``*_per_sec`` leaves so
``repro bench track`` keeps one series per measurement:

* **Temporal admission** — a 60-tenant CloudMirror admission stream
  (alternating day-peaked three-tier and night-peaked MapReduce
  tenants) over W = 4, 12 and 24 windows: tenants decided per second.
  The W-plane ledger work grows with W; the placer's does not.
* **Max-min / enforcement** — Fig. 13 guarantee partitioning plus work
  conservation at 50, 200 and 800 senders in both abstraction modes,
  the raw kernel on an 800-flow parking-lot chain (one round per
  distinct bottleneck), and 30 periods of the dynamics control loop
  with 200 senders.
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path

from tests.test_pinned_digests import (
    TEMPORAL,
    TEMPORAL_SPEC,
    fig13_inputs,
    temporal_tenants,
)

from repro.enforcement.dynamics import ElasticSwitchDynamics
from repro.enforcement.elasticswitch import enforce
from repro.enforcement.maxmin import FlowSpec, maxmin_rates
from repro.temporal.admission import TemporalCluster

OUTPUT = Path("BENCH_temporal_enforcement.json")


def _best_seconds(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_temporal() -> dict:
    out = {}
    for windows in TEMPORAL:
        tenants = temporal_tenants(windows)
        admitted = 0

        def admit_stream():
            nonlocal admitted
            cluster = TemporalCluster(TEMPORAL_SPEC, windows=windows)
            admitted = sum(cluster.admit(t) is not None for t in tenants)

        seconds = _best_seconds(admit_stream, repeats=3)
        out[f"W{windows}"] = {
            "tenants": len(tenants),
            "admitted": admitted,
            "admit_ms": round(seconds * 1e3, 3),
            "tenants_per_sec": round(len(tenants) / seconds, 1),
        }
    return out


def _bench_enforcement() -> dict:
    out = {}
    for senders in (50, 200, 800):
        tag, flows, capacities = fig13_inputs(senders)
        for mode in ("tag", "hose"):
            seconds = _best_seconds(
                lambda: enforce(tag, flows, capacities, mode=mode),
                repeats=5 if senders <= 200 else 3,
            )
            out[f"enforce_{mode}_{senders}"] = {
                "flows": len(flows),
                "ms": round(seconds * 1e3, 3),
                "flows_per_sec": round(len(flows) / seconds, 1),
            }

    n = 800
    chain_caps = {i: 100.0 + 7.0 * i for i in range(n)}
    chain_flows = [FlowSpec(tuple(range(i, min(i + 3, n)))) for i in range(n)]
    seconds = _best_seconds(lambda: maxmin_rates(chain_flows, chain_caps), 3)
    out[f"maxmin_chain_{n}"] = {
        "flows": n,
        "ms": round(seconds * 1e3, 3),
        "flows_per_sec": round(n / seconds, 1),
    }

    senders, periods = 200, 30
    tag, flows, capacities = fig13_inputs(senders)

    def run_dynamics():
        dynamics = ElasticSwitchDynamics(tag, capacities, mode="tag")
        for flow in flows:
            dynamics.add_flow(flow)
        dynamics.run(periods)

    seconds = _best_seconds(run_dynamics, repeats=3)
    out[f"dynamics_{senders}x{periods}"] = {
        "periods": periods,
        "ms": round(seconds * 1e3, 3),
        "periods_per_sec": round(periods / seconds, 1),
    }
    return out


def test_temporal_enforcement_throughput():
    report = {
        "benchmark": "temporal_enforcement_core",
        "temporal": _bench_temporal(),
        "maxmin": _bench_enforcement(),
        "python": platform.python_version(),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
