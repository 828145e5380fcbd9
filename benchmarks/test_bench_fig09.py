"""Benchmark: regenerate Fig. 9 (rejection vs oversubscription 16x-128x).

Paper: CM is resilient as the network becomes more oversubscribed; OVOC
is quickly incapable of deploying tenants.
"""

from __future__ import annotations

import numpy as np

from repro.engine import Engine
from repro.experiments import fig09_oversub_sweep


def test_fig9_oversubscription(run_once, bench_pods, bench_arrivals):
    scenario = fig09_oversub_sweep.SCENARIO.override(
        pods=bench_pods, arrivals=bench_arrivals, seeds=(0,)
    )
    points = fig09_oversub_sweep.points(run_once(Engine().run, scenario))
    fig09_oversub_sweep.to_table(points).show()
    cm = {
        p.oversubscription: p.metrics.bw_rejection_rate
        for p in points
        if p.algorithm == "cm"
    }
    ovoc = {
        p.oversubscription: p.metrics.bw_rejection_rate
        for p in points
        if p.algorithm == "ovoc"
    }
    for ratio in cm:
        assert cm[ratio] <= ovoc[ratio] + 1e-9
    # CM stays far below OVOC even at 128x.
    assert cm[128] < ovoc[128] * 0.7
    assert np.mean(list(ovoc.values())) > 0.15
