"""Benchmark: regenerate Fig. 8 (rejection vs load at B_max = 800).

Paper: OVOC rejects a sizeable share of bandwidth even at low load
(large tenants it simply cannot place), while CM stays near zero until
the datacenter saturates.
"""

from __future__ import annotations

import numpy as np

from repro.engine import Engine
from repro.experiments import fig08_load_sweep


def test_fig8_load_sweep(run_once, bench_pods, bench_arrivals):
    scenario = fig08_load_sweep.SCENARIO.override(
        pods=bench_pods, arrivals=bench_arrivals, seeds=(0,)
    )
    points = fig08_load_sweep.points(run_once(Engine().run, scenario))
    fig08_load_sweep.to_table(points).show()
    cm = [p.metrics.bw_rejection_rate for p in points if p.algorithm == "cm"]
    ovoc = [p.metrics.bw_rejection_rate for p in points if p.algorithm == "ovoc"]
    assert np.mean(cm) < np.mean(ovoc)
    # OVOC fails some tenants even at the lowest load.
    assert ovoc[0] > 0.05
    # CM is near zero at low load.
    assert cm[0] < 0.05
