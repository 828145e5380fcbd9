"""Benchmark: regenerate Fig. 7 (rejection vs B_max at load 50% / 90%).

Paper headline: "for some B_max, CM can deploy almost all requests while
OVOC rejects up to 40% of bandwidth requests"; rejections rise with B_max
for both algorithms; CM <= OVOC everywhere.
"""

from __future__ import annotations

import numpy as np

from repro.engine import Engine
from repro.experiments import fig07_bmax_sweep


def test_fig7_bmax_sweep(run_once, bench_pods, bench_arrivals):
    scenario = fig07_bmax_sweep.SCENARIO.override(
        pods=bench_pods, arrivals=bench_arrivals, seeds=(0,)
    )
    points = fig07_bmax_sweep.points(run_once(Engine().run, scenario))
    fig07_bmax_sweep.to_table(points).show()

    def series(load, algorithm):
        return [
            p.metrics.bw_rejection_rate
            for p in points
            if p.load == load and p.algorithm == algorithm
        ]

    for load in (0.5, 0.9):
        cm = series(load, "cm")
        ovoc = series(load, "ovoc")
        # CM dominates OVOC at (almost) every point; allow tiny noise.
        assert np.mean(cm) < np.mean(ovoc)
        assert max(ovoc) > 0.2, "OVOC should reject heavily at high B_max"
        assert min(cm) < 0.05, "CM should deploy almost all at low B_max"
