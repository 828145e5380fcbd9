"""Benchmark: regenerate Fig. 10 (Coloc/Balance ablation).

Paper: the full Coloc+Balance is the best; deactivating either subroutine
hurts; OVOC is the worst.  Known deviation (documented in
EXPERIMENTS.md): our Balance-only lands closer to full CM than the
paper's, because best-fit subtree search already localizes tenants.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import fig10_ablation


def test_fig10_ablation(run_once, bench_pods, bench_arrivals):
    scenario = fig10_ablation.SCENARIO.override(
        pods=bench_pods, arrivals=bench_arrivals, seeds=(0,)
    )
    points = fig10_ablation.points(run_once(Engine().run, scenario))
    fig10_ablation.to_table(points).show()
    rates = {p.variant: p.metrics.bw_rejection_rate for p in points}
    assert rates["cm"] <= rates["cm-coloc-only"] + 1e-9
    assert rates["cm"] <= rates["ovoc"] + 1e-9
    assert rates["cm-balance-only"] <= rates["ovoc"] + 1e-9
    # OVOC is the worst of the four (paper's right-most bar).
    assert rates["ovoc"] >= max(rates.values()) - 1e-9
