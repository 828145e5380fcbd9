"""Benchmark: regenerate Fig. 12 (CM vs CM+HA vs CM+oppHA).

Paper: opportunistic HA lifts mean WCS well above default CM (toward the
guaranteed-HA level) while its per-component WCS can still reach zero
(non-guaranteed, the error bars); rejection cost is moderate and
disappears at favourable B_max.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import fig12_opportunistic_ha


def test_fig12_ha_mechanisms(run_once, bench_pods, bench_arrivals):
    scenario = fig12_opportunistic_ha.SCENARIO.override(
        pods=bench_pods, arrivals=bench_arrivals, seeds=(0,)
    )
    points = fig12_opportunistic_ha.points(run_once(Engine().run, scenario))
    fig12_opportunistic_ha.to_table(points).show()
    by_mode = {}
    for p in points:
        by_mode.setdefault(p.mode, []).append(p.metrics)
    for bmax_metrics in zip(by_mode["cm"], by_mode["cm+ha"], by_mode["cm+oppha"]):
        cm, ha, opp = bmax_metrics
        # Opportunistic HA improves average WCS over default CM...
        assert opp.wcs.mean > cm.wcs.mean
        # ...but gives no guarantee: its minimum can be anything.
        assert ha.wcs.minimum >= 0.5 - 1e-9
    # Guaranteed HA achieves the highest floor by construction.
    assert min(m.wcs.minimum for m in by_mode["cm+ha"]) >= 0.5 - 1e-9
