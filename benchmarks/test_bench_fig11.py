"""Benchmark: regenerate Fig. 11 (guaranteed WCS sweep).

Paper: (a) both CM+HA and OVOC+HA achieve the required server-level WCS;
CM+HA's mean achieved WCS is at least OVOC+HA's; (b) rejected bandwidth
rises only slightly with the requirement for CM (bandwidth is not the
bottleneck at the server level).
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import fig11_wcs_guarantee


def test_fig11_wcs_guarantee(run_once, bench_pods, bench_arrivals):
    scenario = fig11_wcs_guarantee.SCENARIO.override(
        pods=bench_pods, arrivals=bench_arrivals, seeds=(0,)
    )
    points = fig11_wcs_guarantee.points(run_once(Engine().run, scenario))
    fig11_wcs_guarantee.to_table(points).show()
    for p in points:
        if p.required_wcs > 0 and p.algorithm == "cm":
            # The guarantee must hold for every multi-VM component, up to
            # Eq. 7's max(1, .) floor: a 2-VM tier spread over two servers
            # can never exceed 50% WCS, whatever the requirement.
            floor = min(p.required_wcs, 0.5)
            assert p.metrics.wcs.minimum >= floor - 1e-9
    cm_by_req = {
        p.required_wcs: p.metrics for p in points if p.algorithm == "cm"
    }
    # Mean achieved WCS grows with the requirement.
    means = [cm_by_req[r].wcs.mean for r in sorted(cm_by_req)]
    assert means == sorted(means)
    # Guaranteeing 75% costs only modest additional rejection for CM.
    assert (
        cm_by_req[max(cm_by_req)].bw_rejection_rate
        <= cm_by_req[0.0].bw_rejection_rate + 0.25
    )
