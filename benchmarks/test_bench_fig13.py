"""Benchmark: regenerate Fig. 13 (ElasticSwitch + TAG enforcement).

Paper: X -> Z throughput stays at/above its 450 Mbps guarantee as the
number of C2 senders grows 0 -> 5, while the C2 aggregate takes its own
450 Mbps (plus the unreserved spare).  The hose baseline degrades as
900/(k+1).
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.experiments import fig13_enforcement


def test_fig13_enforcement(run_once):
    scenario = fig13_enforcement.SCENARIO.override(xs=range(6))
    result = fig13_enforcement.to_result(run_once(Engine().run, scenario))
    fig13_enforcement.to_table(result).show()
    for point in result.tag_points:
        assert point.x_to_z >= 450.0 - 1e-6
    # With >= 1 C2 sender the intra-tier aggregate also gets its 450.
    for point in result.tag_points[1:]:
        assert point.c2_to_z >= 450.0 - 1e-6
    # Hose baseline at k=5: 900/6 plus an equal share of the 100 spare.
    last = result.hose_points[-1]
    assert last.x_to_z == pytest.approx(900.0 / 6 + 100.0 / 6)
