"""Benchmark: regenerate the Fig. 4 motivation numbers.

Paper: with B1 = 500, B2 = 100 and a 600 Mbps bottleneck, the hose model
splits the aggregate guarantee TCP-style (300:300 with equal sender
counts at the receive hose) and cannot deliver 500 Mbps to the web tier;
TAG delivers exactly 500:100.
"""

from __future__ import annotations

import pytest

from repro.engine import Engine
from repro.experiments import fig04_hose_failure


def test_fig4_hose_failure(run_once):
    outcomes = fig04_hose_failure.to_outcomes(
        run_once(Engine().run, fig04_hose_failure.SCENARIO)
    )
    fig04_hose_failure.to_table(outcomes).show()
    assert outcomes["tag"].web_to_logic == pytest.approx(500.0)
    assert outcomes["tag"].db_to_logic == pytest.approx(100.0)
    assert outcomes["hose"].web_to_logic < 500.0
