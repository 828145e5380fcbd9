"""Benchmark: regenerate Fig. 1 (BW:CPU ratios, workloads vs datacenters).

Paper claims: interactive workloads demand similar-or-higher BW per CPU
than batch jobs; datacenters provision adequately at the server level but
not at ToR/aggregation.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import fig01_survey


def test_fig1_survey(run_once):
    result = fig01_survey.to_result(run_once(Engine().run, fig01_survey.SCENARIO))
    result.workload_rows.show()
    result.datacenter_rows.show()
    assert result.interactive_median > result.batch_median
    # Aggregation-level provisioning sits below the interactive median
    # in every surveyed datacenter.
    assert all(r < result.interactive_median for r in result.agg_ratios)
