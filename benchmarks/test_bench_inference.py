"""Benchmark: §3 TAG inference quality (mean AMI vs ground truth).

Paper: mean AMI 0.54 over the 80 bing.com applications.  Synthetic traces
are cleaner than production traffic, so the expected score is similar or
higher; the assertion brackets the paper's "substantial commonality but
imperfect" finding.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import inference_ami


def test_inference_ami(run_once):
    scenario = inference_ami.SCENARIO.override(
        seeds=(0,),
        params=(
            ("max_applications", 25),
            ("max_vms", 120),
            ("noise_fraction", 0.05),
        ),
    )
    (result,) = inference_ami.to_results(run_once(Engine().run, scenario))
    inference_ami.to_table(result).show()
    assert result.applications >= 10
    # Substantial commonality (well above chance), but imperfect
    # (inference merges/splits some tiers, as the paper found).
    assert 0.35 <= result.mean <= 1.0
    assert min(result.scores) < 1.0
