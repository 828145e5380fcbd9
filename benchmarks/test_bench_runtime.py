"""Benchmark: §5.1 algorithm runtime claims.

Paper: CM runs within ~200 ms for tenants up to 100s of VMs and a few
seconds up to 1000 VMs; CM and Oktopus are within an order of magnitude;
pipe placement (SecondNet) is dramatically slower and scales far worse.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import runtime_scaling
from repro.placement.cloudmirror import CloudMirrorPlacer
from repro.placement.oktopus import OktopusPlacer
from repro.topology.builder import DatacenterSpec, three_level_tree
from repro.topology.ledger import Ledger
from repro.workloads.patterns import three_tier


def test_runtime_table(run_once, bench_pods):
    scenario = runtime_scaling.SCENARIO.override(pods=bench_pods)
    points = runtime_scaling.points(run_once(Engine().run, scenario))
    runtime_scaling.to_table(points).show()
    cm = {p.vms: p.seconds for p in points if p.algorithm == "cm"}
    sn = {p.vms: p.seconds for p in points if p.algorithm == "secondnet"}
    # Paper: within 200 ms for tenants of up to 100s of VMs...
    assert cm[100] < 0.2
    # ...and up to a few seconds for ~1000 VMs.
    assert cm[1000] < 5.0
    # SecondNet is much slower already at 100 VMs.
    assert sn[100] > cm[100]


def test_cm_single_placement(benchmark, bench_pods):
    """Microbenchmark: one CM placement of a 100-VM tenant."""
    spec = DatacenterSpec(pods=bench_pods)
    tenant = three_tier("bench", (34, 33, 33), 200.0, 50.0, 20.0)

    def place_once():
        ledger = Ledger(three_level_tree(spec))
        return CloudMirrorPlacer(ledger).place(tenant)

    result = benchmark(place_once)
    assert result is not None


def test_ovoc_single_placement(benchmark, bench_pods):
    """Microbenchmark: one Oktopus placement of the same tenant."""
    spec = DatacenterSpec(pods=bench_pods)
    tenant = three_tier("bench", (34, 33, 33), 200.0, 50.0, 20.0)

    def place_once():
        ledger = Ledger(three_level_tree(spec))
        return OktopusPlacer(ledger).place(tenant)

    result = benchmark(place_once)
    assert result is not None
