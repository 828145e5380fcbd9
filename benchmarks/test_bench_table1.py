"""Benchmark: regenerate Table 1 (reserved bandwidth per network level).

Paper rows (bing workload, Gbps, ratios vs CM+TAG in parentheses):

    CM+TAG   3209.0        1006.8        0.7
    CM+VOC   3266.5 (1.02) 1230.1 (1.22) 1.7 (2.55)
    OVOC     2978.8 (0.93) 1299.7 (1.29) 14.7 (22.08)

Shape assertions: VOC accounting >= TAG accounting at every level on the
same placement, with the gap growing up the tree, and OVOC wasting by far
the most at the aggregation level.
"""

from __future__ import annotations

from repro.engine import Engine
from repro.experiments import table1_reserved_bw


def _table1(run_once, pool, pods, seed):
    scenario = table1_reserved_bw.SCENARIO.override(
        pool=pool, pods=pods, seeds=(seed,)
    )
    (result,) = table1_reserved_bw.to_results(run_once(Engine().run, scenario))
    return result


def test_table1_reserved_bandwidth(run_once, bench_pods):
    result = _table1(run_once, "bing", bench_pods, seed=1)
    result.table.show()
    reserved = result.reserved
    for level in ("server", "tor", "agg"):
        assert reserved.cm_voc[level] >= reserved.cm_tag[level] - 1e-9
    # The VOC aggregation penalty grows with tree level.
    if reserved.cm_tag["tor"] > 0:
        server_ratio = reserved.cm_voc["server"] / max(reserved.cm_tag["server"], 1e-9)
        tor_ratio = reserved.cm_voc["tor"] / reserved.cm_tag["tor"]
        assert tor_ratio >= server_ratio * 0.8
    # Oktopus placement wastes the most above the rack level.
    assert reserved.ovoc["tor"] >= reserved.cm_tag["tor"] - 1e-9
    assert reserved.ovoc["agg"] >= reserved.cm_tag["agg"] - 1e-9


def test_table1_synthetic_workload(run_once, bench_pods):
    """§5.1: the synthetic mixed workload "yielded results similar"."""
    result = _table1(run_once, "synthetic", bench_pods, seed=2)
    result.table.show()
    reserved = result.reserved
    for level in ("server", "tor", "agg"):
        assert reserved.cm_voc[level] >= reserved.cm_tag[level] - 1e-9


def test_table1_hpcloud_workload(run_once, bench_pods):
    result = _table1(run_once, "hpcloud", bench_pods, seed=3)
    result.table.show()
    reserved = result.reserved
    for level in ("server", "tor", "agg"):
        assert reserved.cm_voc[level] >= reserved.cm_tag[level] - 1e-9
