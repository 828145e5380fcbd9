"""Small-scale smoke tests of the sweep experiment drivers."""

from __future__ import annotations

from repro.engine import Engine, TopologyCase
from repro.experiments import (
    fig07_bmax_sweep,
    fig08_load_sweep,
    fig09_oversub_sweep,
    fig12_opportunistic_ha,
)
from repro.topology.builder import DatacenterSpec

TINY = dict(pods=1, arrivals=80, seeds=(0,))


class TestFig7:
    def test_single_point_sweep(self):
        scenario = fig07_bmax_sweep.SCENARIO.override(
            loads=(0.5,), bmaxes=(600.0,), **TINY
        )
        points = fig07_bmax_sweep.points(Engine().run(scenario))
        assert len(points) == 2  # cm + ovoc
        cm, ovoc = points
        assert cm.algorithm == "cm"
        assert 0.0 <= cm.metrics.bw_rejection_rate <= 1.0
        table = fig07_bmax_sweep.to_table(points)
        assert "600" in table.to_text()


class TestFig8:
    def test_two_loads(self):
        scenario = fig08_load_sweep.SCENARIO.override(loads=(0.3, 0.8), **TINY)
        points = fig08_load_sweep.points(Engine().run(scenario))
        assert len(points) == 4
        chart = fig08_load_sweep.to_chart(points)
        assert "cm" in chart and "ovoc" in chart


class TestFig9:
    def test_single_ratio(self):
        spec = DatacenterSpec(pods=1, tor_oversub=4.0, agg_oversub=8.0)
        scenario = fig09_oversub_sweep.SCENARIO.override(
            topologies=(TopologyCase("32x", spec),), **TINY
        )
        points = fig09_oversub_sweep.points(Engine().run(scenario))
        assert {p.oversubscription for p in points} == {32}
        text = fig09_oversub_sweep.to_table(points).to_text()
        assert "32x" in text


class TestFig12:
    def test_three_modes(self):
        scenario = fig12_opportunistic_ha.SCENARIO.override(bmaxes=(800.0,), **TINY)
        points = fig12_opportunistic_ha.points(Engine().run(scenario))
        modes = [p.mode for p in points]
        assert modes == ["cm", "cm+ha", "cm+oppha"]
        ha_point = points[1]
        # The guarantee mode keeps its floor even at tiny scale.
        if ha_point.metrics.wcs.values:
            assert ha_point.metrics.wcs.minimum >= 0.5 - 1e-9
