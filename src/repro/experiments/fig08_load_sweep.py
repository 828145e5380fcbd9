"""Fig. 8: rejection rates vs datacenter load at B_max = 800 Mbps.

"OVOC fails to deploy a set of tenants having large slot or bandwidth
demands even at low loads while CM efficiently places most of them."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table
from repro.simulation.metrics import RunMetrics

__all__ = ["points", "present", "to_chart", "to_table", "SCENARIO", "DEFAULT_LOADS"]

DEFAULT_LOADS = (0.1, 0.3, 0.5, 0.7, 0.9)

SCENARIO = Scenario(
    name="fig08",
    title="Fig. 8 — rejection rates vs load, B_max = 800 Mbps",
    kind="rejection",
    variants=(Variant("cm"), Variant("ovoc")),
    loads=DEFAULT_LOADS,
    bmaxes=(800.0,),
)


@dataclass(frozen=True)
class LoadPoint:
    load: float
    algorithm: str
    metrics: RunMetrics


def points(result: ScenarioResult) -> list[LoadPoint]:
    return [
        LoadPoint(r.trial.load, r.trial.variant.name, r.payload) for r in result
    ]


def to_table(points: list[LoadPoint]) -> Table:
    table = Table(
        "Fig. 8 — rejection rates (%) vs load, B_max = 800 Mbps",
        ("load", "algorithm", "BW rejected", "VM rejected"),
    )
    for p in points:
        table.add(
            f"{p.load:.0%}",
            p.algorithm,
            f"{p.metrics.bw_rejection_rate:.1%}",
            f"{p.metrics.vm_rejection_rate:.1%}",
        )
    return table


def to_chart(points: list[LoadPoint]) -> str:
    from repro.experiments._chart import line_chart

    series = {}
    for p in points:
        series.setdefault(p.algorithm, []).append(
            (p.load * 100, p.metrics.bw_rejection_rate * 100)
        )
    return line_chart(
        series,
        title="Fig. 8 — rejected bandwidth (%) vs load (%)",
        x_label="load (%)",
    )


def present(result: ScenarioResult) -> None:
    sweep = points(result)
    to_table(sweep).show()
    print(to_chart(sweep))
    # Seed-replicated grids additionally get mean ± bootstrap CI rows
    # and a banded chart.
    from repro.results.present import seed_replicated_summary

    summary = seed_replicated_summary(
        result, metric="bw_rejection_rate", axis="load"
    )
    if summary:
        print(summary)


registry.register(SCENARIO, present, aliases=("fig8",))
