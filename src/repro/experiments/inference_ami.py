"""§3 TAG inference: adjusted mutual information vs ground truth.

"We applied this approach to the bing.com dataset ... we obtained on
average 0.54 over 80 applications using Louvain clustering, indicating
substantial commonality between the ground truth clustering and the
inferred clusters, but also the need for further improvement."

We run the same pipeline (feature vectors -> angular-similarity
projection graph -> Louvain -> AMI) over synthetic traces generated from
the bing-like pool.  Synthetic traces are cleaner than production ones,
so the expected score is similar-or-higher than 0.54; the experiment
reports the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import Scenario, ScenarioResult, Variant, registry
from repro.experiments._table import Table

__all__ = ["SCENARIO", "InferenceResult", "present", "to_results", "to_table"]

SCENARIO = Scenario(
    name="inference",
    title="§3 — TAG inference quality (AMI vs ground truth)",
    kind="inference",
    pool="bing",
    variants=(Variant("louvain"),),
    # Infer every pool application small enough to afford: the
    # projection graph is O(VMs^2), so max_vms bounds per-application
    # cost (the paper's 80 apps include 700-VM giants that need the same
    # pipeline but minutes of compute).
    params=(("max_applications", 20), ("max_vms", 60), ("noise_fraction", 0.05)),
)


@dataclass(frozen=True)
class InferenceResult:
    scores: list[float]
    mean: float
    applications: int


def to_results(result: ScenarioResult) -> list[InferenceResult]:
    """One :class:`InferenceResult` per seed."""
    return [
        InferenceResult(
            scores=r.payload["scores"],
            mean=r.payload["mean"],
            applications=r.payload["applications"],
        )
        for r in result
    ]


def to_table(result: InferenceResult) -> Table:
    table = Table(
        "§3 — TAG inference quality (adjusted mutual information)",
        ("statistic", "value"),
    )
    table.add("applications", result.applications)
    table.add("mean AMI", f"{result.mean:.2f}")
    table.add("min AMI", f"{min(result.scores):.2f}" if result.scores else "-")
    table.add("max AMI", f"{max(result.scores):.2f}" if result.scores else "-")
    table.add("paper reference", "0.54 over 80 bing.com applications")
    return table


def present(result: ScenarioResult) -> None:
    # One table per seed (the CLI allows --seeds sweeps).
    for inference in to_results(result):
        to_table(inference).show()


registry.register(SCENARIO, present)
