"""The benchmark's workloads: input identity, rationale and construction.

Every workload is a closed loop with one caller: the next arrival is
decided only after the previous decision returns.  Simulated time
(Poisson arrival times, exponential dwell) orders arrivals and
departures; every timing the benchmark reports is host time.

The arrival count is part of a workload's identity: ``arrival_stream``
draws ``min(block, count)`` values per block, so streams of different
lengths share no prefix.  Changing a count, pool, load or placer starts
a new baseline, and the recorded ``digest`` (the decision digest at the
default seed, see :mod:`perfbench.checks`) must be regenerated: a run
prints its digest on its ``detail:`` line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["WORKLOADS", "Workload", "Instance", "prepare", "instantiate"]


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str  # "service": ServiceLoop; "figure": ClusterManager per-event loop
    placer: str  # make_placer name
    backend: str  # repro._kernels backend pinned for the run
    pool: str  # "bing" (scaled to bmax) or "toy16" (unscaled)
    bmax: float | None
    pods: int
    load: float
    arrivals: int
    cohort: int | None
    heartbeat: int | None
    default_seed: int
    digest: str
    stresses: str

    def identity(self) -> dict:
        """The full input identity, as recorded and printed."""
        return {
            "pool": self.pool,
            "bmax": self.bmax,
            "spec": f"three_level_tree(DatacenterSpec(pods={self.pods}))",
            "load": self.load,
            "profile": "poisson",
            "loop": self.loop,
            "cohort": self.cohort,
            "heartbeat": self.heartbeat,
            "placer": self.placer,
            "backend": self.backend,
            "arrivals": self.arrivals,
            "default_seed": self.default_seed,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-cm-service",
            loop="service",
            placer="cm",
            backend="py",
            pool="bing",
            bmax=800.0,
            pods=2,
            load=0.9,
            arrivals=2000,
            cohort=64,
            heartbeat=4096,
            default_seed=0,
            digest="f688235a6e5ef3bb785bd41d6a745c68845127262351378aa2c64e92a15ddeff",
            stresses=(
                "CloudMirror's deep search (trial place + rollback) past the "
                "fill transient; the loop itself is under 1%"
            ),
        ),
        Workload(
            name="paper-ovoc-figure",
            loop="figure",
            placer="ovoc",
            backend="py",
            pool="bing",
            bmax=800.0,
            pods=2,
            load=0.9,
            arrivals=8000,
            cohort=None,
            heartbeat=None,
            default_seed=0,
            digest="785d2f9697abf7e426ddcad20371bed939238216b92a590b52bd2c105ca8eece",
            stresses=(
                "the per-event ClusterManager loop of Figs. 7-12: Oktopus, "
                "trial commit, VOC kernel and per-admission bookkeeping"
            ),
        ),
        Workload(
            name="paper-secondnet-c",
            loop="service",
            placer="secondnet",
            backend="c",
            pool="bing",
            bmax=800.0,
            pods=2,
            load=0.9,
            arrivals=1000,
            cohort=64,
            heartbeat=4096,
            default_seed=0,
            digest="1c8fdb1bf3f9387324440fce8d36ad7592371a475e18de987ddf23ee5150cfcf",
            stresses=(
                "the compiled repro._kernels path (expand_edges, commit_pipes) "
                "and Ledger.rollback under SecondNet"
            ),
        ),
        Workload(
            name="toy-gate-overload",
            loop="service",
            placer="cm",
            backend="py",
            pool="toy16",
            bmax=None,
            pods=4,
            load=30.0,
            arrivals=250_000,
            cohort=256,
            heartbeat=4096,
            default_seed=7,
            digest="da50e6380a81d66df1a643466f977a80ba7b1fcd8eef6841524f51e08d63a833",
            stresses=(
                "the root free-slot gate and the ServiceLoop itself: ~95% of "
                "arrivals rejected without a placer call"
            ),
        ),
    )
}


def toy_pool():
    """The 16-tenant three-tier pool of the rejection-gate regime."""
    from repro.workloads.patterns import three_tier

    return [
        three_tier(f"svc-{i}", (2 + i % 3, 2, 1 + i % 2), b1=20.0, b2=10.0, b3=5.0)
        for i in range(16)
    ]


@dataclass
class Prepared:
    """Immutable inputs shared by every repetition of a run."""

    workload: Workload
    seed: int
    pool: list
    topology: object
    events: Callable[[], object]  # a fresh arrival iterable per call


def prepare(workload: Workload, seed: int) -> Prepared:
    """Parse and scale the pool, build the topology, generate arrivals.

    The figure loop's arrivals are materialized here (as
    ``simulate_rejections`` does); the service loop's are a lazy
    ``arrival_stream``, generated inside the measured loop.
    """
    from repro.simulation.arrivals import arrival_stream, poisson_arrivals
    from repro.topology.builder import DatacenterSpec, three_level_tree
    from repro.workloads.bing import bing_pool
    from repro.workloads.scaling import scale_pool

    if workload.pool == "bing":
        pool = list(scale_pool(bing_pool(), workload.bmax))
    else:
        pool = toy_pool()
    topology = three_level_tree(DatacenterSpec(pods=workload.pods))
    topology.flat  # noqa: B018 - materialize the flat arrays in set-up
    args = (pool, workload.arrivals, workload.load, topology.total_slots)
    if workload.loop == "figure":
        materialized = poisson_arrivals(*args, seed=seed)
        events = lambda: materialized  # noqa: E731
    else:
        events = lambda: arrival_stream(*args, seed=seed)  # noqa: E731
    return Prepared(workload, seed, pool, topology, events)


@dataclass
class Instance:
    """Fresh mutable state for one repetition, ready for its first arrival."""

    ledger: object
    decisions: list
    run: Callable[[object], dict]  # events -> {"arrivals", "bw_rejected_pct"}


def instantiate(prepared: Prepared, probe) -> Instance:
    """Ledger, placer (with its candidate index) and the loop to run."""
    from repro.simulation.runner import make_placer
    from repro.topology.ledger import Ledger

    workload = prepared.workload
    pool = prepared.pool
    ledger = Ledger(prepared.topology)
    placer = make_placer(workload.placer, ledger)
    if workload.loop == "service":
        from repro.simulation.service import ServiceLoop

        decisions: list = []
        loop = ServiceLoop(
            ledger,
            placer,
            pool,
            cohort=workload.cohort,
            heartbeat=workload.heartbeat,
            on_decision=decisions.append,
        )

        def run(events) -> dict:
            report = loop.run(events)
            return {
                "arrivals": report["arrivals"],
                "bw_rejected_pct": 100.0 * report["bw_rejected"] / report["bw_total"],
            }

        return Instance(ledger, decisions, run)

    from repro.simulation.cluster import ClusterManager, run_arrival_departure

    manager = ClusterManager(ledger, placer)

    def run(events) -> dict:
        metrics = run_arrival_departure(manager, events, pool)
        return {
            "arrivals": metrics.tenants_total,
            "bw_rejected_pct": 100.0 * metrics.bw_rejection_rate,
        }

    # Every arrival of the per-event loop reaches the placer, so the
    # probe's per-call outcomes are the decision sequence.
    return Instance(ledger, probe.accepts, run)
