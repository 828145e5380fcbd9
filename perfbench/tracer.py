"""Out-of-tree instrumentation: wrappers patched onto the program's layers.

Nothing here lives inside ``src/``.  The benchmark wraps the public
functions of each layer from outside — class attributes (patched before
the ledger, placer and loop are constructed, because some consumers bind
methods at construction) and ``repro._kernels`` module attributes (which
consumers read at call time) — and restores every patched attribute on
exit.

Two levels:

* :class:`Probe` — always installed, also in the measured (untraced)
  runs: times each placer ``place()`` call in thread CPU time, records
  its outcome and the live allocations, and counts departures.  Its
  cost is one clock pair (~1 us) per placer call and one dict operation
  per admission/departure.
* :class:`SpanRecorder` — traced runs only: one span (name, start, end,
  parent span, arrival id) per wrapped call, with exclusive ("self")
  time computed online from a stack, so aggregates are exact however
  many spans the bounded in-memory list keeps for the Chrome trace.
"""

from __future__ import annotations

import json
from time import perf_counter, thread_time
from typing import Callable, Iterable, Iterator

__all__ = [
    "Patcher",
    "Probe",
    "SpanRecorder",
    "chrome_trace",
    "install_layers",
    "KERNEL_NAMES",
]


class Patcher:
    """Set attributes on classes or modules; restore them all on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        own = vars(owner)
        self._saved.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, had, old = self._saved.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def _placer_classes() -> tuple[type, ...]:
    from repro.placement.cloudmirror import CloudMirrorPlacer
    from repro.placement.oktopus import OktopusPlacer
    from repro.placement.secondnet import SecondNetPlacer

    return (CloudMirrorPlacer, OktopusPlacer, SecondNetPlacer)


def _allocation_classes() -> tuple[type, ...]:
    from repro.placement.secondnet import PipeAllocation
    from repro.placement.state import TenantAllocation

    return (TenantAllocation, PipeAllocation)


class Probe:
    """Placer timing, decisions and live-allocation bookkeeping."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Fresh per-repetition state (the patches stay installed)."""
        self.latencies: list[float] = []
        self.accepts: list[bool] = []
        self.live: dict[int, object] = {}
        self.departures = 0
        self.unknown_releases = 0
        self.failed = 0
        self.first_error: str | None = None

    def install(self, patcher: Patcher) -> None:
        from repro.placement.base import Placement, Rejection

        probe = self
        for cls in _placer_classes():

            def place(placer, tag, _orig=cls.place):
                t0 = thread_time()
                try:
                    result = _orig(placer, tag)
                except Exception as exc:  # a failed arrival, not a crash
                    probe.latencies.append(thread_time() - t0)
                    probe.failed += 1
                    if probe.first_error is None:
                        probe.first_error = repr(exc)
                    probe.accepts.append(False)
                    return Rejection(tag, f"placer raised {exc!r}")
                probe.latencies.append(thread_time() - t0)
                accepted = isinstance(result, Placement)
                probe.accepts.append(accepted)
                if accepted:
                    probe.live[id(result.allocation)] = result.allocation
                return result

            patcher.set(cls, "place", place)
        for cls in _allocation_classes():

            def release(allocation, _orig=cls.release):
                _orig(allocation)
                probe.departures += 1
                if probe.live.pop(id(allocation), None) is None:
                    probe.unknown_releases += 1

            patcher.set(cls, "release", release)


class SpanRecorder:
    """In-memory spans with online exclusive-time aggregation.

    ``stats[name]`` is ``[calls, total_s, self_s, max_s]``.  A span's
    self time is its duration minus the time its direct child spans
    cover; ``root_s`` sums the durations of spans with no parent, so a
    run's wall time minus ``root_s`` is the time spent outside every
    wrapped layer.  At most ``max_spans`` spans are kept for export;
    ``dropped`` counts the rest (their aggregates are still exact).
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.max_spans = max_spans
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.root_s = 0.0
        self.arrival = -1
        self.keep = True
        self._stack: list[list] = []
        self._seq = 0

    def reset(self) -> None:
        """Zero the aggregates (keep the exported spans of earlier runs)."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self.root_s = 0.0
        self.arrival = -1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        recorder = self
        clock = perf_counter

        def traced(*args, **kwargs):
            recorder._seq += 1
            frame = [recorder._seq, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if duration > stats[3]:
                    stats[3] = duration
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                else:
                    recorder.root_s += duration
                    parent_id = 0
                if recorder.keep:
                    if len(spans) < recorder.max_spans:
                        spans.append(
                            (frame[0], parent_id, name, start, end, recorder.arrival)
                        )
                    else:
                        recorder.dropped += 1

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted under ``name`` without a span (cheap calls)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def arrivals(self, events: Iterable) -> Iterator:
        """Yield ``events`` with each ``next()`` recorded as a span.

        The recorded arrival id (the index of the most recent arrival)
        tags every span opened until the next arrival is drawn.
        """
        stream = iter(events)
        draw = self.wrap("arrivals.gen", stream.__next__)
        while True:
            try:
                event = draw()
            except StopIteration:
                return
            self.arrival += 1
            yield event

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0, 0.0))[2] * 1e3

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]


# The ten repro._kernels dispatch names (a test pins this against the
# package's own list).
KERNEL_NAMES = (
    "ledger_adjust",
    "temporal_adjust",
    "path_link_ids",
    "expand_edges",
    "placed_peers",
    "rack_order",
    "pipes_feasible",
    "commit_pipes",
    "eq1_requirement",
    "voc_requirement",
)


def install_layers(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Wrap every measured layer's public entry points in spans."""
    from repro import _kernels
    from repro.placement.candidates import CandidateIndex
    from repro.placement.state import TenantAllocation
    from repro.simulation import cluster
    from repro.topology.ledger import Ledger

    wrap = recorder.wrap
    for cls in _placer_classes():
        patcher.set(cls, "place", wrap("placement", cls.place))
    for method, span in (
        ("place", "state.trial_place"),
        ("rollback", "state.rollback"),
        ("finalize", "state.finalize"),
    ):
        patcher.set(TenantAllocation, method, wrap(span, getattr(TenantAllocation, method)))
    patcher.set(
        TenantAllocation,
        "savepoint",
        recorder.counter("state.savepoints", TenantAllocation.savepoint),
    )
    for method in ("best_fit", "most_free", "rack_candidates"):
        patcher.set(
            CandidateIndex, method, wrap("candidates.lookup", getattr(CandidateIndex, method))
        )
    patcher.set(CandidateIndex, "touch_path", wrap("candidates.touch", CandidateIndex.touch_path))
    patcher.set(Ledger, "adjust_uplink_id", wrap("ledger.adjust", Ledger.adjust_uplink_id))
    patcher.set(Ledger, "rollback", wrap("ledger.rollback", Ledger.rollback))
    for method in ("reserve_slots", "release_slots"):
        patcher.set(
            Ledger, method, recorder.counter(f"ledger.{method}", getattr(Ledger, method))
        )
    patcher.set(
        Ledger,
        "server_bandwidth_fraction",
        wrap("simulation.util_sweep", Ledger.server_bandwidth_fraction),
    )
    patcher.set(cluster, "allocation_wcs", wrap("simulation.wcs", cluster.allocation_wcs))
    for cls in _allocation_classes():
        patcher.set(cls, "release", wrap("simulation.depart", cls.release))
    for name in KERNEL_NAMES:
        patcher.set(_kernels, name, wrap(f"kernels.{name}", getattr(_kernels, name)))


def chrome_trace(recorder: SpanRecorder, path, *, process_name: str) -> int:
    """Write the kept spans as Chrome-trace JSON (Perfetto opens it).

    Complete ("X") events on one thread, microsecond timestamps relative
    to the first span; ``args`` carries span id, parent id and arrival
    id.  Returns the number of events written.
    """
    spans = recorder.spans
    origin = min((s[3] for s in spans), default=0.0)
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for span_id, parent, name, start, end, arrival in spans:
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "arrival": arrival},
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": recorder.dropped},
            },
            fh,
        )
    return len(events) - 1
