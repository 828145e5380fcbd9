"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by up
to ~1.5x over minutes (other guests' load on the shared cores, caches
and memory).  Measured over ten seeds, that drift alone spread
``events_per_s`` by 0.27-0.29 (interquartile range over median) —
more than any useful regression bound.  So every host-time the
benchmark reports is converted to *reference seconds*: it is multiplied
by ``REFERENCE_CALL_S / t``, where ``t`` is the CPU time one call of a
fixed pure-Python loop (:func:`reference_loop`, which belongs to the
benchmark and never changes with the program) took around the same
moment.  On a host where that call takes ``REFERENCE_CALL_S`` the
reported numbers equal the raw ones; the raw ones are printed too.
"""

from __future__ import annotations

import heapq
from time import thread_time

__all__ = ["REFERENCE_CALL_S", "reference_loop", "call_seconds"]

# CPU seconds of one reference_loop() call on the host the benchmark
# was written on (a 2-vCPU Xeon KVM guest, Python 3.11.7).
REFERENCE_CALL_S = 0.025


class _Slot:
    __slots__ = ("used", "cap")

    def __init__(self, cap: float) -> None:
        self.used = 0.0
        self.cap = cap


def reference_loop() -> int:
    """A fixed interpreter-bound mix: attribute access, floats, a heap,
    dict stores and small sorts — the kinds of work the placers do."""
    slots = [_Slot(100.0 + (i % 7)) for i in range(256)]
    heap: list[tuple[float, int]] = []
    seen: dict[int, _Slot] = {}
    for i in range(20000):
        slot = slots[(i * 31) & 255]
        x = (i % 13) * 0.75
        if slot.used + x <= slot.cap:
            slot.used += x
            seen[i & 511] = slot
            heapq.heappush(heap, (x, i))
        elif heap:
            x, _ = heapq.heappop(heap)
            slot.used = max(0.0, slot.used - x)
        if i % 97 == 0:
            sorted(slots[:32], key=lambda s: s.used)
    return len(heap) + len(seen)


def call_seconds(calls: int = 12) -> float:
    """CPU seconds per :func:`reference_loop` call, over ``calls`` calls."""
    started = thread_time()
    for _ in range(calls):
        reference_loop()
    return (thread_time() - started) / calls
