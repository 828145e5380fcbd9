"""Correctness checks and the tail-percentile rule of the benchmark.

Every measured run is checked from outside the program:

* a *decision digest* — SHA-256 over the accept/reject sequence plus the
  ledger's end-state fingerprint — must be equal across repetitions,
  between traced and untraced runs, and to the digest recorded for the
  workload's default seed;
* the ledger must balance against the benchmark's own bookkeeping of
  live allocations (see :func:`consistency_errors`).
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

__all__ = [
    "decision_digest",
    "consistency_errors",
    "tail_percentile",
    "percentile",
]


def decision_digest(decisions: Sequence[bool], fingerprint: str) -> str:
    """SHA-256 over the accept (1) / reject (0) sequence and end state."""
    h = hashlib.sha256(bytes(1 if d else 0 for d in decisions))
    h.update(b"|")
    h.update(fingerprint.encode())
    return h.hexdigest()


def placed_vms(allocation) -> int:
    """VMs an allocation holds, read through its public server view."""
    return sum(
        sum(counts.values()) for _, counts in allocation.iter_server_placements()
    )


def consistency_errors(
    *,
    arrivals: int,
    decisions: Sequence[bool],
    departures: int,
    live: Sequence[object],
    ledger,
    unknown_releases: int = 0,
) -> list[str]:
    """Ledger-versus-bookkeeping mismatches (empty when consistent).

    ``live`` are the allocations the benchmark saw accepted and not yet
    released; the ledger's used slots must equal the VMs they hold.
    """
    errors = []
    accepted = sum(1 for d in decisions if d)
    rejected = len(decisions) - accepted
    if accepted + rejected != arrivals:
        errors.append(
            f"accepted {accepted} + rejected {rejected} != arrivals {arrivals}"
        )
    if accepted - departures != len(live):
        errors.append(
            f"accepted {accepted} - departures {departures} "
            f"!= live allocations {len(live)}"
        )
    if unknown_releases:
        errors.append(f"{unknown_releases} releases of unknown allocations")
    root = ledger.flat.root_id
    used = ledger.topology.total_slots - ledger.free_slots_id(root)
    held = sum(placed_vms(a) for a in live)
    if held != used:
        errors.append(f"live allocations hold {held} VMs but {used} slots are used")
    if ledger.has_overcommit():
        errors.append(f"ledger overcommitted on {sorted(ledger.overcommitted_nodes())}")
    return errors


def tail_percentile(samples: int) -> int | None:
    """Highest whole percentile, at most 99, with >= 10 samples beyond it.

    Nearest-rank: percentile ``p`` of ``n`` samples is the sample of rank
    ``ceil(p * n / 100)``, leaving ``n - rank`` samples beyond it.
    ``None`` when there are too few samples for any percentile.
    """
    if samples <= 10:
        return None
    p = min(99, (100 * (samples - 10)) // samples)
    # Integer floor can land one low of the true bound; never one high.
    while p < 99 and samples - math.ceil((p + 1) * samples / 100) >= 10:
        p += 1
    return p


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already-sorted samples."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p * len(sorted_samples) / 100))
    return sorted_samples[rank - 1]
