"""Poisson tenant arrival / departure streams (paper §5 setup).

"Each simulation run consists of 10,000 Poisson tenant arrivals and
departures.  Arriving tenants are uniformly sampled at random from a pool
of 80 tenants.  We vary the mean arrival rate (lambda) to control the
load on a datacenter while keeping tenant dwell time (Td) fixed; the load
is Ts * lambda * Td / (2048 x 25)" — mean tenant size times offered
tenant-rate times dwell time over total slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.tag import Tag
from repro.errors import SimulationError

__all__ = [
    "Arrival",
    "arrival_rate_for_load",
    "arrival_stream",
    "diurnal_arrivals",
    "poisson_arrivals",
    "trace_arrivals",
]


@dataclass(frozen=True)
class Arrival:
    """One tenant arrival: when it comes, which tenant, how long it stays."""

    time: float
    tenant_index: int
    dwell: float


def arrival_rate_for_load(
    load: float, total_slots: int, mean_tenant_size: float, mean_dwell: float
) -> float:
    """Invert the paper's load formula: lambda = load*slots/(Ts*Td)."""
    if not 0 < load:
        raise SimulationError(f"load must be positive, got {load!r}")
    if mean_tenant_size <= 0 or mean_dwell <= 0 or total_slots <= 0:
        raise SimulationError("sizes, dwell and slots must be positive")
    return load * total_slots / (mean_tenant_size * mean_dwell)


def poisson_arrivals(
    pool: Sequence[Tag],
    count: int,
    load: float,
    total_slots: int,
    *,
    mean_dwell: float = 1.0,
    seed: int = 0,
) -> list[Arrival]:
    """Sample ``count`` Poisson arrivals with exponential dwell times.

    Tenants are drawn uniformly from ``pool``; inter-arrival gaps are
    exponential with the rate implied by ``load``.  The materialized
    form of :func:`arrival_stream` (one block holds every draw).
    """
    return list(
        arrival_stream(
            pool,
            count,
            load,
            total_slots,
            mean_dwell=mean_dwell,
            seed=seed,
            block=count,
        )
    )


def _stream_inputs(
    pool: Sequence[Tag], count: int, mean_dwell: float, block: int
) -> float:
    """Shared validation for the streaming generators; returns mean size."""
    if not pool:
        raise SimulationError("tenant pool is empty")
    if count <= 0:
        raise SimulationError(f"need a positive arrival count, got {count}")
    if mean_dwell <= 0:
        raise SimulationError(f"mean dwell must be positive, got {mean_dwell}")
    if block <= 0:
        raise SimulationError(f"block size must be positive, got {block}")
    return float(np.mean([tag.size for tag in pool]))


def arrival_stream(
    pool: Sequence[Tag],
    count: int,
    load: float,
    total_slots: int,
    *,
    mean_dwell: float = 1.0,
    seed: int = 0,
    block: int = 8192,
) -> Iterator[Arrival]:
    """Streaming :func:`poisson_arrivals`: O(block) memory at any count.

    Random draws happen in numpy blocks of ``block`` events (three bulk
    draws per block, same draw order as the materializing function), so
    a million-event service run never holds the event list.  With
    ``block >= count`` the stream is element-for-element identical to
    ``poisson_arrivals`` at the same seed; smaller blocks interleave the
    draws differently and give a statistically identical but distinct
    stream.
    """
    mean_size = _stream_inputs(pool, count, mean_dwell, block)
    rng = np.random.default_rng(seed)
    rate = arrival_rate_for_load(load, total_slots, mean_size, mean_dwell)
    clock = 0.0
    emitted = 0
    while emitted < count:
        n = min(block, count - emitted)
        gaps = rng.exponential(1.0 / rate, size=n)
        times = np.cumsum(gaps) + clock
        indices = rng.integers(0, len(pool), size=n)
        dwells = rng.exponential(mean_dwell, size=n)
        clock = float(times[-1])
        for t, i, d in zip(times, indices, dwells):
            yield Arrival(float(t), int(i), float(d))
        emitted += n


def diurnal_arrivals(
    pool: Sequence[Tag],
    count: int,
    load: float,
    total_slots: int,
    *,
    factors: Sequence[float] | None = None,
    day_length: float = 1.0,
    mean_dwell: float = 1.0,
    seed: int = 0,
    block: int = 8192,
) -> Iterator[Arrival]:
    """Diurnal load: the Poisson rate follows a cyclic window profile.

    ``factors`` gives one relative rate per window of the day (default: a
    24-window day/night cycle from
    :func:`repro.temporal.profile.diurnal_profile`); the factors are
    normalized by their mean so ``load`` stays the *time-averaged* load
    and only the shape changes.  Inter-arrival gaps are sampled as unit
    exponentials scaled by the instantaneous rate of the window the
    clock currently sits in — the standard piecewise-constant thinning
    equivalent — and dwell times stay exponential, so the stream drops
    into the same loops as the flat Poisson one.
    """
    mean_size = _stream_inputs(pool, count, mean_dwell, block)
    if factors is None:
        from repro.temporal.profile import diurnal_profile

        factors = diurnal_profile(24).factors
    factors = tuple(float(f) for f in factors)
    if not factors or min(factors) <= 0:
        raise SimulationError("diurnal factors must be positive")
    if day_length <= 0:
        raise SimulationError(f"day length must be positive, got {day_length}")
    rng = np.random.default_rng(seed)
    base_rate = arrival_rate_for_load(load, total_slots, mean_size, mean_dwell)
    mean_factor = sum(factors) / len(factors)
    rates = tuple(base_rate * f / mean_factor for f in factors)
    window_length = day_length / len(factors)
    clock = 0.0
    emitted = 0
    while emitted < count:
        n = min(block, count - emitted)
        units = rng.exponential(1.0, size=n)
        indices = rng.integers(0, len(pool), size=n)
        dwells = rng.exponential(mean_dwell, size=n)
        for u, i, d in zip(units, indices, dwells):
            window = int(clock / window_length) % len(rates)
            clock += float(u) / rates[window]
            yield Arrival(clock, int(i), float(d))
        emitted += n


def trace_arrivals(
    events: Iterable[tuple[float, int, float]], pool_size: int | None = None
) -> Iterator[Arrival]:
    """Adapt a recorded ``(time, tenant_index, dwell)`` trace to Arrivals.

    Validates what the event loops rely on — finite, non-decreasing
    times, positive dwells (NaN is not positive; an infinite dwell never
    departs), in-range tenant indices — one event at a time, so an
    arbitrarily long trace file can be generated through without
    materialization.
    """
    last = -np.inf
    for time, tenant_index, dwell in events:
        time = float(time)
        tenant_index = int(tenant_index)
        dwell = float(dwell)
        if not math.isfinite(time):
            raise SimulationError(f"trace times must be finite, got {time}")
        if time < last:
            raise SimulationError(
                f"trace times must be non-decreasing ({time} after {last})"
            )
        if not dwell > 0:
            raise SimulationError(f"trace dwell must be positive, got {dwell}")
        if tenant_index < 0 or (pool_size is not None and tenant_index >= pool_size):
            raise SimulationError(f"trace tenant index {tenant_index} out of range")
        last = time
        yield Arrival(time, tenant_index, dwell)
