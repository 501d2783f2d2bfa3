"""Seeded generation of the totals on test, and the data classes of one
censored dataset.

A :class:`RngStream` names a reproducible random stream by ``(seed,
stream_id)``.  Derived sub-streams let the strength and the stress totals
consume disjoint randomness.

The estimators and intervals use only the totals on test, so
:func:`draw_totals` draws those and nothing else: the total on test of r
observed failures out of n exponential units with scale s is exactly
s * Gamma(r) (Epstein & Sobel, 1953), whatever n is.  A simulation cell
seeded with ``seed`` draws its totals from the stream ``RngStream(seed)``:
every strength total from sub-stream 0, every stress total from sub-stream
1, and replicate i is element i of each, so a cell's first k replicates do
not depend on how many it has.

Cells of one seed with the same r and number of replicates therefore
scale the same standard gamma array (common random numbers).
:func:`draw_totals` keeps the arrays it has drawn, least recently used
first and up to 2 MiB in all, so each is drawn once per process; a kept
array equals a fresh draw bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "RngStream",
    "ExponentialScales",
    "CensoredSample",
    "StressStrengthData",
    "draw_totals",
]

_UINT64_BOUND = 1 << 64
_MASK64 = _UINT64_BOUND - 1


def _mix64(a: int, b: int) -> int:
    # splitmix64 finalizer over the packed pair; distinct (a, b) collide with
    # probability ~2**-64, which keeps derived stream ids disjoint in practice.
    z = (a * 0x9E3779B97F4A7C15 + b + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A named pseudo-random stream; (seed, stream_id) determine every draw."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not (isinstance(value, int) and not isinstance(value, bool)
                    and 0 <= value < _UINT64_BOUND):
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")

    def substream(self, index: int) -> "RngStream":
        """Derive the index-th child stream, disjoint from its siblings."""
        if not (isinstance(index, int) and not isinstance(index, bool)
                and 0 <= index < _UINT64_BOUND):
            raise ValueError(f"index must be an unsigned 64-bit integer, got {index!r}")
        return RngStream(self.seed, _mix64(self.stream_id, index))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.stream_id)))


@dataclass(frozen=True)
class ExponentialScales:
    """Mean strength ``alpha`` and mean stress ``beta``."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be a positive finite scale, got {value}")


@dataclass(frozen=True)
class CensoredSample:
    """The observed order statistics out of ``total_units`` units.

    ``observed`` is the number of recorded times and ``ttt`` the total time
    on test: the sum of the observed failure times plus the censoring time
    contributed by every unit still running.  Both are derived from the
    times.
    """

    ordered_times: tuple[float, ...]
    total_units: int
    observed: int = field(init=False)
    ttt: float = field(init=False)

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.ordered_times)
        if not times:
            raise ValueError("at least one observed failure time is required")
        units = self.total_units
        if not isinstance(units, (int, np.integer)) or isinstance(units, bool):
            raise ValueError(f"total_units must be an integer, got {self.total_units!r}")
        if self.total_units < len(times):
            raise ValueError(
                f"total_units must be >= observed, got {self.total_units} < {len(times)}"
            )
        for t in times:
            if not (math.isfinite(t) and t > 0.0):
                raise ValueError(f"failure times must be positive and finite, got {t}")
        for earlier, later in zip(times, times[1:]):
            if later < earlier:
                raise ValueError("failure times must be nondecreasing")
        object.__setattr__(self, "ordered_times", times)
        object.__setattr__(self, "observed", len(times))
        ttt = math.fsum(times) + (self.total_units - len(times)) * times[-1]
        object.__setattr__(self, "ttt", ttt)

    @classmethod
    def from_times(cls, times: Sequence[float], total_units: int) -> "CensoredSample":
        """Build a sample from observed failure times, sorting if needed."""
        return cls(sorted(float(t) for t in times), total_units)


@dataclass(frozen=True)
class StressStrengthData:
    """One strength sample and one stress sample, drawn independently."""

    strength: CensoredSample
    stress: CensoredSample


def _check_counts(**counts: int) -> None:
    """Raise ValueError for the first count that is not a positive integer (a bool is not)."""
    for name, value in counts.items():
        if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


class _DrawMemo:
    """Standard gamma arrays by (sub-stream, shape, count), least recently
    used first.  The kept arrays are read-only and hold at most ``budget``
    values in all; a larger draw is returned but not kept."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.arrays: OrderedDict[tuple[RngStream, int, int], np.ndarray] = OrderedDict()
        # A running total: summing the kept sizes on every miss costs more
        # than the draws it saves.
        self.held = 0

    def standard_gamma(self, stream: RngStream, shape: int, count: int) -> np.ndarray:
        key = (stream, shape, count)
        draws = self.arrays.get(key)
        if draws is not None:
            self.arrays.move_to_end(key)
            return draws
        draws = stream.generator().standard_gamma(shape, count)
        if draws.size <= self.budget:
            draws.flags.writeable = False
            self.arrays[key] = draws
            self.held += draws.size
            while self.held > self.budget:
                self.held -= self.arrays.popitem(last=False)[1].size
        return draws


# 2**18 float64 values, 2 MiB: the 7-table study keeps 38 arrays of 2999 and
# the coverage study 12 of 10**4.
_DRAW_MEMO_VALUES = 1 << 18
_DRAWS = _DrawMemo(_DRAW_MEMO_VALUES)


def draw_totals(
    params: ExponentialScales,
    r1: int,
    r2: int,
    count: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` independent pairs of totals on test (Z, V).

    Z is the strength total of ``r1`` observed failures and V the stress
    total of ``r2``.  The normalized spacings of an exponential sample are
    independent exponentials with the sample's scale, so Z = alpha *
    Gamma(r1) and V = beta * Gamma(r2) exactly, for every number of units
    on test.  Z comes from sub-stream 0 of ``rng`` and V from sub-stream 1,
    in order, so the first k pairs are the same for every ``count >= k``.

    Each standard gamma array is what a fresh ``generator()`` of its
    sub-stream draws first.  Calls that repeat a (sub-stream, r, count)
    take it from a bounded memo instead of drawing it again; the returned
    totals are new arrays either way.
    """
    _check_counts(r1=r1, r2=r2, count=count)
    z = params.alpha * _DRAWS.standard_gamma(rng.substream(0), r1, count)
    v = params.beta * _DRAWS.standard_gamma(rng.substream(1), r2, count)
    return z, v
