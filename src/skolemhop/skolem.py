"""Skolem-type hopping sequences and channel-count normalization.

A sequence of order n is a permutation of {1,1,2,2,...,n,n} in which the two
copies of k sit exactly k+1 positions apart; it exists iff n is congruent to
0 or 3 modulo 4.  The extended form prepends two zeros (the 0-pair is 1 apart)
and is the period of every hopping schedule built here.  Channel counts that
do not support an extended sequence are normalized by padding (alias channels)
or downsizing (discarding the highest channels).
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = [
    "SkolemSequence",
    "EssSequence",
    "ChannelPlan",
    "verify_skolem",
    "construct_skolem",
    "enumerate_skolem",
    "extend_to_ess",
    "make_channel_plan",
    "ess_for_channel_count",
]

EXISTENCE_CONDITION = "congruent to 0 or 3 modulo 4"


def _order_exists(n: int) -> bool:
    return n >= 1 and n % 4 in (0, 3)


def verify_skolem(values: Sequence[int], zero_based: bool = False) -> bool:
    """True iff `values` is a valid sequence (extended form when zero_based).

    A predicate, not a validator: malformed input of any shape returns False.
    """
    vals = list(values)
    if not vals or len(vals) % 2:
        return False
    if not all(isinstance(v, numbers.Integral) for v in vals):
        return False
    vals = [int(v) for v in vals]
    lo = 0 if zero_based else 1
    distinct = len(vals) // 2
    first: dict[int, int] = {}
    seen_twice: set[int] = set()
    for i, v in enumerate(vals):
        if v in seen_twice:
            return False
        if v in first:
            if i - first[v] != v + 1:
                return False
            seen_twice.add(v)
        else:
            first[v] = i
    return seen_twice == set(range(lo, lo + distinct)) and len(first) == distinct


@dataclass(frozen=True)
class SkolemSequence:
    """A validated order-n sequence (values 1..n, copies k+1 apart)."""

    order: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 2 * self.order or not verify_skolem(self.values):
            raise ValueError(f"not a valid order-{self.order} sequence: {self.values}")

    @property
    def period(self) -> int:
        return 2 * self.order


@dataclass(frozen=True)
class EssSequence:
    """A validated extended sequence of order n (values 0..n, length 2(n+1))."""

    order: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 2 * (self.order + 1) or not verify_skolem(
            self.values, zero_based=True
        ):
            raise ValueError(
                f"not a valid order-{self.order} extended sequence: {self.values}"
            )

    @property
    def period(self) -> int:
        """Slots per frame: 2N' where N' = order + 1 effective channels."""
        return 2 * (self.order + 1)

    @property
    def n_effective(self) -> int:
        return self.order + 1


def _fill_search(n: int) -> tuple[int, ...] | None:
    """Deterministic backtracking: values descending into the leftmost empty slot.

    `free` is a bitmask of the empty slots.  A branch is cut as soon as some
    unused value k has no two free slots k+1 apart; such a branch has no
    completion, so the first solution found is the same as without the cut.
    """
    size = 2 * n
    seq = [0] * size

    def place(free: int, unused: list[int]) -> bool:
        if not free:
            return True
        p = (free & -free).bit_length() - 1
        for k in unused:
            q = p + k + 1
            if free >> q & 1:
                rest = free ^ (1 << p) ^ (1 << q)
                others = [j for j in unused if j != k]
                if all(rest & rest >> (j + 1) for j in others) and place(rest, others):
                    seq[p] = seq[q] = k
                    return True
        return False

    return tuple(seq) if place((1 << size) - 1, list(range(n, 0, -1))) else None


def construct_skolem(n: int) -> SkolemSequence:
    """Deterministic construction for any order n with n % 4 in (0, 3).

    A pruned backtracking search (see `_fill_search`); the result is
    re-validated by `SkolemSequence`.
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise TypeError(f"order must be an integer, got {n!r}")
    n = int(n)
    if not _order_exists(n):
        raise ValueError(
            f"no sequence of order {n} exists: the order must be {EXISTENCE_CONDITION}"
        )
    found = _fill_search(n)
    if found is None:
        raise RuntimeError(f"search failed for order {n} despite existence")
    return SkolemSequence(order=n, values=found)


def enumerate_skolem(n: int, limit: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield every order-n sequence (brute force; independent of construct).

    Placement order: values descending, positions left to right.  Intended
    as an oracle for small orders; counts grow fast beyond order 12.
    """
    if not _order_exists(n):
        return
    size = 2 * n
    seq = [0] * size
    out: list[tuple[int, ...]] = []

    def place(k: int) -> bool:
        if k == 0:
            out.append(tuple(seq))
            return limit is not None and len(out) >= limit
        d = k + 1
        for i in range(size - d):
            if seq[i] == 0 and seq[i + d] == 0:
                seq[i] = seq[i + d] = k
                if place(k - 1):
                    return True
                seq[i] = seq[i + d] = 0
        return False

    place(n)
    yield from out


def extend_to_ess(s: SkolemSequence) -> EssSequence:
    """Prepend the adjacent 0-pair, keeping the order."""
    return EssSequence(order=s.order, values=(0, 0) + s.values)


@dataclass(frozen=True)
class ChannelPlan:
    """Maps N physical channels onto N' effective ones (N' % 4 in (0, 1)).

    Padding adds alias channels on top (effective i >= N aliases physical
    i - N); downsizing discards the highest-numbered physical channels.
    """

    physical_count: int
    effective_count: int
    mode: str
    alias: tuple[int, ...]

    @property
    def discarded(self) -> tuple[int, ...]:
        if self.mode == "downsizing":
            return tuple(range(self.effective_count, self.physical_count))
        return ()


def make_channel_plan(n_channels: int, mode: str = "padding") -> ChannelPlan:
    """Normalize a physical channel count to the nearest admissible N'.

    Padding picks the smallest N' >= N, downsizing the largest N' <= N
    (always at most 2 away).  Downsizing below nine channels can land on a
    degenerate N' (1) that the simulator refuses; the plan itself allows it.
    """
    if not isinstance(n_channels, numbers.Integral) or isinstance(n_channels, bool):
        raise TypeError(f"channel count must be an integer, got {n_channels!r}")
    n_channels = int(n_channels)
    if n_channels < 1:
        raise ValueError(f"channel count must be >= 1, got {n_channels}")
    if mode not in ("padding", "downsizing"):
        raise ValueError(f"mode must be 'padding' or 'downsizing', got {mode!r}")
    if mode == "padding":
        n_eff = n_channels
        while n_eff % 4 not in (0, 1):
            n_eff += 1
        alias = tuple(range(n_channels)) + tuple(i - n_channels for i in range(n_channels, n_eff))
    else:
        n_eff = n_channels
        while n_eff >= 1 and n_eff % 4 not in (0, 1):
            n_eff -= 1
        if n_eff < 1:
            raise ValueError(f"no admissible effective count below {n_channels}")
        alias = tuple(range(n_eff))
    return ChannelPlan(
        physical_count=n_channels, effective_count=n_eff, mode=mode, alias=alias
    )


@functools.lru_cache(maxsize=None, typed=True)
def ess_for_channel_count(n_effective: int) -> EssSequence:
    """The broadcast base sequence for N' effective channels (N' >= 4).

    Built and verified once per N'.  The cache is typed, so 12.0 never hits
    the entry for 12 and is rejected like any non-integer.
    """
    if n_effective % 4 not in (0, 1):
        raise ValueError(
            f"effective channel count {n_effective} is not congruent to 0 or 1 modulo 4"
        )
    if n_effective < 4:
        raise ValueError(f"need at least 4 effective channels, got {n_effective}")
    return extend_to_ess(construct_skolem(n_effective - 1))
