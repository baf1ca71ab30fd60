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
from typing import Sequence

__all__ = [
    "EssSequence",
    "ChannelPlan",
    "verify_skolem",
    "construct_skolem",
    "make_channel_plan",
    "ess_for_channel_count",
]

EXISTENCE_CONDITION = "congruent to 0 or 3 modulo 4"
MAX_ORDER = 79  # N' <= 80: each builds in < 0.25 s; past it the time has no bound (99: ~30 s)


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

    `free` is a bitmask of the empty slots.  This branching finds the
    lexicographically greatest sequence first.  After each placement `settle`
    places every forced value (an unused j with one placement `m`: free slots
    p and p + j + 1) until none is left, or refutes the state: a value with no
    placement, a free slot in no placement, or a clash of forced values.
    Forced values are in every completion, so the search goes on from the
    settled state, in the same order, and writes them once it succeeds.  A
    settled state (free slots and unused values) that has no completion goes
    into `dead`, for the rest of the call, and is never searched again.
    """
    size = 2 * n
    seq = [0] * size
    dead: set[tuple[int, ...]] = set()

    def settle(free: int, unused: list[int], skip: int):
        placed = []
        while True:
            cover = forced = 0
            left = []
            for j in unused:
                if j == skip:
                    continue
                m = free & free >> (j + 1)
                pair = m | m << (j + 1)
                if m & (m - 1):
                    left.append(j)
                elif not m or forced & pair:
                    return None
                else:
                    forced |= pair
                    placed.append((m.bit_length() - 1, j))
                cover |= pair
            if cover != free or not forced:
                return (free, left, placed) if cover == free else None
            free ^= forced
            unused = left

    def place(free: int, unused: list[int]) -> bool:
        if not free:
            return True
        p = (free & -free).bit_length() - 1
        for k in unused:
            q = p + k + 1
            if free >> q & 1:
                settled = settle(free ^ (1 << p) ^ (1 << q), unused, k)
                if settled is None:
                    continue
                rest, others, placed = settled
                state = (rest, *others)
                if state in dead:
                    continue
                if place(rest, others):
                    seq[p] = seq[q] = k
                    for i, j in placed:
                        seq[i] = seq[i + j + 1] = j
                    return True
                dead.add(state)
        return False

    return tuple(seq) if place((1 << size) - 1, list(range(n, 0, -1))) else None


def construct_skolem(n: int) -> tuple[int, ...]:
    """The lexicographically greatest order-n values, for n % 4 in (0, 3) and n <= MAX_ORDER.

    A pruned backtracking search (see `_fill_search`); the result is
    validated by whoever wraps it (`EssSequence`, or `sequence --order`).
    """
    if not isinstance(n, numbers.Integral) or isinstance(n, bool):
        raise TypeError(f"order must be an integer, got {n!r}")
    n = int(n)
    if not _order_exists(n):
        raise ValueError(
            f"no sequence of order {n} exists: the order must be {EXISTENCE_CONDITION}"
        )
    if n > MAX_ORDER:
        raise ValueError(f"order {n} > {MAX_ORDER}: at most {MAX_ORDER + 1} effective channels")
    found = _fill_search(n)
    if found is None:
        raise RuntimeError(f"search failed for order {n} despite existence")
    return found


@dataclass(frozen=True)
class ChannelPlan:
    """Maps N physical channels onto N' effective ones (N' % 4 in (0, 1)).

    Padding adds alias channels on top (effective i >= N aliases physical
    i - N); downsizing discards the highest-numbered physical channels.
    Both maps are derived when read, so a plan costs O(1) whatever N is.
    """

    physical_count: int
    effective_count: int
    mode: str

    @property
    def alias(self) -> tuple[int, ...]:
        return tuple(i % self.physical_count for i in range(self.effective_count))

    @property
    def discarded(self) -> tuple[int, ...]:
        if self.mode == "downsizing":
            return tuple(range(self.effective_count, self.physical_count))
        return ()


def make_channel_plan(n_channels: int, mode: str = "padding") -> ChannelPlan:
    """Normalize a physical channel count to the nearest admissible N'.

    Padding picks the smallest N' >= N, downsizing the largest N' <= N:
    N % 4 == 2 pads by 2 or drops 1, N % 4 == 3 pads by 1 or drops 2.  One
    channel, or two or three downsized, land on a degenerate N' (1) that
    `ess_for_channel_count` refuses; the plan itself allows it.
    """
    if not isinstance(n_channels, numbers.Integral) or isinstance(n_channels, bool):
        raise TypeError(f"channel count must be an integer, got {n_channels!r}")
    n_channels = int(n_channels)
    if n_channels < 1:
        raise ValueError(f"channel count must be >= 1, got {n_channels}")
    if mode not in ("padding", "downsizing"):
        raise ValueError(f"mode must be 'padding' or 'downsizing', got {mode!r}")
    pad, drop = {0: (0, 0), 1: (0, 0), 2: (2, 1), 3: (1, 2)}[n_channels % 4]
    n_eff = n_channels + pad if mode == "padding" else n_channels - drop
    return ChannelPlan(physical_count=n_channels, effective_count=n_eff, mode=mode)


@functools.lru_cache(maxsize=None, typed=True)
def ess_for_channel_count(n_effective: int) -> EssSequence:
    """The broadcast base sequence for N' effective channels (N' >= 4).

    The order-(N'-1) values with the adjacent 0-pair prepended, built and
    verified once per N'.  The cache is typed, so 12.0 never hits the entry
    for 12 and is rejected like any non-integer.
    """
    if n_effective % 4 not in (0, 1):
        raise ValueError(
            f"effective channel count {n_effective} is not congruent to 0 or 1 modulo 4"
        )
    if n_effective < 4:
        raise ValueError(f"need at least 4 effective channels, got {n_effective}")
    order = n_effective - 1
    return EssSequence(order=order, values=(0, 0) + construct_skolem(order))
