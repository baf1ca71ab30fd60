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
MAX_ORDER = 79  # the largest tabulated order: N' <= 80


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


# The lexicographically greatest sequence of each order 3..MAX_ORDER, as the first slot p of
# each value k = n, n - 1, ..., 1 (k sits at p and p + k + 1).  tests/test_skolem.py re-derives
# every entry with a backtracking search and prints a differing entry in this format.
_FIRST_SLOTS = {
    3: "0 2 1",
    4: "0 2 4 1",
    7: "0 5 3 1 7 10 2",
    8: "0 4 1 5 2 10 3 13",
    11: "0 4 1 7 2 6 3 14 17 5 18",
    12: "0 2 1 6 8 7 3 5 4 18 20 19",
    15: "0 2 1 9 8 3 18 4 19 5 23 6 21 7 24",
    16: "0 2 1 6 9 3 10 4 19 5 24 23 7 26 8 25",
    19: "0 2 1 5 9 3 12 4 11 24 6 27 7 30 8 29 28 10 31",
    20: "0 2 1 5 8 3 11 4 14 12 6 28 7 29 32 9 31 30 10 33",
    23: "0 2 1 5 7 3 12 4 13 16 6 15 32 8 33 9 34 10 39 35 37 11 36",
    24: "0 2 1 5 7 3 11 4 14 16 6 29 33 8 34 9 38 10 37 35 12 36 39 13",
    27: "0 2 1 5 7 3 10 4 13 16 6 17 36 8 37 9 38 42 11 39 12 40 43 14 41 15 44",
    28: "0 2 1 5 7 3 10 4 13 16 6 19 18 8 38 9 39 43 11 40 12 41 47 14 46 44 42 15",
    31: "0 2 1 5 7 3 10 4 13 15 6 18 21 8 22 9 42 44 11 43 12 50 45 14 49 46 54 47 16 48 17",
    32: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 42 9 43 47 11 44 12 45 51 14 46 48 16 53 17 50 49 19",
    35: "0 2 1 5 7 3 10 4 13 15 6 18 21 8 22 9 46 48 11 47 12 50 49 14 57 51 16 59 17 54 52 19 56 "
        "20 53",
    36: "0 2 1 5 7 3 10 4 13 15 6 18 22 8 45 9 46 49 11 48 12 55 50 14 51 58 16 52 17 53 56 19 54 "
        "20 57 21",
    39: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 24 9 49 51 11 54 12 52 58 14 53 55 16 64 17 61 56 19 57 "
        "60 21 63 22 59 23",
    40: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 24 9 25 52 11 53 12 54 59 14 55 57 16 56 17 67 58 19 68 "
        "63 21 60 22 61 23 62",
    43: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 56 12 57 60 14 58 66 16 59 17 62 61 19 67 "
        "73 21 74 22 63 65 24 64 69 25",
    44: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 27 55 11 58 12 57 59 14 65 60 16 61 17 62 70 19 63 "
        "75 21 64 22 69 66 24 67 25 68 26",
    47: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 29 11 59 12 62 61 14 66 63 16 64 17 65 75 19 67 "
        "76 21 68 22 69 82 24 70 25 73 72 27 71 28",
    48: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 29 11 30 12 62 64 14 63 65 16 73 17 66 68 19 67 "
        "69 21 79 22 82 70 24 83 25 71 74 27 72 28 75",
    51: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 66 14 67 70 16 68 17 69 72 19 71 "
        "82 21 73 22 85 74 24 86 25 89 78 27 76 75 79 29 77 30",
    52: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 32 12 65 67 14 70 68 16 69 17 76 71 19 72 "
        "82 21 73 22 74 86 24 75 25 92 77 27 81 78 29 79 30 80 31",
    55: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 70 14 71 74 16 72 17 73 76 19 75 "
        "86 21 77 22 78 90 24 79 25 80 93 27 96 81 29 84 30 83 82 32 85 33",
    56: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 72 74 16 73 17 76 75 19 85 "
        "77 21 78 22 79 89 24 80 25 81 95 27 82 87 29 83 30 86 84 32 107 88 33",
    59: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 36 73 14 74 77 16 76 17 82 78 19 79 "
        "90 21 80 22 81 84 24 83 25 98 97 27 85 101 29 87 30 92 86 32 89 33 88 34 91 35",
    60: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 37 14 75 77 16 80 17 78 84 19 79 "
        "81 21 85 22 82 94 24 83 25 86 98 27 103 87 29 88 30 107 89 32 92 33 91 90 35 93 36",
    63: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 80 16 81 17 82 86 19 83 "
        "85 21 84 22 87 98 24 88 25 89 102 27 90 103 29 91 30 92 97 32 93 33 96 100 35 95 94 37 "
        "122 38",
    64: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 41 16 82 17 83 86 19 84 "
        "90 21 85 22 88 87 24 101 25 89 91 27 105 92 29 93 30 103 109 32 94 33 97 99 35 95 98 37 "
        "96 124 38",
    67: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 41 83 16 84 17 88 86 19 87 "
        "93 21 89 22 90 103 24 91 25 92 95 27 94 109 29 96 30 112 115 32 114 33 97 99 35 98 104 "
        "37 100 38 101 39 102 40",
    68: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 42 16 85 17 88 87 19 92 "
        "89 21 90 22 91 103 24 93 25 94 107 27 95 97 29 96 30 111 98 32 115 33 99 105 35 101 100 "
        "37 106 38 102 104 40 132 41",
    71: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 41 16 44 17 90 92 19 91 "
        "93 21 98 22 94 96 24 95 25 111 97 27 101 99 29 100 30 114 117 32 102 33 103 123 35 104 "
        "109 37 105 38 110 107 40 106 108 42 137 43",
    72: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 41 16 44 17 47 92 19 93 "
        "96 21 94 22 95 98 24 97 25 109 99 27 100 114 29 101 30 102 115 32 103 33 104 107 35 105 "
        "113 37 106 38 111 108 40 112 110 138 42 139 43",
    75: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 41 16 46 17 93 96 19 94 "
        "98 21 102 22 97 99 24 103 25 100 115 27 101 105 29 118 30 104 106 32 122 33 107 127 35 "
        "108 116 37 109 38 110 113 40 111 120 42 112 43 144 44 114 45",
    76: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 41 16 44 17 47 96 19 97 "
        "100 21 98 22 99 102 24 101 25 116 103 27 104 117 29 105 30 106 109 32 107 33 108 128 35 "
        "127 129 37 110 38 111 119 40 113 112 42 115 43 114 145 45 118 46",
    79: "0 2 1 5 7 3 10 4 13 15 6 18 20 8 23 9 26 28 11 31 12 34 36 14 39 41 16 44 17 47 49 19 "
        "100 102 21 101 22 104 103 24 110 25 105 107 27 106 108 29 124 30 109 111 32 125 33 112 "
        "129 35 113 136 37 114 38 115 138 40 116 121 42 117 43 118 123 45 120 46 151 119 48",
}


def construct_skolem(n: int) -> tuple[int, ...]:
    """The lexicographically greatest order-n values, for n % 4 in (0, 3) and n <= MAX_ORDER.

    Read from a table; the result is validated by whoever wraps it
    (`EssSequence`, or `sequence --order`).
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
    seq = [0] * (2 * n)
    for k, p in zip(range(n, 0, -1), map(int, _FIRST_SLOTS[n].split())):
        seq[p] = seq[p + k + 1] = k
    return tuple(seq)


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
