"""Cyclic-shift algebra over hopping sequences.

Two shifted copies shift(u, a)[t] = u[(t + a) mod P] of the same extended
sequence u coincide on exactly one channel per period (channel |g|-1 for
relative drift g, every channel when g = 0), and on one slot when
0 < |g| < N', two when |g| = N'.  A receiver can therefore read its clock
drift off the channel where deliveries happen; the exhaustive checkers at
the bottom verify those facts for a given base sequence, every shift pair
through one pass over all P rotations of it.
"""

from __future__ import annotations

import functools
from typing import Callable

from .skolem import EssSequence

__all__ = [
    "ALL_CHANNELS",
    "canonical_drift",
    "drift_channel_table",
    "check_channel_map",
    "check_slot_counts",
]

# Sentinel for "every channel is a delivery channel" (zero relative drift).
ALL_CHANNELS = "all"


def canonical_drift(g_raw: int, period: int) -> int:
    """Reduce a raw drift to the representative g with |g| <= period/2.

    Both +N' and -N' name the same shifted sequence when the period is 2N';
    the positive one is returned.
    """
    if period <= 0 or period % 2:
        raise ValueError(f"period must be a positive even integer, got {period}")
    g = g_raw % period
    return g - period if g > period // 2 else g


@functools.lru_cache(maxsize=1)  # `theorems` reads one sequence's table three times in a row
def _coincidences(ess: EssSequence) -> tuple[tuple[int, ...], ...]:
    """hits[d] = (u[t] for every slot t with u[(t + d) % P] == u[t]): all P x P cells compared.

    shift(u, a)[t] == shift(u, b)[t] iff rotation d = (a - b) % P meets u at (t + b) % P, so
    every shift pair (a, b) meets on the channels, and on as many slots, as its rotation d.
    Every caller shares the cached table, so it is built of tuples.
    """
    u = ess.values
    doubled = u + u
    return tuple(tuple([x for x, y in zip(u, doubled[d:]) if x == y]) for d in range(len(u)))


def _pair_violations(ess: EssSequence, label: str, observed: list, expected: Callable) -> list[str]:
    """One message per shift pair (a, b), row-major, whose rotation d = (a - b) % P
    observed something other than expected(g), g being d's canonical drift."""
    period = ess.period
    bad = {}
    for d, got in enumerate(observed):
        want = expected(canonical_drift(d, period))
        if got != want:
            bad[d] = f"{label} {got} != {want}"
    return [
        f"shift pair ({a},{b}): {bad[(a - b) % period]}"
        for a in range(period)
        for b in sorted((a - d) % period for d in bad)
    ]


def drift_channel_table(ess: EssSequence) -> list[int | str]:
    """Observed delivery channel of shift(u, a) against u, for a = 0..2N'-1."""
    return [
        ALL_CHANNELS if len(chans) == ess.n_effective else min(chans)
        for chans in map(set, _coincidences(ess))
    ]


def check_channel_map(ess: EssSequence) -> list[str]:
    """Exhaustively compare delivery-channel sets against the drift prediction.

    Covers every shift pair (a, b) of the base sequence through its rotation;
    returns one message per violation (empty list means the property holds).
    """
    everything = list(range(ess.n_effective))
    return _pair_violations(
        ess, "channels", [sorted(set(hits)) for hits in _coincidences(ess)],
        lambda g: everything if g == 0 else [abs(g) - 1],
    )


def check_slot_counts(ess: EssSequence) -> list[str]:
    """Exhaustively check delivery-slot counts: 2N' at g=0, 1 inside, 2 at |g|=N'."""
    return _pair_violations(
        ess, "|slots|", [len(hits) for hits in _coincidences(ess)],
        lambda g: ess.period if g == 0 else (2 if abs(g) == ess.n_effective else 1),
    )
