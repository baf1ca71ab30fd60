"""Cyclic-shift algebra over hopping sequences.

Two shifted copies of the same extended sequence coincide on exactly one
channel per period (channel |g|-1 for relative drift g, every channel when
g = 0), and on one slot when 0 < |g| < N', two when |g| = N'.  A receiver
can therefore read its clock drift off the channel where deliveries happen;
the exhaustive checkers at the bottom verify those facts for a given base
sequence, every shift pair through one (P, P) table of rotations.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .skolem import EssSequence

__all__ = [
    "ALL_CHANNELS",
    "shift",
    "delivery_channels",
    "canonical_drift",
    "drift_channel_table",
    "check_channel_map",
    "check_slot_counts",
]

# Sentinel for "every channel is a delivery channel" (zero relative drift).
ALL_CHANNELS = "all"


def _values(u: Sequence[int] | EssSequence) -> Sequence[int]:
    return u.values if isinstance(u, EssSequence) else u


def shift(u: Sequence[int] | EssSequence, offset: int) -> tuple[int, ...]:
    """Cyclic shift: result[t] = u[(t + offset) mod len(u)]."""
    vals = _values(u)
    period = len(vals)
    return tuple(vals[(t + offset) % period] for t in range(period))


def delivery_channels(u: Sequence[int], v: Sequence[int]) -> frozenset[int]:
    """Channels on which the two equal-length sequences ever coincide."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return frozenset(a for a, b in zip(u, v) if a == b)


def canonical_drift(g_raw: int, period: int) -> int:
    """Reduce a raw drift to the representative g with |g| <= period/2.

    Both +N' and -N' name the same shifted sequence when the period is 2N';
    the positive one is returned.
    """
    if period <= 0 or period % 2:
        raise ValueError(f"period must be a positive even integer, got {period}")
    g = g_raw % period
    return g - period if g > period // 2 else g


def _coincidences(u: np.ndarray) -> np.ndarray:
    """hits[d, t] = (u[(t + d) % P] == u[t]) for base values u, shape (P, P).

    shift(u, a)[t] == shift(u, b)[t] iff hits[(a - b) % P, (t + b) % P], so
    every shift pair (a, b) meets on the channels, and on as many slots, as
    rotation d = (a - b) mod P; row d is shift(u, d) against u.
    """
    period = len(u)
    return sliding_window_view(np.concatenate([u, u]), period)[:period] == u


def _rotation_channels(ess: EssSequence) -> list[set[int]]:
    """Delivery channels of each rotation d = 0..P-1 against the base sequence."""
    u = np.asarray(ess.values)
    return [set(u[row].tolist()) for row in _coincidences(u)]


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
        for chans in _rotation_channels(ess)
    ]


def check_channel_map(ess: EssSequence) -> list[str]:
    """Exhaustively compare delivery-channel sets against the drift prediction.

    Covers every shift pair (a, b) of the base sequence through its rotation;
    returns one message per violation (empty list means the property holds).
    """
    everything = list(range(ess.n_effective))
    return _pair_violations(
        ess, "channels", [sorted(chans) for chans in _rotation_channels(ess)],
        lambda g: everything if g == 0 else [abs(g) - 1],
    )


def check_slot_counts(ess: EssSequence) -> list[str]:
    """Exhaustively check delivery-slot counts: 2N' at g=0, 1 inside, 2 at |g|=N'."""
    return _pair_violations(
        ess, "|slots|", _coincidences(np.asarray(ess.values)).sum(axis=1).tolist(),
        lambda g: ess.period if g == 0 else (2 if abs(g) == ess.n_effective else 1),
    )
