"""Cyclic-shift algebra over hopping sequences.

Two shifted copies of the same extended sequence coincide on exactly one
channel per period (channel |g|-1 for relative drift g, every channel when
g = 0), and on one slot when 0 < |g| < N', two when |g| = N'.  A receiver
can therefore read its clock drift off the channel where deliveries happen;
the exhaustive checkers at the bottom verify those facts for a given base
sequence.
"""

from __future__ import annotations

from typing import Sequence

from .skolem import EssSequence

__all__ = [
    "ALL_CHANNELS",
    "shift",
    "delivery_channels",
    "delivery_slots",
    "canonical_drift",
    "predicted_delivery_channel",
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


def delivery_slots(u: Sequence[int], v: Sequence[int]) -> frozenset[int]:
    """Slot indices at which the two equal-length sequences coincide."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return frozenset(t for t, (a, b) in enumerate(zip(u, v)) if a == b)


def canonical_drift(g_raw: int, period: int) -> int:
    """Reduce a raw drift to the representative g with |g| <= period/2.

    Both +N' and -N' name the same shifted sequence when the period is 2N';
    the positive one is returned.
    """
    if period <= 0 or period % 2:
        raise ValueError(f"period must be a positive even integer, got {period}")
    g = g_raw % period
    return g - period if g > period // 2 else g


def predicted_delivery_channel(g: int) -> int | str:
    """Delivery channel for canonical drift g: ALL_CHANNELS at 0, else |g|-1."""
    return ALL_CHANNELS if g == 0 else abs(g) - 1


def drift_channel_table(ess: EssSequence) -> list[int | str]:
    """Observed delivery channel of shift(u, a) against u, for a = 0..2N'-1."""
    base = ess.values
    table: list[int | str] = []
    for a in range(ess.period):
        chans = delivery_channels(shift(ess, a), base)
        table.append(ALL_CHANNELS if len(chans) == ess.n_effective else min(chans))
    return table


def check_channel_map(ess: EssSequence) -> list[str]:
    """Exhaustively compare delivery-channel sets against the drift prediction.

    Sweeps every shift pair (a, b) of the base sequence; returns one message
    per violation (empty list means the property holds).
    """
    period = ess.period
    all_set = frozenset(range(ess.n_effective))
    violations = []
    shifted = [shift(ess, a) for a in range(period)]
    for a in range(period):
        for b in range(period):
            got = delivery_channels(shifted[a], shifted[b])
            g = canonical_drift(a - b, period)
            want = all_set if g == 0 else frozenset({abs(g) - 1})
            if got != want:
                violations.append(
                    f"shift pair ({a},{b}): channels {sorted(got)} != {sorted(want)}"
                )
    return violations


def check_slot_counts(ess: EssSequence) -> list[str]:
    """Exhaustively check delivery-slot counts: 2N' at g=0, 1 inside, 2 at |g|=N'."""
    period = ess.period
    n_eff = ess.n_effective
    violations = []
    shifted = [shift(ess, a) for a in range(period)]
    for a in range(period):
        for b in range(period):
            count = len(delivery_slots(shifted[a], shifted[b]))
            g = canonical_drift(a - b, period)
            want = period if g == 0 else (2 if abs(g) == n_eff else 1)
            if count != want:
                violations.append(f"shift pair ({a},{b}): |slots| {count} != {want}")
    return violations

