"""Broadcast protocol state machines.

A receiver changes its channels only at frame boundaries.  The sender
and both sequence receivers play stretches of the base sequence, so the
simulator reads their channels off cached tables (`simenv.sequence_tables`);
the self-adaptive receiver tells it, frame by frame, where in the base
sequence it is (`frame()`), and takes each frame's deliveries back with
`step(count, hits)`.  The per-slot reference surface, `next_channel` then
`observe`, feeds the same decision code.

The self-adaptive receiver searches by rotating the base sequence one step
per frame, then pins the sender's offset from where its first delivery
landed; the baselines are a uniform random hopper and the same rotating
search with the calibration permanently disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .skolem import EssSequence

__all__ = [
    "SlotObservation",
    "BroadcastSender",
    "SassReceiver",
    "CssReceiver",
    "RandomHopper",
    "make_pair",
    "PROTOCOLS",
]

PROTOCOLS = ("sass", "rch", "css")


@dataclass(frozen=True)
class SlotObservation:
    """Outcome of one slot: whether a delivery happened on the tuned channel."""

    delivered: bool
    channel: int


class _FixedNode:
    """A node whose channels never depend on what it observes."""

    committed_offset: int | None = None

    def observe(self, obs: SlotObservation) -> None:
        pass


class BroadcastSender(_FixedNode):
    """Plays the base sequence every frame, forever."""

    def __init__(self, ess: EssSequence):
        self._values = ess.values
        self._period = ess.period

    def next_channel(self, local_slot: int) -> int:
        return self._values[local_slot % self._period]


class SassReceiver:
    """Self-adaptive receiver: rotating search, then offset calibration.

    Searching plays shift(mu, n) in frame n.  The first delivery (frame f0,
    channel alpha) settles at the end of f0 which case holds:

    * alpha = N'-1: the sender is f0 or f0+N' away (case 2);
    * delivery also seen at tau2, the other in-frame slot carrying alpha:
      offsets agree, commit f0 at once (case 1);
    * otherwise the sender is alpha+1 away in one direction or the other
      (case 3).

    Cases 2 and 3 hold two candidate offsets, each with the frame whose
    deliveries vouch for it (`_candidates`); each frame after f0 plays its
    candidate, and the end of the last one commits the candidate with more
    deliveries, the first on a tie.  The committed offset is frozen
    permanently; there is no re-calibration.  `sb` counts deliveries per
    frame up to the commit.
    """

    def __init__(self, ess: EssSequence):
        self.ess = ess
        self._values = ess.values
        self._period = ess.period
        self._n_eff = ess.n_effective
        self.first_delivery: tuple[int, int, int] | None = None  # (frame, slot, channel)
        self.case: int | None = None
        self.committed_offset: int | None = None
        self.sb: dict[int, int] = {}
        self._tau2_delivered = False
        self._slot = 0
        self._pending_channel: int | None = None

    def _candidates(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Case 2 or 3's (offset, vouching frame) pairs, the tie winner first."""
        f0, _, alpha = self.first_delivery
        if self.case == 2:
            return (f0, f0), (f0 + self._n_eff, f0 + 1)
        return (f0 + alpha + 1, f0 + 1), (f0 - alpha - 1, f0 + 2)

    def _offset(self) -> int:
        if self.committed_offset is not None:
            return self.committed_offset
        frame = self._slot // self._period
        if self.case is None:
            return frame
        return next(offset for offset, vouch in self._candidates() if vouch == frame)

    def frame(self) -> tuple[int, int | None]:
        """(index, left): the next slot plays values[index], and the slots after it
        play on through the base sequence, wrapping at P, for `left` slots in all
        -- to the end of the frame; None once synced, when that never ends."""
        index = (self._slot + self._offset()) % self._period
        if self.committed_offset is not None:
            return index, None
        return index, self._period - self._slot % self._period

    def next_channel(self, local_slot: int) -> int:
        if local_slot != self._slot:
            raise ValueError(f"expected local slot {self._slot}, got {local_slot}")
        self._pending_channel = self._values[self.frame()[0]]
        return self._pending_channel

    def observe(self, obs: SlotObservation) -> None:
        if self._pending_channel is None:
            raise ValueError("observe() before next_channel() for this slot")
        if obs.delivered and obs.channel != self._pending_channel:
            raise ValueError(
                f"delivery on channel {obs.channel} but receiver tuned "
                f"{self._pending_channel}"
            )
        self._pending_channel = None
        self.step(1, [0] if obs.delivered else [])

    def step(self, count: int, hits: Sequence[int] = ()) -> None:
        """The one decision path: consume the next `count` slots, with deliveries
        on the `hits`-th of them.  Until synced they stay in one frame, unless no
        delivery has been seen yet and these bring none: such slots only advance
        the clock, so a pre-roll of any length is one step."""
        frame, in_frame = divmod(self._slot, self._period)
        idle = self.first_delivery is None and not hits
        if count > self._period - in_frame and self.committed_offset is None and not idle:
            raise ValueError(f"{count} slots from {self._slot} cross a frame boundary")
        self._slot += count
        if self.committed_offset is not None or idle:
            return
        if hits:
            hits = [in_frame + k for k in hits]
            self.sb[frame] = self.sb.get(frame, 0) + len(hits)
            if self.case is None:
                if self.first_delivery is None:
                    channel = self._values[(hits[0] + frame) % self._period]
                    self.first_delivery = (frame, hits[0], channel)
                self._tau2_delivered |= self._tau2() in hits
        if self._slot % self._period == 0:
            self._end_of_frame(frame)

    def _tau2(self) -> int:
        """The other in-frame slot of frame f0 that carries alpha: the two copies
        of value k sit k+1 apart in the base sequence."""
        f0, slot, alpha = self.first_delivery
        twin = (slot + alpha + 1) % self._period
        if self._values[(twin + f0) % self._period] != alpha:
            twin = (slot - alpha - 1) % self._period
        return twin

    def _end_of_frame(self, frame: int) -> None:
        f0, _, alpha = self.first_delivery
        if self.case is None:
            self.case = 2 if alpha == self._n_eff - 1 else 1 if self._tau2_delivered else 3
            if self.case == 1:
                self._commit(f0)
            return
        (first, first_frame), (second, second_frame) = self._candidates()
        if frame == second_frame:
            sb = self.sb.get
            self._commit(first if sb(first_frame, 0) >= sb(second_frame, 0) else second)

    def _commit(self, offset: int) -> None:
        self.committed_offset = offset % self._period


class CssReceiver(_FixedNode):
    """Rotating search with calibration disabled: frame n plays shift(mu, n)."""

    def __init__(self, ess: EssSequence):
        self._values = ess.values
        self._period = ess.period

    def next_channel(self, local_slot: int) -> int:
        frame = local_slot // self._period
        return self._values[(local_slot + frame) % self._period]


class RandomHopper(_FixedNode):
    """Uniform independent channel per slot, reproducible under a seeded rng.

    Generator draws do not depend on batching: `channels(s, k)` equals k
    `next_channel` calls.
    """

    def __init__(self, n_channels: int, rng: np.random.Generator):
        if n_channels < 1:
            raise ValueError("need at least one channel")
        self._n = n_channels
        self._rng = rng

    def next_channel(self, local_slot: int) -> int:
        return int(self._rng.integers(0, self._n))

    def channels(self, local_slot: int, count: int) -> np.ndarray:
        return self._rng.integers(0, self._n, size=count)


def make_pair(protocol, ess, tx_rng=None, rx_rng=None):
    """Sender/receiver instances for one broadcast pair."""
    if protocol == "sass":
        return BroadcastSender(ess), SassReceiver(ess)
    if protocol == "css":
        return BroadcastSender(ess), CssReceiver(ess)
    if protocol == "rch":
        if tx_rng is None or rx_rng is None:
            raise ValueError("rch needs independent tx and rx generators")
        n = ess.n_effective
        return RandomHopper(n, tx_rng), RandomHopper(n, rx_rng)
    raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
