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

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .skolem import EssSequence

__all__ = [
    "SlotObservation",
    "ReceiverPhase",
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


class ReceiverPhase(enum.Enum):
    SEARCHING = "searching"
    PROBING_CASE2 = "probing-case2"
    PROBING_CASE3_A = "probing-case3-a"
    PROBING_CASE3_B = "probing-case3-b"
    SYNCED = "synced"


class _FixedNode:
    """A node whose channels never depend on what it observes."""

    committed_offset: int | None = None

    def observe(self, obs: SlotObservation) -> None:
        pass


class BroadcastSender(_FixedNode):
    """Plays the base sequence every frame, forever."""

    committed_offset = 0

    def __init__(self, ess: EssSequence):
        self._values = ess.values
        self._period = ess.period

    def next_channel(self, local_slot: int) -> int:
        return self._values[local_slot % self._period]


class SassReceiver:
    """Self-adaptive receiver: rotating search, then offset calibration.

    Searching plays shift(mu, n) in frame n.  The first delivery (channel
    alpha, frame f0) fixes the candidate set; the end-of-frame dispatch is:

    * alpha = N'-1: the sender is f0 or f0+N' away -- probe shift by N' one
      frame and keep whichever frame saw more deliveries (case 2);
    * delivery also seen at the other in-frame slot carrying alpha: offsets
      agree, commit f0 (case 1);
    * otherwise the sender is alpha+1 away in one direction or the other --
      probe both for a frame each and keep the better (case 3).

    The committed offset is frozen permanently; there is no re-calibration.
    `sb` counts deliveries per frame up to the commit.
    """

    def __init__(self, ess: EssSequence):
        self.ess = ess
        self._values = ess.values
        self._period = ess.period
        self._n_eff = ess.n_effective
        self.phase = ReceiverPhase.SEARCHING
        self.committed_offset: int | None = None
        self.case: int | None = None
        self.sb: dict[int, int] = {}
        self.first_delivery: tuple[int, int, int] | None = None  # (frame, slot, channel)
        self._slot = 0
        self._f0 = 0
        self._alpha = 0
        self._tau2 = 0
        self._tau2_delivered = False
        self._pending_channel: int | None = None

    def _offset(self) -> int:
        if self.phase is ReceiverPhase.SEARCHING:
            return self._slot // self._period
        if self.phase is ReceiverPhase.PROBING_CASE2:
            return self._f0 + self._n_eff
        if self.phase is ReceiverPhase.PROBING_CASE3_A:
            return self._f0 + self._alpha + 1
        if self.phase is ReceiverPhase.PROBING_CASE3_B:
            return self._f0 - (self._alpha + 1)
        assert self.committed_offset is not None
        return self.committed_offset

    def frame(self) -> tuple[int, int | None]:
        """(index, left): the next slot plays values[index], and the slots after it
        play on through the base sequence, wrapping at P, for `left` slots in all
        -- to the end of the frame; None once synced, when that never ends."""
        index = (self._slot + self._offset()) % self._period
        if self.phase is ReceiverPhase.SYNCED:
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
        """The one decision path: consume the next `count` slots, all in one frame
        until synced, with deliveries on the `hits`-th of them."""
        frame, in_frame = divmod(self._slot, self._period)
        if count > self._period - in_frame and self.phase is not ReceiverPhase.SYNCED:
            raise ValueError(f"{count} slots from {self._slot} cross a frame boundary")
        self._slot += count
        if self.phase is ReceiverPhase.SYNCED:
            return
        if hits:
            hits = [in_frame + k for k in hits]
            self.sb[frame] = self.sb.get(frame, 0) + len(hits)
            if self.phase is ReceiverPhase.SEARCHING:
                if self.first_delivery is None:
                    self._record_first(frame, hits[0])
                if self._tau2 in hits:
                    self._tau2_delivered = True
        if self._slot % self._period == 0:
            self._end_of_frame()

    def _record_first(self, frame: int, slot_in_frame: int) -> None:
        period = self._period
        channel = self._values[(slot_in_frame + frame) % period]
        self.first_delivery = (frame, slot_in_frame, channel)
        self._f0 = frame
        self._alpha = channel
        # The other in-frame slot carrying alpha in this frame's sequence.
        self._tau2 = next(
            t for t in range(period)
            if t != slot_in_frame and self._values[(t + frame) % period] == channel
        )
        self._tau2_delivered = False

    def _end_of_frame(self) -> None:
        f0 = self._f0
        if self.phase is ReceiverPhase.SEARCHING and self.first_delivery is not None:
            if self._alpha == self._n_eff - 1:
                self.phase = ReceiverPhase.PROBING_CASE2
                self.case = 2
            elif self._tau2_delivered:
                self._commit(f0)
                self.case = 1
            else:
                self.phase = ReceiverPhase.PROBING_CASE3_A
                self.case = 3
        elif self.phase is ReceiverPhase.PROBING_CASE2:
            if self.sb.get(f0, 0) >= self.sb.get(f0 + 1, 0):
                self._commit(f0)
            else:
                self._commit(f0 + self._n_eff)
        elif self.phase is ReceiverPhase.PROBING_CASE3_A:
            self.phase = ReceiverPhase.PROBING_CASE3_B
        elif self.phase is ReceiverPhase.PROBING_CASE3_B:
            if self.sb.get(f0 + 1, 0) >= self.sb.get(f0 + 2, 0):
                self._commit(f0 + self._alpha + 1)
            else:
                self._commit(f0 - (self._alpha + 1))

    def _commit(self, offset: int) -> None:
        self.committed_offset = offset % self._period
        self.phase = ReceiverPhase.SYNCED


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
