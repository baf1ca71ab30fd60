"""Broadcast protocol state machines.

A receiver changes its channels only at frame boundaries.  Its
`span(local_slot)` counts the slots whose channels its observations cannot
change (None: unbounded); the simulator plays a span with one
`channels(local_slot, count)` call and reports it with `observe_block`.
The per-slot reference surface, `next_channel` then `observe`, feeds the
same decision code.  Block lookups index `array[idx % period]`: numpy's
`take(mode="wrap")` wraps an index by repeated subtraction, so its cost
would grow with the local slot.

The self-adaptive receiver searches by rotating the base sequence one step
per frame, then pins the sender's offset from where its first delivery
landed; the baselines are a uniform random hopper and the same rotating
search with the calibration permanently disabled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

    def span(self, local_slot: int) -> int | None:
        return None

    def observe(self, obs: SlotObservation) -> None:
        pass

    def observe_block(self, local_slot: int, delivered: np.ndarray) -> None:
        pass


class BroadcastSender(_FixedNode):
    """Plays the base sequence every frame, forever."""

    committed_offset = 0

    def __init__(self, ess: EssSequence):
        self._values = ess.values
        self._array = np.array(ess.values)
        self._period = ess.period

    def next_channel(self, local_slot: int) -> int:
        return self._values[local_slot % self._period]

    def channels(self, local_slot: int, count: int) -> np.ndarray:
        return self._array[np.arange(local_slot, local_slot + count) % self._period]


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
        self._array = np.array(ess.values)
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

    def span(self, local_slot: int) -> int | None:
        """Slots to the end of the frame; unbounded once synced."""
        if self.phase is ReceiverPhase.SYNCED:
            return None
        return self._period - local_slot % self._period

    def _start(self, local_slot: int, count: int) -> int:
        """Sequence index of a block's first slot, once it is checked to be
        the next one and to stay within the span."""
        if local_slot != self._slot:
            raise ValueError(f"expected local slot {self._slot}, got {local_slot}")
        span = self.span(local_slot)
        if span is not None and count > span:
            raise ValueError(f"{count} slots from {local_slot} cross a frame boundary")
        return local_slot + self._offset()

    def next_channel(self, local_slot: int) -> int:
        channel = self._values[self._start(local_slot, 1) % self._period]
        self._pending_channel = channel
        return channel

    def channels(self, local_slot: int, count: int) -> np.ndarray:
        start = self._start(local_slot, count)
        return self._array[np.arange(start, start + count) % self._period]

    def observe(self, obs: SlotObservation) -> None:
        if self._pending_channel is None:
            raise ValueError("observe() before next_channel() for this slot")
        if obs.delivered and obs.channel != self._pending_channel:
            raise ValueError(
                f"delivery on channel {obs.channel} but receiver tuned "
                f"{self._pending_channel}"
            )
        self._pending_channel = None
        self._advance(1, [self._slot % self._period] if obs.delivered else [])

    def observe_block(self, local_slot: int, delivered: np.ndarray) -> None:
        self._start(local_slot, len(delivered))
        hits = []
        if self.phase is not ReceiverPhase.SYNCED:
            hits = (np.flatnonzero(delivered) + local_slot % self._period).tolist()
        self._advance(len(delivered), hits)

    def _advance(self, count: int, hits: list[int]) -> None:
        """The one decision path: consume `count` slots of one span, with
        deliveries at in-frame slots `hits`."""
        frame = self._slot // self._period
        self._slot += count
        if self.phase is ReceiverPhase.SYNCED:
            return
        if hits:
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
        self._array = np.array(ess.values)
        self._period = ess.period

    def next_channel(self, local_slot: int) -> int:
        frame = local_slot // self._period
        return self._values[(local_slot + frame) % self._period]

    def channels(self, local_slot: int, count: int) -> np.ndarray:
        t = np.arange(local_slot, local_slot + count)
        return self._array[(t + t // self._period) % self._period]


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
