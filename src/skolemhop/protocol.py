"""Broadcast protocol state machines.

Each node has the per-slot surface `next_channel` then `observe`, the
reference that the simulator's table engine (`simenv`) is checked against;
nothing in the package builds a node, only the tests and the benchmark's
replay do.  The self-adaptive receiver decides at two frame ends, with
`sass_plan` and `sass_commit`; the engine calls the same two functions.

The self-adaptive receiver searches by rotating the base sequence one step
per frame, then pins the sender's offset from where its first delivery
landed; the baselines are a uniform random hopper and the same rotating
search with the calibration permanently disabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # numpy is named only in annotations
    import numpy as np

from .skolem import EssSequence

__all__ = [
    "SlotObservation",
    "BroadcastSender",
    "SassReceiver",
    "CssReceiver",
    "RandomHopper",
    "make_pair",
    "sass_plan",
    "sass_commit",
    "PROTOCOLS",
]

PROTOCOLS = ("sass", "rch", "css")


class SlotObservation(NamedTuple):
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


def sass_plan(values: Sequence[int], f0: int, hits: Sequence[int]) -> tuple[int, dict[int, int]]:
    """(case, plan) at the end of f0, the first frame with a delivery, whose
    in-frame slots are `hits`.  The first, on channel alpha, fixes tau2, the
    other in-frame slot carrying alpha.  The plan maps each frame whose
    deliveries vouch for an offset to that offset, mod P:

    * alpha = N'-1, the sender is f0 or f0+N' away (case 2):
      {f0: f0, f0+1: f0+N'};
    * a delivery also at tau2, the offsets agree (case 1): {f0: f0};
    * otherwise the sender is alpha+1 away in one direction or the other
      (case 3): {f0+1: f0+alpha+1, f0+2: f0-alpha-1}.
    """
    period, slot = len(values), hits[0]
    alpha = values[(slot + f0) % period]
    # The two copies of value k sit k+1 apart in the base sequence.
    tau2 = (slot + alpha + 1) % period
    if values[(tau2 + f0) % period] != alpha:
        tau2 = (slot - alpha - 1) % period
    case = 2 if alpha == period // 2 - 1 else 1 if tau2 in hits else 3
    plan = ({f0: f0}, {f0: f0, f0 + 1: f0 + period // 2},
            {f0 + 1: f0 + alpha + 1, f0 + 2: f0 - alpha - 1})[case - 1]
    return case, {frame: offset % period for frame, offset in plan.items()}


def sass_commit(plan: dict[int, int], sb: dict[int, int]) -> int:
    """The offset committed at the end of the plan's last frame: that of the
    first vouching frame with the most deliveries, `sb` counting them per frame."""
    return plan[max(plan, key=lambda vouch: sb.get(vouch, 0))]


class SassReceiver:
    """Self-adaptive receiver: rotating search, then offset calibration.

    Searching plays shift(mu, n) in frame n, the CSS schedule, up to the end
    of f0, which sets `case` and the probe plan (`sass_plan`).  A frame
    outside the plan plays its own index.  The end of the last vouching frame
    sets `committed_offset` (`sass_commit`), frozen for good.  `sb` counts
    deliveries per frame up to the commit.
    """

    def __init__(self, ess: EssSequence):
        self.ess = ess
        self._values = ess.values
        self._period = ess.period
        self.first_delivery: tuple[int, int, int] | None = None  # (frame, slot, channel)
        self.case: int | None = None
        self.committed_offset: int | None = None
        self.sb: dict[int, int] = {}
        self._hits: list[int] = []  # f0's in-frame delivery slots
        self._plan: dict[int, int] = {}
        self._slot = 0
        self._pending_channel: int | None = None

    def next_channel(self, local_slot: int) -> int:
        if local_slot != self._slot:
            raise ValueError(f"expected local slot {self._slot}, got {local_slot}")
        frame = self._slot // self._period
        offset = self._plan.get(frame, frame) if self.committed_offset is None else self.committed_offset
        self._pending_channel = self._values[(self._slot + offset) % self._period]
        return self._pending_channel

    def observe(self, obs: SlotObservation) -> None:
        if self._pending_channel is None:
            raise ValueError("observe() before next_channel() for this slot")
        if obs.delivered and obs.channel != self._pending_channel:
            raise ValueError(
                f"delivery on channel {obs.channel} but receiver tuned "
                f"{self._pending_channel}"
            )
        channel, self._pending_channel = self._pending_channel, None
        frame, in_frame = divmod(self._slot, self._period)
        self._slot += 1
        if self.committed_offset is not None:
            return
        if obs.delivered:
            self.sb[frame] = self.sb.get(frame, 0) + 1
            if self.first_delivery is None:
                self.first_delivery = (frame, in_frame, channel)
            if not self._plan:
                self._hits.append(in_frame)
        if self._slot % self._period or self.first_delivery is None:
            return
        if not self._plan:
            self.case, self._plan = sass_plan(self._values, frame, self._hits)
        if frame == max(self._plan):
            self.committed_offset = sass_commit(self._plan, self.sb)


class CssReceiver(_FixedNode):
    """Rotating search with calibration disabled: frame n plays shift(mu, n)."""

    def __init__(self, ess: EssSequence):
        self._values = ess.values
        self._period = ess.period

    def next_channel(self, local_slot: int) -> int:
        frame = local_slot // self._period
        return self._values[(local_slot + frame) % self._period]


class RandomHopper(_FixedNode):
    """Uniform independent channel per slot, reproducible under a seeded rng."""

    def __init__(self, n_channels: int, rng: np.random.Generator):
        if n_channels < 1:
            raise ValueError("need at least one channel")
        self._n = n_channels
        self._rng = rng

    def next_channel(self, local_slot: int) -> int:
        return int(self._rng.integers(0, self._n))


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
