"""Deterministic slotted-time simulation of one-hop broadcast pairs.

Each pair runs in isolation: a sender anchored at the global clock, a
receiver lagging by an integer drift, and a set of primary-user channels
alternating fixed busy periods with exponentially distributed idle periods.
A slot delivers iff both nodes resolve (through the channel plan) to the
same physical channel and that channel is free.  Everything is derived
from the config seed; identical configs replay bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .protocol import PROTOCOLS, make_pair
from .skolem import ChannelPlan, ess_for_channel_count, make_channel_plan

__all__ = [
    "SimConfig",
    "SimTrace",
    "PuTraffic",
    "PairSimulation",
    "run",
    "write_records",
    "pu_parameters",
    "realized_idle_mean",
    "solve_idle_mean",
    "nominal_intensity",
]

MIN_EFFECTIVE_CHANNELS = 4


@dataclass(frozen=True)
class SimConfig:
    """One experiment variation: channels, PU traffic, drift, and protocol.

    Checked when built (ValueError) and frozen; `plan` is its channel plan,
    built once by the check, and `dataclasses.replace` makes a checked variant.
    """

    n_channels: int
    protocol: str = "sass"
    plan_mode: str = "padding"
    pu_channels: int = 0
    busy_len: int = 400
    idle_mean: float = 1.0
    drift: int | None = None  # None draws uniformly from [0, 2*n_eff^2)
    horizon: int = 1000
    pairs: int = 1
    seed: int = 0
    plan: ChannelPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        plan = make_channel_plan(self.n_channels, self.plan_mode)
        if plan.effective_count < MIN_EFFECTIVE_CHANNELS:
            raise ValueError(
                f"{self.n_channels} channels with {self.plan_mode} leaves "
                f"{plan.effective_count} effective; need >= {MIN_EFFECTIVE_CHANNELS}"
            )
        if not 0 <= self.pu_channels <= self.n_channels:
            raise ValueError("pu_channels must be within [0, n_channels]")
        if self.busy_len < 1:
            raise ValueError("busy_len must be >= 1")
        if not 0 < self.idle_mean < math.inf:
            raise ValueError("idle_mean must be positive and finite")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.pairs < 1:
            raise ValueError("pairs must be >= 1")
        object.__setattr__(self, "plan", plan)


@dataclass
class SimTrace:
    """Per-slot records and the end-of-run summary for one pair."""

    pair_index: int
    protocol: str
    drift: int
    period: int
    sender_channel: np.ndarray
    receiver_channel: np.ndarray
    pu_blocked: np.ndarray
    delivered: np.ndarray
    first_delivery: int | None
    committed_offset: int | None
    missync: bool | None

    @property
    def horizon(self) -> int:
        return len(self.delivered)


class PuTraffic:
    """Busy/idle occupancy for the channels a primary user operates on.

    Busy periods last exactly `busy_len` slots; idle periods are exponential
    draws rounded to the nearest slot (floor one slot).  Each occupied
    channel starts at a uniformly random phase of its first cycle.
    """

    def __init__(
        self,
        n_channels: int,
        occupied: Iterable[int],
        busy_len: int,
        idle_mean: float,
        rng: np.random.Generator,
        horizon: int,
    ):
        self.occupied = tuple(sorted(int(c) for c in occupied))
        self.busy_len = busy_len
        self.idle_mean = idle_mean
        matrix = np.zeros((horizon, n_channels), dtype=bool)  # [slot, channel]
        for ch in self.occupied:
            matrix[:, ch] = self._busy_column(horizon, rng)
        self.rows = matrix

    @classmethod
    def sample(
        cls,
        n_channels: int,
        pu_channels: int,
        busy_len: int,
        idle_mean: float,
        rng: np.random.Generator,
        horizon: int,
    ) -> "PuTraffic":
        occupied = rng.choice(n_channels, size=pu_channels, replace=False)
        return cls(n_channels, occupied, busy_len, idle_mean, rng, horizon)

    def _idle_len(self, rng: np.random.Generator) -> int:
        return max(1, int(rng.exponential(self.idle_mean) + 0.5))

    def _busy_column(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        col = np.zeros(horizon, dtype=bool)
        b = self.busy_len
        first_idle = self._idle_len(rng)
        phase = int(rng.integers(0, b + first_idle))
        pos = 0
        if phase < b:
            run = min(b - phase, horizon)
            col[:run] = True
            pos = run + first_idle
        else:
            pos = (b + first_idle) - phase
        while pos < horizon:
            col[pos:pos + b] = True
            pos += b + self._idle_len(rng)
        return col


class PairSimulation:
    """One sender/receiver pair, simulated one receiver span at a time.

    Trace slot 0 is the first slot with both nodes active.  With drift d >= 0
    the sender's local clock reads d + s at trace slot s; a negative drift
    (receiver ahead) runs the receiver through |d| pre-roll slots with no
    deliveries before the trace starts.  PU occupancy is indexed by trace
    slot.  A span is a stretch of slots whose channels the receiver's
    observations cannot change, so each one is adjudicated in one numpy step.
    """

    def __init__(self, config: SimConfig, pair_index: int):
        self.config = config
        self.pair_index = pair_index
        self.plan = config.plan
        self.ess = ess_for_channel_count(self.plan.effective_count)
        self.period = self.ess.period

        # Stream k is child k of spawn_key=(j,)'s spawn(4): 0 drift, 1 PU, 2 tx, 3 rx.
        def stream(k: int) -> np.random.Generator:
            ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(pair_index, k))
            return np.random.Generator(np.random.PCG64(ss))

        if config.drift is None:
            n_eff = self.plan.effective_count
            self.drift = int(stream(0).integers(0, 2 * n_eff * n_eff))
        else:
            self.drift = int(config.drift)
        self.pu = PuTraffic.sample(
            config.n_channels,
            config.pu_channels,
            config.busy_len,
            config.idle_mean,
            stream(1),
            config.horizon,
        )
        rngs = (stream(2), stream(3)) if config.protocol == "rch" else (None, None)
        self.sender, self.receiver = make_pair(config.protocol, self.ess, *rngs)
        self._tx_base = max(self.drift, 0)
        self._rx_base = max(-self.drift, 0)

    def run(self) -> SimTrace:
        horizon = self.config.horizon
        pre = self._rx_base
        end = pre + horizon
        slots = np.arange(horizon)
        busy = np.asarray(self.pu.rows)
        alias = np.array(self.plan.alias)
        tx = self.sender.channels(self._tx_base, horizon)
        tx_busy = busy[slots, alias[tx]]
        # Per receiver-local slot, the physical channel a delivery needs;
        # -1 where none can happen (the pre-roll, or the sender's channel busy).
        target = np.concatenate((np.full(pre, -1), np.where(tx_busy, -1, alias[tx])))
        rx = np.empty(end, dtype=np.int16)
        delivered = np.empty(end, dtype=bool)
        start = 0
        while start < end:
            span = self.receiver.span(start)
            block = slice(start, end if span is None else min(start + span, end))
            rx[block] = self.receiver.channels(start, block.stop - start)
            delivered[block] = alias[rx[block]] == target[block]
            self.receiver.observe_block(start, delivered[block])
            start = block.stop
        rx, delivered = rx[pre:], delivered[pre:]
        committed = self.receiver.committed_offset
        missync = None
        if self.config.protocol == "sass" and committed is not None:
            missync = (committed - self.drift) % self.period != 0
        return SimTrace(
            pair_index=self.pair_index,
            protocol=self.config.protocol,
            drift=self.drift,
            period=self.period,
            sender_channel=tx.astype(np.int16),
            receiver_channel=rx,
            pu_blocked=tx_busy | busy[slots, alias[rx]],
            delivered=delivered,
            first_delivery=int(delivered.argmax()) if delivered.any() else None,
            committed_offset=committed,
            missync=missync,
        )


def run(config: SimConfig, pair_range: Sequence[int] | None = None) -> list[SimTrace]:
    """Simulate the configured pairs; each pair is seeded independently."""
    indices = range(config.pairs) if pair_range is None else pair_range
    return [PairSimulation(config, i).run() for i in indices]


def write_records(path, traces: Iterable[SimTrace]) -> None:
    """Stream per-slot records as newline-delimited JSON objects."""
    line = '{"run":%d,"slot":%d,"tx":%d,"rx":%d,"pu":%s,"delivered":%s}\n'
    word = ("false", "true")
    with open(path, "w") as fh:
        for trace in traces:
            pair = trace.pair_index
            columns = zip(
                trace.sender_channel.tolist(),
                trace.receiver_channel.tolist(),
                trace.pu_blocked.tolist(),
                trace.delivered.tolist(),
            )
            fh.writelines(
                line % (pair, slot, tx, rx, word[pu], word[hit])
                for slot, (tx, rx, pu, hit) in enumerate(columns)
            )


def realized_idle_mean(idle_mean: float) -> float:
    """Expected idle slots for max(1, round(X)) with X ~ Exp(idle_mean)."""
    if idle_mean <= 0:
        return 1.0
    half = math.exp(-1.0 / (2.0 * idle_mean))
    tail = 1.0 - math.exp(-1.0 / idle_mean)
    # Past idle means of ~1e16 the tail rounds to 0; its first-order value is 1/idle_mean.
    return half / tail + 1.0 - half if tail else half * idle_mean + 1.0 - half


def solve_idle_mean(target: float) -> float:
    """Idle-mean parameter whose realized (rounded, floored) mean hits target."""
    if target <= 1.0:
        return 1e-9
    lo, hi = 1e-9, max(4.0 * target, 8.0)
    while realized_idle_mean(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized_idle_mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pu_parameters(pu_percent: float, n_channels: int, busy_len: int = 400) -> tuple[int, float]:
    """(occupied channel count, idle mean) hitting a target PU intensity.

    The intensity (X/N) * b/(idle+b) is split as: occupy the fewest channels
    able to carry the load, each at duty pu*N/X, with the idle mean solved so
    the discretized idle process realizes that duty.  Few high-duty channels
    keep the channel availability pattern stable within a frame, which is
    what the calibration logic assumes of slow primary users.
    """
    if n_channels < 1:
        raise ValueError(f"channel count must be >= 1, got {n_channels}")
    if not 0.0 <= pu_percent <= 100.0:
        raise ValueError("pu_percent must be within [0, 100]")
    if pu_percent == 0.0:
        return 0, 1.0
    frac = pu_percent / 100.0
    x = math.ceil(frac * n_channels - 1e-9)
    duty = frac * n_channels / x
    # Idle >= 1 slot caps duty at b/(b+1); the shortfall is negligible for
    # long busy periods.
    target_idle = busy_len * (1.0 - duty) / duty if duty < 1.0 else 0.0
    return x, solve_idle_mean(target_idle)


def nominal_intensity(pu_channels: int, n_channels: int, busy_len: int, idle_mean: float) -> float:
    """PU intensity in percent implied by raw traffic parameters."""
    if n_channels < 1:
        raise ValueError(f"channel count must be >= 1, got {n_channels}")
    duty = busy_len / (realized_idle_mean(idle_mean) + busy_len)
    return 100.0 * (pu_channels / n_channels) * duty
