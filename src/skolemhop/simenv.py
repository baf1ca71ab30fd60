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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .protocol import PROTOCOLS, SlotObservation, make_pair
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


@dataclass
class SimConfig:
    """One experiment variation: channels, PU traffic, drift, and protocol."""

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

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.n_channels < 1:
            raise ValueError("n_channels must be >= 1")
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
        if self.idle_mean <= 0:
            raise ValueError("idle_mean must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.pairs < 1:
            raise ValueError("pairs must be >= 1")

    def plan(self) -> ChannelPlan:
        return make_channel_plan(self.n_channels, self.plan_mode)


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
        self.n_channels = n_channels
        self.occupied = tuple(sorted(int(c) for c in occupied))
        self.busy_len = busy_len
        self.idle_mean = idle_mean
        matrix = np.zeros((horizon, n_channels), dtype=bool)
        for ch in self.occupied:
            matrix[:, ch] = self._busy_column(horizon, rng)
        self.rows: list[list[bool]] = matrix.tolist()

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

    def is_busy(self, slot: int, channel: int) -> bool:
        return self.rows[slot][channel]


class PairSimulation:
    """One sender/receiver pair advanced slot by slot.

    Trace slot 0 is the first slot with both nodes active.  With drift d >= 0
    the sender's local clock reads d + s at trace slot s; a negative drift
    (receiver ahead) fast-forwards the receiver through |d| empty slots
    before the trace starts.  PU occupancy is indexed by trace slot.
    """

    def __init__(self, config: SimConfig, pair_index: int):
        config.validate()
        self.config = config
        self.pair_index = pair_index
        self.plan = config.plan()
        self.ess = ess_for_channel_count(self.plan.effective_count)
        self.period = self.ess.period

        ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(pair_index,))
        env_ss, pu_ss, tx_ss, rx_ss = ss.spawn(4)
        env_rng = np.random.Generator(np.random.PCG64(env_ss))
        if config.drift is None:
            n_eff = self.plan.effective_count
            self.drift = int(env_rng.integers(0, 2 * n_eff * n_eff))
        else:
            self.drift = int(config.drift)
        self.pu = PuTraffic.sample(
            config.n_channels,
            config.pu_channels,
            config.busy_len,
            config.idle_mean,
            np.random.Generator(np.random.PCG64(pu_ss)),
            config.horizon,
        )
        self.sender, self.receiver = make_pair(
            config.protocol,
            self.ess,
            tx_rng=np.random.Generator(np.random.PCG64(tx_ss)),
            rx_rng=np.random.Generator(np.random.PCG64(rx_ss)),
        )
        self._tx_base = max(self.drift, 0)
        for t in range(max(-self.drift, 0)):
            ch = self.receiver.next_channel(t)
            self.receiver.observe(SlotObservation(False, ch))
        self._rx_base = max(-self.drift, 0)
        self.slot = 0
        self._tx_rec: list[int] = []
        self._rx_rec: list[int] = []
        self._pu_rec: list[bool] = []
        self._del_rec: list[bool] = []
        # Observation objects are cycled from a small cache; the protocol
        # surface treats them as immutable values.
        n_eff = self.plan.effective_count
        self._obs_idle = [SlotObservation(False, c) for c in range(n_eff)]
        self._obs_hit = [SlotObservation(True, c) for c in range(n_eff)]

    def run(self) -> SimTrace:
        # Local bindings keep the slot loop tight.
        cfg = self.config
        horizon = cfg.horizon
        tx_next = self.sender.next_channel
        rx_next = self.receiver.next_channel
        tx_obs = self.sender.observe
        rx_obs = self.receiver.observe
        alias = self.plan.alias
        rows = self.pu.rows
        obs_idle = self._obs_idle
        obs_hit = self._obs_hit
        tx_rec = self._tx_rec
        rx_rec = self._rx_rec
        pu_rec = self._pu_rec
        del_rec = self._del_rec
        tx_base = self._tx_base
        rx_base = self._rx_base
        for s in range(self.slot, horizon):
            tx = tx_next(tx_base + s)
            rx = rx_next(rx_base + s)
            busy_row = rows[s]
            tx_phys = alias[tx]
            rx_phys = alias[rx]
            if tx_phys == rx_phys:
                delivered = not busy_row[tx_phys]
                blocked = not delivered
            else:
                delivered = False
                blocked = busy_row[tx_phys] or busy_row[rx_phys]
            tx_obs(obs_hit[tx] if delivered else obs_idle[tx])
            rx_obs(obs_hit[rx] if delivered else obs_idle[rx])
            tx_rec.append(tx)
            rx_rec.append(rx)
            pu_rec.append(blocked)
            del_rec.append(delivered)
        self.slot = horizon
        return self._trace()

    def _trace(self) -> SimTrace:
        delivered = np.array(self._del_rec, dtype=bool)
        hits = np.flatnonzero(delivered)
        first = int(hits[0]) if hits.size else None
        committed = self.receiver.committed_offset
        if self.config.protocol == "sass":
            missync = (
                None
                if committed is None
                else (committed - self.drift) % self.period != 0
            )
        else:
            missync = None
        return SimTrace(
            pair_index=self.pair_index,
            protocol=self.config.protocol,
            drift=self.drift,
            period=self.period,
            sender_channel=np.array(self._tx_rec, dtype=np.int16),
            receiver_channel=np.array(self._rx_rec, dtype=np.int16),
            pu_blocked=np.array(self._pu_rec, dtype=bool),
            delivered=delivered,
            first_delivery=first,
            committed_offset=committed,
            missync=missync,
        )


def run(config: SimConfig, pair_range: Sequence[int] | None = None) -> list[SimTrace]:
    """Simulate the configured pairs; each pair is seeded independently."""
    config.validate()
    indices = range(config.pairs) if pair_range is None else pair_range
    return [PairSimulation(config, i).run() for i in indices]


def write_records(path, traces: Iterable[SimTrace]) -> None:
    """Stream per-slot records as newline-delimited JSON objects."""
    import json

    with open(path, "w") as fh:
        for trace in traces:
            tx = trace.sender_channel.tolist()
            rx = trace.receiver_channel.tolist()
            pu = trace.pu_blocked.tolist()
            hit = trace.delivered.tolist()
            for slot in range(len(tx)):
                fh.write(
                    json.dumps(
                        {
                            "run": trace.pair_index,
                            "slot": slot,
                            "tx": tx[slot],
                            "rx": rx[slot],
                            "pu": pu[slot],
                            "delivered": hit[slot],
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def realized_idle_mean(idle_mean: float) -> float:
    """Expected idle slots for max(1, round(X)) with X ~ Exp(idle_mean)."""
    if idle_mean <= 0:
        return 1.0
    half = math.exp(-1.0 / (2.0 * idle_mean))
    return half / (1.0 - math.exp(-1.0 / idle_mean)) + 1.0 - half


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
    duty = busy_len / (realized_idle_mean(idle_mean) + busy_len)
    return 100.0 * (pu_channels / n_channels) * duty
