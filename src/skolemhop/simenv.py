"""Deterministic slotted-time simulation of one-hop broadcast pairs.

Each pair runs in isolation: a sender anchored at the global clock, a
receiver lagging by an integer drift, and a set of primary-user channels
alternating fixed busy periods with exponentially distributed idle periods.
A slot delivers iff both nodes resolve (through the channel plan) to the
same physical channel and that channel is free.  Everything is derived
from the config seed; identical configs replay bit-identically.

The engine plays channels as slices of cached tables, SASS in closed form
through `protocol.sass_plan` and `sass_commit`, rch as draws from the pair's
streams; the per-slot protocol nodes are only the reference it is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .protocol import PROTOCOLS, sass_commit, sass_plan
from .skolem import ChannelPlan, ess_for_channel_count, make_channel_plan

__all__ = [
    "SimConfig",
    "SimTrace",
    "PuTraffic",
    "PairSimulation",
    "sequence_tables",
    "run",
    "write_records",
    "pu_parameters",
    "realized_idle_mean",
    "solve_idle_mean",
    "nominal_intensity",
]

RECORD_BLOCK = 1000  # slots per block of NDJSON records
PREROLL_BLOCK = 1 << 16  # most draws of an rch pre-roll held at once
SEED_BLOCK = 256  # pair indices per block of seed states
_MASK = 0xFFFFFFFF
MAX_IDLE_MEAN = 1e300  # keeps idle draws and solve_idle_mean's 2T + 1 finite


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
        ess_for_channel_count(plan.effective_count)  # rejects N' < 4
        if not 0 <= self.pu_channels <= self.n_channels:
            raise ValueError("pu_channels must be within [0, n_channels]")
        if self.busy_len < 1:
            raise ValueError("busy_len must be >= 1")
        if not 0 < self.idle_mean <= MAX_IDLE_MEAN:
            raise ValueError(f"idle_mean must be within (0, {MAX_IDLE_MEAN:g}]")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 1 <= self.pairs <= _MASK + 1:  # pair_stream indexes pairs by uint32
            raise ValueError("pairs must be within [1, 2**32]")
        object.__setattr__(self, "plan", plan)


@dataclass
class SimTrace:
    """Per-slot records and the end-of-run summary for one pair; pickled as a plain dataclass."""

    pair_index: int
    protocol: str
    drift: int
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


def seed_words(seed: int, spawn_key: tuple, n_words: int) -> list:
    """SeedSequence(seed, spawn_key).generate_state(n_words) by numpy's algorithm, whose
    hash constants do not depend on the words: key entries may be uint32 arrays."""
    def hasher(const: int, mult: int):  # hashmix; each call advances the constant
        def hashmix(value):
            nonlocal const
            value = (value ^ const) * (const := const * mult & _MASK) & _MASK
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        result = ((0xCA01F9DD * x & _MASK) - 0x4973F715 * y) & _MASK
        return result ^ result >> 16

    if seed < 0:
        raise ValueError(f"expected non-negative integer seed, got {seed}")
    words = [seed >> s & _MASK for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))  # a spawn key follows: pad to the pool size
    hashmix = hasher(0x43B0D7E5, 0x931E8875)  # SeedSequence's INIT_A, MULT_A
    pool = [hashmix(word) for word in words[:4]]
    for src, dst in [(src, dst) for src in range(4) for dst in range(4) if src != dst]:
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in [*words[4:], *spawn_key]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = hasher(0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B
    return [hashmix(pool[i % 4]) for i in range(n_words)]


@functools.lru_cache(maxsize=2)
def _state_block(seed: int, block: int) -> np.ndarray:
    """[k, j % SEED_BLOCK] -> stream state of pair j's stream k, for block j // SEED_BLOCK."""
    pairs = np.arange(block * SEED_BLOCK, (block + 1) * SEED_BLOCK, dtype=np.uint32)
    words = seed_words(seed, (pairs, np.arange(4, dtype=np.uint32)[:, None]), 8)
    states = np.stack(words, axis=-1).astype("<u4").view("<u8").astype(np.uint64)
    states.flags.writeable = False
    return states


@functools.cache
def _state_seed_sequence() -> type:
    # Imported here: numpy.random (~6 MB, ~20 ms) loads only in processes that simulate.
    from numpy.random.bit_generator import ISeedSequence

    class StateSeedSequence(ISeedSequence):  # a stream state computed in advance
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64
            return self.state

    return StateSeedSequence


def pair_stream(seed: int, pair_index: int, k: int) -> np.random.Generator:
    """Generator(PCG64(SeedSequence(seed, spawn_key=(pair_index, k)))), from the block cache."""
    if not 0 <= pair_index <= _MASK:
        raise ValueError(f"pair index must be within [0, 2**32), got {pair_index}")
    block, row = divmod(pair_index, SEED_BLOCK)
    state = _state_block(seed, block)[k, row]
    return np.random.Generator(np.random.PCG64(_state_seed_sequence()(state)))


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
        self.rows = np.zeros((horizon, n_channels), dtype=bool)  # [slot, channel]
        for ch in self.occupied:
            col = self.rows[:, ch]
            # Draws: the first idle length, the phase, then one idle length per busy period.
            # A first cycle past int64 (never over within a horizon) draws a phase below 2**63.
            first_idle = max(1, int(rng.exponential(idle_mean) + 0.5))
            phase = int(rng.integers(0, min(busy_len + first_idle, 2**63)))
            col[:max(busy_len - phase, 0)] = True  # the rest of a first busy period
            pos = busy_len + first_idle - phase
            while pos < horizon:
                col[pos:pos + busy_len] = True
                pos += busy_len + max(1, int(rng.exponential(idle_mean) + 0.5))

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
        occupied = rng.choice(n_channels, size=pu_channels, replace=False) if pu_channels else ()
        return cls(n_channels, occupied, busy_len, idle_mean, rng, horizon)


@functools.lru_cache(maxsize=4)
def sequence_tables(plan: ChannelPlan, horizon: int) -> dict[str, np.ndarray]:
    """Read-only tables that a pair's nodes play as slice views, in effective
    channels: `base`, the base sequence tiled to max(horizon, P) + P slots (the
    sender from local slot s is base[s % P:][:horizon], a SASS frame
    base[i:i + n] with i < P); `css`, the CSS schedule values[(t + t // P) % P],
    which repeats every P^2 slots, tiled to P^2 + horizon; `alias`, each
    effective channel's physical one; and `cells`, where each trace slot's row
    starts in the flattened (slot, channel) PU matrix."""
    u = np.array(ess_for_channel_count(plan.effective_count).values, dtype=np.int16)
    period = len(u)
    t = np.arange(period * period)
    tables = dict(base=np.resize(u, max(horizon, period) + period),
                  css=np.resize(u[(t + t // period) % period], period * period + horizon),
                  alias=np.array(plan.alias, dtype=np.int16),
                  cells=np.arange(horizon) * plan.physical_count)
    for table in tables.values():
        table.flags.writeable = False
    return tables


class PairSimulation:
    """One sender/receiver pair, simulated as slices of `sequence_tables`.

    Trace slot 0 is the first slot with both nodes active.  With drift d >= 0
    the sender's local clock reads d + s at trace slot s; a negative drift
    (receiver ahead) runs the receiver through |d| pre-roll slots with no
    deliveries before the trace starts.  PU occupancy is indexed by trace
    slot.  The sender and the CSS receiver play one slice of
    `sequence_tables`; the SASS receiver plays the CSS slice through its
    first-delivery frame, one slice per probe frame, then one once it has
    committed.  rch draws the sender's N' uniform channels from the pair's
    stream 2, the receiver's (pre-roll first) from stream 3.
    """

    def __init__(self, config: SimConfig, pair_index: int):
        self.config = config
        self.pair_index = pair_index
        self.ess = ess_for_channel_count(config.plan.effective_count)

        # Stream k is child k of spawn_key=(j,)'s spawn(4): 0 drift, 1 PU, 2 tx, 3 rx.
        stream = functools.partial(pair_stream, config.seed, pair_index)
        if config.drift is None:
            n_eff = config.plan.effective_count
            self.drift = int(stream(0).integers(0, 2 * n_eff * n_eff))
        else:
            self.drift = int(config.drift)
        self.pu = PuTraffic.sample(
            config.n_channels,
            config.pu_channels,
            config.busy_len,
            config.idle_mean,
            stream(1) if config.pu_channels else None,
            config.horizon,
        )
        if config.protocol == "rch":
            self._rch_streams = stream(2), stream(3)

    def run(self) -> SimTrace:
        config, period, pre = self.config, self.ess.period, max(-self.drift, 0)
        horizon, protocol = config.horizon, config.protocol
        tables = sequence_tables(config.plan, horizon)
        # Physical channel c at trace slot s is busy[cells[s] + c].
        alias, busy, cells = tables["alias"], self.pu.rows.ravel(), tables["cells"]
        if protocol == "rch":
            n_eff, (tx_rng, rx_rng) = config.plan.effective_count, self._rch_streams
            tx = tx_rng.integers(0, n_eff, size=horizon).astype(np.int16)
            for done in range(0, pre, PREROLL_BLOCK):  # drawn and dropped, a block at a time
                rx_rng.integers(0, n_eff, size=min(PREROLL_BLOCK, pre - done))
            rx = rx_rng.integers(0, n_eff, size=horizon).astype(np.int16)
        else:
            tx = tables["base"][max(self.drift, 0) % period:][:horizon]
            rx = tables["css"][pre % (period * period):][:horizon]
        target = alias.take(tx)  # the channel a delivery needs; -1 where it is busy
        tx_busy = busy[cells + target]
        np.putmask(target, tx_busy, -1)
        committed = None
        if protocol == "sass":
            rx, committed = self._play_sass(rx, target, tables, pre)
        rx_phys = alias.take(rx)
        delivered = rx_phys == target
        first = int(delivered.argmax())
        missync = (committed - self.drift) % period != 0 if committed is not None else None
        return SimTrace(
            pair_index=self.pair_index,
            protocol=protocol,
            drift=self.drift,
            sender_channel=tx,
            receiver_channel=rx,
            pu_blocked=tx_busy | busy[cells + rx_phys],
            delivered=delivered,
            first_delivery=first if delivered[first] else None,
            committed_offset=committed,
            missync=missync,
        )

    def _play_sass(self, css: np.ndarray, target: np.ndarray, tables: dict,
                   pre: int) -> tuple[np.ndarray, int | None]:
        """(channels, committed offset) of the SASS receiver, `pre` pre-roll slots ahead: the
        CSS slice `css` through its first-delivery frame f0, then the frames `sass_plan` gives."""
        horizon, period = len(css), self.ess.period
        alias, base = tables["alias"], tables["base"]
        hit = alias.take(css) == target
        first = int(hit.argmax())
        f0 = (pre + first) // period
        done = (f0 + 1) * period - pre  # the trace slot where f0 ends
        if not hit[first] or done > horizon:
            return css, None
        hits = hit[first:done].nonzero()[0] + (pre + first) % period
        _, plan = sass_plan(self.ess.values, f0, hits.tolist())
        pieces, sb = [css[:done]], {f0: len(hits)}
        for frame in range(f0 + 1, max(plan) + 1):  # the probe frames
            pieces.append(base[plan[frame]:][:min(period, horizon - done)])
            sb[frame] = int(np.count_nonzero(alias.take(pieces[-1]) == target[done:][:period]))
            done += len(pieces[-1])
        if (max(plan) + 1) * period - pre > horizon:  # the run ends inside a probe frame
            return np.concatenate(pieces), None
        committed = sass_commit(plan, sb)
        return np.concatenate([*pieces, base[committed:][:horizon - done]]), committed


def run(config: SimConfig, pair_range: Sequence[int] | None = None) -> list[SimTrace]:
    """Simulate the configured pairs; each pair is seeded independently."""
    indices = range(config.pairs) if pair_range is None else pair_range
    return [PairSimulation(config, i).run() for i in indices]


def write_records(path, traces: Iterable[SimTrace]) -> None:
    """Stream per-slot records as newline-delimited JSON objects.

    Each block of RECORD_BLOCK slots is built as one array of fixed-width
    rows, one NUL-padded byte-string field per record piece, gathered from
    small text tables whose entries carry the literals.  The NULs are
    dropped on write, so the memory per block is fixed whatever the horizon.
    """
    # RECORD_BLOCK is a power of ten, so block b's slots print as b's digits
    # (in the head) and then their zero-padded index in the block.
    digits = len(str(RECORD_BLOCK - 1))
    low = np.array([b"%d" % i for i in range(RECORD_BLOCK)])
    low_padded = np.array([b"%0*d" % (digits, i) for i in range(RECORD_BLOCK)])
    word = (b"false", b"true")
    flags = np.array([b',"pu":%s,"delivered":%s}\n' % (pu, hit) for pu in word for hit in word])
    with open(path, "wb") as fh:
        for trace in traces:
            tx, rx = trace.sender_channel, trace.receiver_channel
            channels = range(int(max(tx.max(initial=0), rx.max(initial=0))) + 1)
            tx_text = np.array([b',"tx":%d' % c for c in channels])
            rx_text = np.array([b',"rx":%d' % c for c in channels])
            head = b'{"run":%d,"slot":' % trace.pair_index
            widest = len(head + b"%d" % ((trace.horizon - 1) // RECORD_BLOCK))
            layout = np.dtype([
                ("head", f"S{widest}"), ("low", low.dtype), ("tx", tx_text.dtype),
                ("rx", rx_text.dtype), ("flags", flags.dtype),
            ])
            for start in range(0, trace.horizon, RECORD_BLOCK):
                block = slice(start, start + RECORD_BLOCK)
                high = start // RECORD_BLOCK
                rows = np.empty(len(tx[block]), layout)
                rows["head"] = head + b"%d" % high if high else head
                rows["low"] = (low_padded if high else low)[: len(rows)]
                rows["tx"] = tx_text.take(tx[block])
                rows["rx"] = rx_text.take(rx[block])
                pu, hit = trace.pu_blocked[block], trace.delivered[block]
                rows["flags"] = flags.take(2 * pu.view(np.uint8) + hit.view(np.uint8))
                fh.write(rows.tobytes().replace(b"\0", b""))


def realized_idle_mean(idle_mean: float) -> float:
    """Expected idle slots for max(1, round(X)) with X ~ Exp(idle_mean)."""
    if idle_mean <= 0:
        return 1.0
    half = math.exp(-1.0 / (2.0 * idle_mean))
    tail = -math.expm1(-1.0 / idle_mean)
    # Only an infinite idle mean leaves no tail; its first-order value is 1/idle_mean.
    return half / tail + 1.0 - half if tail else half * idle_mean + 1.0 - half


def solve_idle_mean(target: float) -> float:
    """Idle-mean parameter whose realized (rounded, floored) mean hits target.

    With x = exp(-1/(2m)) the realized mean is x/(1 - x^2) + 1 - x, so target T
    is met where x^3 + (T-1)x^2 - (T-1) = 0.  In y = 1 - x that cubic,
    f(y) = 1 - (2T+1)y + (T+2)y^2 - y^3, is convex and decreasing on [0, 1), so
    Newton's method from y = 0 climbs to its root from below.
    """
    if target <= 1.0:
        return 1e-9
    y = 0.0
    while True:
        f = 1.0 - (2.0 * target + 1.0) * y + (target + 2.0) * y * y - y**3
        slope = 2.0 * target + 1.0 - 2.0 * (target + 2.0) * y + 3.0 * y * y  # -f'(y)
        if not (y_next := y + f / slope) > y:
            return -0.5 / math.log1p(-y)
        y = y_next


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
    x = max(1, math.ceil(frac * n_channels - 1e-9))  # any load occupies a channel
    duty = frac * n_channels / x
    # Idle >= 1 slot caps duty at b/(b+1); the shortfall is negligible for
    # long busy periods.
    target_idle = busy_len * (1.0 - duty) / duty if duty < 1.0 else 0.0
    if target_idle > MAX_IDLE_MEAN:
        raise ValueError(f"pu_percent {pu_percent:g} needs an idle mean above {MAX_IDLE_MEAN:g}")
    return x, solve_idle_mean(target_idle)


def nominal_intensity(pu_channels: int, n_channels: int, busy_len: int, idle_mean: float) -> float:
    """PU intensity in percent implied by raw traffic parameters."""
    if n_channels < 1:
        raise ValueError(f"channel count must be >= 1, got {n_channels}")
    duty = busy_len / (realized_idle_mean(idle_mean) + busy_len)
    return 100.0 * (pu_channels / n_channels) * duty
