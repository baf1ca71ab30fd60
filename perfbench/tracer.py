"""Per-layer timers for a traced skolemhop run, installed from outside.

`install()` replaces module-level names of the six skolemhop modules (each
layer's public entry points, plus the two pool helpers of `cli`) with
timing wrappers; nothing under `src/` changes and every wrapper
returns exactly what the wrapped call returns, so a traced run writes the
same outputs as an untraced one.  Counters accumulate in one `Stats`
object per process.  Worker processes of the experiment pool write their
counters to one file per chunk in the trace directory, and `collect()`
merges them with the parent's.

Besides timing, the `PairSimulation.run` wrapper replays every simulated
pair through fresh protocol nodes (`protocol.make_pair`) and counts the
pairs whose replayed channels differ from the simulated ones; the replay
is timed as the protocol layer's per-slot cost.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from skolemhop import cli, hopping, metrics, protocol, simenv, skolem

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_now = time.perf_counter_ns


class Stats:
    """Counters of one process: sums, plus the slowest cold construction."""

    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.worst_construct_ns = 0
        self.worst_construct_order = None

    def add(self, key: str, value: float) -> None:
        self.sums[key] += value

    def to_dict(self) -> dict:
        return {
            "sums": dict(self.sums),
            "worst_construct_ns": self.worst_construct_ns,
            "worst_construct_order": self.worst_construct_order,
        }


_stats = Stats()
_constructed: set[int] = set()  # orders this process has built
_originals: dict[str, object] = {}
_chunk_ids = itertools.count()


def _timed(key: str, func):
    def wrapper(*args, **kwargs):
        t0 = _now()
        try:
            return func(*args, **kwargs)
        finally:
            _stats.add(f"{key}.ns", _now() - t0)
            _stats.add(f"{key}.calls", 1)

    return wrapper


def _construct_skolem(n):
    # The first call per order in a process is a cache miss; later calls hit
    # the module's cache and are not construction work.
    cold = n not in _constructed
    t0 = _now()
    result = _originals["construct_skolem"](n)
    if cold:
        elapsed = _now() - t0
        _constructed.add(n)
        _stats.add("construct.ns", elapsed)
        _stats.add("construct.calls", 1)
        if elapsed > _stats.worst_construct_ns:
            _stats.worst_construct_ns = elapsed
            _stats.worst_construct_order = int(n)
    return result


def _check(name: str):
    func = getattr(hopping, name)

    def wrapper(ess):
        t0 = _now()
        violations = func(ess)
        _stats.add("check.ns", _now() - t0)
        _stats.add("check.shift_pairs", ess.period * ess.period)
        return violations

    return wrapper


def _pu_sample(cls, *args, **kwargs):
    t0 = _now()
    try:
        return _originals["pu_sample"].__func__(cls, *args, **kwargs)
    finally:
        _stats.add("pu.ns", _now() - t0)
        _stats.add("pu.calls", 1)


def _pair_run(self):
    t0 = _now()
    trace = _originals["pair_run"](self)
    elapsed = _now() - t0
    p = trace.protocol
    slots = trace.horizon
    _stats.add(f"run.ns.{p}", elapsed)
    _stats.add(f"slots.{p}", slots)
    _stats.add(f"delivered.{p}", int(trace.delivered.sum()))
    _stats.add("trace.bytes", sum(
        a.nbytes for a in (trace.sender_channel, trace.receiver_channel,
                           trace.pu_blocked, trace.delivered)))
    if p == "sass":
        _stats.add("sass.pairs", 1)
        _stats.add("sass.committed", trace.committed_offset is not None)
        _stats.add("sass.missync", bool(trace.missync))
    replay_ns, ok = replay(self, trace)
    _stats.add(f"replay.ns.{p}", replay_ns)
    _stats.add("replay.pairs", 1)
    _stats.add("replay.mismatches", not ok)
    return trace


def replay(sim, trace) -> tuple[int, bool]:
    """Feed the trace's observations to fresh nodes; (loop ns, channels agree).

    The nodes are seeded the way the simulator seeds a pair and, for a
    negative drift, the receiver first idles through |drift| empty slots.
    """
    config = sim.config
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(sim.pair_index,))
    _env, _pu, tx_ss, rx_ss = ss.spawn(4)
    sender, receiver = protocol.make_pair(
        config.protocol,
        sim.ess,
        tx_rng=np.random.Generator(np.random.PCG64(tx_ss)),
        rx_rng=np.random.Generator(np.random.PCG64(rx_ss)),
    )
    drift = trace.drift
    for t in range(max(-drift, 0)):
        receiver.observe(protocol.SlotObservation(False, receiver.next_channel(t)))
    tx_base, rx_base = max(drift, 0), max(-drift, 0)
    tx_rec = trace.sender_channel.tolist()
    rx_rec = trace.receiver_channel.tolist()
    hit = trace.delivered.tolist()
    n_eff = sim.ess.n_effective
    obs = {(d, c): protocol.SlotObservation(d, c) for d in (False, True) for c in range(n_eff)}
    tx_next, rx_next = sender.next_channel, receiver.next_channel
    tx_obs, rx_obs = sender.observe, receiver.observe
    ok = True
    t0 = _now()
    for s in range(len(hit)):
        tx = tx_next(tx_base + s)
        rx = rx_next(rx_base + s)
        if tx != tx_rec[s] or rx != rx_rec[s]:
            ok = False
            break
        d = hit[s]
        tx_obs(obs[d, tx])
        rx_obs(obs[d, rx])
    elapsed = _now() - t0
    if ok and receiver.committed_offset != trace.committed_offset:
        ok = False
    return elapsed, ok


def _write_records(path, traces):
    traces = list(traces)
    t0 = _now()
    _originals["write_records"](path, traces)
    _stats.add("records.ns", _now() - t0)
    _stats.add("records.slots", sum(t.horizon for t in traces))
    _stats.add("records.bytes", os.path.getsize(path))


def _run_variation(config, workers, pool):
    traces = _originals["run_variation"](config, workers, pool)
    # What the pool hands back (or would, at --workers 1): the pickled
    # trace list, round-tripped.
    t0 = _now()
    blob = pickle.dumps(traces, protocol=pickle.DEFAULT_PROTOCOL)
    pickle.loads(blob)
    _stats.add("transfer.ns", _now() - t0)
    _stats.add("transfer.bytes", len(blob))
    return traces


def traced_run_chunk(config, start, stop):
    """Worker-side stand-in for `cli._run_chunk`: one counter file per chunk."""
    global _stats
    install(os.environ[TRACE_DIR_ENV])
    outer, _stats = _stats, Stats()
    try:
        return _originals["run_chunk"](config, start, stop)
    finally:
        chunk, _stats = _stats, outer
        name = f"chunk-{os.getpid()}-{next(_chunk_ids)}.json"
        path = Path(os.environ[TRACE_DIR_ENV]) / name
        path.write_text(json.dumps(chunk.to_dict()))


def install(trace_dir) -> None:
    """Wrap the layer entry points (idempotent); chunk files go to trace_dir."""
    os.environ[TRACE_DIR_ENV] = str(trace_dir)
    if _originals:
        return
    _originals.update(
        construct_skolem=skolem.construct_skolem,
        pu_sample=simenv.PuTraffic.sample,
        pair_run=simenv.PairSimulation.run,
        write_records=simenv.write_records,
        run_variation=cli._run_variation,
        run_chunk=cli._run_chunk,
    )
    skolem.construct_skolem = _construct_skolem
    for name in ("check_channel_map", "check_slot_counts"):
        setattr(hopping, name, _check(name))
    simenv.ess_for_channel_count = _timed("ess", simenv.ess_for_channel_count)
    simenv.PuTraffic.sample = classmethod(_pu_sample)
    simenv.PairSimulation.__init__ = _timed("pair_init", simenv.PairSimulation.__init__)
    simenv.PairSimulation.run = _pair_run
    simenv.write_records = _write_records
    for name in ("rho_series", "latency_report", "missync_rate"):
        setattr(metrics, name, _timed("reduce", getattr(metrics, name)))
    for name in ("write_rho_csv", "write_latency_csv"):
        setattr(metrics, name, _timed("csv", getattr(metrics, name)))
    cli._run_variation = _run_variation
    cli._run_chunk = traced_run_chunk


def collect(trace_dir) -> dict:
    """This process's counters merged with every worker chunk file."""
    merged = _stats.to_dict()
    sums = defaultdict(float, merged["sums"])
    for path in sorted(Path(trace_dir).glob("chunk-*.json")):
        chunk = json.loads(path.read_text())
        for key, value in chunk["sums"].items():
            sums[key] += value
        if chunk["worst_construct_ns"] > merged["worst_construct_ns"]:
            merged["worst_construct_ns"] = chunk["worst_construct_ns"]
            merged["worst_construct_order"] = chunk["worst_construct_order"]
    merged["sums"] = dict(sums)
    return merged
