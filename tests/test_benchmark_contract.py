"""The benchmark's tracer wraps names of the package from outside; keep them working.

`perfbench/launch.py --trace` installs timing wrappers around module-level
names (`PairSimulation.run`, `PuTraffic.sample`, `cli._run_chunk`, ...) and
replays every simulated pair through fresh per-slot protocol nodes.  A
renamed or re-signatured name, or a span engine that drifts from the
per-slot reference, fails here rather than only in a benchmark run;
`TRACER_CALLS` checks the wrapped and called names without a subprocess.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skolemhop import cli, hopping, metrics, protocol, simenv, skolem

ROOT = Path(__file__).resolve().parents[1]

# Each name `perfbench/tracer.py` wraps or calls, with the positional and keyword
# arguments it passes (each placeholder named after its parameter).
TRACER_CALLS = [
    ("skolem.construct_skolem", skolem.construct_skolem, ("n",), {}),
    ("hopping.check_channel_map", hopping.check_channel_map, ("ess",), {}),
    ("hopping.check_slot_counts", hopping.check_slot_counts, ("ess",), {}),
    ("simenv.ess_for_channel_count", simenv.ess_for_channel_count, ("n_effective",), {}),
    ("simenv.PuTraffic.sample", simenv.PuTraffic.sample,
     ("n_channels", "pu_channels", "busy_len", "idle_mean", "rng", "horizon"), {}),
    ("simenv.PairSimulation.__init__", simenv.PairSimulation.__init__,
     ("self", "config", "pair_index"), {}),
    ("simenv.PairSimulation.run", simenv.PairSimulation.run, ("self",), {}),
    ("simenv.write_records", simenv.write_records, ("path", "traces"), {}),
    ("metrics.rho_series", metrics.rho_series, ("traces",), {}),
    ("metrics.latency_report", metrics.latency_report, ("traces",), {}),
    ("metrics.missync_rate", metrics.missync_rate, ("traces",), {}),
    ("metrics.write_rho_csv", metrics.write_rho_csv, ("path", "rows"), {}),
    ("metrics.write_latency_csv", metrics.write_latency_csv, ("path", "rows"), {}),
    ("cli._run_variation", cli._run_variation, ("config", "workers", "pool"), {}),
    ("cli._run_chunk", cli._run_chunk, ("config", "start", "stop"), {}),
    ("protocol.make_pair", protocol.make_pair, ("protocol", "ess"),
     {"tx_rng": None, "rx_rng": None}),
    ("protocol.SlotObservation", protocol.SlotObservation, ("delivered", "channel"), {}),
]

SPEC = """\
seed = 3
pairs = 6
horizon = 300
busy = 40
channels = 10
plan = padding

[variation]
name = sass-neg
protocol = sass
pu = 50
drift = -37

[variation]
name = rch
protocol = rch
pu = 50

[variation]
name = css
protocol = css
pu = 25
"""


def test_traced_run_replays_without_mismatches(tmp_path):
    spec = tmp_path / "tiny.spec"
    spec.write_text(SPEC)
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "perfbench/launch.py", "--trace", str(stats),
         "experiment", str(spec), "--out", str(tmp_path / "out"),
         "--records", "--workers", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    sums = json.loads(stats.read_text())["sums"]
    assert sums["replay.pairs"] == 18
    assert sums.get("replay.mismatches", 0) == 0
    assert sums["records.slots"] == 3 * 6 * 300


@pytest.mark.parametrize("name,func,args,kwargs", TRACER_CALLS,
                         ids=[call[0] for call in TRACER_CALLS])
def test_tracer_call_binds(name, func, args, kwargs):
    # A removed or re-signatured name fails here, not in a traced subprocess.
    inspect.signature(func).bind(*args, **kwargs)


def test_tracer_reads_exist():
    assert isinstance(inspect.getattr_static(simenv.PuTraffic, "sample"), classmethod)
    config = simenv.SimConfig(n_channels=4, horizon=8)
    sim = simenv.PairSimulation(config, 0)
    assert (sim.config, sim.pair_index) == (config, 0)
    assert sim.ess.n_effective == 4
    trace = sim.run()
    for name in ("protocol", "drift", "horizon", "sender_channel", "receiver_channel",
                 "pu_blocked", "delivered", "committed_offset", "missync"):
        assert hasattr(trace, name), name
    for name in protocol.PROTOCOLS:
        for node in protocol.make_pair(name, sim.ess, *[np.random.default_rng(0)] * 2):
            inspect.signature(node.next_channel).bind(0)
            inspect.signature(node.observe).bind(protocol.SlotObservation(False, 0))
            assert node.committed_offset is None
