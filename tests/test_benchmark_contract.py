"""The benchmark's tracer wraps names of the package from outside; keep them working.

`perfbench/launch.py --trace` installs timing wrappers around module-level
names (`PairSimulation.run`, `PuTraffic.sample`, `cli._run_chunk`, ...) and
replays every simulated pair through fresh per-slot protocol nodes.  A
renamed or re-signatured name, or a span engine that drifts from the
per-slot reference, fails here rather than only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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
