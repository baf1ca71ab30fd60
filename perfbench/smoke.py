"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/smoke.py        (from the root of a source checkout)

Checks that each run exits 0, that its last line is the result object, that
every metric named in BENCHMARK.json is emitted with its unit as a finite
number, and that nothing failed (error_rate 0).  Also checks that the
benchmark refuses to run, without a result, in a directory holding only
BENCHMARK.json and this directory.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(done, units: dict, label: str) -> None:
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: error_rate not 0\n{done.stdout[-3000:]}")
    if "error_rate" not in done.stdout:
        raise AssertionError(f"{label}: error_rate not printed")
    if set(result["metrics"]) != set(units):
        raise AssertionError(f"{label}: metrics {sorted(set(result['metrics']) ^ set(units))}")
    for name, unit in units.items():
        entry = result["metrics"][name]
        if entry["unit"] != unit or not math.isfinite(entry["value"]):
            raise AssertionError(f"{label}: {name} = {entry}")
        if f"{name} " not in done.stdout:
            raise AssertionError(f"{label}: {name} not printed by name")


def main() -> int:
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == END_TO_END_UNITS, declared_e2e
    assert declared_layer == LAYER_UNITS, declared_layer
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)

    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END_UNITS), (1, LAYER_UNITS)):
            check_result(run(root, workload, trace), units, f"{workload} --trace {trace}")
            print(f"ok {workload} --trace {trace}", flush=True)

    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "delivery-rate", 0, smoke=False)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 0 or last[0].startswith("{"):
            raise AssertionError(f"bare directory: exit {done.returncode}, {last}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
