"""A/B timing of this checkout against another commit, on the benchmark's workloads.

    python3 bench.py [--against REV] [--pairs N] --out BENCH.json

Each workload in BENCHMARK.json is run as
`perfbench/run.py --workload W --trace 0 --seconds S`, N times in this
checkout, with S the benchmark's `run_seconds`.  In each pair, the full
`experiment --preset delivery-rate` also runs once at `--workers 1` and
once at `--workers 2`, each from a fresh `python3 -S` parent that reports
the command's wall time and its children's CPU time and peak RSS
(`RUSAGE_CHILDREN`); its CSV digest must be the `PRESET_GOLDEN` that the
same side's `perfbench/workloads.py` pins.  After the pairs, Tier-1
(`pytest -q`) runs twice per side, for its wall time and its outcome
counts.  With `--against REV`, REV is exported with `git archive` into a
temporary directory, removed afterwards, and each run here is paired with
a run there; the side that runs first alternates from pair to pair.  For every metric and side the output records each run, the median
and the quartiles, and, with `--against`, the pairs each side won (ties
count for neither) and whether the gain rule holds: this side wins at
least nine in ten pairs and the medians differ by more than the other
side's interquartile range.  It also records both commits, `src_lines` per
module for both sides, the Python and numpy versions and nproc.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import runpy
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
PRESET_WORKERS = (1, 2)
TIER1_RUNS = 2
# Run as `python3 -S -c TIMER command...`: the parent imports little, so the largest
# ru_maxrss among its children is the command's own peak, not a copy of a large parent's.
TIMER = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
wall = time.perf_counter() - t0
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024}))
"""


def summarize(this: list[float], against: list[float] | None, better: str) -> dict:
    """One metric's runs per side; `against[i]` is paired with `this[i]`."""

    def side(runs: list[float]) -> dict:
        q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                          if len(runs) > 1 else runs * 3)
        return {"median": median, "q1": q1, "q3": q3, "runs": runs}

    out = {"better": better, "this": side(this)}
    if against is None:
        return out
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(this, against))
    losses = sum(sign * (a - b) > 0 for a, b in zip(this, against))
    ref = side(against)
    gap = sign * (ref["median"] - out["this"]["median"])
    out.update(against=ref, wins={"this": wins, "against": losses},
               ratio=out["this"]["median"] / ref["median"] if ref["median"] else None,
               gain=wins >= 0.9 * len(this) and gap > ref["q3"] - ref["q1"])
    return out


def src_lines(root: Path) -> dict[str, int]:
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((root / "src" / "skolemhop").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_workload(root: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def csv_digest(out: Path) -> str:
    """sha256 of a `sha256sum *.csv` listing of `out`."""
    listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                      for p in sorted(out.glob("*.csv")))
    return hashlib.sha256(listing.encode()).hexdigest()


def preset_golden(root: Path) -> str:
    """The full delivery-rate preset's digest, at any --workers, as root's benchmark pins it."""
    return runpy.run_path(str(root / "perfbench" / "workloads.py"))["PRESET_GOLDEN"]


def run_preset(root: Path, workers: int) -> dict:
    """The full delivery-rate preset, timed from a lean parent, with its digest checked."""
    with tempfile.TemporaryDirectory(prefix="bench-preset-") as out:
        done = subprocess.run(
            [sys.executable, "-S", "-c", TIMER, sys.executable, "-m", "skolemhop.cli",
             "experiment", "--preset", "delivery-rate", "--workers", str(workers), "--out", out],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True,
            text=True, check=True)
        result = json.loads(done.stdout)
        result["digest_ok"] = (result.pop("code") == 0
                               and csv_digest(Path(out)) == preset_golden(root))
    return result


def pytest_counts(output: str) -> dict[str, int]:
    """Outcome counts from the summary line that ends `pytest -q`'s output."""
    summary = (output.strip().splitlines() or [""])[-1]
    return {word: int(count) for count, word in re.findall(
        r"(\d+) (passed|failed|xfailed|xpassed|skipped|errors?|warnings?|deselected)", summary)}


def run_tier1(root: Path) -> dict:
    """One Tier-1 run: its wall time, exit status and outcome counts."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True,
        text=True)
    return {"wall_s": time.perf_counter() - t0, "exit": done.returncode,
            **pytest_counts(done.stdout)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="REV", help="commit to pair each run with")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side and workload")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    roots = {"this": ROOT}
    commits = {"this": git("rev-parse", "HEAD"),
               "this_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    tmp = None
    try:
        if args.against:
            commits["against"] = git("rev-parse", "--verify", f"{args.against}^{{commit}}")
            tmp = Path(tempfile.mkdtemp(prefix="bench-against-"))
            export(commits["against"], tmp)
            roots["against"] = tmp
        runs = {w: {side: [] for side in roots} for w in workloads}
        presets = {n: {side: [] for side in roots} for n in PRESET_WORKERS}
        tier1 = {side: [] for side in roots}
        for i in range(args.pairs):
            order = list(roots) if i % 2 == 0 else list(roots)[::-1]
            for w in workloads:
                for side in order:
                    runs[w][side].append(run_workload(roots[side], w, spec["run_seconds"]))
                    print(f"pair {i + 1}/{args.pairs} {w} {side}: "
                          f"{runs[w][side][-1]['metrics']['wall_s']['value']:.4f} s",
                          file=sys.stderr)
            for n in PRESET_WORKERS:
                for side in order:
                    presets[n][side].append(run_preset(roots[side], n))
                    print(f"pair {i + 1}/{args.pairs} preset --workers {n} {side}: "
                          f"{presets[n][side][-1]['wall_s']:.3f} s", file=sys.stderr)
        for i in range(TIER1_RUNS):
            for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
                tier1[side].append(run_tier1(roots[side]))
                print(f"tier-1 {side}: {tier1[side][-1]}", file=sys.stderr)
        lines = {side: src_lines(root) for side, root in roots.items()}
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    def values(results: list[dict] | None, metric: str) -> list[float] | None:
        return None if results is None else [r["metrics"][metric]["value"] for r in results]

    def paired(by_side: dict[str, list[dict]], key: str) -> dict:
        return summarize([r[key] for r in by_side["this"]],
                         [r[key] for r in by_side["against"]] if args.against else None, "lower")

    report = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commits": commits,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "pairs": args.pairs,
        "seconds": spec["run_seconds"],
        "src_lines": lines,
        "workloads": {
            w: {
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs[w].items()},
                "metrics": {
                    m: summarize(values(runs[w]["this"], m), values(runs[w].get("against"), m),
                                 better[m])
                    for m in runs[w]["this"][0]["metrics"]
                },
            }
            for w in workloads
        },
        "preset": {
            f"workers_{n}": {
                "digest_ok": {side: [r["digest_ok"] for r in rs] for side, rs in presets[n].items()},
                "metrics": {m: paired(presets[n], m) for m in ("wall_s", "cpu_s", "peak_rss_mb")},
            }
            for n in PRESET_WORKERS
        },
        "tier1": {"runs": tier1, "wall_s": paired(tier1, "wall_s")},
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
