"""skolemhop benchmark: end-to-end metrics per workload, or per-layer ones traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is taken from `src/`.
With `--trace 0` the workload command is repeated, untraced, for S seconds
(at least once), each repetition after a set-up run.  The reported wall
time is the fastest repetition (on a shared machine, interference only
ever adds time); set-up time and memory are medians.  With `--trace 1` the
workload runs untraced at each worker count and under `tracer.py`, in
alternating rounds, and the per-layer metrics come from the traced run;
its outputs must be byte-identical to the untraced run's.  Every output is
checked, and the last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    CONFIRM_SEED,
    DEFAULT_SEED,
    GOLDEN,
    PRESET_FULL,
    PRESET_GOLDEN,
    PROBE,
    PROBE_ORDERS,
    SMOKE,
    WORKLOADS,
    SimWorkload,
    TheoremsWorkload,
)

HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
TRACE_ROUNDS = 2
COMMAND_TIMEOUT_S = 150
PROTOCOLS = ("sass", "rch", "css")

END_TO_END_UNITS = {"wall_s": "s", "pair_slots_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "skolem.construct_s": "s",
    "skolem.construct_worst_s": "s",
    "skolem.ess_us_per_pair": "us",
    "hopping.check_s": "s",
    "hopping.shift_pairs_per_s": "1/s",
    **{f"protocol.slot_ns.{p}": "ns" for p in PROTOCOLS},
    "protocol.committed_frac": "ratio",
    "protocol.missync_rate": "ratio",
    "simenv.pair_setup_us": "us",
    "simenv.pu_traffic_us": "us",
    **{f"simenv.slot_ns.{p}": "ns" for p in PROTOCOLS},
    **{f"simenv.delivered_frac.{p}": "ratio" for p in PROTOCOLS},
    "simenv.records_ns_per_slot": "ns",
    "simenv.records_bytes_per_slot": "B",
    "simenv.trace_bytes_per_slot": "B",
    "metrics.reduce_s": "s",
    "metrics.csv_s": "s",
    "cli.transfer_mb": "MB",
    "cli.transfer_s": "s",
    "cli.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


class Bench:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tally = Tally()
        self._count = 0

    def command(self, argv: list[str], launcher: bool = False) -> Outcome:
        """Run one command to completion; wall time and peak RSS of its tree.

        ru_maxrss from wait4 is the largest peak of any process in the tree
        (the command and every descendant it waited for).
        """
        self._count += 1
        out_path = self.work / f"cmd{self._count}.out"
        err_path = self.work / f"cmd{self._count}.err"
        prefix = [sys.executable, str(HERE / "launch.py")] if launcher else [
            sys.executable, "-m", "skolemhop.cli"]
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(prefix + argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # pool workers left behind by a crashed command
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, stderr = out_path.read_text(), err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)

    # --- simulation workloads -------------------------------------------

    def run_sim(self, wl: SimWorkload, seed: int, *, reference: str | None = None,
                trace_to: Path | None = None, **size) -> tuple[Outcome, str]:
        """Run a simulation command, check its outputs, return (outcome, digest)."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = wl.argv(seed, str(out), **size)
        if trace_to is not None:
            argv = ["--trace", str(trace_to)] + argv
            outcome = self.command(argv, launcher=True)
        else:
            outcome = self.command(argv)
        pairs = size.get("pairs") or wl.pairs
        horizon = size.get("horizon") or wl.horizon
        bad = check_sim_outputs(wl, out, outcome, pairs, horizon)
        digest = output_digest(out)
        if reference is not None and digest != reference:
            bad = {name for name, _ in wl.variations}
            self.tally.notes.append(f"{wl.name}: output digest {digest[:12]} != {reference[:12]}")
        self.tally.add(len(wl.variations), len(bad), f"{wl.name}: failed {sorted(bad)}")
        shutil.rmtree(out, ignore_errors=True)
        return outcome, digest

    def sim_setup(self, wl: SimWorkload, seed: int, workers: int | None = None) -> Outcome:
        # Smallest run taking every start-up path: one slot, and enough
        # pairs at --workers 2 for the pool to start.
        workers = workers or wl.workers
        pairs = 1 if workers == 1 else 2 * workers
        return self.run_sim(wl, seed, pairs=pairs, horizon=1, workers=workers)[0]

    # --- theorems ---------------------------------------------------------

    def run_theorems(self, orders, trace_to: Path | None = None) -> Outcome:
        argv = []
        for n in orders:
            argv += ["+", "theorems", str(n)]
        argv = argv[1:]
        if trace_to is not None:
            argv = ["--trace", str(trace_to)] + argv
        outcome = self.command(argv, launcher=True)
        bad = check_theorems_output(orders, outcome)
        self.tally.add(len(orders), len(bad), f"theorems: failed N' {bad}")
        return outcome

    def theorems_setup(self) -> Outcome:
        outcome = self.command(["theorems", "4"])
        bad = check_theorems_output((4,), outcome)
        self.tally.add(1, len(bad), "theorems 4 failed")
        return outcome


def golden_for(wl: SimWorkload, seed: int, smoke: bool) -> str | None:
    return GOLDEN.get(wl.name) if seed == DEFAULT_SEED and not smoke else None


def check_sim_outputs(wl: SimWorkload, out: Path, outcome: Outcome, pairs: int,
                      horizon: int) -> set[str]:
    """Names of the variations whose run or outputs fail the gate."""
    names = [name for name, _ in wl.variations]
    if outcome.code != 0:
        failed = {n for n in names if f"error: variation {n}:" in outcome.stderr}
        return failed or set(names)
    try:
        with open(out / "summary.csv", newline="") as fh:
            rows = {row["name"]: row for row in csv.DictReader(fh)}
    except (OSError, KeyError):
        return set(names)
    if not (out / "latency.csv").is_file():
        return set(names)
    bad = set()
    for name in names:
        row = rows.get(name)
        try:
            ok = (
                row is not None
                and int(row["pairs"]) == pairs
                and int(row["horizon"]) == horizon
                and 0.0 <= float(row["rho_final"]) <= 1.0
                and 0.0 <= float(row["missync_rate"]) <= 1.0
                and 0 <= int(row["committed"]) <= pairs
                and (out / f"rho_pu{row['pu_level']}.csv").is_file()
            )
        except (KeyError, ValueError):
            ok = False
        if ok and wl.records:
            ok = records_ok(out / f"{name}.ndjson", pairs * horizon)
        if not ok:
            bad.add(name)
    return bad


def records_ok(path: Path, slots: int) -> bool:
    """One JSON record per slot, with the documented keys."""
    try:
        with open(path, "rb") as fh:
            first = json.loads(fh.readline())
            lines = 1
            while block := fh.read(1 << 20):
                lines += block.count(b"\n")
    except (OSError, ValueError):
        return False
    return lines == slots and set(first) == {"run", "slot", "tx", "rx", "pu", "delivered"}


def output_digest(out: Path) -> str:
    """sha256 of a `sha256sum *.csv *.ndjson` listing of the output directory."""
    listing = []
    for path in sorted(p for p in out.glob("*") if p.suffix in (".csv", ".ndjson")):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
        listing.append(f"{h.hexdigest()}  {path.name}\n")
    return hashlib.sha256("".join(listing).encode()).hexdigest()


def check_theorems_output(orders, outcome: Outcome) -> list[int]:
    """The N' whose section lacks exactly two PASS lines (or has a FAIL)."""
    sections: dict[int, list[str]] = {}
    current = None
    for line in outcome.stdout.splitlines():
        if line.startswith("effective channels: "):
            current = int(line.split()[2])
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    bad = []
    for n in orders:
        lines = sections.get(n, [])
        passes = sum(1 for line in lines if line.endswith(": PASS"))
        fails = sum(1 for line in lines if line.endswith(": FAIL"))
        if passes != 2 or fails:
            bad.append(n)
    return bad


# --- untraced measurement ----------------------------------------------


def measure(bench: Bench, name: str, seed: int, seconds: float, smoke: bool) -> dict:
    wl = WORKLOADS[name]
    if isinstance(wl, TheoremsWorkload):
        orders = SMOKE[name]["orders"] if smoke else wl.orders
        work = TheoremsWorkload.shift_pair_slots(orders)
        setup = bench.theorems_setup

        def run_once() -> Outcome:
            return bench.run_theorems(orders)
    else:
        size = SMOKE[name] if smoke else {}
        work = wl.pair_slots(**size)
        # At the default seed every repetition must give the golden digest,
        # at other seeds the first repetition's.
        reference = golden_for(wl, seed, smoke)

        def setup() -> Outcome:
            return bench.sim_setup(wl, seed)

        def run_once() -> Outcome:
            nonlocal reference
            outcome, digest = bench.run_sim(wl, seed, reference=reference, **size)
            reference = reference or digest
            return outcome

    setup()  # warm-up: bytecode caches, page cache
    # One set-up run before each repetition, so that set-up samples the
    # same stretch of machine time as the workload.
    setups, reps = [], []
    end = time.perf_counter() + seconds
    while not reps or time.perf_counter() < end:
        setups.append(setup().wall_s)
        reps.append(run_once())
    while len(setups) < SETUP_REPS:
        setups.append(setup().wall_s)
    walls = [o.wall_s for o in reps]
    return {
        "metrics": {
            "wall_s": min(walls),
            "pair_slots_per_s": work / min(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(o.rss_mb for o in reps),
        },
        "samples": {"wall_s": walls, "setup_s": setups, "work_pair_slots": work},
    }


# --- traced measurement ------------------------------------------------


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics from merged tracer counters; only layers that ran."""
    s = stats["sums"]
    get = lambda key: s.get(key, 0.0)  # noqa: E731
    m = {}
    if get("construct.calls"):
        m["skolem.construct_s"] = get("construct.ns") / 1e9
        m["skolem.construct_worst_s"] = stats["worst_construct_ns"] / 1e9
    if get("ess.calls"):
        m["skolem.ess_us_per_pair"] = get("ess.ns") / get("ess.calls") / 1e3
    if get("check.shift_pairs"):
        m["hopping.check_s"] = get("check.ns") / 1e9
        m["hopping.shift_pairs_per_s"] = get("check.shift_pairs") / (get("check.ns") / 1e9)
    slots = 0.0
    for p in PROTOCOLS:
        if get(f"slots.{p}"):
            slots += get(f"slots.{p}")
            m[f"protocol.slot_ns.{p}"] = get(f"replay.ns.{p}") / get(f"slots.{p}")
            m[f"simenv.slot_ns.{p}"] = get(f"run.ns.{p}") / get(f"slots.{p}")
            m[f"simenv.delivered_frac.{p}"] = get(f"delivered.{p}") / get(f"slots.{p}")
    if get("sass.pairs"):
        m["protocol.committed_frac"] = get("sass.committed") / get("sass.pairs")
        committed = get("sass.committed")
        m["protocol.missync_rate"] = get("sass.missync") / committed if committed else 0.0
    if get("pair_init.calls"):
        m["simenv.pair_setup_us"] = get("pair_init.ns") / get("pair_init.calls") / 1e3
    if get("pu.calls"):
        m["simenv.pu_traffic_us"] = get("pu.ns") / get("pu.calls") / 1e3
    if get("records.slots"):
        m["simenv.records_ns_per_slot"] = get("records.ns") / get("records.slots")
        m["simenv.records_bytes_per_slot"] = get("records.bytes") / get("records.slots")
    if slots:
        m["simenv.trace_bytes_per_slot"] = get("trace.bytes") / slots
    if get("reduce.calls"):
        m["metrics.reduce_s"] = get("reduce.ns") / 1e9
        m["metrics.csv_s"] = get("csv.ns") / 1e9
    if get("transfer.bytes"):
        m["cli.transfer_mb"] = get("transfer.bytes") / 2**20
        m["cli.transfer_s"] = get("transfer.ns") / 1e9
    return m


def counts(stats: dict) -> dict[str, float]:
    """The bases of the per-layer ratios (calls, pairs, slots, bytes)."""
    return {k: v for k, v in sorted(stats["sums"].items())
            if not k.endswith(".ns") and ".ns." not in k}


def load_stats(path: Path) -> dict:
    if path.is_file():
        return json.loads(path.read_text())
    return {"sums": {}, "worst_construct_ns": 0, "worst_construct_order": None}


def traced_rounds(bench: Bench, variants: dict, traced) -> tuple[dict, dict]:
    """Alternate untraced variants with a traced run, TRACE_ROUNDS times.

    Returns the fastest wall time of each variant (the traced one under
    "traced") and the tracer counters of the fastest traced run.
    """
    walls = {key: [] for key in (*variants, "traced")}
    stats = []
    for i in range(TRACE_ROUNDS):
        for key, run_once in variants.items():
            walls[key].append(run_once().wall_s)
        path = bench.work / f"stats{i}.json"
        walls["traced"].append(traced(path).wall_s)
        stats.append(load_stats(path))
    fastest = walls["traced"].index(min(walls["traced"]))
    return {key: min(values) for key, values in walls.items()}, stats[fastest]


def traced_sim(bench: Bench, wl: SimWorkload, seed: int, size: dict, golden: str | None):
    """Untraced at both worker counts, then traced; (layer metrics, overhead, info)."""
    _, digest = bench.run_sim(wl, seed, reference=golden, **size)
    walls, stats = traced_rounds(
        bench,
        {f"workers{w}": (lambda w=w: bench.run_sim(wl, seed, reference=digest, workers=w,
                                                   **size)[0])
         for w in (wl.workers, 3 - wl.workers)},
        lambda path: bench.run_sim(wl, seed, reference=digest, trace_to=path, **size)[0],
    )
    sums = stats["sums"]
    bench.tally.add(int(sums.get("replay.pairs", 0)), int(sums.get("replay.mismatches", 0)),
                    f"{wl.name}: protocol replay disagreed with the simulator")
    m = layer_metrics(stats)
    m["cli.parallel_efficiency"] = walls["workers1"] / (2 * walls["workers2"])
    info = {"wall_s_traced_runs": walls, "worst_construct_order": stats["worst_construct_order"],
            "counts": counts(stats)}
    return m, walls["traced"] / walls[f"workers{wl.workers}"] - 1.0, info


def traced_theorems(bench: Bench, orders):
    bench.theorems_setup()  # warm-up
    walls, stats = traced_rounds(
        bench,
        {"untraced": lambda: bench.run_theorems(orders)},
        lambda path: bench.run_theorems(orders, trace_to=path),
    )
    info = {"wall_s_traced_runs": walls, "worst_construct_order": stats["worst_construct_order"],
            "counts": counts(stats)}
    return layer_metrics(stats), walls["traced"] / walls["untraced"] - 1.0, info


def trace(bench: Bench, name: str, seed: int, smoke: bool) -> dict:
    wl = WORKLOADS[name]
    if isinstance(wl, TheoremsWorkload):
        orders = SMOKE[name]["orders"] if smoke else wl.orders
        m, overhead, info = traced_theorems(bench, orders)
    else:
        size = SMOKE[name] if smoke else {}
        m, overhead, info = traced_sim(bench, wl, seed, size, golden_for(wl, seed, smoke))
        if wl.name == "delivery-rate" and seed == DEFAULT_SEED and not smoke:
            # The preset digest gate: the full preset, at both worker counts.
            for workers in (1, 2):
                bench.run_sim(PRESET_FULL, seed, reference=PRESET_GOLDEN,
                              workers=workers)
    m["trace.overhead_frac"] = overhead
    probe_filled = sorted(set(LAYER_UNITS) - set(m))
    if probe_filled:
        pm, _, _ = traced_sim(bench, PROBE, seed, {}, None)
        stats_path = bench.work / "probe-theorems-stats.json"
        bench.run_theorems(PROBE_ORDERS, trace_to=stats_path)
        pm.update(layer_metrics(load_stats(stats_path)))
        for key in probe_filled:
            m[key] = pm[key]
    info["probe_metrics"] = probe_filled
    return {"metrics": m, "info": info}


# --- manifest and output -----------------------------------------------


def manifest(root: Path, name: str, seed: int, trace_mode: bool, smoke: bool,
             program: dict) -> dict:
    src = root / "src" / "skolemhop"
    lines = {p.stem: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            done = None
        if done is not None and done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "confirm_seed": CONFIRM_SEED,
        "trace": int(trace_mode),
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": program["numpy"],
        "commit": commit,
        "src_lines": {**lines, "total": sum(lines.values())},
    }


def check_program(bench: Bench) -> dict:
    """Byte-compile `src/` and confirm the package imports from this checkout."""
    src = bench.root / "src"
    if not (src / "skolemhop" / "cli.py").is_file():
        raise BenchError(f"no skolemhop sources under {src}; run from a source checkout")
    probe = subprocess.run(
        [sys.executable, "-c",
         "import compileall, json, sys, numpy, skolemhop;"
         "ok = compileall.compile_dir(sys.argv[1], quiet=1);"
         "print(json.dumps({'ok': bool(ok), 'file': skolemhop.__file__,"
         " 'numpy': numpy.__version__}))", str(src)],
        cwd=bench.root, env=bench.env, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import skolemhop from {src}: {probe.stderr.strip()}")
    info = json.loads(probe.stdout)
    if not info["ok"] or not Path(info["file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"skolemhop did not build or import from {src}: {info}")
    return info


def report(name: str, units: dict, metrics: dict, tally: Tally, extra: dict) -> None:
    print(f"workload {name}")
    for key, unit in units.items():
        print(f"  {key:34s} {metrics[key]:.6g} {unit}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':34s} {rate:.6g} ratio  ({tally.failed} failed / "
          f"{tally.attempted} attempted)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    print("manifest " + json.dumps(extra, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, work)
    try:
        program = check_program(bench)
        if args.trace:
            result = trace(bench, args.workload, args.seed, args.smoke)
            units = LAYER_UNITS
        else:
            result = measure(bench, args.workload, args.seed, args.seconds, args.smoke)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench").rmdir()
        except OSError:
            pass
    extra = manifest(root, args.workload, args.seed, bool(args.trace), args.smoke, program)
    extra.update(result.get("info", {}), samples=result.get("samples", {}))
    report(args.workload, units, result["metrics"], bench.tally, extra)
    tally = bench.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
