"""Command-line harness: sequence inspection, exhaustive property checks,
and experiment sweeps emitting CSV; only the experiment path imports numpy.

Experiment specs are flat key = value text with one [variation] block per
run configuration; globals above the first block apply to every variation
unless overridden inside it.  Per-variation seeds mix the global seed with
the variation index, and each pair mixes in its own index, so adding a
variation never perturbs existing results.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import hopping
from .protocol import PROTOCOLS
from .skolem import (
    construct_skolem,
    ess_for_channel_count,
    make_channel_plan,
    verify_skolem,
)

if TYPE_CHECKING:
    from . import simenv

__all__ = ["main", "parse_experiment_text", "render_experiment_spec", "preset"]

DEFAULT_SEED = 20260801
DEFAULT_BUSY = 400
PRESETS = ("delivery-rate", "latency")
CHUNK_PAIRS = 50  # pairs per pool task, whatever --workers is

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


def _parse_drift(raw: str):
    return None if raw == "uniform" else int(raw)


def _key(parse, default: str | None = None, *, above: bool = False):
    """A spec key, stated on its field: its parser, its default as spec text
    (None: unset), and whether it may be set above the first [variation]; a
    [variation] block sets the keys of Variation."""
    return field(metadata={"parse": parse, "default": default, "above": above})


@dataclass(frozen=True)
class Variation:
    name: str = _key(str)
    protocol: str = _key(str.lower, "sass")
    channels: int = _key(int, "12", above=True)
    plan: str = _key(str, "padding", above=True)
    pu: float | None = _key(float)
    occupied: int | None = _key(int)
    idle: float | None = _key(float)
    pairs: int = _key(int, "1000", above=True)
    horizon: int = _key(int, "1000", above=True)
    busy: int = _key(int, str(DEFAULT_BUSY), above=True)
    drift: int | None = _key(_parse_drift, "uniform", above=True)


@dataclass(frozen=True)
class ExperimentSpec:
    seed: int = _key(int, str(DEFAULT_SEED), above=True)
    out: str = _key(str, "results", above=True)
    variations: tuple[Variation, ...]


# The spec grammar, read off the fields: every key's metadata, in the order a
# spec is rendered; the keys a [variation] block takes, and those above it.
_KEYS = {f.name: f.metadata for f in fields(ExperimentSpec) + fields(Variation) if f.metadata}
_VARIATION_KEYS = tuple(f.name for f in fields(Variation))
_GLOBAL_KEYS = {key for key, meta in _KEYS.items() if meta["above"]}


# Variation names become output file names, so they may not carry a path.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


class SpecError(ValueError):
    pass


def _convert(table: dict, key: str):
    value = table.get(key, _KEYS[key]["default"])
    if value is None:
        return None
    try:
        return _KEYS[key]["parse"](value)
    except ValueError as exc:
        raise SpecError(f"bad value for {key!r}: {value!r}") from exc


def parse_experiment_text(text: str) -> ExperimentSpec:
    globals_: dict[str, str] = {}
    blocks: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[variation]":
            current = {}
            blocks.append(current)
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if current is None:
            if key not in _GLOBAL_KEYS:
                raise SpecError(f"line {lineno}: unknown global key {key!r}")
            globals_[key] = value
        else:
            if key not in _VARIATION_KEYS:
                raise SpecError(f"line {lineno}: unknown variation key {key!r}")
            current[key] = value
    if not blocks:
        raise SpecError("spec defines no [variation] blocks")

    variations = []
    names = set()
    for block in blocks:
        merged = {**globals_, **block}
        fields = {key: _convert(merged, key) for key in _VARIATION_KEYS}
        if fields["name"] is None:
            protocol, pu = fields["protocol"], fields["pu"]
            # + 0.0 labels a -0 level as 0, like every other spelling of 0.
            fields["name"] = f"{protocol}-pu{pu + 0.0:g}" if pu is not None else protocol
        name = fields["name"]
        if not _NAME_PATTERN.fullmatch(name):
            raise SpecError(f"variation name {name!r} must match [A-Za-z0-9._-]+")
        if name in names:
            raise SpecError(f"duplicate variation name {name!r}")
        names.add(name)
        variations.append(Variation(**fields))
    return ExperimentSpec(
        seed=_convert(globals_, "seed"),
        out=_convert(globals_, "out"),
        variations=tuple(variations),
    )


def render_experiment_spec(spec: ExperimentSpec) -> str:
    lines = [
        "# skolemhop experiment spec",
        f"seed = {spec.seed}",
        f"out = {spec.out}",
        "",
    ]
    for v in spec.variations:
        lines.append("[variation]")
        for key in _VARIATION_KEYS:  # unset: the default's text, if there is one
            value = getattr(v, key)
            if (text := _KEYS[key]["default"] if value is None else value) is not None:
                lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def preset(name: str) -> ExperimentSpec:
    """Bundled experiment definitions.

    delivery-rate: success-slot fraction over time, three protocols at PU
    intensities 0/25/50/75% (12 channels, 1000 pairs, 1000 slots).
    latency: first-delivery and windowed latency scenarios at PU 25%.
    """
    if name == "delivery-rate":
        blocks = [f"protocol = {p}\npu = {pu}" for pu in (0, 25, 50, 75) for p in PROTOCOLS]
    elif name == "latency":
        blocks = [
            f"name = {p}-latency\nprotocol = {p}\npu = 25\nhorizon = 200" for p in PROTOCOLS
        ]
    else:
        raise SpecError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return parse_experiment_text("".join(f"[variation]\n{block}\n" for block in blocks))


def variation_seed(global_seed: int, index: int) -> int:
    """Stable per-variation seed: SeedSequence(global, spawn_key=(index,))."""
    from . import simenv
    return simenv.seed_words(global_seed, (index,), 1)[0]


def _resolve(v: Variation, global_seed: int, index: int) -> tuple[simenv.SimConfig, str]:
    from . import simenv
    pu = None
    if v.occupied is not None or v.idle is not None:
        if v.occupied is None or v.idle is None:
            raise SpecError("occupied and idle must be given together")
        x, idle = v.occupied, v.idle
    else:
        pu = v.pu if v.pu is not None else 0.0
        x, idle = simenv.pu_parameters(pu, v.channels, v.busy)
    config = simenv.SimConfig(
        n_channels=v.channels,
        protocol=v.protocol,
        plan_mode=v.plan,
        pu_channels=x,
        busy_len=v.busy,
        idle_mean=idle,
        drift=v.drift,
        horizon=v.horizon,
        pairs=v.pairs,
        seed=variation_seed(global_seed, index),
    )
    if pu is None:
        pu = simenv.nominal_intensity(x, v.channels, v.busy, idle)
    return config, f"{pu + 0.0:g}"  # + 0.0: -0 writes rho_pu0.csv, not rho_pu-0.csv


def _resolve_all(spec: ExperimentSpec) -> list[tuple[Variation, simenv.SimConfig, str]]:
    """Resolve and validate every variation before any of them runs."""
    if spec.seed < 0:  # the seed key's own error, not its first variation's
        raise SpecError(f"seed must be a non-negative integer, got {spec.seed}")
    resolved = []
    for index, v in enumerate(spec.variations):
        try:
            config, label = _resolve(v, spec.seed, index)
        except ValueError as exc:
            raise SpecError(f"variation {v.name}: {exc}") from exc
        resolved.append((v, config, label))
    return resolved


def _run_chunk(config: simenv.SimConfig, start: int, stop: int) -> list[simenv.SimTrace]:
    from . import simenv
    return simenv.run(config, pair_range=range(start, stop))


def _chunk_result(chunk: tuple, records: bool):
    """What a chunk hands back: (its rows, its traces with --records, else []); or its error."""
    from . import metrics
    try:
        traces = _run_chunk(*chunk)
        return metrics.pair_rows(traces), traces if records else []
    except Exception as exc:  # noqa: BLE001 - fails its variation only
        return exc


def _chunks(config: simenv.SimConfig):
    """config's chunks in pair order: (config, start, stop), CHUNK_PAIRS pairs, then the rest."""
    for start in range(0, config.pairs, CHUNK_PAIRS):
        yield config, start, min(start + CHUNK_PAIRS, config.pairs)


class _ChunkPool:
    """Every variation's chunks, run here in order or, by P > 1 processes, in forked
    children with one pipe each: child k runs chunks k, k + P, ... of every variation.
    The schedule is walked, never stored: the parent counts the chunks it has collected."""

    def __init__(self, configs: list[simenv.SimConfig], workers: int, records: bool):
        total = sum(len(range(0, c.pairs, CHUNK_PAIRS)) for c in configs)
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        processes = min(workers, usable or os.cpu_count() or 1, total)
        self.records = records
        self.collected = 0  # chunks collected so far, of every config
        self.children, self.lost = [], {}  # (pid, read end); pid -> the error its chunks get
        if processes == 1:  # this process runs them, in collect
            return
        import itertools
        import pickle
        for k in range(processes):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # hold no read end, so that closing one stops its writer with EPIPE
                    for fd in [read] + [pipe.fileno() for _, pipe in self.children]:
                        os.close(fd)
                    out = open(write, "wb")
                    schedule = itertools.chain.from_iterable(map(_chunks, configs))
                    for chunk in itertools.islice(schedule, k, None, processes):
                        pickle.dump(_chunk_result(chunk, records), out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                    os._exit(0)
                finally:  # never returns into the parent's code, whatever it raised
                    os._exit(1)
            os.close(write)
            self.children.append((pid, open(read, "rb")))

    def collect(self, config: simenv.SimConfig):
        """config's (rows, traces of --records or []), or its first error once every chunk is
        in; each config in the order the pool was given them."""
        import pickle
        from . import metrics
        parts, errors = [], []
        for chunk in _chunks(config):
            if not self.children:
                result = _chunk_result(chunk, self.records)
            else:  # chunk n ran in child n % P
                pid, pipe = self.children[self.collected % len(self.children)]
                try:
                    result = self.lost.get(pid) or pickle.load(pipe)
                except Exception:  # noqa: BLE001 - the stream ends, and its chunks with it
                    pipe.close()
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    result = self.lost[pid] = ChildProcessError(
                        f"worker exited with status {status}")
            self.collected += 1
            (errors if isinstance(result, Exception) else parts).append(result)
        if errors:
            raise errors[0]
        return metrics.join_rows([rows for rows, _ in parts]), [t for _, ts in parts for t in ts]

    def close(self) -> None:
        for pid, pipe in self.children:
            pipe.close()  # a child still writing stops with EPIPE
            if pid not in self.lost:
                os.waitpid(pid, 0)


def _run_variation(config: simenv.SimConfig, workers: int, pool: _ChunkPool):
    return pool.collect(config)


def _cmd_experiment(args) -> int:
    try:
        if args.dump_default is not None:
            text = render_experiment_spec(preset(args.preset or "delivery-rate"))
            if args.dump_default == "-":
                sys.stdout.write(text)
            else:
                Path(args.dump_default).write_text(text)
            return EXIT_OK
        if args.spec is not None:
            spec = parse_experiment_text(Path(args.spec).read_text())
        elif args.preset is not None:
            spec = preset(args.preset)
        else:
            raise SpecError("give a spec file or --preset")
        spec = _apply_overrides(spec, args)
        resolved = _resolve_all(spec)
        out_dir = Path(args.out if args.out is not None else spec.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from . import metrics, simenv

    workers = max(1, args.workers) if hasattr(os, "fork") else 1
    pool = _ChunkPool([c for _, c, _ in resolved], workers, args.records)

    latency_rows: list[tuple] = []
    summary_rows: list[tuple] = []  # one per variation that ran
    rho_paths: set[Path] = set()  # the rho files this run has created

    def report_variation(variation: Variation, config: simenv.SimConfig, pu_label: str) -> None:
        # Its rows, traces and report die on return, before the next variation is collected.
        try:
            pairs, traces = _run_variation(config, workers, pool)
        except Exception as exc:  # noqa: BLE001 - variations fail independently
            print(f"error: variation {variation.name}: {exc}", file=sys.stderr)
            return
        series = metrics.rho_series(pairs)
        report = metrics.latency_report(pairs)
        rate = metrics.missync_rate(pairs)
        # A PU level's first variation to report creates its file; later ones append.
        rho_path = out_dir / f"rho_pu{pu_label}.csv"
        metrics.write_rho_csv(
            rho_path,
            ((variation.protocol, pu_label, t, m, s)
             for t, m, s in zip(series.points, series.mean, series.stddev)),
            append=rho_path in rho_paths,
        )
        rho_paths.add(rho_path)
        latency_rows.append(
            (variation.protocol, pu_label, "first", report.first_mean, report.undelivered)
        )
        latency_rows.extend(
            (variation.protocol, pu_label, str(w), mean, undefined)
            for w, (mean, undefined) in sorted(report.windows.items())
        )
        committed = sum(m is not None for m in pairs.missync)
        summary_rows.append(
            (variation.name, variation.protocol, pu_label, config.pairs, config.horizon,
             series.final(), rate, committed, report.first_mean, report.undelivered)
        )
        first = "-" if report.first_mean is None else f"{report.first_mean:.1f}"
        print(
            f"{variation.name}: protocol={variation.protocol} pu={pu_label}% "
            f"pairs={config.pairs} rho({config.horizon})={series.final():.4f} "
            f"missync={rate:.4f} first={first}"
        )
        if args.records:
            simenv.write_records(out_dir / f"{variation.name}.ndjson", traces)

    try:
        for variation, config, pu_label in resolved:
            report_variation(variation, config, pu_label)
    finally:
        pool.close()

    if summary_rows:  # one latency row and one summary row per variation that ran
        metrics.write_latency_csv(out_dir / "latency.csv", latency_rows)
        metrics.write_summary_csv(out_dir / "summary.csv", summary_rows)
    return EXIT_RUN_FAILURE if len(summary_rows) < len(resolved) else EXIT_OK


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    # A flag named after a variation key sets it in every variation.
    updates = {
        key: getattr(args, key) for key in _VARIATION_KEYS if getattr(args, key, None) is not None
    }
    if args.pu is not None:
        # A pu override supersedes explicit raw traffic parameters.
        updates.update(occupied=None, idle=None)
    return replace(spec, variations=tuple(replace(v, **updates) for v in spec.variations))


def _cmd_sequence(args) -> int:
    try:
        if args.order is not None:
            values = construct_skolem(args.order)
            print(f"order {args.order} sequence: {' '.join(map(str, values))}")
            print(f"length: {len(values)}")
            ok = verify_skolem(values)
        else:
            plan = make_channel_plan(args.channels, args.plan)
            ess = ess_for_channel_count(plan.effective_count)  # refuses a bad N' before printing
            if plan.mode == "padding" and plan.effective_count > plan.physical_count:
                pads = list(enumerate(plan.alias))[plan.physical_count:]
                detail = f"aliases: {', '.join(f'{i}->{c}' for i, c in pads)}"
            elif plan.discarded:
                detail = f"discarded channels: {', '.join(map(str, plan.discarded))}"
            else:
                detail = "no change"
            print(
                f"channels: {plan.physical_count} physical -> "
                f"{plan.effective_count} effective ({plan.mode}; {detail})"
            )
            print(f"ESS order {ess.order}: {' '.join(map(str, ess.values))}")
            ok = True  # EssSequence validated the values when it was built
        print(f"verification: {'VALID' if ok else 'INVALID'}")
        return EXIT_OK if ok else EXIT_RUN_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_theorems(args) -> int:
    n_eff = args.effective_channels
    try:
        ess = ess_for_channel_count(n_eff)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    pairs = ess.period * ess.period
    ok = True
    reports = []  # the checks run first, so that a traced checker times the table's one pass
    for label, checker in (
        ("delivery-channel map", hopping.check_channel_map),
        ("delivery-slot counts", hopping.check_slot_counts),
    ):
        violations = checker(ess)
        status = "PASS" if not violations else "FAIL"
        ok = ok and not violations
        reports.append(f"{label} ({pairs} shift pairs): {status}\n")
        reports += [f"  {message}\n" for message in violations[:5]]
    sys.stdout.write("".join([
        f"effective channels: {n_eff} (period {ess.period})\n",
        f"base sequence: {' '.join(map(str, ess.values))}\n",
        "drift -> delivery channel:\n",
        *[f"  shift {a:3d}: {entry}\n" for a, entry in enumerate(hopping.drift_channel_table(ess))],
        *reports,
    ]))
    return EXIT_OK if ok else EXIT_RUN_FAILURE


@functools.cache  # parse_args leaves the parser as it was, so one serves every main()
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skolemhop",
        description="Multi-channel broadcast hopping: sequences, checks, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("sequence", help="construct and verify a hopping sequence")
    group = p_seq.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int, help="sequence order n (n %% 4 in {0, 3})")
    group.add_argument("--channels", type=int, help="physical channel count")
    p_seq.add_argument("--downsize", dest="plan", action="store_const", const="downsizing",
                       default="padding", help="discard channels instead of padding")
    p_seq.set_defaults(func=_cmd_sequence)

    p_thm = sub.add_parser("theorems", help="exhaustively verify the drift properties")
    p_thm.add_argument("effective_channels", type=int)
    p_thm.set_defaults(func=_cmd_theorems)

    p_exp = sub.add_parser("experiment", help="run an experiment spec, emit CSVs")
    p_exp.add_argument("spec", nargs="?", help="experiment spec file")
    p_exp.add_argument("--preset", choices=PRESETS, help="bundled experiment")
    p_exp.add_argument("--dump-default", nargs="?", const="-", metavar="PATH",
                       help="write the bundled spec (default: stdout) and exit")
    p_exp.add_argument("--out", help="output directory (default: from spec)")
    p_exp.add_argument("--seed", type=int, help="override the global seed")
    p_exp.add_argument("--pairs", type=int, help="override pairs per variation")
    p_exp.add_argument("--horizon", type=int, help="override horizon slots")
    p_exp.add_argument("--pu", type=float, help="override PU intensity percent")
    p_exp.add_argument("--protocol", choices=PROTOCOLS,
                       help="override the protocol of every variation")
    p_exp.add_argument("--channels", type=int, help="override channel count")
    p_exp.add_argument("--downsize", dest="plan", action="store_const", const="downsizing",
                       help="override plan mode to downsizing")
    p_exp.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_exp.add_argument("--records", action="store_true",
                       help="also write per-slot NDJSON records per variation")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    # No command calls BLAS; OpenBLAS's idle worker threads would spin anyway.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # Exit-time collections skip a frozen heap, which the OS frees anyway; one hook per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
