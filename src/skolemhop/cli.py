"""Command-line harness: sequence inspection, exhaustive property checks,
and experiment sweeps emitting CSV.

Experiment specs are flat key = value text with one [variation] block per
run configuration; globals above the first block apply to every variation
unless overridden inside it.  Per-variation seeds mix the global seed with
the variation index, and each pair mixes in its own index, so adding a
variation never perturbs existing results.
"""

from __future__ import annotations

import argparse
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import hopping, metrics, simenv
from .skolem import (
    construct_skolem,
    ess_for_channel_count,
    make_channel_plan,
    verify_skolem,
)

__all__ = ["main", "parse_experiment_text", "render_experiment_spec", "preset"]

DEFAULT_SEED = 20260801
DEFAULT_BUSY = 400
PRESETS = ("delivery-rate", "latency")
THEOREMS_MAX_EFFECTIVE = 64

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Variation:
    name: str
    protocol: str
    channels: int
    plan: str
    pu: float | None
    pairs: int
    horizon: int
    busy: int
    drift: int | None
    occupied: int | None = None
    idle: float | None = None


@dataclass(frozen=True)
class ExperimentSpec:
    seed: int
    out: str
    variations: tuple[Variation, ...]


_GLOBAL_KEYS = {"seed", "out", "pairs", "horizon", "channels", "plan", "busy", "drift"}
_VARIATION_KEYS = _GLOBAL_KEYS - {"seed", "out"} | {"name", "protocol", "pu", "occupied", "idle"}
_GLOBAL_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "out": "results",
    "pairs": 1000,
    "horizon": 1000,
    "channels": 12,
    "plan": "padding",
    "busy": DEFAULT_BUSY,
    "drift": None,
}


# Variation names become output file names, so they may not carry a path.
_NAME_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


class SpecError(ValueError):
    pass


def _parse_drift(raw: str):
    return None if raw == "uniform" else int(raw)


def parse_experiment_text(text: str) -> ExperimentSpec:
    globals_ = dict(_GLOBAL_DEFAULTS)
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

    def conv(table: dict, key: str, kind, default=None):
        value = table.get(key, default)
        if value is None:
            return None
        if isinstance(value, str):
            try:
                return kind(value)
            except ValueError as exc:
                raise SpecError(f"bad value for {key!r}: {value!r}") from exc
        return value

    seed = conv(globals_, "seed", int)
    out = str(globals_["out"])
    variations = []
    names = set()
    for i, block in enumerate(blocks):
        merged = {**globals_, **block}
        protocol = str(merged.get("protocol", "sass")).lower()
        pu = conv(merged, "pu", float)
        name = str(merged.get("name", f"{protocol}-pu{pu:g}" if pu is not None else protocol))
        if not _NAME_PATTERN.fullmatch(name):
            raise SpecError(f"variation name {name!r} must match [A-Za-z0-9._-]+")
        if name in names:
            raise SpecError(f"duplicate variation name {name!r}")
        names.add(name)
        variations.append(
            Variation(
                name=name,
                protocol=protocol,
                channels=conv(merged, "channels", int),
                plan=str(merged["plan"]),
                pu=pu,
                pairs=conv(merged, "pairs", int),
                horizon=conv(merged, "horizon", int),
                busy=conv(merged, "busy", int),
                drift=conv(merged, "drift", _parse_drift),
                occupied=conv(merged, "occupied", int),
                idle=conv(merged, "idle", float),
            )
        )
    return ExperimentSpec(seed=seed, out=out, variations=tuple(variations))


def render_experiment_spec(spec: ExperimentSpec) -> str:
    lines = [
        "# skolemhop experiment spec",
        f"seed = {spec.seed}",
        f"out = {spec.out}",
        "",
    ]
    for v in spec.variations:
        lines.append("[variation]")
        lines.append(f"name = {v.name}")
        lines.append(f"protocol = {v.protocol}")
        lines.append(f"channels = {v.channels}")
        lines.append(f"plan = {v.plan}")
        if v.pu is not None:
            lines.append(f"pu = {v.pu:g}")
        if v.occupied is not None:
            lines.append(f"occupied = {v.occupied}")
        if v.idle is not None:
            lines.append(f"idle = {v.idle:g}")
        lines.append(f"pairs = {v.pairs}")
        lines.append(f"horizon = {v.horizon}")
        lines.append(f"busy = {v.busy}")
        lines.append(f"drift = {'uniform' if v.drift is None else v.drift}")
        lines.append("")
    return "\n".join(lines)


def preset(name: str) -> ExperimentSpec:
    """Bundled experiment definitions.

    delivery-rate: success-slot fraction over time, three protocols at PU
    intensities 0/25/50/75% (12 channels, 1000 pairs, 1000 slots).
    latency: first-delivery and windowed latency scenarios at PU 25%.
    """
    if name == "delivery-rate":
        variations = tuple(
            Variation(
                name=f"{protocol}-pu{pu:g}",
                protocol=protocol,
                channels=12,
                plan="padding",
                pu=float(pu),
                pairs=1000,
                horizon=1000,
                busy=DEFAULT_BUSY,
                drift=None,
            )
            for pu in (0, 25, 50, 75)
            for protocol in ("sass", "rch", "css")
        )
        return ExperimentSpec(seed=DEFAULT_SEED, out="results", variations=variations)
    if name == "latency":
        variations = tuple(
            Variation(
                name=f"{protocol}-latency",
                protocol=protocol,
                channels=12,
                plan="padding",
                pu=25.0,
                pairs=1000,
                horizon=200,
                busy=DEFAULT_BUSY,
                drift=None,
            )
            for protocol in ("sass", "rch", "css")
        )
        return ExperimentSpec(seed=DEFAULT_SEED, out="results", variations=variations)
    raise SpecError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")


def variation_seed(global_seed: int, index: int) -> int:
    """Stable per-variation seed: SeedSequence(global, spawn_key=(index,))."""
    ss = np.random.SeedSequence(entropy=global_seed, spawn_key=(index,))
    return int(ss.generate_state(1)[0])


def _resolve(v: Variation, global_seed: int, index: int) -> tuple[simenv.SimConfig, str]:
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
        plan_mode={"padding": "padding", "downsize": "downsizing", "downsizing": "downsizing"}.get(
            v.plan, v.plan
        ),
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
    return config, f"{pu:g}"


def _resolve_all(spec: ExperimentSpec) -> list[tuple[Variation, simenv.SimConfig, str]]:
    """Resolve and validate every variation before any of them runs."""
    resolved = []
    for index, v in enumerate(spec.variations):
        try:
            config, label = _resolve(v, spec.seed, index)
        except ValueError as exc:
            raise SpecError(f"variation {v.name}: {exc}") from exc
        resolved.append((v, config, label))
    return resolved


def _run_chunk(config: simenv.SimConfig, start: int, stop: int) -> list[simenv.SimTrace]:
    return simenv.run(config, pair_range=range(start, stop))


def _run_variation(config: simenv.SimConfig, workers: int, pool) -> list[simenv.SimTrace]:
    if workers <= 1 or config.pairs < 2 * workers:
        return simenv.run(config)
    chunk = -(-config.pairs // (workers * 2))
    starts = list(range(0, config.pairs, chunk))
    futures = [pool.submit(_run_chunk, config, s, min(s + chunk, config.pairs)) for s in starts]
    traces: list[simenv.SimTrace] = []
    for future in futures:
        traces.extend(future.result())
    return traces


def _cmd_experiment(args) -> int:
    if args.dump_default is not None:
        text = render_experiment_spec(preset(args.preset or "delivery-rate"))
        if args.dump_default == "-":
            sys.stdout.write(text)
        else:
            Path(args.dump_default).write_text(text)
        return EXIT_OK
    try:
        if args.spec is not None:
            spec = parse_experiment_text(Path(args.spec).read_text())
        elif args.preset is not None:
            spec = preset(args.preset)
        else:
            raise SpecError("give a spec file or --preset")
        spec = _apply_overrides(spec, args)
        resolved = _resolve_all(spec)
    except (OSError, SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.out if args.out is not None else spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = max(1, args.workers)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None

    rho_rows: dict[str, list[tuple]] = {}
    latency_rows: list[tuple] = []
    summary_rows: list[dict] = []
    failures = 0
    try:
        for variation, config, pu_label in resolved:
            try:
                traces = _run_variation(config, workers, pool)
            except Exception as exc:  # noqa: BLE001 - variations fail independently
                print(f"error: variation {variation.name}: {exc}", file=sys.stderr)
                failures += 1
                continue
            series = metrics.rho_series(traces)
            report = metrics.latency_report(traces)
            rate = metrics.missync_rate(traces)
            rows = rho_rows.setdefault(pu_label, [])
            rows.extend(
                (variation.protocol, pu_label, t, m, s)
                for t, m, s in zip(series.points, series.mean, series.stddev)
            )
            latency_rows.append(
                (variation.protocol, pu_label, "first", report.first_mean, report.undelivered)
            )
            latency_rows.extend(
                (variation.protocol, pu_label, str(w), mean, undefined)
                for w, (mean, undefined) in sorted(report.windows.items())
            )
            committed = sum(1 for t in traces if t.committed_offset is not None)
            summary_rows.append(
                {
                    "name": variation.name,
                    "protocol": variation.protocol,
                    "pu_level": pu_label,
                    "pairs": config.pairs,
                    "horizon": config.horizon,
                    "rho_final": series.final(),
                    "missync_rate": rate,
                    "committed": committed,
                    "first_mean": report.first_mean,
                    "undelivered": report.undelivered,
                }
            )
            first = "-" if report.first_mean is None else f"{report.first_mean:.1f}"
            print(
                f"{variation.name}: protocol={variation.protocol} pu={pu_label}% "
                f"pairs={config.pairs} rho({config.horizon})={series.final():.4f} "
                f"missync={rate:.4f} first={first}"
            )
            if args.records:
                simenv.write_records(out_dir / f"{variation.name}.ndjson", traces)
    finally:
        if pool is not None:
            pool.shutdown()

    for pu_label, rows in rho_rows.items():
        metrics.write_rho_csv(out_dir / f"rho_pu{pu_label}.csv", rows)
    if latency_rows:
        metrics.write_latency_csv(out_dir / "latency.csv", latency_rows)
    if summary_rows:
        _write_summary(out_dir / "summary.csv", summary_rows)
    return EXIT_RUN_FAILURE if failures else EXIT_OK


def _write_summary(path: Path, rows: list[dict]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("rho_final", "missync_rate", "first_mean"):
                out[key] = "" if out[key] is None else format(out[key], ".9g")
            writer.writerow(out)


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    updates = {}
    if args.pairs is not None:
        updates["pairs"] = args.pairs
    if args.horizon is not None:
        updates["horizon"] = args.horizon
    if args.pu is not None:
        # A pu override supersedes explicit raw traffic parameters.
        updates.update(pu=args.pu, occupied=None, idle=None)
    if args.protocol is not None:
        updates["protocol"] = args.protocol
    if args.channels is not None:
        updates["channels"] = args.channels
    if args.downsize:
        updates["plan"] = "downsizing"
    if updates:
        spec = replace(
            spec, variations=tuple(replace(v, **updates) for v in spec.variations)
        )
    return spec


def _cmd_sequence(args) -> int:
    try:
        if args.order is not None:
            seq = construct_skolem(args.order)
            print(f"order {args.order} sequence: {' '.join(map(str, seq.values))}")
            print(f"length: {len(seq.values)}")
            ok = verify_skolem(seq.values)
        else:
            mode = "downsizing" if args.downsize else "padding"
            plan = make_channel_plan(args.channels, mode)
            if plan.mode == "padding" and plan.effective_count > plan.physical_count:
                aliases = ", ".join(
                    f"{i}->{plan.alias[i]}"
                    for i in range(plan.physical_count, plan.effective_count)
                )
                detail = f"aliases: {aliases}"
            elif plan.discarded:
                detail = f"discarded channels: {', '.join(map(str, plan.discarded))}"
            else:
                detail = "no change"
            print(
                f"channels: {plan.physical_count} physical -> "
                f"{plan.effective_count} effective ({plan.mode}; {detail})"
            )
            ess = ess_for_channel_count(plan.effective_count)
            print(f"ESS order {ess.order}: {' '.join(map(str, ess.values))}")
            ok = verify_skolem(ess.values, zero_based=True)
        print(f"verification: {'VALID' if ok else 'INVALID'}")
        return EXIT_OK if ok else EXIT_RUN_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cmd_theorems(args) -> int:
    n_eff = args.effective_channels
    if n_eff % 4 not in (0, 1) or not 4 <= n_eff <= THEOREMS_MAX_EFFECTIVE:
        print(
            f"error: effective channel count must be congruent to 0 or 1 modulo 4 "
            f"and within [4, {THEOREMS_MAX_EFFECTIVE}], got {n_eff}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    ess = ess_for_channel_count(n_eff)
    print(f"effective channels: {n_eff} (period {ess.period})")
    print(f"base sequence: {' '.join(map(str, ess.values))}")
    print("drift -> delivery channel:")
    for a, entry in enumerate(hopping.drift_channel_table(ess)):
        print(f"  shift {a:3d}: {entry}")
    pairs = ess.period * ess.period
    ok = True
    for label, checker in (
        ("delivery-channel map", hopping.check_channel_map),
        ("delivery-slot counts", hopping.check_slot_counts),
    ):
        violations = checker(ess)
        status = "PASS" if not violations else "FAIL"
        ok = ok and not violations
        print(f"{label} ({pairs} shift pairs): {status}")
        for message in violations[:5]:
            print(f"  {message}")
    return EXIT_OK if ok else EXIT_RUN_FAILURE


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
    p_seq.add_argument("--downsize", action="store_true", help="discard channels instead of padding")
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
    p_exp.add_argument("--protocol", choices=("sass", "rch", "css"),
                       help="override the protocol of every variation")
    p_exp.add_argument("--channels", type=int, help="override channel count")
    p_exp.add_argument("--downsize", action="store_true",
                       help="override plan mode to downsizing")
    p_exp.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_exp.add_argument("--records", action="store_true",
                       help="also write per-slot NDJSON records per variation")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
