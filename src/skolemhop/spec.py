"""The experiment-spec grammar: parsing, rendering, presets and resolution.

Experiment specs are flat key = value text with one [variation] block per
run configuration; globals above the first block apply to every variation
unless overridden inside it.  Per-variation seeds mix the global seed with
the variation index, and each pair mixes in its own index, so adding a
variation never perturbs existing results.  Only `skolemhop experiment`
imports this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING

from .protocol import PROTOCOLS

if TYPE_CHECKING:
    from . import simenv

__all__ = [
    "Variation",
    "ExperimentSpec",
    "SpecError",
    "parse_experiment_text",
    "render_experiment_spec",
    "preset",
    "variation_seed",
]

DEFAULT_SEED = 20260801
DEFAULT_BUSY = 400


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


# Each bundled experiment's [variation] blocks; `cli.PRESETS` names them for the parser.
_PRESET_BLOCKS = {
    "delivery-rate": [f"protocol = {p}\npu = {pu}" for pu in (0, 25, 50, 75) for p in PROTOCOLS],
    "latency": [f"name = {p}-latency\nprotocol = {p}\npu = 25\nhorizon = 200" for p in PROTOCOLS],
}


def preset(name: str) -> ExperimentSpec:
    """Bundled experiment definitions.

    delivery-rate: success-slot fraction over time, three protocols at PU
    intensities 0/25/50/75% (12 channels, 1000 pairs, 1000 slots).
    latency: first-delivery and windowed latency scenarios at PU 25%.
    """
    if name not in _PRESET_BLOCKS:
        raise SpecError(f"unknown preset {name!r}; available: {', '.join(_PRESET_BLOCKS)}")
    blocks = _PRESET_BLOCKS[name]
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
