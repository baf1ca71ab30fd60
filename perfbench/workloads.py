"""The benchmark's workloads: what each runs, at which size, and why.

Simulation workloads are `skolemhop experiment` invocations; their size is
fixed here (never by the run's time budget), so every run of a workload
does the same work.  `theorems-sweep` runs `skolemhop theorems` for every
admissible N' in 4..64 in one process.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20260801
# Not used while the benchmark was written: later changes confirm their
# claims on it as well as on the seeds they tuned with.
CONFIRM_SEED = 5113

# sha256 over the `sha256sum`-style listing of every output file (CSVs and
# NDJSON records), at DEFAULT_SEED and the sizes below.
GOLDEN = {
    "delivery-rate": "fcb8d6698642b05361ff41487cb2bef2edea54e6ce72b289167c4b83493a7fc6",
    "long-horizon-records": "b6d840763cdb386cd6f42adcff309e99c7eaa52c4c8b4d66e18681ddca00692b",
}
# The full bundled delivery-rate preset (1000 pairs), identical at
# --workers 1 and --workers 2.
PRESET_GOLDEN = "035cb85f1ef1be03b7330e0d67a79b6ab64f673073dfa9468c953da0c82c708f"


@dataclass(frozen=True)
class SimWorkload:
    name: str
    why: str
    source: tuple[str, ...]  # spec selection passed to `skolemhop experiment`
    variations: tuple[tuple[str, str], ...]  # (name, protocol)
    pairs: int
    horizon: int
    workers: int
    records: bool = False

    def argv(self, seed: int, out: str, *, pairs=None, horizon=None, workers=None) -> list[str]:
        argv = ["experiment", *self.source, "--seed", str(seed), "--out", out,
                "--pairs", str(pairs or self.pairs), "--horizon", str(horizon or self.horizon),
                "--workers", str(workers or self.workers)]
        return argv + ["--records"] if self.records else argv

    def pair_slots(self, pairs=None, horizon=None) -> int:
        return len(self.variations) * (pairs or self.pairs) * (horizon or self.horizon)


@dataclass(frozen=True)
class TheoremsWorkload:
    name: str
    why: str
    orders: tuple[int, ...]  # effective channel counts N'

    @staticmethod
    def shift_pair_slots(orders) -> int:
        # Each of the two exhaustive checks compares P shifted copies pairwise
        # (P^2 shift pairs) over P slots, with period P = 2N'.
        return sum(2 * (2 * n) ** 3 for n in orders)


_DELIVERY_VARIATIONS = tuple(
    (f"{p}-pu{pu}", p) for pu in (0, 25, 50, 75) for p in ("sass", "rch", "css")
)
_LATENCY_VARIATIONS = tuple((f"{p}-latency", p) for p in ("sass", "rch", "css"))

WORKLOADS = {
    "delivery-rate": SimWorkload(
        name="delivery-rate",
        why="bundled preset, 12 variations at --workers 2: slot engine and protocol "
            "calls dominate, and the only workload using the worker pool",
        source=("--preset", "delivery-rate"),
        variations=_DELIVERY_VARIATIONS,
        pairs=100,
        horizon=1000,
        workers=2,
    ),
    "long-horizon-records": SimWorkload(
        name="long-horizon-records",
        why="4 pairs x 20000 slots with --records, alias channels and negative "
            "drift: the NDJSON writer and trace memory dominate",
        source=("perfbench/long_horizon.spec",),
        variations=(("sass-pu50", "sass"), ("sass-pu25-neg", "sass"), ("rch-pu50", "rch")),
        pairs=4,
        horizon=20000,
        workers=1,
        records=True,
    ),
    "theorems-sweep": TheoremsWorkload(
        name="theorems-sweep",
        why="theorems for all 31 admissible N' in 4..64 in one process: cold "
            "construction and the exhaustive checks",
        orders=tuple(n for n in range(4, 65) if n % 4 in (0, 1)),
    ),
}

# Tiny sizes for the smoke test: every code path, a second or two each.
SMOKE = {
    "delivery-rate": {"pairs": 4, "horizon": 300},
    "long-horizon-records": {"pairs": 2, "horizon": 1500},
    "theorems-sweep": {"orders": (4, 5, 8, 9, 12, 13)},
}

# Run in every traced run, after the workload, for per-layer metrics the
# workload itself does not produce (a layer or protocol it never calls):
# all three protocols at N' = 12 with records and the worker pool, then
# the exhaustive checks for N' = 12.
PROBE = SimWorkload(
    name="probe",
    why="small run touching every layer",
    source=("--preset", "latency"),
    variations=_LATENCY_VARIATIONS,
    pairs=16,
    horizon=1000,
    workers=2,
    records=True,
)
PROBE_ORDERS = (12,)

PRESET_FULL = SimWorkload(
    name="delivery-rate-preset",
    why="the full bundled preset, for the preset digest gate",
    source=("--preset", "delivery-rate"),
    variations=_DELIVERY_VARIATIONS,
    pairs=1000,
    horizon=1000,
    workers=2,
)
