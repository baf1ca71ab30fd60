"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The delivery-rate preset is executed twice (once with two workers, once with
one) so the determinism criterion also covers worker-count independence.
"""

import csv
import math
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from skolemhop import cli
from skolemhop.hopping import (
    ALL_CHANNELS,
    check_channel_map,
    check_slot_counts,
    drift_channel_table,
)
from skolemhop.metrics import rho_sample_points
from skolemhop.simenv import SimConfig, pu_parameters, run
from skolemhop.skolem import (
    construct_skolem,
    ess_for_channel_count,
    make_channel_plan,
    verify_skolem,
)

from test_skolem import enumerate_skolem, independent_check

CHANNEL_MAP_SWEEP = (4, 5, 8, 9, 12, 13)
PROTOCOL_SWEEP = (4, 5, 8, 9)
FIG2_N_EFF = 12
FIG2_PAIRS = 1000
PU_LEVELS = (0, 25, 50, 75)
PADDED_SWEEP = (6, 7, 10, 11, 12)  # padded to N' = 8, 8, 12, 12, and one exact plan


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def protocol_sweep():
    """PU-free runs for every drift residue class, per effective count."""
    t0 = time.perf_counter()
    traces = {}
    for n_eff in PROTOCOL_SWEEP:
        period = 2 * n_eff
        horizon = 4 * n_eff * (n_eff - 1) + 6 * period
        for drift in range(2 * n_eff * n_eff):
            config = SimConfig(
                n_channels=n_eff, protocol="sass", pu_channels=0,
                drift=drift, horizon=horizon, pairs=1, seed=1,
            )
            traces[(n_eff, drift)] = run(config)[0]
    return traces, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig2_outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("fig2")
    out_a, out_b = base / "a", base / "b"
    t0 = time.perf_counter()
    code_a = cli.main(["experiment", "--preset", "delivery-rate",
                       "--out", str(out_a), "--workers", "2"])
    elapsed = time.perf_counter() - t0
    code_b = cli.main(["experiment", "--preset", "delivery-rate",
                       "--out", str(out_b), "--workers", "1"])
    assert code_a == 0 and code_b == 0
    return out_a, out_b, elapsed


@pytest.fixture(scope="module")
def latency_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3") / "out"
    assert cli.main(["experiment", "--preset", "latency",
                     "--out", str(out), "--workers", "2"]) == 0
    return out


def test_criterion_1_delivery_channel_map():
    t0 = time.perf_counter()
    violations = []
    for n_eff in CHANNEL_MAP_SWEEP:
        violations.extend(check_channel_map(ess_for_channel_count(n_eff)))
    elapsed = time.perf_counter() - t0
    report(1, "delivery-channel map (exhaustive)",
           not violations and elapsed < 1.0,
           f"{len(violations)} violations, {elapsed:.2f}s")


def test_criterion_2_delivery_slot_counts():
    violations = []
    for n_eff in CHANNEL_MAP_SWEEP:
        violations.extend(check_slot_counts(ess_for_channel_count(n_eff)))
    report(2, "delivery-slot counts (exhaustive)", not violations,
           f"{len(violations)} violations")


def test_criterion_3_drift_table():
    table = drift_channel_table(ess_for_channel_count(4))
    expected = [ALL_CHANNELS, 0, 1, 2, 3, 2, 1, 0]
    report(3, "drift table reproduction", table == expected, f"{table}")


def test_criterion_4_first_delivery_bound(protocol_sweep):
    traces, elapsed = protocol_sweep
    worst = {}
    violations = 0
    for (n_eff, drift), trace in traces.items():
        bound = 4 * n_eff * (n_eff - 1)
        if trace.first_delivery is None or trace.first_delivery >= bound:
            violations += 1
        worst[n_eff] = max(worst.get(n_eff, -1), trace.first_delivery)
    report(4, "first-delivery bound",
           violations == 0 and elapsed < 10.0,
           f"worst per N' {worst}, {elapsed:.2f}s")


def test_criterion_5_calibration_soundness(protocol_sweep):
    traces, _ = protocol_sweep
    bad = []
    for (n_eff, drift), trace in traces.items():
        period = 2 * n_eff
        if trace.committed_offset is None or trace.missync:
            bad.append((n_eff, drift, "missync"))
            continue
        f0 = trace.first_delivery // period
        tail_start = (f0 + 3) * period
        if not trace.delivered[tail_start:].all():
            bad.append((n_eff, drift, "gap after sync"))
    report(5, "calibration soundness (PU-free)", not bad, f"{bad[:3]}")


def _rho_rows(out_dir: Path, pu: int, protocol: str) -> list[tuple[int, float, float]]:
    """(t, rho_mean, standard error) of one protocol's rows in rho_pu{pu}.csv."""
    with open(out_dir / f"rho_pu{pu}.csv") as fh:
        return [(int(row["t"]), float(row["rho_mean"]),
                 float(row["rho_stddev"]) / math.sqrt(FIG2_PAIRS))
                for row in csv.DictReader(fh) if row["protocol"] == protocol]


def _final_rho(out_dir: Path, pu: int) -> dict[str, float]:
    return {proto: mean for proto in ("sass", "rch", "css")
            for t, mean, _ in _rho_rows(out_dir, pu, proto) if t == 1000}


def test_criterion_6_delivery_rate_reproduction(fig2_outputs):
    out_a, _, elapsed = fig2_outputs
    problems = []
    for pu in PU_LEVELS:
        values = _final_rho(out_a, pu)
        target = 1.0 - pu / 100.0
        if abs(values["sass"] - target) > 0.05:
            problems.append(f"sass pu={pu}: {values['sass']:.4f} vs {target}")
        baseline_target = target / FIG2_N_EFF
        for proto in ("rch", "css"):
            if pu == 100:
                continue
            if abs(values[proto] - baseline_target) > 0.5 * baseline_target:
                problems.append(f"{proto} pu={pu}: {values[proto]:.4f}")
    ok = not problems and elapsed < 60.0
    report(6, "delivery-rate reproduction", ok,
           f"{problems or 'all within tolerance'}, {elapsed:.1f}s")


def test_criterion_7_latency_shape(latency_outputs):
    rows = {}
    with open(latency_outputs / "latency.csv") as fh:
        for row in csv.DictReader(fh):
            if row["window"] != "first":
                rows[(row["protocol"], int(row["window"]))] = float(row["latency_mean"])
    sass = [rows[("sass", w)] for w in (50, 100, 150, 200)]
    non_increasing = all(a >= b for a, b in zip(sass, sass[1:]))
    below = all(sass[-1] < rows[(proto, 200)] for proto in ("rch", "css"))
    report(7, "latency ordering", non_increasing and below,
           f"sass windows {[round(v, 2) for v in sass]}, "
           f"baselines at 200: rch={rows[('rch', 200)]:.1f} css={rows[('css', 200)]:.1f}")


def test_criterion_8_construction_validity():
    rng = np.random.default_rng(0xF00D)
    valid_orders = [n for n in range(3, 25) if n % 4 in (0, 3)]
    bases = []
    for n in valid_orders:
        values = construct_skolem(n)
        assert verify_skolem(values)
        ess = ess_for_channel_count(n + 1)
        assert verify_skolem(ess.values, zero_based=True)
        bases.append((list(values), False))
        bases.append((list(ess.values), True))
    oracle_ok = all(
        construct_skolem(n) in set(enumerate_skolem(n)) for n in (3, 4, 7, 8)
    )
    mismatches = 0
    overwrite_accepted = 0
    cases = 10_000
    for i in range(cases):
        values, zero_based = bases[int(rng.integers(0, len(bases)))]
        mutated = list(values)
        kind = int(rng.integers(0, 4))
        if kind == 0:  # overwrite one element with a different value
            idx = int(rng.integers(0, len(mutated)))
            delta = int(rng.integers(1, 5))
            mutated[idx] += delta
            if verify_skolem(mutated, zero_based):
                overwrite_accepted += 1
        elif kind == 1:  # swap two positions
            i1, i2 = rng.integers(0, len(mutated), size=2)
            mutated[int(i1)], mutated[int(i2)] = mutated[int(i2)], mutated[int(i1)]
        elif kind == 2:  # drop an element
            del mutated[int(rng.integers(0, len(mutated)))]
        else:  # duplicate an element
            mutated.append(mutated[int(rng.integers(0, len(mutated)))])
        if verify_skolem(mutated, zero_based) != independent_check(mutated, zero_based):
            mismatches += 1
    report(8, "construction validity (fuzz)",
           mismatches == 0 and overwrite_accepted == 0 and oracle_ok,
           f"{cases} cases, {mismatches} predicate mismatches, "
           f"{overwrite_accepted} bad accepts")


def test_criterion_9_determinism(fig2_outputs):
    out_a, out_b, _ = fig2_outputs
    names = sorted(p.name for p in out_a.glob("*.csv"))
    same = bool(names) and names == sorted(p.name for p in out_b.glob("*.csv")) and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    report(9, "determinism (byte-identical reruns)", same, f"{len(names)} files")


# Closed-form expectations: an oracle for the results that does not rest on
# their own digests.  Each preset mean must lie within 4 standard errors of it.


def _z_outliers(rows, expected) -> list[tuple[int, float, float]]:
    """Rows off expected(t) by more than 4 standard errors, give or take the
    CSV's 9 significant digits (a row with no spread must match outright)."""
    return [(t, mean, expected(t)) for t, mean, se in rows
            if abs(mean - expected(t)) > 4 * se + 1e-9]


def test_baselines_match_free_channel_share(fig2_outputs):
    # A pair meets on one slot in N', on average over the drift (css) or by
    # chance (rch), and a share 1 - pu/100 of the channel-slots is PU-free.
    out_a, _, _ = fig2_outputs
    bad = {}
    for pu in PU_LEVELS:
        expected = (1.0 - pu / 100.0) / FIG2_N_EFF
        for proto in ("rch", "css"):
            rows = [row for row in _rho_rows(out_a, pu, proto) if row[0] in (200, 500, 1000)]
            assert len(rows) == 3
            if outliers := _z_outliers(rows, lambda t: expected):
                bad[(proto, pu)] = outliers
    assert not bad, bad


def _alias_share(n_channels: int) -> tuple[int, Fraction]:
    """(N', sum over physical channels p of m_p^2 / N'^2), where m_p effective
    channels alias p: the chance that two independent uniform effective
    channels meet on one physical channel, 1/N' on an exact plan."""
    plan = make_channel_plan(n_channels, "padding")
    counts = Counter(plan.alias).values()
    return plan.effective_count, Fraction(sum(m * m for m in counts), plan.effective_count ** 2)


@pytest.mark.parametrize("n_channels", PADDED_SWEEP)
def test_css_pu_free_matches_alias_share(n_channels):
    # PU-free, at any slot the P drift residues put the sender on each
    # effective channel twice (each occurs twice in the ESS), and each P-slot
    # block of the css schedule is a rotation of the ESS: summed over the
    # residues, the delivery share is exactly the alias share.
    n_eff, share = _alias_share(n_channels)
    period = 2 * n_eff
    delivered = sum(
        int(run(SimConfig(n_channels=n_channels, protocol="css", drift=d,
                          horizon=period * period))[0].delivered.sum())
        for d in range(period)
    )
    assert Fraction(delivered, period ** 3) == share


@pytest.mark.parametrize("n_channels", PADDED_SWEEP)
def test_rch_pu_free_matches_alias_share(n_channels):
    # Each rch slot is an independent draw: deliveries are binomial with p = the alias share.
    _, share = _alias_share(n_channels)
    traces = run(SimConfig(n_channels=n_channels, protocol="rch", horizon=1000, pairs=200, seed=7))
    hits, slots = sum(int(trace.delivered.sum()) for trace in traces), 200 * 1000
    p = float(share)
    z = (hits / slots - p) / math.sqrt(p * (1 - p) / slots)
    assert abs(z) <= 4, z


def test_sass_pu_free_matches_residue_mean(fig2_outputs):
    # PU-free, a trace depends on the drift only through d mod P; the drift is
    # uniform over 2N'^2 = N' * P slots, so every residue is equally likely.
    out_a, _, _ = fig2_outputs
    period = 2 * FIG2_N_EFF
    residues = [run(SimConfig(n_channels=FIG2_N_EFF, protocol="sass", drift=d, horizon=1000))[0]
                for d in range(period)]
    counts = np.cumsum([trace.delivered for trace in residues], axis=1).mean(axis=0)
    rows = _rho_rows(out_a, 0, "sass")
    assert [row[0] for row in rows] == rho_sample_points(1000)
    outliers = _z_outliers(rows, lambda t: counts[t - 1] / t)
    assert not outliers, outliers[:5]


@pytest.mark.parametrize("pu", PU_LEVELS)
def test_sass_delivers_every_free_slot_after_commit(pu):
    # Once synced, sender and receiver share each channel: a slot delivers
    # exactly when no primary user blocks it.  The latest commit ends f0 + 2.
    x, idle = pu_parameters(pu, FIG2_N_EFF)
    config = SimConfig(n_channels=FIG2_N_EFF, protocol="sass", pu_channels=x, idle_mean=idle,
                       horizon=1000, pairs=200, seed=pu)
    period, synced, violations = 2 * FIG2_N_EFF, 0, 0
    for trace in run(config):
        if trace.committed_offset is None or trace.missync:
            continue
        synced += 1
        tail = slice((trace.first_delivery // period + 3) * period, None)
        violations += int((trace.delivered[tail] == trace.pu_blocked[tail]).sum())
    assert synced >= 190 and violations == 0, (synced, violations)
