"""Simulator tests: adjudication, PU traffic, drift handling, determinism."""

import math

import numpy as np
import pytest

from skolemhop.simenv import (
    PairSimulation,
    PuTraffic,
    SimConfig,
    nominal_intensity,
    pu_parameters,
    realized_idle_mean,
    run,
    solve_idle_mean,
)


def pu_free(**kwargs):
    defaults = dict(n_channels=4, protocol="sass", pu_channels=0, horizon=64,
                    pairs=1, seed=3)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestAdjudication:
    def test_zero_drift_no_pu_all_deliver(self):
        trace = run(pu_free(drift=0))[0]
        assert trace.delivered.all()
        assert trace.first_delivery == 0

    def test_drift_one_first_frame_channel_zero(self):
        trace = run(pu_free(drift=1, horizon=8))[0]
        hits = np.flatnonzero(trace.delivered)
        assert len(hits) == 1
        assert trace.receiver_channel[hits[0]] == 0
        assert trace.sender_channel[hits[0]] == 0

    def test_pu_on_lone_delivery_channel_blanks_frame(self):
        # Drift 1 delivers only on channel 0 in the first frame; occupying
        # channel 0 the whole frame kills every delivery there.
        config = pu_free(drift=1, horizon=8)
        sim = PairSimulation(config, 0)
        sim.pu.rows = [[ch == 0 for ch in range(4)] for _ in range(8)]
        trace = sim.run()
        assert not trace.delivered.any()

    def test_aliased_channels_deliver(self):
        # 3 physical channels pad to 4; effective 3 resolves to physical 0.
        config = SimConfig(n_channels=3, protocol="sass", pu_channels=0,
                           drift=0, horizon=16, pairs=1, seed=5)
        trace = run(config)[0]
        assert trace.delivered.all()

    def test_negative_drift(self):
        trace = run(pu_free(drift=-3, horizon=80))[0]
        assert trace.drift == -3
        assert trace.committed_offset is not None
        assert trace.missync is False
        period = trace.period
        start = (trace.first_delivery // period + 4) * period
        assert trace.delivered[start:].all()


class TestDeterminism:
    def test_identical_config_identical_traces(self):
        config = SimConfig(n_channels=5, protocol="sass", pu_channels=2,
                           busy_len=6, idle_mean=5.0, horizon=300, pairs=4, seed=42)
        first = run(config)
        second = run(config)
        for a, b in zip(first, second):
            assert a.drift == b.drift
            assert np.array_equal(a.delivered, b.delivered)
            assert np.array_equal(a.sender_channel, b.sender_channel)
            assert np.array_equal(a.receiver_channel, b.receiver_channel)
            assert a.committed_offset == b.committed_offset

    def test_pair_range_matches_full_run(self):
        config = SimConfig(n_channels=4, protocol="rch", pu_channels=1,
                           busy_len=4, idle_mean=3.0, horizon=100, pairs=6, seed=9)
        full = run(config)
        tail = run(config, pair_range=range(3, 6))
        for a, b in zip(full[3:], tail):
            assert np.array_equal(a.delivered, b.delivered)
            assert a.drift == b.drift


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_channels=0),
            dict(protocol="ach"),
            dict(pu_channels=9),
            dict(busy_len=0),
            dict(idle_mean=0.0),
            dict(idle_mean=float("nan")),
            dict(idle_mean=float("inf")),
            dict(horizon=0),
            dict(pairs=0),
            dict(n_channels=2, plan_mode="downsizing"),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        base = dict(n_channels=8, protocol="sass", pu_channels=0, busy_len=4,
                    idle_mean=2.0, horizon=10, pairs=1, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SimConfig(**base)

    def test_rejected_before_any_work(self):
        with pytest.raises(ValueError):
            run(SimConfig(n_channels=8, protocol="nope", horizon=10, pairs=1))


class TestPuTraffic:
    def test_unoccupied_channels_always_free(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pu = PuTraffic(6, occupied=[2], busy_len=5, idle_mean=4.0, rng=rng, horizon=500)
        column = pu.rows[:, 0]
        assert not column.any()
        assert pu.occupied == (2,)

    def test_busy_runs_exact_and_idle_at_least_one(self):
        rng = np.random.Generator(np.random.PCG64(7))
        b = 5
        pu = PuTraffic(2, occupied=[0], busy_len=b, idle_mean=3.0, rng=rng, horizon=4000)
        col = pu.rows[:, 0].astype(int)
        # run-length encode, ignoring the (possibly truncated) first and last runs
        edges = np.flatnonzero(np.diff(col)) + 1
        runs = np.split(col, edges)[1:-1]
        for chunk in runs:
            if chunk[0] == 1:
                assert len(chunk) == b
            else:
                assert len(chunk) >= 1

    def test_duty_cycle_matches_parameters(self):
        rng = np.random.Generator(np.random.PCG64(11))
        b, idle = 5, 15.0
        horizon = 200_000
        pu = PuTraffic(1, occupied=[0], busy_len=b, idle_mean=idle, rng=rng, horizon=horizon)
        frac = pu.rows[:, 0].mean()
        assert abs(frac - b / (b + idle)) <= 0.02

    def test_sample_respects_count(self):
        rng = np.random.Generator(np.random.PCG64(13))
        pu = PuTraffic.sample(10, 4, 3, 2.0, rng, 50)
        assert len(pu.occupied) == 4
        assert all(0 <= c < 10 for c in pu.occupied)


class TestPuParameters:
    def test_zero(self):
        assert pu_parameters(0.0, 12) == (0, 1.0)

    @pytest.mark.parametrize("pu,n", [(25, 12), (50, 12), (75, 12), (25, 15), (75, 15)])
    def test_intensity_hits_target(self, pu, n):
        x, idle = pu_parameters(pu, n, busy_len=400)
        assert 0 < x <= n
        got = nominal_intensity(x, n, 400, idle)
        assert abs(got - pu) < 1.0

    def test_solver_inverts_closed_form(self):
        for target in (1.5, 4.0, 26.7, 120.0):
            l = solve_idle_mean(target)
            assert abs(realized_idle_mean(l) - target) < 1e-6

    def test_closed_form_matches_simulation(self):
        rng = np.random.Generator(np.random.PCG64(3))
        l = 2.5
        draws = np.maximum(1, (rng.exponential(l, size=200_000) + 0.5).astype(int))
        assert abs(draws.mean() - realized_idle_mean(l)) < 0.02

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pu_parameters(120.0, 12)

    @pytest.mark.parametrize("n", [0, -4])
    @pytest.mark.parametrize("pu", [0.0, 25.0])
    def test_channel_count_rejected(self, pu, n):
        with pytest.raises(ValueError):
            pu_parameters(pu, n)

    @pytest.mark.parametrize("n", [0, -4])
    def test_nominal_intensity_rejects_channel_count(self, n):
        with pytest.raises(ValueError):
            nominal_intensity(1, n, 400, 1.0)

    @pytest.mark.parametrize("idle", [2e16, 1e17, float("inf")])
    def test_nominal_intensity_huge_idle_mean(self, idle):
        # 1 - exp(-1/idle) rounds to 0 here; the intensity is still finite.
        got = nominal_intensity(2, 12, 400, idle)
        assert math.isfinite(got)
        assert 0.0 <= got < 1e-10


def reconstruct_receiver_channels(local_delivered, ess):
    """Recompute the adaptive receiver's channel per local slot, from scratch.

    Uses only the frame rules and the delivered history -- an independent
    re-statement of the receiver behavior with no incremental state.
    """
    period = ess.period
    n_eff = ess.n_effective
    mu = ess.values
    total = len(local_delivered)
    hits = [t for t, d in enumerate(local_delivered) if d]
    offsets = {}

    def offset_for(frame):
        return offsets.get(frame, frame)  # searching default

    if hits:
        first = hits[0]
        f0 = first // period
        alpha = mu[(first + f0) % period]
        frame_seq = [mu[(t + f0) % period] for t in range(period)]
        twins = [t for t in range(period) if frame_seq[t] == alpha]
        tau2 = [t for t in twins if t != first % period][0]
        sb = {}
        for t, d in enumerate(local_delivered):
            if d:
                sb[t // period] = sb.get(t // period, 0) + 1
        last_frame = (total - 1) // period
        if alpha == n_eff - 1:
            chosen = f0 if sb.get(f0, 0) >= sb.get(f0 + 1, 0) else f0 + n_eff
            for f in range(f0 + 1, last_frame + 1):
                offsets[f] = (f0 + n_eff) if f == f0 + 1 else chosen
        elif local_delivered[f0 * period + tau2]:
            for f in range(f0 + 1, last_frame + 1):
                offsets[f] = f0
        else:
            chosen = (
                f0 + alpha + 1
                if sb.get(f0 + 1, 0) >= sb.get(f0 + 2, 0)
                else f0 - (alpha + 1)
            )
            for f in range(f0 + 1, last_frame + 1):
                if f == f0 + 1:
                    offsets[f] = f0 + alpha + 1
                elif f == f0 + 2:
                    offsets[f] = f0 - (alpha + 1)
                else:
                    offsets[f] = chosen
    return [mu[(t + offset_for(t // period)) % period] for t in range(total)]


class TestAdjudicationOracle:
    def test_hundred_random_configs(self):
        rng = np.random.default_rng(0xACE)
        for trial in range(100):
            protocol = ["sass", "rch", "css"][int(rng.integers(0, 3))]
            n = int(rng.integers(4, 16))
            mode = ["padding", "downsizing"][int(rng.integers(0, 2))]
            if mode == "downsizing" and n < 9:
                mode = "padding"
            x = int(rng.integers(0, n + 1))
            drift_kind = int(rng.integers(0, 3))
            drift = (
                None if drift_kind == 0
                else int(rng.integers(0, 60)) if drift_kind == 1
                else -int(rng.integers(1, 20))
            )
            config = SimConfig(
                n_channels=n, protocol=protocol, plan_mode=mode, pu_channels=x,
                busy_len=int(rng.integers(1, 12)),
                idle_mean=float(rng.uniform(0.5, 12.0)),
                drift=drift, horizon=int(rng.integers(60, 220)),
                pairs=1, seed=int(rng.integers(0, 2**31)),
            )
            sim = PairSimulation(config, 0)
            trace = sim.run()
            plan = sim.plan
            # delivered iff same physical channel and that channel is free
            for s in range(config.horizon):
                tx_phys = plan.alias[trace.sender_channel[s]]
                rx_phys = plan.alias[trace.receiver_channel[s]]
                expect = tx_phys == rx_phys and not sim.pu.rows[s][tx_phys]
                assert trace.delivered[s] == expect, (trial, s)
                blocked = sim.pu.rows[s][tx_phys] or sim.pu.rows[s][rx_phys]
                assert trace.pu_blocked[s] == blocked, (trial, s)
            # schedule reconstruction (deterministic protocols only)
            ess = sim.ess
            tx_base = sim._tx_base
            rx_base = sim._rx_base
            if protocol in ("sass", "css"):
                expected_tx = [ess.values[(tx_base + s) % ess.period]
                               for s in range(config.horizon)]
                assert trace.sender_channel.tolist() == expected_tx
            if protocol == "sass":
                local = [False] * rx_base + trace.delivered.tolist()
                recon = reconstruct_receiver_channels(local, ess)
                assert trace.receiver_channel.tolist() == recon[rx_base:], trial
            elif protocol == "css":
                expected_rx = [
                    ess.values[((rx_base + s) + (rx_base + s) // ess.period) % ess.period]
                    for s in range(config.horizon)
                ]
                assert trace.receiver_channel.tolist() == expected_rx
