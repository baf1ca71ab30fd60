"""Simulator tests: adjudication, PU traffic, drift handling, determinism."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skolemhop import simenv
from skolemhop.simenv import (
    RECORD_BLOCK,
    PairSimulation,
    PuTraffic,
    SimConfig,
    SimTrace,
    nominal_intensity,
    pair_stream,
    pu_parameters,
    realized_idle_mean,
    run,
    solve_idle_mean,
    write_records,
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
        sim.pu.rows = np.array([[ch == 0 for ch in range(4)] for _ in range(8)])
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
        period = 8  # N' = 4
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
            dict(pairs=2**32 + 1),  # past the pair indices the seed streams take
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

    def test_pu_free_pair_builds_no_pu_stream(self, monkeypatch):
        # Nothing else reads stream 1, so skipping it keeps every byte.
        built = []
        real = simenv.pair_stream
        monkeypatch.setattr(simenv, "pair_stream", lambda *a: built.append(a[2]) or real(*a))
        sim = PairSimulation(SimConfig(n_channels=12, protocol="sass", horizon=50), 0)
        assert built == [0] and sim.pu.occupied == ()
        assert not np.asarray(sim.pu.rows).any()
        assert PuTraffic.sample(12, 0, 400, 1.0, None, 50).occupied == ()


def reference_pu_rows(n_channels, occupied, busy_len, idle_mean, rng, horizon):
    """[slot, channel] occupancy from the per-column scalar builder, draw for draw."""
    matrix = np.zeros((horizon, n_channels), dtype=bool)

    def idle_len():
        return max(1, int(rng.exponential(idle_mean) + 0.5))

    for ch in sorted(set(occupied)):
        col = np.zeros(horizon, dtype=bool)
        first_idle = idle_len()
        phase = int(rng.integers(0, busy_len + first_idle))
        if phase < busy_len:
            run_len = min(busy_len - phase, horizon)
            col[:run_len] = True
            pos = run_len + first_idle
        else:
            pos = (busy_len + first_idle) - phase
        while pos < horizon:
            col[pos:pos + busy_len] = True
            pos += busy_len + idle_len()
        matrix[:, ch] = col
    return matrix


class TestPuTrafficReference:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64), n_channels=st.integers(1, 8),
           busy_len=st.integers(1, 60), idle_mean=st.floats(0.01, 200.0),
           horizon=st.integers(1, 500), data=st.data())
    def test_matches_scalar_builder(self, seed, n_channels, busy_len, idle_mean, horizon,
                                    data):
        occupied = data.draw(st.sets(st.integers(0, n_channels - 1)))
        rng = np.random.Generator(np.random.PCG64(seed))
        pu = PuTraffic(n_channels, occupied, busy_len, idle_mean, rng, horizon)
        ref_rng = np.random.Generator(np.random.PCG64(seed))
        want = reference_pu_rows(n_channels, occupied, busy_len, idle_mean, ref_rng, horizon)
        assert pu.rows.shape == want.shape
        assert pu.rows.tolist() == want.tolist()
        # Same draws, so the stream ends where the scalar builder left it.
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSeedStreams:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 7]),
                       st.integers(0, 2**128 - 1)),
        pair_index=st.one_of(st.sampled_from([0, 255, 256, 257, 2**32 - 1]),
                             st.integers(0, 2**32 - 1)),
        k=st.integers(0, 3),
    )
    @example(seed=2**32, pair_index=256, k=3)
    def test_block_streams_match_seed_sequence(self, seed, pair_index, k):
        ss = np.random.SeedSequence(seed, spawn_key=(pair_index, k))
        got = pair_stream(seed, pair_index, k)
        state = got.bit_generator.seed_seq.generate_state(4, np.uint64)
        assert state.tolist() == ss.generate_state(4, np.uint64).tolist()
        want = np.random.Generator(np.random.PCG64(ss))
        assert got.integers(0, 2**63, 8).tolist() == want.integers(0, 2**63, 8).tolist()

    @pytest.mark.parametrize("seed,pair_index", [(-1, 0), (-(2**40), 3), (0, -1),
                                                 (0, 2**32), (7, 2**40 + 1)])
    def test_out_of_range_rejected(self, seed, pair_index):
        # A negative seed or key fails in numpy too; a pair index of 2**32 or
        # more would take two key words there, so it is refused here.
        with pytest.raises(ValueError):
            pair_stream(seed, pair_index, 0)


class TestTracePickle:
    def test_round_trip_keeps_values_dtypes_and_writeable(self):
        config = SimConfig(n_channels=10, protocol="sass", pu_channels=5, drift=-37,
                           horizon=300, pairs=3, seed=11)
        traces = run(config)
        for trace, back in zip(traces, pickle.loads(pickle.dumps(traces)), strict=True):
            for name, value in vars(trace).items():
                restored = getattr(back, name)
                if isinstance(value, np.ndarray):
                    assert restored.dtype == value.dtype
                    assert restored.tolist() == value.tolist()
                    assert restored.flags.writeable
                else:
                    assert restored == value


class TestPuParameters:
    def test_zero(self):
        assert pu_parameters(0.0, 12) == (0, 1.0)

    @pytest.mark.parametrize("pu,n", [(25, 12), (50, 12), (75, 12), (25, 15), (75, 15)])
    def test_intensity_hits_target(self, pu, n):
        x, idle = pu_parameters(pu, n, busy_len=400)
        assert 0 < x <= n
        got = nominal_intensity(x, n, 400, idle)
        assert abs(got - pu) < 1.0

    @pytest.mark.parametrize("pu,n", [(1e-9, 10), (1e-12, 4), (1e-6, 12)])
    def test_tiny_load_occupies_one_channel(self, pu, n):
        # pu * N / 100 <= 1e-9 once rounded to zero channels and divided by it.
        x, idle = pu_parameters(pu, n, busy_len=400)
        assert x == 1
        assert nominal_intensity(x, n, 400, idle) == pytest.approx(pu, rel=1e-9)

    def test_solver_inverts_closed_form(self):
        for target in (1.5, 4.0, 26.7, 120.0):
            l = solve_idle_mean(target)
            assert abs(realized_idle_mean(l) - target) < 1e-6

    @given(target=st.one_of(st.floats(1.0, 1e15), st.floats(1.0, 2.0)))
    @example(target=1e15)
    @example(target=1.0 + 2**-52)
    def test_solver_round_trips(self, target):
        assert abs(realized_idle_mean(solve_idle_mean(target)) - target) <= 1e-12 * target

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
        # 1 - exp(-1/idle) would round to 0 here; the intensity is still finite.
        got = nominal_intensity(2, 12, 400, idle)
        assert math.isfinite(got)
        assert 0.0 <= got < 1e-10


def oracle_write_records(path, traces):
    """The per-slot `%`-template writer that the block writer replaced."""
    line = '{"run":%d,"slot":%d,"tx":%d,"rx":%d,"pu":%s,"delivered":%s}\n'
    word = ("false", "true")
    with open(path, "w") as fh:
        for trace in traces:
            pair = trace.pair_index
            columns = zip(
                trace.sender_channel.tolist(),
                trace.receiver_channel.tolist(),
                trace.pu_blocked.tolist(),
                trace.delivered.tolist(),
            )
            fh.writelines(
                line % (pair, slot, tx, rx, word[pu], word[hit])
                for slot, (tx, rx, pu, hit) in enumerate(columns)
            )


RECORD_HORIZONS = (
    1, RECORD_BLOCK - 1, RECORD_BLOCK, RECORD_BLOCK + 1, 2 * RECORD_BLOCK + 3,
    10 * RECORD_BLOCK + 1,
)


@st.composite
def record_traces(draw):
    """Traces of mixed horizons, pair indices up to 10**6, channels of 1-3
    digits and pu/delivered columns of any mix."""
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        horizon = draw(st.sampled_from(RECORD_HORIZONS))
        top = draw(st.sampled_from([1, 9, 11, 99, 100, 999]))
        pu_rate, hit_rate = draw(st.floats(0, 1)), draw(st.floats(0, 1))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        traces.append(SimTrace(
            pair_index=draw(st.integers(0, 10**6)),
            protocol="sass",
            drift=0,
            sender_channel=rng.integers(0, top + 1, horizon).astype(np.int16),
            receiver_channel=rng.integers(0, top + 1, horizon).astype(np.int16),
            pu_blocked=rng.random(horizon) < pu_rate,
            delivered=rng.random(horizon) < hit_rate,
            first_delivery=None,
            committed_offset=None,
            missync=None,
        ))
    return traces


class TestWriteRecords:
    @settings(max_examples=40, deadline=None)
    @given(traces=record_traces())
    def test_bytes_match_template_writer(self, traces, tmp_path_factory):
        out = tmp_path_factory.mktemp("records")
        write_records(out / "block.ndjson", iter(traces))
        oracle_write_records(out / "oracle.ndjson", traces)
        assert (out / "block.ndjson").read_bytes() == (out / "oracle.ndjson").read_bytes()

    def test_simulated_run_matches_template_writer(self, tmp_path):
        config = SimConfig(n_channels=10, protocol="sass", pu_channels=5, drift=-37,
                           horizon=2 * RECORD_BLOCK + 3, pairs=2, seed=11)
        traces = run(config)
        write_records(tmp_path / "block.ndjson", traces)
        oracle_write_records(tmp_path / "oracle.ndjson", traces)
        assert (tmp_path / "block.ndjson").read_bytes() == (tmp_path / "oracle.ndjson").read_bytes()

    def test_no_traces_empty_file(self, tmp_path):
        write_records(tmp_path / "empty.ndjson", iter(()))
        assert (tmp_path / "empty.ndjson").read_bytes() == b""
