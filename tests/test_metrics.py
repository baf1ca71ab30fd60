"""Metric definitions, aggregation rules, and CSV output."""

import csv

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skolemhop import metrics
from skolemhop.protocol import PROTOCOLS
from skolemhop.simenv import SimConfig, run


def fake_trace(delivered, missync=None, first=None, committed=None):
    class Trace:
        pass

    t = Trace()
    t.delivered = np.asarray(delivered, dtype=bool)
    t.missync = missync
    t.committed_offset = committed
    hits = np.flatnonzero(t.delivered)
    t.first_delivery = first if first is not None else (int(hits[0]) if hits.size else None)
    return t


def rho(trace, t: int) -> float:
    """Fraction of the first t slots with a successful delivery."""
    delivered = np.asarray(getattr(trace, "delivered", trace), dtype=bool)
    if not 1 <= t <= len(delivered):
        raise ValueError(f"t must be within [1, {len(delivered)}], got {t}")
    return int(delivered[:t].sum()) / t


def avg_latency(trace, window: int) -> float | None:
    """window / deliveries within it; None when no delivery occurred."""
    delivered = np.asarray(getattr(trace, "delivered", trace), dtype=bool)
    if not 1 <= window <= len(delivered):
        raise ValueError(f"window must be within [1, {len(delivered)}], got {window}")
    hits = int(delivered[:window].sum())
    return window / hits if hits else None


class TestRho:
    def test_all_delivered(self):
        t = fake_trace([True] * 20)
        assert all(rho(t, k) == 1.0 for k in (1, 5, 20))

    def test_counts_prefix_only(self):
        t = fake_trace([False, True, False, True])
        assert rho(t, 1) == 0.0
        assert rho(t, 2) == 0.5
        assert rho(t, 4) == 0.5

    def test_out_of_range(self):
        t = fake_trace([True])
        with pytest.raises(ValueError):
            rho(t, 0)
        with pytest.raises(ValueError):
            rho(t, 2)

    def test_monotone_in_delivered_slots(self):
        base = [False] * 30
        more = list(base)
        more[10] = True
        for t in range(11, 31):
            assert rho(fake_trace(more), t) >= rho(fake_trace(base), t)

    def test_integer_numerator(self):
        t = fake_trace([True, False, True, True, False])
        for k in range(1, 6):
            assert (rho(t, k) * k).is_integer()

    def test_series_is_mean_of_rho(self):
        rng = np.random.default_rng(11)
        traces = [fake_trace(rng.random(40) < 0.4) for _ in range(5)]
        series = metrics.rho_series(traces, points=[1, 7, 40])
        for k, mean in zip(series.points, series.mean):
            assert mean == pytest.approx(np.mean([rho(t, k) for t in traces]))


class TestRhoSeries:
    def test_sample_points(self):
        points = metrics.rho_sample_points(1000)
        assert points[:3] == [1, 2, 3]
        assert points[199] == 200
        assert points[200] == 210
        assert points[-1] == 1000

    def test_short_horizon(self):
        assert metrics.rho_sample_points(50) == list(range(1, 51))

    def test_mean_is_pairwise_mean(self):
        traces = [fake_trace([True] * 10), fake_trace([False] * 10)]
        series = metrics.rho_series(traces, points=[5, 10])
        assert series.mean == (0.5, 0.5)
        assert series.final() == 0.5

    def test_series_equals_float_cumsum(self):
        # The integer cumsum gives the bytes the float64 one gave.
        rng = np.random.default_rng(3)
        traces = [fake_trace(rng.random(1000) < p) for p in rng.random(200)]
        series = metrics.rho_series(traces)
        cum = np.stack([t.delivered for t in traces]).astype(np.float64).cumsum(axis=1)
        idx = np.asarray(series.points)
        per_pair = cum[:, idx - 1] / idx
        assert series.mean == tuple(per_pair.mean(axis=0).tolist())
        assert series.stddev == tuple(per_pair.std(axis=0).tolist())

    def test_permutation_invariant(self):
        a = [fake_trace([True, False] * 5), fake_trace([False] * 10),
             fake_trace([True] * 10)]
        s1 = metrics.rho_series(a, points=[10])
        s2 = metrics.rho_series(list(reversed(a)), points=[10])
        assert s1.mean == s2.mean and s1.stddev == s2.stddev


class TestLatency:
    def test_every_slot_delivers(self):
        t = fake_trace([True] * 200)
        for w in (50, 100, 150, 200):
            assert avg_latency(t, w) == 1.0

    def test_two_deliveries_in_fifty(self):
        delivered = [False] * 50
        delivered[10] = delivered[20] = True
        assert avg_latency(fake_trace(delivered), 50) == 25.0

    def test_zero_deliveries_undefined(self):
        assert avg_latency(fake_trace([False] * 50), 50) is None

    def test_identity_latency_times_hits(self):
        rng = np.random.default_rng(5)
        delivered = rng.random(200) < 0.3
        t = fake_trace(delivered)
        for w in (50, 100, 150, 200):
            hits = int(delivered[:w].sum())
            value = avg_latency(t, w)
            if hits:
                assert value * hits == pytest.approx(w)

    def test_report_excludes_undefined(self):
        traces = [
            fake_trace([True] + [False] * 199),
            fake_trace([False] * 200),
        ]
        report = metrics.latency_report(traces)
        mean, undefined = report.windows[50]
        assert mean == 50.0  # only the delivering pair counts
        assert undefined == 1
        assert report.first_mean == 1.0
        assert report.undelivered == 1

    @pytest.mark.parametrize("horizon", [120, 200, 1000])
    def test_report_equals_per_pair_oracle(self, horizon):
        # The report's cumsum reduction gives the same floats as averaging
        # avg_latency over the pairs that delivered, in pair order.
        rng = np.random.default_rng(horizon)
        traces = [fake_trace(rng.random(horizon) < p) for p in rng.random(300) * 0.05]
        report = metrics.latency_report(traces)
        for w in metrics.LATENCY_WINDOWS:
            if w > horizon:
                assert w not in report.windows
                continue
            defined = [v for v in (avg_latency(t, w) for t in traces) if v is not None]
            assert report.windows[w] == (sum(defined) / len(defined), len(traces) - len(defined))

    def test_windows_clipped_to_horizon(self):
        report = metrics.latency_report([fake_trace([True] * 120)])
        assert set(report.windows) == {50, 100}


class TestMissync:
    def test_no_commitments(self):
        assert metrics.missync_rate([fake_trace([False] * 4)]) == 0.0

    def test_correct_commit(self):
        t = fake_trace([True] * 4, missync=False, committed=0)
        assert metrics.missync_rate([t]) == 0.0

    def test_fraction_over_committed(self):
        good = fake_trace([True] * 4, missync=False, committed=0)
        bad = fake_trace([True] * 4, missync=True, committed=3)
        never = fake_trace([False] * 4, missync=None)
        assert metrics.missync_rate([good, bad, never]) == 0.5

    def test_pu_free_rate_exactly_zero(self):
        config = SimConfig(n_channels=4, protocol="sass", pu_channels=0,
                           horizon=120, pairs=32, seed=21)
        assert metrics.missync_rate(run(config)) == 0.0


class TestBaselineRhoLevels:
    def test_rch_half_pu_four_channels(self):
        # Uniform hopping against a uniform peer settles near (1-PU)/N'.
        from skolemhop.simenv import pu_parameters

        x, idle = pu_parameters(50, 4, busy_len=400)
        config = SimConfig(n_channels=4, protocol="rch", pu_channels=x,
                           busy_len=400, idle_mean=idle, horizon=400,
                           pairs=40, seed=2)
        series = metrics.rho_series(run(config), points=[200, 400])
        assert abs(series.mean[0] - 0.125) < 0.04


class TestCsv:
    def test_rho_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rho.csv"
        rows = [("sass", "25", 10, 0.5, 0.1), ("rch", "25", 10, 0.05, 0.01)]
        metrics.write_rho_csv(path, rows)
        with open(path) as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["protocol"] == "sass"
        assert float(got[0]["rho_mean"]) == 0.5
        assert got[1]["pu_level"] == "25"

    @given(rows=st.lists(st.tuples(
        st.sampled_from(PROTOCOLS),
        st.floats().map(lambda pu: f"{pu + 0.0:g}"),
        st.integers(1, 10**9),
        st.floats(),
        st.floats(),
    )))
    @example(rows=[("sass", "0", 1, -0.0, 5e-324), ("css", "nan", 2, float("nan"), 1e300),
                   ("rch", "inf", 3, float("inf"), -float("inf"))])
    def test_rho_csv_matches_csv_writer(self, tmp_path_factory, rows):
        # The one-template writer against csv.writer with `_fmt`: the same bytes.
        directory = tmp_path_factory.mktemp("rho")
        fast, generic = directory / "fast.csv", directory / "generic.csv"
        metrics.write_rho_csv(fast, rows)
        metrics.write_csv(generic, ("protocol", "pu_level", "t", "rho_mean", "rho_stddev"), rows)
        assert fast.read_bytes() == generic.read_bytes()

    def test_latency_csv_undefined_blank(self, tmp_path):
        path = tmp_path / "latency.csv"
        metrics.write_latency_csv(path, [("sass", "75", "50", None, 7)])
        text = path.read_text().splitlines()
        assert text[1] == "sass,75,50,,7"

    def test_deterministic_bytes(self, tmp_path):
        rows = [("sass", "0", t, 1 / t, 0.0) for t in range(1, 20)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        metrics.write_rho_csv(a, rows)
        metrics.write_rho_csv(b, rows)
        assert a.read_bytes() == b.read_bytes()
