"""The repo-root A/B script's summary of paired runs (`bench.summarize`)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parents[1] / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_median_quartiles_and_wins_per_side():
    got = bench.summarize([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0], "lower")
    assert got["this"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                           "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert (got["against"]["median"], got["against"]["q1"], got["against"]["q3"]) == (4.0, 3.0, 5.0)
    assert got["wins"] == {"this": 5, "against": 0}
    assert got["ratio"] == pytest.approx(0.75)
    # Every pair won, but the medians differ by 1, less than the other side's IQR of 2.
    assert got["gain"] is False


def test_gain_needs_nine_in_ten_wins_and_a_gap_past_the_iqr():
    against = [10.0] * 9 + [11.0]
    assert bench.summarize([8.0] * 10, against, "lower")["gain"] is True
    # One pair tied: 9 wins of 10 still hold.
    tied = bench.summarize([8.0] * 9 + [11.0], against, "lower")
    assert tied["wins"] == {"this": 9, "against": 0} and tied["gain"] is True
    # Two pairs lost: 8 of 10 does not.
    lost = bench.summarize([8.0] * 8 + [12.0, 12.0], against, "lower")
    assert lost["wins"] == {"this": 8, "against": 2} and lost["gain"] is False


def test_higher_is_better_turns_the_comparison():
    got = bench.summarize([3.0, 3.0, 3.0], [1.0, 2.0, 3.0], "higher")
    assert got["wins"] == {"this": 2, "against": 0}
    assert got["gain"] is False  # 2 of 3 pairs
    assert bench.summarize([1.0, 2.0, 3.0], [3.0, 3.0, 3.0], "higher")["wins"] == {
        "this": 0, "against": 2}


def test_one_side_and_one_run():
    got = bench.summarize([0.5], None, "lower")
    assert got == {"better": "lower",
                   "this": {"median": 0.5, "q1": 0.5, "q3": 0.5, "runs": [0.5]}}
