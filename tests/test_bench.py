"""The repo-root A/B script: its summary of paired runs and what it parses."""

import importlib.util
import json
import subprocess
import sys
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


def test_pytest_counts_read_the_summary_line():
    out = "..x.F [100%]\n1 failed, 736 passed, 10 xfailed, 2 warnings in 20.40s\n"
    assert bench.pytest_counts(out) == {"failed": 1, "passed": 736, "xfailed": 10,
                                        "warnings": 2}
    assert bench.pytest_counts("5 passed, 1 deselected in 0.12s") == {"passed": 5,
                                                                      "deselected": 1}
    # Only the last line counts, not what a test printed before it.
    assert bench.pytest_counts("3 passed\nno tests ran in 0.01s\n") == {}
    assert bench.pytest_counts("") == {}


def test_csv_digest_is_sha256_of_the_sha256sum_listing(tmp_path):
    (tmp_path / "b.csv").write_bytes(b"2\n")
    (tmp_path / "a.csv").write_bytes(b"1\n")
    (tmp_path / "c.ndjson").write_bytes(b"{}\n")
    # `printf '1\n' > a.csv; printf '2\n' > b.csv; sha256sum *.csv | sha256sum`
    assert bench.csv_digest(tmp_path) == (
        "ffa316d1dfc28adc171ad727498624f20943b24bd0fc8f3bf6a3ffa9e227104c")


def test_lean_parent_reports_the_command():
    done = subprocess.run([sys.executable, "-S", "-c", bench.TIMER, sys.executable, "-c",
                           "raise SystemExit(3)"], capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["code"] == 3
    assert got["wall_s"] > 0 and got["cpu_s"] >= 0 and got["peak_rss_mb"] > 0
