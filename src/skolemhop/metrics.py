"""Evaluation metrics over simulation traces.

Two quantities drive all reporting: rho(t), the fraction of the first t
slots that delivered, and windowed average delivery latency, defined as
T divided by the number of deliveries within the first T slots (the mean
inter-delivery interval).  Windows with zero deliveries are reported as
undefined and excluded from cross-pair means rather than silently padded.
Both read per-pair rows (`pair_rows`): a chunk of traces reduces to its rows
where it was simulated, and chunks joined in pair order report what their
traces would.
Each CSV file is a header and one `%` template per row (`.9g` floats, None empty).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RhoSeries",
    "LatencyReport",
    "PairRows",
    "LATENCY_WINDOWS",
    "rho_sample_points",
    "pair_rows",
    "join_rows",
    "rho_series",
    "latency_report",
    "missync_rate",
    "write_summary_csv",
    "write_rho_csv",
    "write_latency_csv",
]

LATENCY_WINDOWS = (50, 100, 150, 200)

# rho(t) is sampled densely early on, then strided to bound output size.
RHO_DENSE_LIMIT = 200
RHO_STRIDE = 10
# rho_series' float64 working set, which holds two values (the rho and its deviation from the
# mean) per pair and point: it sets how many points a block of columns takes.
RHO_BLOCK_BYTES = 1 << 23


def rho_sample_points(horizon: int) -> list[int]:
    points = list(range(1, min(horizon, RHO_DENSE_LIMIT) + 1))
    points.extend(range(RHO_DENSE_LIMIT + RHO_STRIDE, horizon + 1, RHO_STRIDE))
    if points[-1] != horizon:
        points.append(horizon)
    return points


@dataclass(frozen=True)
class RhoSeries:
    """rho(t) at the sample points, averaged across pairs."""

    points: tuple[int, ...]
    mean: tuple[float, ...]
    stddev: tuple[float, ...]

    def final(self) -> float:
        return self.mean[-1]


@dataclass(frozen=True)
class PairRows:
    """Per pair (row), what the reports read of its trace: its deliveries within the
    first t slots at each t of `rho_sample_points(horizon)`, its first delivery, and
    whether it mis-synced (None: its receiver never committed)."""

    horizon: int
    counts: np.ndarray  # [pair, point]
    first_delivery: list[int | None]
    missync: list[bool | None]


def pair_rows(traces) -> PairRows:
    """The rows of traces that share a horizon, in their order; given rows, those rows."""
    if isinstance(traces, PairRows):
        return traces
    if not traces:
        raise ValueError("no traces")
    matrix = np.stack([t.delivered for t in traces])
    points = rho_sample_points(matrix.shape[1])
    # Each point's segment (at most RHO_STRIDE slots) is summed, then the sums accumulate, in
    # the narrowest exact types: no cumsum over every slot, and the stack is never widened.
    sums = np.add.reduceat(matrix.view(np.uint8), [0, *points[:-1]], axis=1,
                           dtype=np.min_scalar_type(RHO_STRIDE))
    counts = sums.cumsum(axis=1, dtype=np.min_scalar_type(matrix.shape[1]))
    return PairRows(matrix.shape[1], counts, [t.first_delivery for t in traces],
                    [t.missync for t in traces])


def join_rows(parts: Sequence[PairRows]) -> PairRows:
    """Chunks' rows as one, in the order given."""
    return PairRows(parts[0].horizon, np.concatenate([p.counts for p in parts]),
                    [f for p in parts for f in p.first_delivery],
                    [m for p in parts for m in p.missync])


def _rho_moments(counts: np.ndarray, points: list[int]) -> tuple[list[float], list[float]]:
    """Each point's mean and std of rho over the pairs (rows), from their counts."""
    # Column-major, as a column gather of the counts leaves it: numpy then sums
    # each point's column pairwise, which fixes the floats the CSVs print.
    per_pair = np.asfortranarray(counts) / np.asarray(points)
    return per_pair.mean(axis=0).tolist(), per_pair.std(axis=0).tolist()


def rho_series(data) -> RhoSeries:
    """rho(t) from a trace list or its rows, reduced a block of points at a time: each
    point's column is the same contiguous values whatever the block, and so are its floats."""
    rows = pair_rows(data)
    points = rho_sample_points(rows.horizon)
    width = max(1, RHO_BLOCK_BYTES // (16 * len(rows.counts)))
    mean, stddev = [], []
    for j in range(0, len(points), width):
        block_mean, block_stddev = _rho_moments(rows.counts[:, j:j + width], points[j:j + width])
        mean += block_mean
        stddev += block_stddev
    return RhoSeries(points=tuple(points), mean=tuple(mean), stddev=tuple(stddev))


@dataclass(frozen=True)
class LatencyReport:
    """First-delivery summary plus the windowed latency scenarios.

    `windows` maps window length -> (mean latency over pairs that delivered,
    count of pairs with no delivery in the window).
    """

    first_mean: float | None
    undelivered: int
    windows: dict[int, tuple[float | None, int]]


def latency_report(data) -> LatencyReport:
    """From a trace list or its rows."""
    rows = pair_rows(data)
    pairs = len(rows.first_delivery)
    hit = [f + 1 for f in rows.first_delivery if f is not None]  # latency in slots, 1-based
    report_windows: dict[int, tuple[float | None, int]] = {}
    points = rho_sample_points(rows.horizon)
    for w in LATENCY_WINDOWS:
        if w <= rows.horizon:  # so a dense rho sample point: index() raises, never skips
            # Deliveries within the first w slots, per pair; the mean is over pairs with any.
            counts = [c for c in rows.counts[:, points.index(w)].tolist() if c]
            mean = sum(w / c for c in counts) / len(counts) if counts else None
            report_windows[w] = (mean, pairs - len(counts))
    return LatencyReport(
        first_mean=sum(hit) / len(hit) if hit else None,
        undelivered=pairs - len(hit),
        windows=report_windows,
    )


def missync_rate(data) -> float:
    """Fraction of committed receivers whose offset disagrees with the drift,
    from a trace list or its rows."""
    flags = [m for m in pair_rows(data).missync if m is not None]
    return sum(flags) / len(flags) if flags else 0.0


def _nullable(value: float | None) -> str:
    return "" if value is None else format(value, ".9g")


def write_rho_csv(path, rows: Iterable[tuple], *, append: bool = False) -> None:
    """Rows: (protocol, pu_level, t, rho_mean, rho_stddev); with append, added after
    the header and rows of a file this wrote, as if one call had written them all."""
    with open(path, "a" if append else "w", newline="") as fh:
        if not append:
            fh.write("protocol,pu_level,t,rho_mean,rho_stddev\r\n")
        fh.writelines("%s,%s,%d,%.9g,%.9g\r\n" % row for row in rows)


def write_latency_csv(path, rows: Iterable[tuple]) -> None:
    """Rows: (protocol, pu_level, window, latency_mean or None, undefined_count)."""
    with open(path, "w", newline="") as fh:
        fh.write("protocol,pu_level,window,latency_mean,undefined_count\r\n")
        fh.writelines("%s,%s,%s,%s,%d\r\n" % (*head, _nullable(mean), n) for *head, mean, n in rows)


def write_summary_csv(path, rows: Iterable[tuple]) -> None:
    """One row per variation, in the header's order; first_mean may be None."""
    with open(path, "w", newline="") as fh:
        fh.write("name,protocol,pu_level,pairs,horizon,"
                 "rho_final,missync_rate,committed,first_mean,undelivered\r\n")
        fh.writelines("%s,%s,%s,%d,%d,%.9g,%.9g,%d,%s,%d\r\n" % (*head, _nullable(first), n)
                      for *head, first, n in rows)
