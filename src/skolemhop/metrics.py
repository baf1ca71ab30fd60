"""Evaluation metrics over simulation traces.

Two quantities drive all reporting: rho(t), the fraction of the first t
slots that delivered, and windowed average delivery latency, defined as
T divided by the number of deliveries within the first T slots (the mean
inter-delivery interval).  Windows with zero deliveries are reported as
undefined and excluded from cross-pair means rather than silently padded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "RhoSeries",
    "LatencyReport",
    "LATENCY_WINDOWS",
    "rho_sample_points",
    "rho_series",
    "latency_report",
    "missync_rate",
    "write_csv",
    "write_rho_csv",
    "write_latency_csv",
]

LATENCY_WINDOWS = (50, 100, 150, 200)

# rho(t) is sampled densely early on, then strided to bound output size.
RHO_DENSE_LIMIT = 200
RHO_STRIDE = 10


def _delivered(trace) -> np.ndarray:
    data = getattr(trace, "delivered", trace)
    return np.asarray(data, dtype=bool)


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


def rho_series(traces: Sequence, points: Sequence[int] | None = None) -> RhoSeries:
    if not traces:
        raise ValueError("no traces")
    matrix = np.stack([_delivered(t) for t in traces])
    # A count never exceeds the horizon: the narrowest type holding it is exact, and fastest.
    cum = matrix.cumsum(axis=1, dtype=np.min_scalar_type(matrix.shape[1]))
    if points is None:
        points = rho_sample_points(cum.shape[1])
    idx = np.asarray(points, dtype=int)
    per_pair = cum[:, idx - 1] / idx
    return RhoSeries(
        points=tuple(int(t) for t in points),
        mean=tuple(per_pair.mean(axis=0).tolist()),
        stddev=tuple(per_pair.std(axis=0).tolist()),
    )


@dataclass(frozen=True)
class LatencyReport:
    """First-delivery summary plus the windowed latency scenarios.

    `windows` maps window length -> (mean latency over pairs that delivered,
    count of pairs with no delivery in the window).
    """

    first_mean: float | None
    undelivered: int
    windows: dict[int, tuple[float | None, int]]


def latency_report(traces: Sequence) -> LatencyReport:
    if not traces:
        raise ValueError("no traces")
    firsts = [t.first_delivery for t in traces]
    hit = [f + 1 for f in firsts if f is not None]  # latency in slots, 1-based
    report_windows: dict[int, tuple[float | None, int]] = {}
    # Deliveries within the first w slots, per pair; the mean is over pairs with any.
    hits = np.stack([_delivered(t)[:max(LATENCY_WINDOWS)] for t in traces]).cumsum(axis=1)
    for w in LATENCY_WINDOWS:
        if w <= hits.shape[1]:
            counts = [c for c in hits[:, w - 1].tolist() if c]
            mean = sum(w / c for c in counts) / len(counts) if counts else None
            report_windows[w] = (mean, len(traces) - len(counts))
    return LatencyReport(
        first_mean=sum(hit) / len(hit) if hit else None,
        undelivered=len(traces) - len(hit),
        windows=report_windows,
    )


def missync_rate(traces: Sequence) -> float:
    """Fraction of committed receivers whose offset disagrees with the drift."""
    committed = [t for t in traces if t.missync is not None]
    if not committed:
        return 0.0
    return sum(1 for t in committed if t.missync) / len(committed)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return value


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One header row, then each row with floats as `.9g` and None as empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_rho_csv(path, rows: Iterable[tuple]) -> None:
    """Rows: (protocol, pu_level, t, rho_mean, rho_stddev), as `write_csv` writes them."""
    with open(path, "w", newline="") as fh:
        fh.write("protocol,pu_level,t,rho_mean,rho_stddev\r\n")
        fh.writelines("%s,%s,%d,%.9g,%.9g\r\n" % row for row in rows)


def write_latency_csv(path, rows: Iterable[tuple]) -> None:
    """Rows: (protocol, pu_level, window, latency_mean, undefined_count)."""
    write_csv(path, ("protocol", "pu_level", "window", "latency_mean", "undefined_count"), rows)
