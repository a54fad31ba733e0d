"""Experiment harness: dataset generation, column files, and the
error-versus-resolution sweep.

Column files hold one value per line; an empty line is a null.  Scalar
files contain decimal numbers, range files the range literal format.  The
sweep rebuilds statistics at each requested target, estimates the join
selectivity, and compares against the exact oracle (computed once), so the
resulting CSV traces how estimation error shrinks as histograms grow.
"""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .estimator import join_selectivity
from .operators import RangeOp, ScalarOp
from .oracle import exact_join, exact_range_join
from .ranges import (
    RangeColumn,
    RangeStats,
    analyze_range_column,
    format_range_lines,
    parse_range,
    parse_range_lines,
    range_join_selectivity,
    range_stats_from_dict,
    save_range_stats,
)
from .stats import AttributeStats, analyze_column, save_stats, stats_from_dict

SCALAR_KINDS = ("uniform-int", "skewed-int", "running-example-r1", "running-example-r2")
RANGE_KINDS = ("ranges-mixed",)
DATASET_KINDS = SCALAR_KINDS + RANGE_KINDS

RUNNING_EXAMPLE_R1 = (10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45)
RUNNING_EXAMPLE_R2 = (15, 16, 17, 20, 30, 35, 38, 39, 40, 42, 45, 50)

DOMAIN_MAX = 10**6


def generate_scalar_column(kind: str, rows: int, seed: int) -> np.ndarray:
    """Deterministic scalar column for the given kind and seed."""
    if kind == "running-example-r1":
        return np.array(RUNNING_EXAMPLE_R1, dtype=np.float64)
    if kind == "running-example-r2":
        return np.array(RUNNING_EXAMPLE_R2, dtype=np.float64)
    if rows < 1:
        raise ValueError("rows must be at least 1")
    rng = np.random.default_rng(seed)
    if kind == "uniform-int":
        return rng.integers(0, DOMAIN_MAX + 1, size=rows).astype(np.float64)
    if kind == "skewed-int":
        # half the rows concentrate on ten hot values so MCV statistics
        # carry real weight; the rest spread uniformly
        hot = rng.integers(0, DOMAIN_MAX + 1, size=10).astype(np.float64)
        weights = 1.0 / np.arange(1, 11)
        weights /= weights.sum()
        use_hot = rng.random(rows) < 0.5
        values = rng.integers(0, DOMAIN_MAX + 1, size=rows).astype(np.float64)
        values[use_hot] = rng.choice(hot, size=int(use_hot.sum()), p=weights)
        return values
    raise ValueError(f"unknown scalar dataset kind {kind!r}")


def generate_range_column(
    rows: int,
    seed: int,
    *,
    empty_frac: float = 0.01,
    null_frac: float = 0.01,
    inf_frac: float = 0.01,
) -> RangeColumn:
    """Deterministic mixed range column: short/medium/long widths in a
    60/30/10 ratio over [0, 10^6], plus empty, null and infinite-bound rows.

    Row by row, the column is drawn from one stream of uniform doubles: a
    row takes one double to decide null / empty / positioned, and a
    positioned row takes six more (width class, width, start, the two
    closed flags, infinite or not) and, when a bound is infinite, one more
    for which.  The stream is drawn as one block and each row's offset in
    it found by walking the draw counts.
    """
    if rows < 1:
        raise ValueError("rows must be at least 1")
    d = np.random.default_rng(seed).random(8 * rows)
    # the number of doubles a row takes if it starts at each offset
    blank = d[:-7] < null_frac + empty_frac
    draws = np.where(blank, 1, np.where(d[6:-1] < inf_frac, 8, 7)).tolist()
    starts = []
    at = 0
    for _ in range(rows):
        starts.append(at)
        at += draws[at]
    p = np.array(starts)
    u = d[p]
    width_class = np.searchsorted([0.6, 0.9], d[p + 1], side="right")
    lo = np.array([1.0, 100.0, 10_000.0])[width_class]
    hi = np.array([100.0, 10_000.0, 200_000.0])[width_class]
    width = lo + (hi - lo) * d[p + 2]
    start = (DOMAIN_MAX - width) * d[p + 3]
    lower = np.floor(start)
    upper = np.floor(start + width) + 1.0
    infinite = d[p + 6] < inf_frac
    side = d[p + 7] < 0.5
    lower[infinite & side] = -math.inf
    upper[infinite & ~side] = math.inf
    null = u < null_frac
    return RangeColumn(lower, upper, d[p + 4] < 0.5, d[p + 5] < 0.5, null,
                       ~null & (u < null_frac + empty_frac))


# ---------------------------------------------------------------------------
# Column files.


def format_scalar(v: float) -> str:
    if math.isnan(v):
        return ""
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def write_scalar_column(path, values) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in values:
            fh.write(format_scalar(float(v)) + "\n")


def read_scalar_column(path) -> np.ndarray:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                out.append(np.nan)
                continue
            try:
                v = float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
            if math.isnan(v):
                raise ValueError(f"{path}:{lineno}: not a number: {text!r}")
            out.append(v)
    if not out:
        raise ValueError(f"{path}: empty column file")
    return np.array(out, dtype=np.float64)


def write_range_column(path, values) -> None:
    lines = format_range_lines(RangeColumn.from_values(values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def read_range_column(path) -> RangeColumn:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")     # the lines file iteration gives
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty column file")
    column = parse_range_lines(lines)
    if column is None:
        rows = []
        for lineno, line in enumerate(lines, start=1):
            try:
                rows.append(parse_range(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        column = RangeColumn.from_values(rows)
    return column


def looks_like_range_file(path) -> bool:
    """Sniff a column file: range literals start with a bracket or 'empty'."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if not text:
                continue
            return text[0] in "[(" or text.lower() == "empty"
    return False


@dataclass(frozen=True)
class ColumnKind:
    """How one kind of column, scalar or range, is read, analyzed, saved,
    loaded, estimated and counted."""

    name: str
    stats_type: type
    read: Callable
    analyze: Callable
    save: Callable
    from_dict: Callable
    estimate: Callable
    oracle: Callable


# The lambdas look each function up by its module-level name when called,
# so a wrapper rebound on that name (as perfbench's tracer installs) sees
# the calls made through a kind.
SCALAR = ColumnKind(
    "scalar", AttributeStats,
    read=lambda path: read_scalar_column(path),
    analyze=lambda *args: analyze_column(*args),
    save=lambda s: save_stats(s),
    from_dict=stats_from_dict,
    estimate=lambda sx, sy, op: join_selectivity(sx, sy, op),
    oracle=lambda xs, ys, op: exact_join(xs, ys, op),
)
RANGE = ColumnKind(
    "range", RangeStats,
    read=lambda path: read_range_column(path),
    analyze=lambda *args: analyze_range_column(*args),
    save=lambda s: save_range_stats(s),
    from_dict=range_stats_from_dict,
    estimate=lambda sx, sy, op: range_join_selectivity(sx, sy, op),
    oracle=lambda xs, ys, op: exact_range_join(xs, ys, op),
)


def kind_of(op: ScalarOp | RangeOp) -> ColumnKind:
    return RANGE if isinstance(op, RangeOp) else SCALAR


# ---------------------------------------------------------------------------
# The sweep.


@dataclass(frozen=True)
class ExperimentRow:
    statistics_target: int
    estimate: float
    exact: float
    error: float                 # |estimate - exact|, both fractions of the product
    est_time_us: float
    build_time_us: float


CSV_HEADER = ["statistics_target", "estimate", "exact", "error", "est_time_us", "build_time_us"]

# A single estimation call sits near timer resolution, so the estimate is
# timed as the best of a few repeats; building the statistics takes
# milliseconds and is timed once.
_ESTIMATE_REPEATS = 5


def _timed(fn, repeats: int = 1):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best * 1e6


def run_sweep(
    file_x,
    file_y,
    op: ScalarOp | RangeOp,
    targets,
    seed: int = 0,
) -> list[ExperimentRow]:
    """Estimate-vs-oracle comparison for every statistics target.

    Statistics are built from the full columns (no sampling) so the error
    column isolates estimator error from sampling noise.
    """
    targets = sorted(set(int(t) for t in targets))
    if not targets:
        raise ValueError("no statistics targets given")

    kind = kind_of(op)
    xs, ys = kind.read(file_x), kind.read(file_y)
    exact = kind.oracle(xs, ys, op)

    rows = []
    for target in targets:
        (sx, sy), build_us = _timed(lambda: (kind.analyze(xs, target, seed, len(xs)),
                                             kind.analyze(ys, target, seed, len(ys))))
        est, est_us = _timed(lambda: kind.estimate(sx, sy, op), _ESTIMATE_REPEATS)
        rows.append(
            ExperimentRow(
                statistics_target=target,
                estimate=est,
                exact=exact.selectivity,
                error=abs(est - exact.selectivity),
                est_time_us=est_us,
                build_time_us=build_us,
            )
        )
    return rows


def write_results_csv(rows, path_or_file) -> None:
    if hasattr(path_or_file, "write"):
        _write_csv(rows, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            _write_csv(rows, fh)


def _write_csv(rows, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [r.statistics_target, repr(float(r.estimate)), repr(float(r.exact)),
             repr(float(r.error)), repr(float(r.est_time_us)), repr(float(r.build_time_us))]
        )


def read_results_csv(path_or_file) -> list[ExperimentRow]:
    if hasattr(path_or_file, "read"):
        return _read_csv(path_or_file)
    with open(path_or_file, "r", encoding="utf-8", newline="") as fh:
        return _read_csv(fh)


def _read_csv(fh) -> list[ExperimentRow]:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        rows.append(
            ExperimentRow(
                statistics_target=int(rec[0]),
                estimate=float(rec[1]),
                exact=float(rec[2]),
                error=float(rec[3]),
                est_time_us=float(rec[4]),
                build_time_us=float(rec[5]),
            )
        )
    return rows
