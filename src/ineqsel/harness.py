"""Experiment harness: dataset generation, the per-kind dispatch table, and
the error-versus-resolution sweep.

Column files are read and written by the columnfile module; its four
read_*/write_*_column functions are this module's names for them.  The
sweep rebuilds statistics at each requested target, estimates the join
selectivity, and compares against the exact oracle (computed once), so the
resulting CSV traces how estimation error shrinks as histograms grow.
"""

from __future__ import annotations

import csv
import math
import time
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from ._util import naming
from .columnfile import (
    read_range_column, read_scalar_column, write_range_column, write_scalar_column,
)
from .estimator import join_selectivity
from .operators import RangeOp, ScalarOp
from .oracle import exact_join, exact_range_join
from .ranges import (
    RangeColumn,
    RangeStats,
    analyze_range_column,
    range_join_selectivity,
    save_range_stats,
)
from .stats import AttributeStats, _require_integer, _require_target, analyze_column, save_stats

SCALAR_KINDS = ("uniform-int", "skewed-int", "running-example-r1", "running-example-r2")
RANGE_KINDS = ("ranges-mixed",)
DATASET_KINDS = SCALAR_KINDS + RANGE_KINDS

RUNNING_EXAMPLE_R1 = (10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45)
RUNNING_EXAMPLE_R2 = (15, 16, 17, 20, 30, 35, 38, 39, 40, 42, 45, 50)

DOMAIN_MAX = 10**6

# Shares of null, empty and infinite-bound rows in a generated range column
NULL_FRAC = 0.01
EMPTY_FRAC = 0.01
INF_FRAC = 0.01


def _rows_and_seed(rows, seed) -> tuple[int, int]:
    """rows and seed as Python ints, checked by the library's integer rule
    (a Python or numpy integer, never a bool): rows at least 1, seed at
    least 0."""
    _require_integer(rows, "rows")
    _require_integer(seed, "seed")
    if rows < 1:
        raise ValueError("rows must be at least 1")
    if seed < 0:
        raise ValueError("seed must be at least 0")
    return int(rows), int(seed)


def generate_scalar_column(kind: str, rows: int, seed: int) -> np.ndarray:
    """Deterministic scalar column for the given kind and seed.  The running
    examples are fixed columns and read neither rows nor seed."""
    if kind == "running-example-r1":
        return np.array(RUNNING_EXAMPLE_R1, dtype=np.float64)
    if kind == "running-example-r2":
        return np.array(RUNNING_EXAMPLE_R2, dtype=np.float64)
    rows, seed = _rows_and_seed(rows, seed)
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


def _row_starts(d: np.ndarray, rows: int) -> np.ndarray:
    """The offsets in the stream ``d`` at which the first ``rows`` rows start.

    A row that starts at offset o takes 7 doubles, unless d[o] makes it
    null or empty (1 double) or d[o + 6] gives it an infinite bound (8).
    Between two such odd rows the starts step by 7 and stay on one lane,
    the offsets 7k + r of one residue r.  Each lane's odd offsets are
    listed by k, so one bisection finds where a run of starts ends, and
    the runs are filled as arithmetic progressions: the loop takes one
    step per odd row, not per row.
    """
    blank = d[:-7] < NULL_FRAC + EMPTY_FRAC
    odd = blank | (d[6:-1] < INF_FRAC)
    lanes = []      # per lane: the k of its odd offsets, and the doubles each row takes
    for r in range(7):
        k = np.flatnonzero(odd[r::7])
        lanes.append((k.tolist(), np.where(blank[r::7][k], 1, 8).tolist()))
    firsts, runs = [], []   # each run's first offset and its number of rows
    at, left = 0, rows
    while left:
        k, r = divmod(at, 7)
        ks, takes = lanes[r]
        i = bisect_left(ks, k)
        # the run ends at its lane's next odd row, if that comes in time
        n = min(left, ks[i] - k + 1) if i < len(ks) else left
        firsts.append(at)
        runs.append(n)
        left -= n
        if left:
            at = 7 * ks[i] + r + takes[i]
    # the row j rows into a run lies 7 * j doubles past the run's first
    runs = np.array(runs)
    base = np.array(firsts) - 7 * (np.cumsum(runs) - runs)
    return np.repeat(base, runs) + 7 * np.arange(rows)


def generate_range_column(rows: int, seed: int) -> RangeColumn:
    """Deterministic mixed range column: short/medium/long widths in a
    60/30/10 ratio over [0, 10^6], plus empty, null and infinite-bound rows.

    Row by row, the column is drawn from one stream of uniform doubles: a
    row takes one double to decide null / empty / positioned, and a
    positioned row takes six more (width class, width, start, the two
    closed flags, infinite or not) and, when a bound is infinite, one more
    for which.  The stream is drawn as one block, and the rows' offsets in
    it are found run by run (_row_starts): the rows between two null,
    empty or infinite-bound rows start 7 doubles apart.
    """
    rows, seed = _rows_and_seed(rows, seed)
    d = np.random.default_rng(seed).random(8 * rows)
    p = _row_starts(d, rows)
    u = d[p]
    # class 0, 1 or 2 as the double is below 0.6, below 0.9 or neither
    pick = d[p + 1]
    width_class = (pick >= 0.6).astype(np.intp) + (pick >= 0.9)
    lo = np.array([1.0, 100.0, 10_000.0])[width_class]
    hi = np.array([100.0, 10_000.0, 200_000.0])[width_class]
    width = lo + (hi - lo) * d[p + 2]
    start = (DOMAIN_MAX - width) * d[p + 3]
    lower = np.floor(start)
    upper = np.floor(start + width) + 1.0
    infinite = d[p + 6] < INF_FRAC
    side = d[p + 7] < 0.5
    lower[infinite & side] = -math.inf
    upper[infinite & ~side] = math.inf
    null = u < NULL_FRAC
    return RangeColumn(lower, upper, d[p + 4] < 0.5, d[p + 5] < 0.5, null,
                       ~null & (u < NULL_FRAC + EMPTY_FRAC))


@dataclass(frozen=True)
class ColumnKind:
    """How one kind of column, scalar or range, is read, analyzed, saved,
    estimated and counted.  Its statistics documents are stats_type's
    fields, which ``_util.from_doc`` reads."""

    name: str
    stats_type: type
    read: Callable
    analyze: Callable
    save: Callable
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
    estimate=lambda sx, sy, op: join_selectivity(sx, sy, op),
    oracle=lambda xs, ys, op: exact_join(xs, ys, op),
)
RANGE = ColumnKind(
    "range", RangeStats,
    read=lambda path: read_range_column(path),
    analyze=lambda *args: analyze_range_column(*args),
    save=lambda s: save_range_stats(s),
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


def run_sweep(file_x, file_y, op: ScalarOp | RangeOp, targets) -> list[ExperimentRow]:
    """Estimate-vs-oracle comparison for every statistics target.

    Statistics are built from the full columns (no sampling, so no sample
    seed) so the error column isolates estimator error from sampling noise.
    Each target is an integer of at least 1, checked as ANALYZE checks it
    before any column is analyzed, and a repeated target runs once.  An
    error ANALYZE raises on a column's data names the column's file.
    """
    targets = list(targets)
    for t in targets:
        _require_target(t)
    targets = sorted(set(map(int, targets)))
    if not targets:
        raise ValueError("no statistics targets given")

    kind = kind_of(op)
    xs, ys = kind.read(file_x), kind.read(file_y)
    exact = kind.oracle(xs, ys, op)

    def analyze(path, column, target):
        with naming(path):
            return kind.analyze(column, target, 0, len(column))

    rows = []
    for target in targets:
        (sx, sy), build_us = _timed(lambda: (analyze(file_x, xs, target),
                                             analyze(file_y, ys, target)))
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


def write_results_csv(rows, path) -> None:
    # one column per ExperimentRow field, a float one (by its annotation,
    # a string here) at full (round-trip) precision
    columns = fields(ExperimentRow)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in columns)
        for r in rows:
            writer.writerow(repr(float(getattr(r, f.name))) if f.type == "float"
                            else getattr(r, f.name) for f in columns)
