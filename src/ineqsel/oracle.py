"""Exact ground-truth counts for restriction and join predicates.

These are the reference values the estimators are judged against, so they
are computed from the data itself: restriction counts by direct filtering,
join counts by sorting one side and accumulating ranks, which keeps even
the 20000 x 20000 experiment instantaneous.  Null rows (and empty ranges)
never qualify but still count toward the totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_float_column
from .operators import RangeOp, ScalarOp
from .ranges import BOUND_INEQUALITY, RangeValue


@dataclass(frozen=True)
class ExactCount:
    qualifying: int
    total: int

    def __post_init__(self):
        if self.total <= 0:
            raise ValueError("total must be positive")
        if not 0 <= self.qualifying <= self.total:
            raise ValueError("qualifying out of range")

    @property
    def selectivity(self) -> float:
        return self.qualifying / self.total


def exact_restriction(values, c: float, op: ScalarOp) -> ExactCount:
    """Count non-null values satisfying ``value <op> c``."""
    data = as_float_column(values)
    if data.size == 0:
        raise ValueError("no data")
    with np.errstate(invalid="ignore"):
        if op is ScalarOp.LT:
            mask = data < c
        elif op is ScalarOp.LE:
            mask = data <= c
        elif op is ScalarOp.GT:
            mask = data > c
        elif op is ScalarOp.GE:
            mask = data >= c
        else:
            mask = data == c
    return ExactCount(int(mask.sum()), int(data.size))


def exact_join(xs, ys, op: ScalarOp) -> ExactCount:
    """Count pairs (x, y) of non-null values with ``x <op> y``.

    Sorts the x side once; each y then contributes its rank, so the whole
    count is O((N + M) log N) rather than a pairwise loop.
    """
    x = as_float_column(xs)
    y = as_float_column(ys)
    if x.size == 0 or y.size == 0:
        raise ValueError("no data")
    total = int(x.size) * int(y.size)
    xs_sorted = np.sort(x[~np.isnan(x)])
    yv = y[~np.isnan(y)]
    n = xs_sorted.size
    if n == 0 or yv.size == 0:
        return ExactCount(0, total)
    lo = np.searchsorted(xs_sorted, yv, side="left")
    hi = np.searchsorted(xs_sorted, yv, side="right")
    if op is ScalarOp.LT:
        count = lo.sum()          # x < y
    elif op is ScalarOp.LE:
        count = hi.sum()          # x <= y
    elif op is ScalarOp.GT:
        count = (n - hi).sum()    # x > y
    elif op is ScalarOp.GE:
        count = (n - lo).sum()    # x >= y
    else:
        count = (hi - lo).sum()   # x == y
    return ExactCount(int(count), total)


# ---------------------------------------------------------------------------
# Range joins.  Bound comparisons must honor open/closed flags exactly, so
# each bound is encoded as an even/odd integer cut over the ranked bound
# values: at the same value, a closed lower bound starts before an open
# one, and an open upper bound ends before a closed one.  Every entry of
# BOUND_INEQUALITY then becomes cut_x <= cut_y (for < and <=) or
# cut_y <= cut_x (for > and >=), a plain integer comparison that
# searchsorted can count.


def _bound(ranges: list[RangeValue], bound: str) -> tuple[np.ndarray, np.ndarray]:
    """The values of one bound ("lower" or "upper") and their closed flags."""
    if bound == "lower":
        return np.array([r.lower for r in ranges]), np.array([r.lower_closed for r in ranges])
    return np.array([r.upper for r in ranges]), np.array([r.upper_closed for r in ranges])


def _cuts(bound: str, values: np.ndarray, closed: np.ndarray, grid: np.ndarray) -> np.ndarray:
    offset = closed if bound == "upper" else ~closed
    return 2 * np.searchsorted(grid, values, side="left") + offset


def _count_le(a: np.ndarray, b: np.ndarray) -> int:
    """Number of pairs (i, j) with a[i] <= b[j]."""
    b_sorted = np.sort(b)
    below = np.searchsorted(b_sorted, a, side="left")  # per a[i]: #{b < a[i]}
    return int((b_sorted.size - below).sum())


def _count_bound_inequality(xs: list[RangeValue], ys: list[RangeValue], op: RangeOp) -> int:
    x_bound, scalar_op, y_bound = BOUND_INEQUALITY[op]
    x_values, x_closed = _bound(xs, x_bound)
    y_values, y_closed = _bound(ys, y_bound)
    grid = np.unique(np.concatenate((x_values, y_values)))
    x_cut = _cuts(x_bound, x_values, x_closed, grid)
    y_cut = _cuts(y_bound, y_values, y_closed, grid)
    if scalar_op in (ScalarOp.LT, ScalarOp.LE):
        return _count_le(x_cut, y_cut)
    return _count_le(y_cut, x_cut)


def exact_range_join(xs, ys, op: RangeOp) -> ExactCount:
    """Count pairs of non-null, non-empty ranges with ``x <op> y``."""
    xs = list(xs)
    ys = list(ys)
    if not xs or not ys:
        raise ValueError("no data")
    if op is not RangeOp.OVERLAPS and op not in BOUND_INEQUALITY:
        raise ValueError(f"unsupported operator {op}")
    total = len(xs) * len(ys)
    xv = [r for r in xs if r is not None and not r.empty]
    yv = [r for r in ys if r is not None and not r.empty]
    if not xv or not yv:
        return ExactCount(0, total)

    if op is RangeOp.OVERLAPS:
        # each non-empty pair is strictly left, strictly right, or overlapping
        count = (
            len(xv) * len(yv)
            - _count_bound_inequality(xv, yv, RangeOp.STRICTLY_LEFT)
            - _count_bound_inequality(xv, yv, RangeOp.STRICTLY_RIGHT)
        )
    else:
        count = _count_bound_inequality(xv, yv, op)
    return ExactCount(int(count), total)
