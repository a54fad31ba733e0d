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
from .ranges import BOUND_INEQUALITY, RangeColumn


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
        mask = op.apply(data, c)
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
# each bound is a key (value, offset) compared value first: at the same
# value, a closed lower bound (offset 0) starts before an open one
# (offset 1), and an open upper bound (offset 0) ends before a closed one
# (offset 1).  Every entry of BOUND_INEQUALITY then becomes key_x <= key_y
# (for < and <=) or key_y <= key_x (for > and >=), which searchsorted
# counts over each side's values sorted and split by offset.


def _keys(column: RangeColumn, bound: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values of one bound of the positioned rows, at offset 0 and at offset 1."""
    positioned = column.positioned
    values = getattr(column, bound)[positioned]
    closed = getattr(column, f"{bound}_closed")[positioned]
    late = closed if bound == "upper" else ~closed
    return np.sort(values[~late]), np.sort(values[late])


def _count_le(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> int:
    """Number of pairs (i, j) with key a_i <= key b_j."""
    (a0, a1), (b0, b1) = a, b
    # at equal values only an offset-1 key a against an offset-0 key b fails
    return int(
        np.searchsorted(a0, b0, side="right").sum()
        + np.searchsorted(a0, b1, side="right").sum()
        + np.searchsorted(a1, b0, side="left").sum()
        + np.searchsorted(a1, b1, side="right").sum()
    )


def _count_bound_inequality(xs: RangeColumn, ys: RangeColumn, op: RangeOp) -> int:
    x_bound, scalar_op, y_bound = BOUND_INEQUALITY[op]
    x_keys, y_keys = _keys(xs, x_bound), _keys(ys, y_bound)
    if scalar_op in (ScalarOp.LT, ScalarOp.LE):
        return _count_le(x_keys, y_keys)
    return _count_le(y_keys, x_keys)


def exact_range_join(xs, ys, op: RangeOp) -> ExactCount:
    """Count pairs of non-null, non-empty ranges with ``x <op> y``.

    Either side is a RangeColumn or an iterable of RangeValue and None.
    """
    xs, ys = RangeColumn.from_values(xs), RangeColumn.from_values(ys)
    if not len(xs) or not len(ys):
        raise ValueError("no data")
    if op is not RangeOp.OVERLAPS and op not in BOUND_INEQUALITY:
        raise ValueError(f"unsupported operator {op}")
    total = len(xs) * len(ys)
    nx, ny = int(xs.positioned.sum()), int(ys.positioned.sum())
    if not nx or not ny:
        return ExactCount(0, total)

    if op is RangeOp.OVERLAPS:
        # each non-empty pair is strictly left, strictly right, or overlapping
        count = (
            nx * ny
            - _count_bound_inequality(xs, ys, RangeOp.STRICTLY_LEFT)
            - _count_bound_inequality(xs, ys, RangeOp.STRICTLY_RIGHT)
        )
    else:
        count = _count_bound_inequality(xs, ys, op)
    return ExactCount(int(count), total)
