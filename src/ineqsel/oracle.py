"""Exact ground-truth counts for restriction and join predicates.

These are the reference values the estimators are judged against, so they
are computed from the data itself.  Both oracles count the same thing: the
pairs whose keys (value, offset) satisfy key_x <= key_y, with both sides
sorted and counted by ``_count_le``.  A scalar join puts each side's
values at one offset, a range join each bound at its open/closed offset,
and a restriction ``value <op> c`` is the join of the column with a
one-row column holding c.  Null rows (and empty ranges) never qualify but
still count toward the totals.
"""

from __future__ import annotations

import weakref
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


def _count_le(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> int:
    """Number of pairs (i, j) with key a_i <= key b_j; both oracles count here.

    A key (value, offset) compares value first.  Each side is two sorted
    arrays: its values at offset 0 and at offset 1.  A pair of arrays one of
    which is empty counts nothing and is not searched.
    """
    (a0, a1), (b0, b1) = a, b
    # at equal values only an offset-1 key a against an offset-0 key b fails
    searches = ((a0, b0, "right"), (a0, b1, "right"), (a1, b0, "left"), (a1, b1, "right"))
    return sum(int(np.searchsorted(keys, probes, side=side).sum())
               for keys, probes, side in searches if keys.size and probes.size)


def exact_restriction(values, c: float, op: ScalarOp) -> ExactCount:
    """Count non-null values satisfying ``value <op> c``: the join of the
    column with a one-row column holding c."""
    return exact_join(values, [c], op)


# x <op> y through the count of pairs with key_x <= key_y, y's keys at
# offset 0: the offset of x's keys, and whether x <op> y is the count's
# complement among the non-null pairs.
_SCALAR_KEYS = {
    ScalarOp.LT: (1, False),  # x < y   iff (x, 1) <= (y, 0)
    ScalarOp.LE: (0, False),  # x <= y  iff (x, 0) <= (y, 0)
    ScalarOp.GT: (0, True),   # x > y   iff not (x, 0) <= (y, 0)
    ScalarOp.GE: (1, True),   # x >= y  iff not (x, 1) <= (y, 0)
}


def exact_join(xs, ys, op: ScalarOp) -> ExactCount:
    """Count pairs (x, y) of non-null values with ``x <op> y``.

    Drops the nulls and sorts both sides, then counts the pairs with
    ``_count_le``, the count the range oracle shares: one ``searchsorted``
    of one sorted side into the other, so the whole count is
    O(N log N + M log M) rather than a pairwise loop.
    """
    x = as_float_column(xs)
    y = as_float_column(ys)
    if x.size == 0 or y.size == 0:
        raise ValueError("no data")
    if op not in _SCALAR_KEYS:
        raise ValueError(f"unsupported operator {op}")
    offset, complement = _SCALAR_KEYS[op]
    xv, yv = (np.sort(v[~np.isnan(v)]) for v in (x, y))
    empty = xv[:0]
    count = _count_le((empty, xv) if offset else (xv, empty), (yv, empty))
    if complement:
        count = xv.size * yv.size - count
    return ExactCount(count, int(x.size) * int(y.size))


# ---------------------------------------------------------------------------
# Range joins.  Bound comparisons must honor open/closed flags exactly: at
# the same value, a closed lower bound (offset 0) starts before an open one
# (offset 1), and an open upper bound (offset 0) ends before a closed one
# (offset 1).  Every entry of BOUND_INEQUALITY then becomes key_x <= key_y
# (for < and <=) or key_y <= key_x (for > and >=), which _count_le counts
# over each side's values sorted and split by offset.


def _keys(column: RangeColumn, bound: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values of one bound of the positioned rows, at offset 0 and at offset 1.

    A column's arrays are read-only, so each bound is sorted once per
    column: the read-only result is kept in the column's private memo,
    which neither equality nor slicing carries.
    """
    memo = vars(column).setdefault("_sorted_keys", {})
    if bound not in memo:
        positioned = column.positioned
        values = getattr(column, bound)[positioned]
        closed = getattr(column, f"{bound}_closed")[positioned]
        late = closed if bound == "upper" else ~closed
        keys = np.sort(values[~late]), np.sort(values[late])
        for k in keys:
            k.flags.writeable = False
        memo[bound] = keys
    return memo[bound]


def _pair_counts(xs: RangeColumn, ys: RangeColumn) -> dict[RangeOp, int]:
    """The bound-inequality counts made so far for the pair (xs, ys).

    They are kept in xs's private memo, beside its sorted keys, for the
    last ys counted against it.  A column defines ``__eq__`` and so cannot
    be hashed: the memo holds a weak reference to ys and checks identity,
    so it never keeps ys alive and no other column reads its counts.
    """
    memo = vars(xs)
    ref, counts = memo.get("_pair_counts", (None, None))
    if ref is None or ref() is not ys:
        counts = {}
        memo["_pair_counts"] = (weakref.ref(ys), counts)
    return counts


def _count_bound_inequality(xs: RangeColumn, ys: RangeColumn, op: RangeOp) -> int:
    counts = _pair_counts(xs, ys)
    if op not in counts:
        x_bound, scalar_op, y_bound = BOUND_INEQUALITY[op]
        x_keys, y_keys = _keys(xs, x_bound), _keys(ys, y_bound)
        if scalar_op in (ScalarOp.LT, ScalarOp.LE):
            counts[op] = _count_le(x_keys, y_keys)
        else:
            counts[op] = _count_le(y_keys, x_keys)
    return counts[op]


def exact_range_join(xs, ys, op: RangeOp) -> ExactCount:
    """Count pairs of non-null, non-empty ranges with ``x <op> y``.

    Either side is a RangeColumn or an iterable of RangeValue and None,
    which RangeColumn.from_values checks and normalizes.
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
        # each non-empty pair is strictly left, strictly right, or
        # overlapping; the two strict counts are reused when already made
        count = (
            nx * ny
            - _count_bound_inequality(xs, ys, RangeOp.STRICTLY_LEFT)
            - _count_bound_inequality(xs, ys, RangeOp.STRICTLY_RIGHT)
        )
    else:
        count = _count_bound_inequality(xs, ys, op)
    return ExactCount(int(count), total)
