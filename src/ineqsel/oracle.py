"""Exact ground-truth counts for join predicates.

These are the reference values the estimators are judged against, so they
are computed from the data itself.  Both oracles orient a comparison by
one rule: GT and GE swap the sides, x > y is y < x and x >= y is y <= x.
(The estimator's GE stays 1 - LT instead, so that its LT + GE is exact.)
Then both count the pairs whose keys (value, offset) satisfy
key_a <= key_b, with both sides sorted.  A scalar join puts each side's
values at one offset, so one ``searchsorted`` of one side into the other
counts it; a range join puts each bound at its open/closed offset, and
``_count_le`` counts its keys with one stable merge of the sorted runs.  A
range pair's five operators are counted together, and the counts of the
last pair are kept for its next operator.  A restriction ``value <op> c``
is the join ``exact_join(values, [c], op)``.  Null rows (and empty ranges)
never qualify but still count toward the totals.

Each call counts on two CPUs.  Its independent halves (the two sides' sorts,
the two halves of the search, two merges beside the other two) run one on
a helper thread and one on the calling thread.  They spend their time in
``np.sort``, ``np.argsort``, ``np.searchsorted`` and numpy's element-wise
passes, which release the GIL, so the halves overlap.  A split that leaves
a half nothing to do runs inline: a side of one value needs no sort, and
a search into or of one value no split, so a restriction starts no
thread.  Both halves
also run inline when no thread can start (at interpreter shutdown, or at
the process's thread limit).  The helper is joined before the call
returns, even when either half raises, so no thread outlives a call and
``fork`` and interpreter exit behave as they would without it; an
exception raised on the helper is raised again in the caller.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ._util import as_column
from .operators import RangeOp, ScalarOp
from .ranges import BOUND_INEQUALITY, RangeColumn, _require_column


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


def _beside(helper, caller, split: bool = True):
    """(helper(), caller()), helper run on a new thread while caller runs
    on this one.

    Both run here when ``split`` is false (a half has nothing to do) or
    when no thread can start.  The thread is joined before this returns,
    whichever raised, and an exception raised by helper is raised again
    here.
    """
    if not split:
        return helper(), caller()
    outcome = {}

    def run():
        try:
            outcome["result"] = helper()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, name="ineqsel-oracle")
    try:
        thread.start()
    except RuntimeError:
        # at interpreter shutdown, or at the process's thread limit
        return helper(), caller()
    try:
        mine = caller()
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"], mine


def _count_le(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> int:
    """Number of pairs (i, j) with key a_i <= key b_j.

    A key (value, offset) compares value first.  Each side is two sorted
    arrays: its values at offset 0 and at offset 1.  One stable sort of the
    runs laid end to end as (a0, b0, a1, b1) merges them in key order,
    because ties keep run order and run order is key order, an a key before
    an equal b key.  Of the p keys before the b key at merged position p,
    as many as its rank among b's keys are b's and the rest are the a keys
    at most it; the ranks sum to nb(nb - 1)/2, so the count is the sum of
    b's merged positions less that.
    """
    (a0, a1), (b0, b1) = a, b
    order = np.argsort(np.concatenate((a0, b0, a1, b1)), kind="stable")
    b0_end = a0.size + b0.size
    from_b = ((order >= a0.size) & (order < b0_end)) | (order >= b0_end + a1.size)
    nb = b0.size + b1.size
    return int(np.flatnonzero(from_b).sum()) - nb * (nb - 1) // 2


def _oriented(op: ScalarOp, x, y):
    """(x, y), or (y, x) for GT and GE: x > y is y < x, x >= y is y <= x."""
    return (y, x) if op in (ScalarOp.GT, ScalarOp.GE) else (x, y)


def _sorted_values(v: np.ndarray) -> np.ndarray:
    """The non-null values of v, sorted: one sorted copy of v, its tail of
    NaNs sliced off.  ``np.sort`` puts a NaN of every bit pattern (sign,
    payload, signalling or quiet) after every number, and ``searchsorted``
    finds the first of them by the same order."""
    s = np.sort(v)
    return s[:np.searchsorted(s, np.nan)]


# Keys of b searched in a per window: few enough that a's stretch between a
# window's first and last key stays in cache, many enough that the Python
# loop over windows costs little beside the searches.
_WINDOW = 4096


def _search_sum(a: np.ndarray, keys: np.ndarray, side: str) -> int:
    """``np.searchsorted(a, keys, side).sum()`` of sorted a and sorted keys.

    The keys are searched ``_WINDOW`` at a time, each window in the stretch
    ``a[start:end]`` between a's positions of its first and last key on the
    same side.  That is exact: the positions grow with the key, so every
    key of the window lands in [start, end], and the a values before start
    and from end on compare with each of its keys as with the first and
    last key; so each position is start plus the key's position in the
    stretch.
    """
    total = 0
    for first in range(0, keys.size, _WINDOW):
        window = keys[first:first + _WINDOW]
        start, end = np.searchsorted(a, window[[0, -1]], side=side)
        total += int(np.searchsorted(a[start:end], window, side=side).sum())
        total += int(start) * window.size
    return total


def exact_join(xs, ys, op: ScalarOp) -> ExactCount:
    """Count pairs (x, y) of non-null values with ``x <op> y``.

    Sorts both sides, drops their nulls and orients them as (a, b).  a < b
    is (a, 1) <= (b, 0) and a <= b is (a, 0) <= (b, 0), so one
    ``searchsorted`` of b into a, on its left or right side, counts the
    pairs in O(N log N + M log M) rather than with a pairwise loop.  With
    one run of keys a side, the search is faster than ``_count_le``'s merge
    and needs no temporaries the size of both sides.

    A NaN of every bit pattern sorts after every number, so a side's nulls
    are the tail of its one sorted copy and are sliced off, not masked out
    and gathered.  b's sorted keys are searched window by window
    (``_search_sum``), each window only in the stretch of a between the
    positions of its first and last key; every position lies in that
    stretch, so the sum is the whole-array search's.

    The two sides' sorts run side by side, one on a helper thread, and so
    do the searches of b's two halves, split at its midpoint, whose sums
    are added.  ``np.sort`` and ``np.searchsorted`` release the GIL, so the
    halves overlap on two CPUs.  A side of one value needs no sort, and a
    search into or of one value no split, so those run inline and a
    restriction starts no thread.  The helper is joined before the call
    returns, so no thread outlives it.
    """
    x = as_column(xs)
    y = as_column(ys)
    if x.size == 0 or y.size == 0:
        raise ValueError("no data")
    if not isinstance(op, ScalarOp):
        raise ValueError(f"unsupported operator {op}")
    a, b = _oriented(op, *_beside(lambda: _sorted_values(x), lambda: _sorted_values(y),
                                  split=min(x.size, y.size) > 1))
    side = "right" if op in (ScalarOp.LE, ScalarOp.GE) else "left"
    mid = b.size // 2
    counts = _beside(lambda: _search_sum(a, b[:mid], side),
                     lambda: _search_sum(a, b[mid:], side),
                     split=min(a.size, b.size) > 1)
    return ExactCount(sum(counts), int(x.size) * int(y.size))


# ---------------------------------------------------------------------------
# Range joins.  A bound's key is its end in the bound order of the ranges
# module, (value, nudge), with the nudge shifted up by one on upper bounds:
# every offset is then 0 or 1, and an upper end below a lower end is an
# upper key at most the lower key.  Every entry of BOUND_INEQUALITY,
# oriented as a scalar comparison is, becomes key_a <= key_b, which
# _count_le counts over each side's values sorted and split by offset.


def _keys(column: RangeColumn, bound: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values of one bound of the positioned rows, at offset 0 and at
    offset 1: the nudges of the bound order, shifted up by one on upper bounds."""
    positioned = column.positioned
    values = getattr(column, bound)[positioned]
    closed = getattr(column, f"{bound}_closed")[positioned]
    late = closed if bound == "upper" else ~closed
    return np.sort(values.compress(~late)), np.sort(values.compress(late))


def _bound_keys(column: RangeColumn) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {bound: _keys(column, bound) for bound in ("lower", "upper")}


def _range_counts(xs: RangeColumn, ys: RangeColumn) -> dict[RangeOp, int]:
    """The count of every range operator for the pair (xs, ys).

    Each side's bound keys are built once, x's beside y's, and each bound
    inequality is one ``_count_le``, two of them beside the other two; both
    run inline when a side holds one row.  Each positioned pair is strictly
    left, strictly right or overlapping, so overlaps is the rest of the
    positioned pairs.
    """
    split = min(len(xs), len(ys)) > 1
    x_keys, y_keys = _beside(lambda: _bound_keys(xs), lambda: _bound_keys(ys), split=split)

    def count(inequalities):
        return {op: _count_le(*_oriented(scalar_op, x_keys[x_bound], y_keys[y_bound]))
                for op, (x_bound, scalar_op, y_bound) in inequalities}

    inequalities = list(BOUND_INEQUALITY.items())
    first, second = _beside(lambda: count(inequalities[:2]), lambda: count(inequalities[2:]),
                            split=split)
    counts = first | second
    nx, ny = (sum(k.size for k in keys["lower"]) for keys in (x_keys, y_keys))
    strict = counts[RangeOp.STRICTLY_LEFT] + counts[RangeOp.STRICTLY_RIGHT]
    counts[RangeOp.OVERLAPS] = nx * ny - strict
    return counts


# The last pair counted, as (weakref(xs), weakref(ys), counts): asking for
# each operator of one pair in turn counts the pair once.  The weak
# references keep neither column alive, and a freed column's reference
# reads None, so a later column never reads its counts.  A call reads the
# slot once and replaces it whole, so calls from several threads never mix
# two pairs' counts.
_last_pair = None


def exact_range_join(xs: RangeColumn, ys: RangeColumn, op: RangeOp) -> ExactCount:
    """Count pairs of non-null, non-empty ranges with ``x <op> y``."""
    global _last_pair
    _require_column(xs)
    _require_column(ys)
    if not len(xs) or not len(ys):
        raise ValueError("no data")
    if not isinstance(op, RangeOp):
        raise ValueError(f"unsupported operator {op}")
    slot = _last_pair
    if slot is None or slot[0]() is not xs or slot[1]() is not ys:
        slot = _last_pair = (weakref.ref(xs), weakref.ref(ys), _range_counts(xs, ys))
    return ExactCount(slot[2][op], len(xs) * len(ys))
