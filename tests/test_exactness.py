"""Convergence is exactness: at complete statistics every estimate equals
the exact count.

Complete statistics are built from the whole column (no sampling) at a
statistics target at or above its distinct count, so nothing is left for
the model to guess: each estimate must equal the oracle within 1e-12.
The columns are small and seeded.  The layouts the estimator does not get
exact yet are strict xfails whose reason names the ROADMAP item that mends
them, so a mended case fails here until its mark goes.
"""

import functools

import numpy as np
import pytest

from ineqsel import (
    RangeColumn,
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    exact_range_join,
    join_selectivity,
    range_join_selectivity,
)

TOL = 1e-12
RANGE_DOMAIN = 50

FLAGS_DROPPED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 5: range bound statistics drop the open/closed flags")
SEEN_ONCE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8: values seen once stay in the histogram")
REPEATED_RESIDUAL = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 8: a residual's repeated values tie with no equality mass")


def scalar_column(rows: int, values: int, seed: int, null_share: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    column = rng.integers(0, values, rows).astype(float)
    column[rng.random(rows) < null_share] = np.nan
    return column


def range_column(flags: str, seed: int, rows: int = 2000) -> RangeColumn:
    """Ranges over a RANGE_DOMAIN-value domain with null, empty and
    infinite-bound rows; ``flags`` is "[]", "[)", "(]", "()" or "mixed", or
    "spread": closed ranges whose bounds are the smaller and larger of two
    draws, so each bound's extreme values are rare and some are seen once."""
    rng = np.random.default_rng(seed)
    if flags == "spread":
        lower, upper = np.sort(rng.integers(0, RANGE_DOMAIN, (2, rows)), axis=0).astype(float)
        flags = "[]"
    else:
        # every bound value is seen many times, so the MCV lists hold them all
        lower = rng.integers(0, RANGE_DOMAIN, rows).astype(float)
        upper = np.minimum(lower + rng.integers(0, 6, rows), RANGE_DOMAIN - 1)
    lower[rng.random(rows) < 0.05] = -np.inf
    upper[rng.random(rows) < 0.05] = np.inf
    if flags == "mixed":
        lower_closed, upper_closed = rng.random((2, rows)) < 0.5
    else:
        lower_closed = np.full(rows, flags[0] == "[")
        upper_closed = np.full(rows, flags[1] == "]")
    null, empty = rng.random((2, rows)) < [[0.1], [0.05]]
    return RangeColumn(lower, upper, lower_closed, upper_closed, null, empty)


# layout -> (rows, distinct values, statistics target, null share)
SCALAR_LAYOUTS = {
    "repeated": (5000, 200, 200, 0.0),
    "repeated-nulls": (5000, 200, 200, 0.1),
    "seen-once": (3000, 2000, 3000, 0.0),
}


@functools.cache
def scalar_pair(layout: str):
    rows, values, target, null_share = SCALAR_LAYOUTS[layout]
    xs, ys = (scalar_column(rows, values, seed, null_share) for seed in (1, 2))
    return xs, ys, analyze_column(xs, target, 0, rows), analyze_column(ys, target, 0, rows)


def blanked(column: RangeColumn, layout: str) -> RangeColumn:
    """``column`` with every lower or every upper bound infinite, or with
    no positioned row (every row null or empty)."""
    lower, upper, empty = column.lower.copy(), column.upper.copy(), column.empty
    if layout == "lower-infinite":
        lower[:] = -np.inf
    elif layout == "upper-infinite":
        upper[:] = np.inf
    else:
        empty = ~column.null
    return RangeColumn(lower, upper, column.lower_closed, column.upper_closed, column.null, empty)


@functools.cache
def range_pair(flags: str, seeds: tuple[int, int], blank: tuple[str, str] = ("", "")):
    xs, ys = (range_column(flags, seed) for seed in seeds)
    xs, ys = (blanked(c, layout) if layout else c for c, layout in zip((xs, ys), blank))
    # each bound takes at most RANGE_DOMAIN values
    return xs, ys, *(analyze_range_column(c, RANGE_DOMAIN, 0, len(c)) for c in (xs, ys))


def scalar_cases():
    for layout in SCALAR_LAYOUTS:
        for op in ScalarOp:
            marks = SEEN_ONCE if layout == "seen-once" else ()
            yield pytest.param(layout, op, marks=marks, id=f"{layout}-{op.value}")


FLAG_LAYOUTS = {"[]": "closed", "[)": "closed-open", "(]": "open-closed", "()": "open",
                "mixed": "mixed"}
# one side of a closed pair whose bound statistics are all null at one bound
# or at both: an infinite bound is a null of its bound's statistics
BLANK_LAYOUTS = ("lower-infinite", "upper-infinite", "no-positioned-row")


def range_cases():
    # one flag on every bound leaves the no-extend cases exact: both sides'
    # bounds compared there carry the same flag
    for flags, name in FLAG_LAYOUTS.items():
        for op in RangeOp:
            off = flags == "mixed" or flags != "[]" and op in (
                RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT, RangeOp.OVERLAPS)
            yield pytest.param(flags, (1, 2), ("", ""), op, marks=FLAGS_DROPPED if off else (),
                               id=f"{name}-{op.value}")
    for layout in BLANK_LAYOUTS:
        for side, blank in (("x", (layout, "")), ("y", ("", layout))):
            for op in RangeOp:
                yield pytest.param("[]", (1, 2), blank, op, id=f"{side}-{layout}-{op.value}")
    # only the first pair's no-extend-left is exact: every other case meets
    # a bound value seen once
    for seeds in ((1, 2), (3, 4)):
        for op in RangeOp:
            off = seeds != (1, 2) or op is not RangeOp.NO_EXTEND_LEFT
            yield pytest.param("spread", seeds, ("", ""), op, marks=SEEN_ONCE if off else (),
                               id=f"spread-{seeds[0]}-{seeds[1]}-{op.value}")


@pytest.mark.parametrize("layout,op", scalar_cases())
def test_scalar_exact_at_complete_statistics(layout, op):
    xs, ys, sx, sy = scalar_pair(layout)
    assert abs(join_selectivity(sx, sy, op) - exact_join(xs, ys, op).selectivity) <= TOL


@pytest.mark.parametrize("flags,seeds,blank,op", range_cases())
def test_range_exact_at_complete_statistics(flags, seeds, blank, op):
    xs, ys, sx, sy = range_pair(flags, seeds, blank)
    assert abs(range_join_selectivity(sx, sy, op) - exact_range_join(xs, ys, op).selectivity) <= TOL


@REPEATED_RESIDUAL
def test_scalar_exact_with_a_repeating_residual():
    # uniform integers whose values outnumber the target, so the residual
    # histogram holds values that repeat: a domain of rows/10 at target 100,
    # and at target 1000, which the MCV list would cover at rows/10, a
    # domain of 2000; every case is off by 1e-4 to 1e-3 until item 8 lands
    rows = 5000
    for values, target in ((rows // 10, 100), (2000, 1000)):
        xs, ys = (scalar_column(rows, values, seed, 0.0) for seed in (1, 2))
        sx, sy = (analyze_column(c, target, 0, rows) for c in (xs, ys))
        for op in ScalarOp:
            error = join_selectivity(sx, sy, op) - exact_join(xs, ys, op).selectivity
            assert abs(error) <= TOL, (values, target, op)
