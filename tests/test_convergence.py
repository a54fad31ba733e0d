"""Every operator's estimate converges to the exact count.

Statistics are built over the full 20000-row columns at target 1000, so
what error remains comes from the estimator's model, not from sampling or
coarse bins.  A wrong reduction of an operator (the wrong inequality, or
infinite bounds dropped) leaves an error that no resolution removes.
"""

import pytest

from ineqsel import (
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    exact_range_join,
    generate_range_column,
    generate_scalar_column,
    join_selectivity,
    range_join_selectivity,
)

ROWS = 20000
TARGET = 1000
SCALAR_TOL = 3e-5
RANGE_TOL = 5e-6


@pytest.fixture(scope="module", params=["uniform-int", "skewed-int"])
def scalar_columns(request):
    xs = generate_scalar_column(request.param, ROWS, 1)
    ys = generate_scalar_column(request.param, ROWS, 2)
    sx = analyze_column(xs, TARGET, sample_cap=ROWS)
    sy = analyze_column(ys, TARGET, sample_cap=ROWS)
    return xs, ys, sx, sy


@pytest.fixture(scope="module")
def range_columns():
    xs = generate_range_column(ROWS, 1)
    ys = generate_range_column(ROWS, 2)
    sx = analyze_range_column(xs, TARGET, sample_cap=ROWS)
    sy = analyze_range_column(ys, TARGET, sample_cap=ROWS)
    return xs, ys, sx, sy


@pytest.mark.parametrize("op", [ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE])
def test_scalar_estimate_converges(scalar_columns, op):
    xs, ys, sx, sy = scalar_columns
    exact = exact_join(xs, ys, op).selectivity
    assert abs(join_selectivity(sx, sy, op) - exact) <= SCALAR_TOL


@pytest.mark.parametrize("op", list(RangeOp))
def test_range_estimate_converges(range_columns, op):
    xs, ys, sx, sy = range_columns
    exact = exact_range_join(xs, ys, op).selectivity
    assert abs(range_join_selectivity(sx, sy, op) - exact) <= RANGE_TOL
