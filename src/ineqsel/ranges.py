"""Range columns, bound statistics, and range-operator selectivity.

A range column is a RangeColumn, six numpy arrays whose constructor is the
one place a range is checked and normalized; it reads each field by the
input rule every array obeys, _util.as_column.  The constructor is the one
way into a column: the generator, the file reader and a caller with arrays
all go through it.  Rows come out by iteration, each a RangeValue, a plain
record of one row's fields, or None for a null.  Every range entry point
(analyze_range_column, the oracle, the column writer) takes a RangeColumn.

A range attribute is summarized by fractions for nulls and empty ranges
and two scalar statistics objects, one per bound of the positioned rows
(neither null nor empty), which count an infinite bound as a null: like
PostgreSQL's ``compute_range_stats``, it keeps no infinite fraction.
Each positional operator reduces to a scalar inequality between one bound
of each side (the table BOUND_INEQUALITY, which the estimator and the
exact oracle both read), so the scalar join estimator does the real work:

* X strictly left of Y   ->  X.upper <  Y.lower
* X strictly right of Y  ->  X.lower >  Y.upper
* X no-extend-right of Y ->  X.upper <= Y.upper
* X no-extend-left of Y  ->  X.lower >= Y.lower
* X overlaps Y           ->  the positioned pairs less the two strict cases

An infinite bound is open and lies beyond every finite bound on its side,
so the operator alone fixes how it compares: never in a strict case, and
in a no-extend case Y's infinite bound holds against every bound of X.
The scalar estimator's null factor leaves all of those pairs out.

Bounds compare in one order, as ``range_cmp_bounds`` in PostgreSQL's
``src/backend/utils/adt/rangetypes.c`` orders them: a bound is an end
(value, nudge), compared as a tuple, whose nudge is +1 for an open lower
bound, -1 for an open upper bound and 0 for a closed bound, so an open
bound lies just inside its value.  Each inequality above holds between
ends, and a range whose lower end lies above its upper end (coinciding
bounds not both closed) is empty.

Containment cannot be derived this way: it ties a range's own bounds
together, which the two independent bound histograms cannot express, so it
is rejected rather than guessed.

Empty ranges have no position, so they satisfy none of the operators, on
either side; their share is tracked and factored out, like nulls.

A statistics document is RangeStats' fields, with the bound statistics as
nested documents: _util.write_doc, the one writer of both document kinds,
writes them, in the bytes ``json.dumps`` writes for them, and from_doc
reads them, checking each against its declared type.

parse_range reads one range literal into the six column fields,
unnormalized; whole range files are read and written by the columnfile
module.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import ArrayFields, as_column, clamp01, from_doc, parse_json, store_fraction, write_doc
from .estimator import join_selectivity
from .mcv import EMPTY_MCV
from .operators import RangeOp, ScalarOp
from .stats import AttributeStats, analyze_column, sample_rows


class RangeValue(NamedTuple):
    """One row of a RangeColumn, as iteration yields it: an interval over a
    totally ordered domain.  A plain record, normalized by the column."""

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool
    empty: bool = False


_COLUMN_FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "null", "empty")


@dataclass(frozen=True, eq=False)
class RangeColumn(ArrayFields):
    """A column of nullable ranges as six parallel numpy arrays.

    The constructor is the one place a range is checked and normalized.
    It rejects a NaN bound and bounds out of order (a lower bound of +inf,
    an upper bound of -inf, or lower above upper) in the rows that are
    neither null nor empty.  Then infinite bounds are open, a range whose
    bounds coincide without both being closed is empty, and null and empty
    rows hold bounds 0.0 with both flags false.  A row is never both null
    and empty.  Each field is read by the input rule of a scalar column,
    the bounds as float64 and the flags as bool by numpy's truth rule, and
    its error is prefixed with the field's name.  The arrays are read-only.

    Iterating gives every row, a RangeValue or None for a null, and a
    slice gives a RangeColumn; an integer key is refused.  A column
    compares equal to another column holding the same rows.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_closed: np.ndarray
    upper_closed: np.ndarray
    null: np.ndarray
    empty: np.ndarray

    def __post_init__(self):
        arrays = []
        for name, dtype in zip(_COLUMN_FIELDS, (np.float64,) * 2 + (bool,) * 4):
            try:
                arrays.append(np.array(as_column(getattr(self, name), dtype)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise type(exc)(f"range column {name}: {exc}") from None
        lower, upper, lower_closed, upper_closed, null, empty = arrays
        if any(a.shape != null.shape for a in arrays):
            raise ValueError("range column arrays must be equally long")
        empty &= ~null
        positioned = ~(null | empty)
        lo, hi = lower[positioned], upper[positioned]
        for problem, bad in (
            ("range bounds may not be NaN", np.isnan(lo) | np.isnan(hi)),
            ("range bounds out of order", (lo == math.inf) | (hi == -math.inf) | (lo > hi)),
        ):
            if bad.any():
                row = int(np.flatnonzero(positioned)[np.argmax(bad)])
                raise ValueError(f"row {row}: {problem}")
        # infinite bounds never contain their endpoint
        lower_closed &= ~np.isinf(lower)
        upper_closed &= ~np.isinf(upper)
        empty |= positioned & (lower == upper) & ~(lower_closed & upper_closed)
        blank = null | empty
        lower[blank] = upper[blank] = 0.0
        lower_closed &= ~blank
        upper_closed &= ~blank
        self._freeze(**dict(zip(_COLUMN_FIELDS, arrays)))

    @property
    def positioned(self) -> np.ndarray:
        """Rows that are neither null nor empty."""
        return ~(self.null | self.empty)

    def __len__(self) -> int:
        return self.null.size

    def __iter__(self):
        # a row's fields are the column's arrays of the same names
        rows = map(RangeValue._make, zip(*(getattr(self, f).tolist() for f in RangeValue._fields)))
        for null, row in zip(self.null.tolist(), rows):
            yield None if null else row

    def __getitem__(self, key):
        if not isinstance(key, slice):
            raise TypeError("a RangeColumn takes slices only; iterate it for rows")
        return RangeColumn(*(getattr(self, name)[key] for name in _COLUMN_FIELDS))


def _require_column(column) -> None:
    if not isinstance(column, RangeColumn):
        raise TypeError(f"expected a RangeColumn, got {type(column).__name__}; "
                        "RangeColumn(lower, upper, lower_closed, upper_closed, null, empty)"
                        " makes one from its arrays")


_RANGE_RE = re.compile(r"^([\[\(])([^,]*),([^,]*)([\]\)])$")


def parse_range(text: str) -> tuple[float, float, bool, bool, bool, bool]:
    """A range literal's six column fields, as written, in the RangeColumn
    constructor's order: lower, upper, lower_closed, upper_closed, null, empty.

    A blank line is a null and "empty", in any case, an empty range; other
    literals are "[a,b]" with any mix of [ ( ] ) brackets, whose bounds are
    decimal numbers or "-inf"/"inf".  A NaN bound and bounds out of order
    are rejected here, so that a file's reader can name the line.  The
    fields are not normalized: the constructor normalizes them.
    """
    text = text.strip()
    if not text:
        return 0.0, 0.0, False, False, True, False
    if text.lower() == "empty":
        return 0.0, 0.0, False, False, False, True
    m = _RANGE_RE.match(text)
    if not m:
        raise ValueError(f"malformed range literal {text!r}")
    open_br, lo_s, hi_s, close_br = m.groups()
    try:
        lower = float(lo_s.strip())
        upper = float(hi_s.strip())
    except ValueError:
        raise ValueError(f"malformed range literal {text!r}") from None
    if math.isnan(lower) or math.isnan(upper):
        raise ValueError(f"malformed range literal {text!r}")
    if lower == math.inf or upper == -math.inf or lower > upper:
        raise ValueError(f"invalid range {text!r}: range bounds out of order")
    return lower, upper, open_br == "[", close_br == "]", False, False


# ---------------------------------------------------------------------------
# Operator semantics over individual range pairs, in the bound order of the
# module docstring.  The exact-count oracle must agree with these
# definitions, so they live here as the single source of truth.  Empty
# operands never qualify.


def _ends(row: RangeValue) -> tuple[tuple[float, int], tuple[float, int]]:
    """The lower and upper ends (value, nudge) of a row."""
    return (row.lower, 0 if row.lower_closed else 1), (row.upper, 0 if row.upper_closed else -1)


def range_op_holds(op: RangeOp, x: RangeValue | None, y: RangeValue | None) -> bool:
    """Whether ``x <op> y`` holds for two rows of a RangeColumn, which are
    normalized; null and empty operands never qualify."""
    if not isinstance(op, RangeOp):
        raise ValueError(f"unsupported operator {op}")
    if x is None or y is None or x.empty or y.empty:
        return False
    (x_lower, x_upper), (y_lower, y_upper) = _ends(x), _ends(y)
    if op is RangeOp.STRICTLY_LEFT:
        return x_upper < y_lower
    if op is RangeOp.STRICTLY_RIGHT:
        return x_lower > y_upper
    if op is RangeOp.NO_EXTEND_RIGHT:
        return x_upper <= y_upper
    if op is RangeOp.NO_EXTEND_LEFT:
        return x_lower >= y_lower
    return not (x_upper < y_lower or x_lower > y_upper)


# Each positional operator but overlaps as a scalar inequality
# ``X.<bound> <op> Y.<bound>``.  The estimator applies it to the bound
# statistics; the oracle counts it exactly over the bound cuts.  Overlaps is
# what the two strict operators leave of the positioned pairs.
BOUND_INEQUALITY: dict[RangeOp, tuple[str, ScalarOp, str]] = {
    RangeOp.STRICTLY_LEFT: ("upper", ScalarOp.LT, "lower"),
    RangeOp.STRICTLY_RIGHT: ("lower", ScalarOp.GT, "upper"),
    RangeOp.NO_EXTEND_RIGHT: ("upper", ScalarOp.LE, "upper"),
    RangeOp.NO_EXTEND_LEFT: ("lower", ScalarOp.GE, "lower"),
}

# ---------------------------------------------------------------------------
# Statistics over a range column.


@dataclass(frozen=True)
class RangeStats:
    """Bound statistics plus null and empty fractions.

    lower_stats and upper_stats summarize each bound of the positioned
    rows, so each null_frac is that bound's infinite share.  empty_frac is
    relative to non-null rows.  A fraction is any real number but a bool,
    stored as a float; the constructor rejects one outside [0, 1].  The
    fields are declared in the order a statistics document lists them.
    """

    null_frac: float
    empty_frac: float
    lower_stats: AttributeStats
    upper_stats: AttributeStats

    def __post_init__(self):
        for fld in ("null_frac", "empty_frac"):
            store_fraction(self, fld)


def analyze_range_column(
    column: RangeColumn,
    statistics_target: int,
    sample_seed: int = 0,
    sample_cap: int | None = None,
) -> RangeStats:
    """Build RangeStats from the rows of a RangeColumn that sample_rows draws.

    The null share is over the sampled rows and the empty share over the
    non-null ones.  Each bound of the positioned rows is analyzed in full,
    its infinite values as nulls; without a positioned row each bound's
    statistics are zero rows, all null.
    """
    _require_column(column)
    rows = sample_rows(len(column), statistics_target, sample_seed, sample_cap)
    null, empty = column.null[rows], column.empty[rows]
    positioned = ~(null | empty)
    nonnull = null.size - int(np.count_nonzero(null))
    empty_frac = (nonnull - int(np.count_nonzero(positioned))) / nonnull if nonnull else 0.0
    bound_stats = []
    for bound in (column.lower, column.upper):
        values = bound[rows][positioned]
        values[np.isinf(values)] = np.nan
        bound_stats.append(analyze_column(values, statistics_target, sample_seed, values.size)
                           if values.size else
                           AttributeStats(1.0, EMPTY_MCV, None, 0, int(statistics_target)))
    return RangeStats((null.size - nonnull) / null.size, empty_frac, *bound_stats)


def range_join_selectivity(sx: RangeStats, sy: RangeStats, op: RangeOp) -> float:
    """Estimate the fraction of the Cartesian product with ``x <op> y``.

    Only positioned pairs (neither side null nor empty) qualify: every
    estimate is scaled by both positioned shares, so a side without a
    positioned row gives +0.0 for every operator, overlaps too.  Each
    operator but overlaps is the scalar estimate of its BOUND_INEQUALITY
    entry over the bound statistics, whose null factor leaves out the pairs
    with an infinite bound, plus, for &< and &>, Y's infinite share, as the
    module docstring states.  Overlaps is the positioned share less the
    strictly-left and strictly-right estimates.
    """
    if not isinstance(op, RangeOp):
        raise ValueError(f"unsupported operator {op}")
    nn_x = (1.0 - sx.null_frac) * (1.0 - sx.empty_frac)
    nn_y = (1.0 - sy.null_frac) * (1.0 - sy.empty_frac)
    if op is RangeOp.OVERLAPS:
        return clamp01(nn_x * nn_y - range_join_selectivity(sx, sy, RangeOp.STRICTLY_LEFT)
                       - range_join_selectivity(sx, sy, RangeOp.STRICTLY_RIGHT))
    x_bound, scalar_op, y_bound = BOUND_INEQUALITY[op]
    sx_bound, sy_bound = getattr(sx, f"{x_bound}_stats"), getattr(sy, f"{y_bound}_stats")
    # Y's infinite bounds, its bound statistics' nulls, hold in a same-bound case
    cond = sy_bound.null_frac if x_bound == y_bound else 0.0
    return clamp01(nn_x * nn_y * (cond + join_selectivity(sx_bound, sy_bound, scalar_op)))


# ---------------------------------------------------------------------------
# Interchange format, as for scalar statistics: a document is RangeStats'
# fields (see _util).


def save_range_stats(s: RangeStats) -> bytes:
    return write_doc(s)


def load_range_stats(data: bytes | str) -> RangeStats:
    return from_doc(RangeStats, parse_json(data))
