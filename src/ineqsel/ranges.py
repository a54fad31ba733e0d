"""Range columns, bound statistics, and range-operator selectivity.

A range column is a RangeColumn, six numpy arrays whose constructor is the
one place a range is checked and normalized.  A RangeValue is a plain
record of one row's fields, as the column yields it.

A range attribute is summarized by two scalar statistics objects (one over
the finite lower bounds, one over the finite upper bounds) plus fractions
for nulls, empty ranges and infinite bounds.  Each positional operator
reduces to a scalar inequality between one bound of each side (the table
BOUND_INEQUALITY, which the estimator and the exact oracle both read), so
the scalar join estimator does the real work:

* X strictly left of Y   ->  X.upper <  Y.lower
* X strictly right of Y  ->  X.lower >  Y.upper
* X no-extend-right of Y ->  X.upper <= Y.upper
* X no-extend-left of Y  ->  X.lower >= Y.lower
* X overlaps Y           ->  complement of the two strict cases

Containment cannot be derived this way: it ties a range's own bounds
together, which the two independent bound histograms cannot express, so it
is rejected rather than guessed.

Empty ranges have no position, so they satisfy none of the operators, on
either side; their share is tracked and factored out, like nulls.

RangeStats checks its own invariants when built, so the loader checks only
the JSON shape and the estimator never meets a missing bound it needs.

parse_range reads one range literal into its fields, unnormalized; whole
range files are read and written by the columnfile module.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import clamp01
from .estimator import join_selectivity
from .operators import RangeOp, ScalarOp
from .stats import (
    AttributeStats,
    analyze_column,
    sample_rows,
    stats_from_dict,
    SAMPLE_ROWS_PER_TARGET,
    _doc,
    _parse_json,
    _require,
    _require_number,
)


class RangeValue(NamedTuple):
    """One row of a RangeColumn: an interval over a totally ordered domain.

    A plain record, unchecked.  The rows a column yields are normalized;
    RangeColumn.from_values checks and normalizes rows built by hand.
    """

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool
    empty: bool = False


EMPTY_RANGE = RangeValue(0.0, 0.0, False, False, True)

_COLUMN_FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "null", "empty")


@dataclass(frozen=True, eq=False)
class RangeColumn:
    """A column of nullable ranges as six parallel numpy arrays.

    The constructor is the one place a range is checked and normalized.
    It rejects a NaN bound and bounds out of order (a lower bound of +inf,
    an upper bound of -inf, or lower above upper) in the rows that are
    neither null nor empty.  Then infinite bounds are open, a range whose
    bounds coincide without both being closed is empty, and null and empty
    rows hold bounds 0.0 with both flags false.  A row is never both null
    and empty.  The arrays are read-only.

    Indexing a row gives a RangeValue or None, iterating gives every row
    that way, and a slice gives a RangeColumn; a column compares equal to
    another column holding the same rows.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_closed: np.ndarray
    upper_closed: np.ndarray
    null: np.ndarray
    empty: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=np.float64)
        upper = np.array(self.upper, dtype=np.float64)
        lower_closed = np.array(self.lower_closed, dtype=bool)
        upper_closed = np.array(self.upper_closed, dtype=bool)
        null = np.array(self.null, dtype=bool)
        empty = np.array(self.empty, dtype=bool)
        arrays = (lower, upper, lower_closed, upper_closed, null, empty)
        if any(a.shape != null.shape or a.ndim != 1 for a in arrays):
            raise ValueError("range column arrays must be one-dimensional and equally long")
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
        for name, a in zip(_COLUMN_FIELDS, arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_values(cls, values) -> RangeColumn:
        """The column of an iterable of RangeValue and None entries, which
        the constructor checks and normalizes."""
        if isinstance(values, RangeColumn):
            return values
        rows = list(values)
        null = [r is None for r in rows]
        rows = [EMPTY_RANGE if r is None else r for r in rows]
        return cls(
            [r.lower for r in rows],
            [r.upper for r in rows],
            [r.lower_closed for r in rows],
            [r.upper_closed for r in rows],
            null,
            [r.empty for r in rows],
        )

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
        if isinstance(key, slice):
            return RangeColumn(*(getattr(self, name)[key] for name in _COLUMN_FIELDS))
        k = operator.index(key)
        if self.null[k]:
            return None
        return RangeValue(*(getattr(self, f)[k].item() for f in RangeValue._fields))

    def __reduce__(self):
        # rebuilt by the constructor: read-only arrays, and none of the
        # oracle's memo, whose weak reference could not be pickled
        return RangeColumn, tuple(getattr(self, name) for name in _COLUMN_FIELDS)

    def __eq__(self, other) -> bool:
        if isinstance(other, RangeColumn):
            return all(np.array_equal(getattr(self, name), getattr(other, name))
                       for name in _COLUMN_FIELDS)
        return NotImplemented


_RANGE_RE = re.compile(r"^([\[\(])([^,]*),([^,]*)([\]\)])$")


def parse_range(text: str) -> RangeValue | None:
    """The fields of a range literal, as written; an empty string denotes null.

    Accepted forms: "empty", and "[a,b]" with any mix of [ ( ] ) brackets;
    bounds are decimal numbers or "-inf"/"inf".  A NaN bound and bounds out
    of order are rejected here, so that a file's reader can name the line.
    The row is not normalized: RangeColumn.from_values normalizes rows.
    """
    text = text.strip()
    if not text:
        return None
    if text.lower() == "empty":
        return EMPTY_RANGE
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
    return RangeValue(lower, upper, open_br == "[", close_br == "]")


# ---------------------------------------------------------------------------
# Operator semantics over individual range pairs.  The exact-count oracle
# must agree with these definitions, so they live here as the single source
# of truth.  Empty operands never qualify.


def _ends_before_starts(x: RangeValue, y: RangeValue) -> bool:
    if x.upper != y.lower:
        return x.upper < y.lower
    return not (x.upper_closed and y.lower_closed)


def _ends_by(x: RangeValue, y: RangeValue) -> bool:
    # X's upper bound is at or before Y's: at equal values an open bound
    # ends earlier than a closed one.
    if x.upper != y.upper:
        return x.upper < y.upper
    return not (x.upper_closed and not y.upper_closed)


def _starts_at_or_after(x: RangeValue, y: RangeValue) -> bool:
    # at equal values a closed bound starts earlier than an open one
    if x.lower != y.lower:
        return x.lower > y.lower
    return not (x.lower_closed and not y.lower_closed)


def range_op_holds(op: RangeOp, x: RangeValue | None, y: RangeValue | None) -> bool:
    """Whether ``x <op> y`` holds for two rows of a RangeColumn, which are
    normalized; null and empty operands never qualify."""
    if x is None or y is None or x.empty or y.empty:
        return False
    if op is RangeOp.STRICTLY_LEFT:
        return _ends_before_starts(x, y)
    if op is RangeOp.STRICTLY_RIGHT:
        return _ends_before_starts(y, x)
    if op is RangeOp.NO_EXTEND_RIGHT:
        return _ends_by(x, y)
    if op is RangeOp.NO_EXTEND_LEFT:
        return _starts_at_or_after(x, y)
    if op is RangeOp.OVERLAPS:
        return not _ends_before_starts(x, y) and not _ends_before_starts(y, x)
    raise ValueError(f"unsupported operator {op}")


# Each positional operator but overlaps as a scalar inequality
# ``X.<bound> <op> Y.<bound>``.  The estimator applies it to the bound
# statistics; the oracle counts it exactly over the bound cuts.  Overlaps is
# the complement of the two strict operators.
BOUND_INEQUALITY: dict[RangeOp, tuple[str, ScalarOp, str]] = {
    RangeOp.STRICTLY_LEFT: ("upper", ScalarOp.LT, "lower"),
    RangeOp.STRICTLY_RIGHT: ("lower", ScalarOp.GT, "upper"),
    RangeOp.NO_EXTEND_RIGHT: ("upper", ScalarOp.LE, "upper"),
    RangeOp.NO_EXTEND_LEFT: ("lower", ScalarOp.GE, "lower"),
}

_INFINITE_BOUND = {"lower": -math.inf, "upper": math.inf}


# ---------------------------------------------------------------------------
# Statistics over a range column.


# RangeStats' fractions, its first four fields
_FRACTIONS = ("null_frac", "empty_frac", "lower_inf_frac", "upper_inf_frac")


@dataclass(frozen=True)
class RangeStats:
    """Bound statistics plus null / empty / infinite-bound fractions.

    lower_stats and upper_stats summarize the finite bounds of the
    non-empty rows; empty_frac is relative to non-null rows, the infinite
    fractions to non-empty rows.  The constructor rejects fractions
    outside [0, 1], and a bound's statistics missing unless every row is
    null or empty or every value of that bound is infinite.  The fields are
    declared in the order a statistics document lists them.
    """

    null_frac: float
    empty_frac: float
    lower_inf_frac: float
    upper_inf_frac: float
    lower_stats: AttributeStats | None
    upper_stats: AttributeStats | None

    def __post_init__(self):
        for fld in _FRACTIONS:
            # written so that NaN fails too
            if not 0.0 <= getattr(self, fld) <= 1.0:
                raise ValueError(f"{fld} out of range")
        for bound in ("lower", "upper"):
            # some rows have a finite value at this bound unless a share is 1
            shares = (self.null_frac, self.empty_frac, getattr(self, f"{bound}_inf_frac"))
            if 1.0 not in shares and getattr(self, f"{bound}_stats") is None:
                raise ValueError(f"{bound}_stats missing while some {bound} bounds are finite")


def analyze_range_column(
    values,
    statistics_target: int,
    sample_seed: int = 0,
    sample_cap: int | None = None,
) -> RangeStats:
    """Build RangeStats from a RangeColumn or an iterable of RangeValue and None entries."""
    if statistics_target < 1:
        raise ValueError("statistics target must be at least 1")
    if sample_cap is None:
        sample_cap = SAMPLE_ROWS_PER_TARGET * statistics_target
    column = RangeColumn.from_values(values)
    if not len(column):
        raise ValueError("no data")

    idx = sample_rows(len(column), sample_cap, sample_seed)
    null, empty = column.null[idx], column.empty[idx]
    nonnull = idx.size - int(np.count_nonzero(null))
    null_frac = (idx.size - nonnull) / idx.size
    positioned = idx[~(null | empty)]
    empty_frac = (nonnull - positioned.size) / nonnull if nonnull else 0.0

    def bound_stats(bound: np.ndarray) -> tuple[AttributeStats | None, float]:
        values = bound[positioned]
        finite = values[np.isfinite(values)]
        inf_frac = (values.size - finite.size) / values.size if values.size else 0.0
        # the range rows were already sampled; analyze the bounds in full
        stats = (
            analyze_column(finite, statistics_target, sample_seed, finite.size)
            if finite.size
            else None
        )
        return stats, inf_frac

    lower_stats, lower_inf_frac = bound_stats(column.lower)
    upper_stats, upper_inf_frac = bound_stats(column.upper)
    return RangeStats(null_frac, empty_frac, lower_inf_frac, upper_inf_frac,
                      lower_stats, upper_stats)


def _conditional_selectivity(sx: RangeStats, sy: RangeStats, op: RangeOp) -> float:
    """P(X <op> Y) given both sides non-null and non-empty."""
    if op is RangeOp.OVERLAPS:
        left = _conditional_selectivity(sx, sy, RangeOp.STRICTLY_LEFT)
        right = _conditional_selectivity(sx, sy, RangeOp.STRICTLY_RIGHT)
        return 1.0 - left - right
    if op not in BOUND_INEQUALITY:
        raise ValueError(f"unsupported operator {op}")
    x_bound, scalar_op, y_bound = BOUND_INEQUALITY[op]
    ix = getattr(sx, f"{x_bound}_inf_frac")
    iy = getattr(sy, f"{y_bound}_inf_frac")
    # An infinite bound is open, so it compares the same way against every
    # finite value, and two equal infinite bounds compare as equal.
    x_inf, y_inf = _INFINITE_BOUND[x_bound], _INFINITE_BOUND[y_bound]
    infinite_mass = (
        ix * (1.0 - iy) * scalar_op.apply(x_inf, 0.0)
        + (1.0 - ix) * iy * scalar_op.apply(0.0, y_inf)
        + ix * iy * scalar_op.apply(x_inf, y_inf)
    )
    # Both bounds finite: RangeStats holds their statistics when this has mass.
    weight = (1.0 - ix) * (1.0 - iy)
    if weight > 0.0:
        sx_bound, sy_bound = getattr(sx, f"{x_bound}_stats"), getattr(sy, f"{y_bound}_stats")
        return infinite_mass + weight * join_selectivity(sx_bound, sy_bound, scalar_op)
    return infinite_mass


def range_join_selectivity(sx: RangeStats, sy: RangeStats, op: RangeOp) -> float:
    """Estimate the fraction of the Cartesian product with ``x <op> y``.

    Each operator but overlaps is the scalar inequality of its
    BOUND_INEQUALITY entry, estimated from the bound statistics over the
    finite bounds plus the exact contribution of the infinite ones;
    overlaps is the complement of strictly-left and strictly-right.
    """
    nn_x = (1.0 - sx.null_frac) * (1.0 - sx.empty_frac)
    nn_y = (1.0 - sy.null_frac) * (1.0 - sy.empty_frac)
    if nn_x <= 0.0 or nn_y <= 0.0:
        return 0.0
    return clamp01(nn_x * nn_y * _conditional_selectivity(sx, sy, op))


# ---------------------------------------------------------------------------
# Interchange format, mirroring the scalar stats documents: a document is
# RangeStats' fields in declaration order.


def save_range_stats(s: RangeStats) -> bytes:
    return json.dumps(_doc(s)).encode("utf-8")


def range_stats_from_dict(doc: dict) -> RangeStats:
    fracs = [_require_number(doc, fld) for fld in _FRACTIONS]
    bounds = [_require(doc, f"{bound}_stats") for bound in ("lower", "upper")]
    return RangeStats(*fracs, *(b if b is None else stats_from_dict(b) for b in bounds))


def load_range_stats(data: bytes | str) -> RangeStats:
    return range_stats_from_dict(_parse_json(data))
