"""Range values, bound statistics, and range-operator selectivity.

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
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from ._util import clamp01
from .estimator import InsufficientStatisticsError, join_selectivity
from .operators import RangeOp, ScalarOp
from .stats import (
    AttributeStats,
    analyze_column,
    sample_rows,
    stats_from_dict,
    stats_to_dict,
    SAMPLE_ROWS_PER_TARGET,
    _parse_json,
    _require,
    _require_fraction,
)


@dataclass(frozen=True)
class RangeValue:
    """An interval over a totally ordered domain.

    Bounds may be -inf/+inf (always treated as open).  A range where the
    bounds coincide is only non-empty when both sides are closed; other
    degenerate combinations normalize to the canonical empty range.
    """

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool
    empty: bool = False

    def __post_init__(self):
        if self.empty:
            object.__setattr__(self, "lower", 0.0)
            object.__setattr__(self, "upper", 0.0)
            object.__setattr__(self, "lower_closed", False)
            object.__setattr__(self, "upper_closed", False)
            return
        lower, upper = float(self.lower), float(self.upper)
        if math.isnan(lower) or math.isnan(upper):
            raise ValueError("range bounds may not be NaN")
        if lower == math.inf or upper == -math.inf:
            raise ValueError("range bounds out of order")
        if lower > upper:
            raise ValueError("range bounds out of order")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # infinite bounds never contain their endpoint
        if math.isinf(lower) and self.lower_closed:
            object.__setattr__(self, "lower_closed", False)
        if math.isinf(upper) and self.upper_closed:
            object.__setattr__(self, "upper_closed", False)
        if lower == upper and not (self.lower_closed and self.upper_closed):
            object.__setattr__(self, "empty", True)
            object.__setattr__(self, "lower", 0.0)
            object.__setattr__(self, "upper", 0.0)
            object.__setattr__(self, "lower_closed", False)
            object.__setattr__(self, "upper_closed", False)


EMPTY_RANGE = RangeValue(0.0, 0.0, False, False, empty=True)


_COLUMN_FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "null", "empty")


@dataclass(frozen=True, eq=False)
class RangeColumn:
    """A column of nullable ranges as six parallel numpy arrays.

    Rows are normalized the way RangeValue normalizes one range: infinite
    bounds are open, a range whose bounds coincide without both being
    closed is empty, and null and empty rows hold bounds 0.0 with both
    flags false.  A row is never both null and empty.  The arrays are
    read-only.

    Indexing a row gives a RangeValue or None, iterating gives every row
    that way, and a slice gives a RangeColumn; a column compares equal to
    another column or to a sequence holding the same rows.
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
        """The column of an iterable of RangeValue and None entries."""
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
        rows = zip(*(getattr(self, name).tolist() for name in _COLUMN_FIELDS))
        for lower, upper, lower_closed, upper_closed, null, empty in rows:
            if null:
                yield None
            elif empty:
                yield EMPTY_RANGE
            else:
                yield RangeValue(lower, upper, lower_closed, upper_closed)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return RangeColumn(*(getattr(self, name)[key] for name in _COLUMN_FIELDS))
        k = operator.index(key)
        if self.null[k]:
            return None
        if self.empty[k]:
            return EMPTY_RANGE
        return RangeValue(float(self.lower[k]), float(self.upper[k]),
                          bool(self.lower_closed[k]), bool(self.upper_closed[k]))

    def __eq__(self, other) -> bool:
        if isinstance(other, RangeColumn):
            return all(np.array_equal(getattr(self, name), getattr(other, name))
                       for name in _COLUMN_FIELDS)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


_RANGE_RE = re.compile(r"^([\[\(])([^,]*),([^,]*)([\]\)])$")
_OPENING = (ord("["), ord("("))
_CLOSING = (ord("]"), ord(")"))


def parse_range(text: str) -> RangeValue | None:
    """Parse a range literal; an empty string denotes null.

    Accepted forms: "empty", and "[a,b]" with any mix of [ ( ] ) brackets;
    bounds are decimal numbers or "-inf"/"inf".
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
    try:
        return RangeValue(lower, upper, open_br == "[", close_br == "]")
    except ValueError as exc:
        raise ValueError(f"invalid range {text!r}: {exc}") from None


def parse_range_lines(lines: list[str]) -> RangeColumn | None:
    """Parse a list of range-file lines in bulk, as parse_range would each.

    Every line must be a range literal, "empty" or blank (null); on the
    first line that is not, or whose range is invalid, the result is None,
    and the caller finds and reports that line with parse_range.
    """
    text = list(map(str.strip, lines))
    n = len(text)
    lengths = np.fromiter(map(len, text), np.intp, n)
    null = lengths == 0
    empty = np.zeros(n, dtype=bool)
    five = np.flatnonzero(lengths == 5)
    empty[five] = [text[i].lower() == "empty" for i in five.tolist()]
    literal = ~(null | empty)
    size = lengths[literal]
    lower, upper = np.zeros(n), np.zeros(n)
    lower_closed, upper_closed = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    if size.size:
        # Literals joined by commas: each holds exactly one comma when the
        # commas alternate between the literals' own and the separators.
        codes = np.frombuffer(",".join(compress(text, literal)).encode("utf-32-le"),
                              dtype=np.uint32).copy()
        first = np.cumsum(size + 1) - (size + 1)
        last = first + size - 1
        commas = np.flatnonzero(codes == ord(","))
        if commas.size != 2 * size.size - 1 or not np.array_equal(commas[1::2], first[1:] - 1):
            return None
        opening, closing = codes[first], codes[last]
        if not (np.isin(opening, _OPENING).all() and np.isin(closing, _CLOSING).all()):
            return None
        # with the brackets blanked out, every comma-separated piece is one
        # bound, which float() reads with its surrounding spaces
        codes[first] = codes[last] = ord(" ")
        pieces = codes.tobytes().decode("utf-32-le").split(",")
        try:
            bounds = np.fromiter(map(float, pieces), np.float64, len(pieces))
        except ValueError:
            return None
        lower[literal], upper[literal] = bounds[0::2], bounds[1::2]
        lower_closed[literal] = opening == ord("[")
        upper_closed[literal] = closing == ord("]")
    try:
        return RangeColumn(lower, upper, lower_closed, upper_closed, null, empty)
    except ValueError:      # NaN or out-of-order bounds
        return None


def _literal(lower: float, upper: float, lower_closed: bool, upper_closed: bool) -> str:
    # repr gives a float's shortest round-trip text, and "inf" / "-inf"
    lb = "[" if lower_closed else "("
    rb = "]" if upper_closed else ")"
    return f"{lb}{lower!r},{upper!r}{rb}"


def format_range(r: RangeValue | None) -> str:
    if r is None:
        return ""
    if r.empty:
        return "empty"
    return _literal(r.lower, r.upper, r.lower_closed, r.upper_closed)


def format_range_lines(column: RangeColumn) -> list[str]:
    """format_range of every row of the column."""
    rows = zip(*(getattr(column, name).tolist() for name in _COLUMN_FIELDS))
    return ["" if null else "empty" if empty else _literal(lower, upper, lower_closed, upper_closed)
            for lower, upper, lower_closed, upper_closed, null, empty in rows]


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
    """Whether ``x <op> y`` holds; null and empty operands never qualify."""
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


@dataclass(frozen=True)
class RangeStats:
    """Bound statistics plus null / empty / infinite-bound fractions.

    lower_stats and upper_stats summarize the finite bounds of the
    non-empty rows; empty_frac is relative to non-null rows, the infinite
    fractions to non-empty rows.
    """

    null_frac: float
    empty_frac: float
    lower_stats: AttributeStats | None
    upper_stats: AttributeStats | None
    lower_inf_frac: float
    upper_inf_frac: float


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
    return RangeStats(
        float(null_frac),
        float(empty_frac),
        lower_stats,
        upper_stats,
        float(lower_inf_frac),
        float(upper_inf_frac),
    )


def _scalar_term(
    sx: AttributeStats | None, sy: AttributeStats | None, op: ScalarOp, weight: float
) -> float:
    """weight * scalar join estimate, demanding stats only when weight > 0."""
    if weight <= 0.0:
        return 0.0
    if sx is None or sy is None:
        raise InsufficientStatisticsError("insufficient statistics")
    return weight * join_selectivity(sx, sy, op)


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
    return infinite_mass + _scalar_term(
        getattr(sx, f"{x_bound}_stats"),
        getattr(sy, f"{y_bound}_stats"),
        scalar_op,
        (1.0 - ix) * (1.0 - iy),
    )


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
# Interchange format, mirroring the scalar stats documents.


def range_stats_to_dict(s: RangeStats) -> dict:
    return {
        "null_frac": s.null_frac,
        "empty_frac": s.empty_frac,
        "lower_inf_frac": s.lower_inf_frac,
        "upper_inf_frac": s.upper_inf_frac,
        "lower_stats": None if s.lower_stats is None else stats_to_dict(s.lower_stats),
        "upper_stats": None if s.upper_stats is None else stats_to_dict(s.upper_stats),
    }


def save_range_stats(s: RangeStats) -> bytes:
    return json.dumps(range_stats_to_dict(s)).encode("utf-8")


def range_stats_from_dict(doc: dict) -> RangeStats:
    if not isinstance(doc, dict):
        raise ValueError("stats document must be a JSON object")
    fracs = {
        fld: _require_fraction(doc, fld)
        for fld in ("null_frac", "empty_frac", "lower_inf_frac", "upper_inf_frac")
    }
    lower_doc = _require(doc, "lower_stats")
    upper_doc = _require(doc, "upper_stats")
    return RangeStats(
        lower_stats=None if lower_doc is None else stats_from_dict(lower_doc),
        upper_stats=None if upper_doc is None else stats_from_dict(upper_doc),
        **fracs,
    )


def load_range_stats(data: bytes | str) -> RangeStats:
    return range_stats_from_dict(_parse_json(data))
