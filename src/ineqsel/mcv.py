"""Most-common-values statistics: a singleton histogram of (value, fraction) pairs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import sorted_finite
from .operators import ScalarOp


@dataclass(frozen=True, eq=False)
class MostCommonValues:
    """Distinct values with their exact fractions of the analyzed (non-null) rows.

    Fractions are stored in non-increasing order; their sum is the share of
    rows the MCV list accounts for, at most 1.
    """

    values: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        fractions = np.asarray(self.fractions, dtype=np.float64)
        if values.shape != fractions.shape or values.ndim != 1:
            raise ValueError("values and fractions must be 1-d arrays of equal length")
        if np.unique(values).size != values.size:
            raise ValueError("MCV values must be distinct")
        if not np.all(np.isfinite(values)):
            raise ValueError("MCV values must be finite")
        # written so that a NaN fraction fails too
        if not np.all((fractions > 0) & (fractions <= 1)):
            raise ValueError("fractions must lie in (0, 1]")
        if fractions.sum() > 1 + 1e-12:
            raise ValueError("fractions sum exceeds 1")
        values.setflags(write=False)
        fractions.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "fractions", fractions)

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other):
        if not isinstance(other, MostCommonValues):
            return NotImplemented
        return np.array_equal(self.values, other.values) and np.array_equal(
            self.fractions, other.fractions
        )

    @property
    def total_fraction(self) -> float:
        """Share of rows covered by the list (p_mcv)."""
        return float(self.fractions.sum())


EMPTY_MCV = MostCommonValues(np.array([]), np.array([]))


def build_mcv(values, max_entries: int) -> MostCommonValues:
    """Collect the up-to-max_entries most frequent values occurring at least twice.

    Fractions are exact counts over the input length.  Ties in frequency are
    broken toward the smaller value.  Sorted input is read as it is; other
    input is sorted first.  Each candidate value is a run of equal values in
    the sorted data, and its count is the run's length.
    """
    if max_entries < 0:
        raise ValueError("max_entries must be non-negative")
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0 or max_entries == 0:
        return EMPTY_MCV
    data = sorted_finite(data)
    # same[i] is data[i] == data[i-1], padded false at both ends.  A run of
    # two or more equal values goes from the index before same turns true to
    # the last index where it is true, so the flips come in (start, end) pairs.
    same = np.concatenate(([False], data[1:] == data[:-1], [False]))
    flips = np.flatnonzero(same[1:] != same[:-1])
    starts, ends = flips[0::2], flips[1::2]
    if starts.size == 0:
        return EMPTY_MCV
    uniq, counts = data[starts], ends - starts + 1
    # uniq ascends, so a stable sort on descending count breaks ties by value
    order = np.argsort(-counts, kind="stable")[:max_entries]
    return MostCommonValues(uniq[order], counts[order] / data.size)


def mcv_restriction_selectivity(m: MostCommonValues, c: float, op: ScalarOp) -> float:
    """Sum of the fractions of the MCV entries satisfying ``value <op> c``.

    The result is relative to the same base as the stored fractions (the
    non-null rows); it is exact for the rows the list covers.
    """
    return float(m.fractions[op.apply(m.values, c)].sum())
