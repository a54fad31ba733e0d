"""Most-common-values statistics: a singleton histogram of (value, fraction) pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import ArrayFields, as_column, sorted_finite
from .operators import ScalarOp


@dataclass(frozen=True, eq=False)
class MostCommonValues(ArrayFields):
    """Distinct values with their exact fractions of the analyzed (non-null) rows.

    Fractions are stored in non-increasing order; their sum is the share of
    rows the MCV list accounts for, at most 1.
    """

    values: np.ndarray
    fractions: np.ndarray

    def __post_init__(self):
        values = np.array(as_column(self.values))
        fractions = np.array(as_column(self.fractions))
        if values.shape != fractions.shape:
            raise ValueError("values and fractions must be 1-d arrays of equal length")
        # sorted, equal values are adjacent and NaNs come last; several NaNs
        # are a repeat too, as np.unique (which imports numpy.ma) counted them
        ordered = np.sort(values)
        if np.any(ordered[1:] == ordered[:-1]) or np.count_nonzero(np.isnan(ordered[-2:])) == 2:
            raise ValueError("MCV values must be distinct")
        if not np.all(np.isfinite(values)):
            raise ValueError("MCV values must be finite")
        # written so that a NaN fraction fails too
        if not np.all((fractions > 0) & (fractions <= 1)):
            raise ValueError("fractions must lie in (0, 1]")
        if fractions.sum() > 1 + 1e-12:
            raise ValueError("fractions sum exceeds 1")
        self._freeze(values=values, fractions=fractions)

    def __len__(self) -> int:
        return self.values.size

    @property
    def total_fraction(self) -> float:
        """Share of rows covered by the list (p_mcv)."""
        return float(self.fractions.sum())


EMPTY_MCV = MostCommonValues(np.array([]), np.array([]))


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The runs of equal values in sorted data, from one comparison of
    neighbours: the first index and the length of each run of two or more,
    and the number of runs of any length, which is the number of distinct
    values."""
    # boundary[i]: a run starts at index i; padded true at both ends, so one
    # more boundary than there are runs
    boundary = np.concatenate(([True], ordered[1:] != ordered[:-1], [True]))
    # a run of two or more starts where a boundary is followed by none and
    # ends where none is followed by one, so the flips come in (start, end) pairs
    flips = np.flatnonzero(boundary[1:] != boundary[:-1])
    starts = flips[0::2]
    return starts, flips[1::2] - starts + 1, np.count_nonzero(boundary) - 1


def _mcv_of_runs(ordered: np.ndarray, starts: np.ndarray, counts: np.ndarray,
                 max_entries: int) -> tuple[MostCommonValues, np.ndarray]:
    """build_mcv of sorted finite data, from the runs of two or more that
    _runs finds, and the indices of the runs it takes, in its order."""
    # the runs ascend, so a stable sort on descending count breaks ties by value
    order = np.argsort(-counts, kind="stable")[:max_entries]
    return MostCommonValues(ordered[starts[order]], counts[order] / ordered.size), order


def build_mcv(values, max_entries: int) -> MostCommonValues:
    """Collect the up-to-max_entries most frequent values occurring at least twice.

    Fractions are exact counts over the input length.  Ties in frequency are
    broken toward the smaller value.  Sorted input is read as it is; other
    input is sorted first.  Each candidate value is a run of equal values in
    the sorted data, and its count is the run's length.
    """
    if max_entries < 0:
        raise ValueError("max_entries must be non-negative")
    data = as_column(values)
    if data.size == 0 or max_entries == 0:
        return EMPTY_MCV
    data = sorted_finite(data)
    starts, counts, _ = _runs(data)
    return _mcv_of_runs(data, starts, counts, max_entries)[0]


def mcv_restriction_selectivity(m: MostCommonValues, c: float, op: ScalarOp) -> float:
    """Sum of the fractions of the MCV entries satisfying ``value <op> c``.

    The result is relative to the same base as the stored fractions (the
    non-null rows); it is exact for the rows the list covers.
    """
    return float(m.fractions[op.apply(m.values, c)].sum())
