"""Per-attribute statistics: sampling, null accounting, MCV and histogram build.

Every analyzed row lands in exactly one partition: null, most-common value,
or histogram.  The fractions of the three partitions drive the combined
selectivity estimates.

A statistics document is its type's fields: _util.write_doc writes them
and from_doc reads them, checking each against its declared type.  Then
AttributeStats' constructor checks its invariants, so the estimators check
nothing.  The writer walks the fields once and writes the bytes
``json.dumps`` writes for them; it writes an array of whole numbers in one
``%d`` format and a list of runs (the MCV fractions, which repeat) each
run's number once.

ANALYZE draws its rows by one rule, sample_rows, for scalar and range
columns alike, as ``acquire_sample_rows`` in PostgreSQL's
``src/backend/commands/analyze.c`` does; a range column's sampled rows then
have each bound analyzed in full, its infinite values as nulls.  As there,
a table's rows are drawn once: the last draw is kept, read-only, for its
``(n, cap, seed)``, so the columns of one table, which share the length,
the cap and the seed, share one draw and analyze the same rows.  ANALYZE sorts the sample
once, as ``compute_scalar_stats`` does there, slices its nulls (NaNs of
any bit pattern, which sort last) off the end, and builds the MCV
list and the histogram from that one sorted array: the histogram
boundaries are read from it by rank, past the MCV runs, each cut out at
the start and length the comparison of neighbours found for it.  Every zero in the
sorted sample is written as +0.0, so a statistics document holds one zero
whatever signs the column's zeros had.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import as_column, from_doc, parse_json, store_fraction, write_doc
from .histogram import EquiDepthHistogram
from .mcv import EMPTY_MCV, MostCommonValues, _mcv_of_runs, _runs

# Rows sampled per unit of statistics target: PostgreSQL's std_typanalyze and
# range_typanalyze ask for 300 * attstattarget.  A cap >= N reads every row.
SAMPLE_ROWS_PER_TARGET = 300


@dataclass(frozen=True)
class AttributeStats:
    """Null fraction, MCV list and residual histogram for one column.

    MCV fractions are relative to the non-null rows; the null fraction
    applies multiplicatively on top.  The histogram covers the non-null
    rows that are not in the MCV list, so without a histogram the MCV list
    covers them all, unless every row is null.  The null fraction is any
    real number but a bool, stored as a float; the row count is an int of
    at least 0 and the statistics target an int of at least 1.  The
    constructor rejects statistics that break these rules, so an estimate
    never has to check.
    """

    null_frac: float
    mcv: MostCommonValues
    histogram: EquiDepthHistogram | None
    row_count: int
    statistics_target: int

    def __post_init__(self):
        store_fraction(self, "null_frac")
        for fld in ("row_count", "statistics_target"):
            # neither a bool nor a numpy integer, which a document cannot hold
            if type(getattr(self, fld)) is not int:
                raise TypeError(f"{fld} must be an int, got {getattr(self, fld)!r}")
        if self.row_count < 0:
            raise ValueError("row_count must be at least 0")
        if self.statistics_target < 1:
            raise ValueError("statistics_target must be at least 1")
        if self.histogram is None and self.null_frac < 1.0:
            total = self.mcv.total_fraction
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"mcv fractions sum to {total:g} and there is no histogram")

    @property
    def hist_fraction(self) -> float:
        """Share of non-null rows covered by the histogram (p_hist), at least 0."""
        return max(0.0, 1.0 - self.mcv.total_fraction)


def _require_integer(value, name: str) -> None:
    # a Python or numpy integer; a bool is refused, as a statistics document refuses it
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _require_target(statistics_target) -> None:
    # the one rule for a statistics target: an integer of at least 1
    _require_integer(statistics_target, "statistics_target")
    if statistics_target < 1:
        raise ValueError("statistics target must be at least 1")


def sample_rows(n: int, statistics_target: int, seed: int = 0, cap: int | None = None):
    """The rows ANALYZE reads of n: all (a full slice) when the cap (by
    default SAMPLE_ROWS_PER_TARGET per unit of target) covers them, else the
    indices of a seeded uniform sample of cap rows without replacement.

    The target, the cap and the seed are Python or numpy integers, never a
    bool, and the seed is at least 0; all are checked before a row is drawn,
    even when none is, so the same arguments always draw the same rows.

    A draw is made once per ``(n, cap, seed)``: the last one is kept and
    returned again, read-only, to the next call with the same three, so the
    columns of one table are analyzed from one draw.  It holds 8 bytes per
    sampled row: 240 KB at the default target of 100, and at most 24 MB at
    target 10000 on a column of more than 3M rows.
    """
    _require_target(statistics_target)
    if cap is not None:
        _require_integer(cap, "sample_cap")
    _require_integer(seed, "sample_seed")
    if n == 0:
        raise ValueError("no data")
    if cap is None:
        cap = SAMPLE_ROWS_PER_TARGET * statistics_target
    if cap < 1:
        raise ValueError("sample cap must be at least 1")
    if seed < 0:
        raise ValueError("sample seed must be at least 0")
    if cap >= n:
        return slice(None)
    # Python ints as the key, so a numpy integer argument finds the same draw
    return _draw(int(n), int(cap), int(seed))


@functools.lru_cache(maxsize=1)
def _draw(n: int, cap: int, seed: int) -> np.ndarray:
    rows = np.random.default_rng(seed).choice(n, size=cap, replace=False)
    rows.flags.writeable = False
    return rows


def analyze_column(
    values,
    statistics_target: int,
    sample_seed: int = 0,
    sample_cap: int | None = None,
) -> AttributeStats:
    """Build AttributeStats from a column of nullable scalars (None or NaN = null).

    The rows sample_rows draws are analyzed.  MCV entries are capped at
    statistics_target; the residual histogram gets statistics_target bins,
    reduced when the residual has too few distinct values (one bin
    minimum), and is omitted when nothing is left for it.

    The sample is sorted once, as ``compute_scalar_stats`` does, and its
    nulls, which sort last whatever their NaN bit pattern, are sliced off
    its end.  One comparison of neighbours finds the runs of equal values: the
    MCV list is built from them, as ``build_mcv`` builds it, and their
    number is the sample's distinct count.  The residual is the sorted
    sample with the MCV runs cut out, but it is not copied out: its
    distinct count is the sample's less the MCV entries, and boundary j, at
    residual rank floor(j * (N-1) / B) as in ``build_equi_depth``, is read
    from the sorted sample past the MCV runs before that rank.  The cuts
    are the MCV runs' starts and lengths as the comparison found them, so
    no MCV value is searched for in the sample.  -0.0 and
    0.0 compare equal, so the sample's zeros are one run, which is set to
    +0.0: an MCV entry or boundary at zero is always +0.0.
    """
    data = as_column(values)
    if np.any(np.isinf(data)):
        raise ValueError("values must be finite")
    sample = data[sample_rows(data.size, statistics_target, sample_seed, sample_cap)]
    statistics_target = int(statistics_target)    # sample_rows checked it is an integer
    ordered = np.sort(sample)
    # a NaN of every bit pattern sorts last: the nulls are the sorted tail
    non_null = int(np.searchsorted(ordered, np.nan))
    null_frac = (sample.size - non_null) / sample.size
    if not non_null:
        return AttributeStats(null_frac, EMPTY_MCV, None, int(sample.size), statistics_target)
    ordered = ordered[:non_null]
    ordered[np.searchsorted(ordered, 0.0, "left"):np.searchsorted(ordered, 0.0, "right")] = 0.0

    starts, counts, distinct = _runs(ordered)
    mcv, order = _mcv_of_runs(ordered, starts, counts, statistics_target)
    # The MCV runs cut the sorted sample into kept stretches (possibly
    # empty), one more than there are runs; the residual is their
    # concatenation.  skipped[k] counts the MCV rows before stretch k and
    # ends[k] is the residual rank one past it.
    kept = np.sort(order)       # the MCV runs in sample order
    skipped = np.concatenate(([0], np.cumsum(counts[kept])))
    ends = np.append(starts[kept], ordered.size) - skipped
    size = int(ends[-1])

    histogram = None
    if size:
        bins = min(statistics_target, max(distinct - len(mcv) - 1, 1))
        ranks = np.arange(bins + 1) * (size - 1) // bins
        bounds = ordered[ranks + skipped[np.searchsorted(ends, ranks, side="right")]]
        histogram = EquiDepthHistogram(bounds)

    return AttributeStats(null_frac, mcv, histogram, int(sample.size), statistics_target)


# ---------------------------------------------------------------------------
# Interchange format: a document is AttributeStats' fields (see _util).


def save_stats(s: AttributeStats) -> bytes:
    return write_doc(s)


def load_stats(data: bytes | str) -> AttributeStats:
    return from_doc(AttributeStats, parse_json(data))
