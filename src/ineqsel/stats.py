"""Per-attribute statistics: sampling, null accounting, MCV and histogram build.

Every analyzed row lands in exactly one partition: null, most-common value,
or histogram.  The fractions of the three partitions drive the combined
selectivity estimates.

AttributeStats checks its own invariants when built, so the document
loader checks only the JSON shape and the estimators check nothing.

ANALYZE sorts the non-null sample once, as PostgreSQL's
``compute_scalar_stats`` (``src/backend/commands/analyze.c``) does, and
builds the MCV list and the histogram from that one sorted array: the
histogram boundaries are read from it by rank, past the MCV runs.  Every
zero in the sorted sample is written as +0.0, so a statistics document
holds one zero whatever signs the column's zeros had.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from ._util import as_float_column
from .histogram import EquiDepthHistogram
from .mcv import EMPTY_MCV, MostCommonValues, _mcv_of_runs, _runs

# Sample size grows with the requested resolution, as statistics collectors
# commonly do; pass an explicit cap >= N to analyze the full column.
SAMPLE_ROWS_PER_TARGET = 300


@dataclass(frozen=True)
class AttributeStats:
    """Null fraction, MCV list and residual histogram for one column.

    MCV fractions are relative to the non-null rows; the null fraction
    applies multiplicatively on top.  The histogram covers the non-null
    rows that are not in the MCV list, so without a histogram the MCV list
    covers them all, unless every row is null.  The row count is at least 0
    and the statistics target at least 1.  The constructor rejects
    statistics that break these rules, so an estimate never has to check.
    """

    null_frac: float
    mcv: MostCommonValues
    histogram: EquiDepthHistogram | None
    row_count: int
    statistics_target: int

    def __post_init__(self):
        # written so that NaN fails too
        if not 0.0 <= self.null_frac <= 1.0:
            raise ValueError("null_frac out of range")
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
        """Share of non-null rows covered by the histogram (p_hist)."""
        return 1.0 - self.mcv.total_fraction


def sample_rows(n: int, cap: int, seed: int) -> np.ndarray:
    """Indices of a uniform sample without replacement; the full column if cap >= n."""
    if cap < 1:
        raise ValueError("sample cap must be at least 1")
    if cap >= n:
        return np.arange(n)
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=cap, replace=False)


def analyze_column(
    values,
    statistics_target: int,
    sample_seed: int = 0,
    sample_cap: int | None = None,
) -> AttributeStats:
    """Build AttributeStats from a column of nullable scalars (None or NaN = null).

    A seeded uniform sample of min(sample_cap, N) rows is analyzed.  MCV
    entries are capped at statistics_target; the residual histogram gets
    statistics_target bins, reduced when the residual has too few distinct
    values (one bin minimum), and is omitted when nothing is left for it.

    The non-null sample is sorted once, as ``compute_scalar_stats`` does,
    and one comparison of neighbours finds its runs of equal values: the
    MCV list is built from them, as ``build_mcv`` builds it, and their
    number is the sample's distinct count.  The residual is the sorted
    sample with the MCV runs cut out, but it is not copied out: its
    distinct count is the sample's less the MCV entries, and boundary j, at
    residual rank floor(j * (N-1) / B) as in ``build_equi_depth``, is read
    from the sorted sample past the MCV runs before that rank.  -0.0 and
    0.0 compare equal, so the sample's zeros are one run, which is set to
    +0.0: an MCV entry or boundary at zero is always +0.0.
    """
    if statistics_target < 1:
        raise ValueError("statistics target must be at least 1")
    if sample_cap is None:
        sample_cap = SAMPLE_ROWS_PER_TARGET * statistics_target
    data = as_float_column(values)
    if np.any(np.isinf(data)):
        raise ValueError("values must be finite")
    if data.size == 0:
        raise ValueError("no data")

    sample = data
    if sample_cap < data.size:
        sample = data[sample_rows(data.size, sample_cap, sample_seed)]
    nulls = np.isnan(sample)
    null_count = int(np.count_nonzero(nulls))
    null_frac = null_count / sample.size
    if null_count == sample.size:
        return AttributeStats(null_frac, EMPTY_MCV, None, int(sample.size), statistics_target)
    ordered = sample[~nulls] if null_count else sample.copy()
    ordered.sort()
    ordered[np.searchsorted(ordered, 0.0, "left"):np.searchsorted(ordered, 0.0, "right")] = 0.0

    starts, counts, distinct = _runs(ordered)
    mcv = _mcv_of_runs(ordered, starts, counts, statistics_target)
    # The MCV runs cut the sorted sample into kept stretches (possibly
    # empty), one more than there are runs; the residual is their
    # concatenation.  skipped[k] counts the MCV rows before stretch k and
    # ends[k] is the residual rank one past it.
    cuts = np.sort(mcv.values)
    lefts = np.searchsorted(ordered, cuts, side="left")
    skipped = np.concatenate(([0], np.cumsum(np.searchsorted(ordered, cuts, "right") - lefts)))
    ends = np.append(lefts, ordered.size) - skipped
    size = int(ends[-1])

    histogram = None
    if size:
        bins = min(statistics_target, max(distinct - len(mcv) - 1, 1))
        ranks = np.arange(bins + 1) * (size - 1) // bins
        bounds = ordered[ranks + skipped[np.searchsorted(ends, ranks, side="right")]]
        histogram = EquiDepthHistogram(bounds)

    return AttributeStats(null_frac, mcv, histogram, int(sample.size), statistics_target)


# ---------------------------------------------------------------------------
# Interchange format: a JSON document, numbers at full (round-trip) precision.
# A document is its type's fields in declaration order, nested statistics
# objects as nested documents.


def _doc(obj):
    """A dataclass as a JSON object of its fields, an array as a list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if is_dataclass(obj):
        return {f.name: _doc(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def save_stats(s: AttributeStats) -> bytes:
    return json.dumps(_doc(s)).encode("utf-8")


def _require(doc: dict, fld: str):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object holding {fld}")
    if fld not in doc:
        raise ValueError(f"missing field {fld}")
    return doc[fld]


def _is_number(t: type) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _require_number(doc: dict, fld: str) -> float:
    v = _require(doc, fld)
    if not _is_number(type(v)):
        raise ValueError(f"{fld} must be a number")
    try:
        return float(v)
    except OverflowError:       # a JSON integer beyond float range
        raise ValueError(f"{fld} holds a number beyond float range") from None


def _require_numbers(doc: dict, fld: str) -> np.ndarray:
    v = _require(doc, fld)
    # one check per distinct element type, not per element
    if not isinstance(v, list) or not all(map(_is_number, set(map(type, v)))):
        raise ValueError(f"{fld} must be an array of numbers")
    try:
        return np.array(v, dtype=np.float64)
    except OverflowError:       # a JSON integer beyond float range
        raise ValueError(f"{fld} holds a number beyond float range") from None


def _require_int(doc: dict, fld: str) -> int:
    v = _require(doc, fld)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{fld} must be an integer")
    return v


def stats_from_dict(doc: dict) -> AttributeStats:
    null_frac = _require_number(doc, "null_frac")
    mcv_doc = _require(doc, "mcv")
    mcv_values = _require_numbers(mcv_doc, "values")
    mcv_fractions = _require_numbers(mcv_doc, "fractions")
    try:
        mcv = MostCommonValues(mcv_values, mcv_fractions)
    except ValueError as exc:
        raise ValueError(f"invalid mcv: {exc}") from None

    hist_doc = _require(doc, "histogram")
    histogram = None
    if hist_doc is not None:
        histogram = EquiDepthHistogram(_require_numbers(hist_doc, "bounds"))
    row_count = _require_int(doc, "row_count")
    target = _require_int(doc, "statistics_target")
    return AttributeStats(null_frac, mcv, histogram, row_count, target)


def _parse_json(data: bytes | str):
    """The JSON value of a document's UTF-8 bytes or its text."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    # a deeply nested document exhausts the parser's recursion limit
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None


def load_stats(data: bytes | str) -> AttributeStats:
    return stats_from_dict(_parse_json(data))
