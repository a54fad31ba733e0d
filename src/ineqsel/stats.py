"""Per-attribute statistics: sampling, null accounting, MCV and histogram build.

Every analyzed row lands in exactly one partition: null, most-common value,
or histogram.  The fractions of the three partitions drive the combined
selectivity estimates.

ANALYZE sorts the non-null sample once, as PostgreSQL's
``compute_scalar_stats`` (``src/backend/commands/analyze.c``) does, and
builds the MCV list, the residual and the histogram from that one sorted
array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._util import as_float_column
from .histogram import EquiDepthHistogram, build_equi_depth
from .mcv import EMPTY_MCV, MostCommonValues, build_mcv

# Sample size grows with the requested resolution, as statistics collectors
# commonly do; pass an explicit cap >= N to analyze the full column.
SAMPLE_ROWS_PER_TARGET = 300


@dataclass(frozen=True)
class AttributeStats:
    """Null fraction, MCV list and residual histogram for one column.

    MCV fractions are relative to the non-null rows; the null fraction
    applies multiplicatively on top.  The histogram covers the non-null
    rows that are not in the MCV list.
    """

    null_frac: float
    mcv: MostCommonValues
    histogram: EquiDepthHistogram | None
    row_count: int
    statistics_target: int

    @property
    def mcv_fraction(self) -> float:
        """Share of non-null rows covered by the MCV list (p_mcv)."""
        return self.mcv.total_fraction

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

    The non-null sample is sorted once, as ``compute_scalar_stats`` does.
    ``build_mcv`` reads the runs of equal values in it.  The residual is the
    sorted sample with the MCV runs cut out, so it is sorted too; its
    distinct count is the number of runs left, and ``build_equi_depth``
    picks the boundaries from it without sorting again.
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

    rows = sample_rows(data.size, sample_cap, sample_seed)
    sample = data[rows] if rows.size < data.size else data
    nulls = np.isnan(sample)
    null_frac = float(nulls.sum() / sample.size)
    nonnull = sample[~nulls]

    if nonnull.size == 0:
        return AttributeStats(null_frac, EMPTY_MCV, None, int(sample.size), statistics_target)

    ordered = np.sort(nonnull)
    mcv = build_mcv(ordered, max_entries=statistics_target)
    residual = ordered
    if len(mcv):
        # the edges cut the sorted sample into kept stretches (possibly
        # empty) and MCV runs, alternately, starting with a kept stretch
        cuts = np.sort(mcv.values)
        edges = np.empty(2 * cuts.size + 2, dtype=np.intp)
        edges[0], edges[-1] = 0, ordered.size
        edges[1:-1:2] = np.searchsorted(ordered, cuts, side="left")
        edges[2:-1:2] = np.searchsorted(ordered, cuts, side="right")
        kept = np.arange(edges.size - 1) % 2 == 0
        residual = ordered[np.repeat(kept, np.diff(edges))]
        zeros = np.searchsorted(residual, 0.0, "right") - np.searchsorted(residual, 0.0, "left")
        if zeros and 0 < np.count_nonzero(np.signbit(nonnull) & (nonnull == 0)) < zeros:
            # numpy's sort may hand back either sign for each element of a
            # run that mixes -0.0 and 0.0, so the signs of zero boundaries
            # depend on which array was sorted.  Sort the residual in sample
            # order, as the boundaries have always been taken, to keep them.
            in_mcv = cuts[np.searchsorted(cuts, nonnull).clip(max=cuts.size - 1)] == nonnull
            residual = np.sort(nonnull[~in_mcv])

    histogram = None
    if residual.size:
        distinct = 1 + np.count_nonzero(residual[1:] != residual[:-1])
        bins = min(statistics_target, max(distinct - 1, 1))
        histogram = build_equi_depth(residual, bins)

    return AttributeStats(null_frac, mcv, histogram, int(sample.size), statistics_target)


# ---------------------------------------------------------------------------
# Interchange format: a JSON document, numbers at full (round-trip) precision.


def stats_to_dict(s: AttributeStats) -> dict:
    return {
        "null_frac": s.null_frac,
        "mcv": {
            "values": s.mcv.values.tolist(),
            "fractions": s.mcv.fractions.tolist(),
        },
        "histogram": None if s.histogram is None else {"bounds": s.histogram.bounds.tolist()},
        "row_count": s.row_count,
        "statistics_target": s.statistics_target,
    }


def save_stats(s: AttributeStats) -> bytes:
    return json.dumps(stats_to_dict(s)).encode("utf-8")


def _require(doc: dict, fld: str):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object holding {fld}")
    if fld not in doc:
        raise ValueError(f"missing field {fld}")
    return doc[fld]


def _is_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _require_fraction(doc: dict, fld: str) -> float:
    v = _require(doc, fld)
    if not _is_number(v) or not 0 <= v <= 1:
        raise ValueError(f"{fld} out of range")
    return float(v)


def _require_numbers(doc: dict, fld: str) -> np.ndarray:
    v = _require(doc, fld)
    if not isinstance(v, list) or not all(_is_number(x) for x in v):
        raise ValueError(f"{fld} must be an array of numbers")
    try:
        return np.array(v, dtype=np.float64)
    except OverflowError:       # a JSON integer beyond float range
        raise ValueError(f"{fld} holds a number beyond float range") from None


def _require_int(doc: dict, fld: str, minimum: int) -> int:
    v = _require(doc, fld)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise ValueError(f"{fld} must be an integer of at least {minimum}")
    return v


def stats_from_dict(doc: dict) -> AttributeStats:
    if not isinstance(doc, dict):
        raise ValueError("stats document must be a JSON object")
    null_frac = _require_fraction(doc, "null_frac")
    mcv_doc = _require(doc, "mcv")
    mcv_values = _require_numbers(mcv_doc, "values")
    mcv_fractions = _require_numbers(mcv_doc, "fractions")
    if len(mcv_values) != len(mcv_fractions):
        raise ValueError("mcv values and fractions differ in length")
    try:
        mcv = MostCommonValues(mcv_values, mcv_fractions)
    except ValueError as exc:
        raise ValueError(f"invalid mcv: {exc}") from None

    hist_doc = _require(doc, "histogram")
    histogram = None
    if hist_doc is not None:
        try:
            histogram = EquiDepthHistogram(_require_numbers(hist_doc, "bounds"))
        except ValueError as exc:
            raise ValueError(str(exc)) from None
    elif null_frac < 1 and abs(mcv.total_fraction - 1) > 1e-9:
        # without a histogram the MCV list must cover every non-null row
        raise ValueError(
            f"mcv fractions sum to {mcv.total_fraction:g} and there is no histogram"
        )

    row_count = _require_int(doc, "row_count", 0)
    target = _require_int(doc, "statistics_target", 1)
    return AttributeStats(null_frac, mcv, histogram, row_count, target)


def _parse_json(data: bytes | str):
    """The JSON value of a document's UTF-8 bytes or its text."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from None


def load_stats(data: bytes | str) -> AttributeStats:
    return stats_from_dict(_parse_json(data))
