import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from ineqsel import EquiDepthHistogram, RangeColumn, RangeValue, cdf
from ineqsel.harness import EMPTY_FRAC, INF_FRAC, NULL_FRAC
from ineqsel.histogram import build_equi_depth
from ineqsel.mcv import EMPTY_MCV, MostCommonValues
from ineqsel.ranges import EMPTY_RANGE
from ineqsel.stats import SAMPLE_ROWS_PER_TARGET, AttributeStats


def nested_arrays(obj):
    """Every numpy array an object holds, in its nested dataclasses too."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from nested_arrays(getattr(obj, f.name))


def to_doc(obj):
    """A dataclass as a JSON object of its fields, an array as a list."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: to_doc(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def reference_doc(obj) -> bytes:
    """A statistics object's document as ``json.dumps`` writes its field
    tree: the byte-identity reference for ``save_stats`` and
    ``save_range_stats``, with every array a list of floats."""
    return json.dumps(to_doc(obj)).encode("utf-8")


def assert_copies_rebuilt(obj):
    """A pickled, a copied and a deep-copied ``obj`` each equal it and
    hold only read-only arrays."""
    for back in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert back == obj, back
        assert not any(a.flags.writeable for a in nested_arrays(back)), back


R1_X = [10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45]
R2_Y = [15, 16, 17, 20, 30, 35, 38, 39, 40, 42, 45, 50]

# A null is a NaN of any bit pattern: quiet, negative (-np.nan), with a
# payload, and both signalling patterns, which no arithmetic has quieted.
NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8DEAD00000000,
            0x7FF0000000000001, 0xFFF0000000000001)
NAN_PATTERNS = np.array(NAN_BITS, dtype=np.uint64).view(np.float64)


@pytest.fixture
def r1_x():
    return list(R1_X)


@pytest.fixture
def r2_y():
    return list(R2_Y)


@pytest.fixture
def hist_x():
    return build_equi_depth(R1_X, 3)


@pytest.fixture
def hist_y():
    return build_equi_depth(R2_Y, 3)


def sync_trapezoid(hx: EquiDepthHistogram, hy: EquiDepthHistogram) -> float:
    """Materialized-sync trapezoid evaluation of the join integral.

    Deliberately naive: merge and deduplicate all boundaries in Python,
    then apply the trapezoid term to every piece via fresh scalar CDF
    calls.  Serves as the independent reference for ``join_lt_hist``,
    which evaluates the same formula with array CDF calls and one dot
    product.
    """
    sync = sorted(set(hx.bounds.tolist()) | set(hy.bounds.tolist()))
    total = 0.0
    for a, b in zip(sync, sync[1:]):
        total += (cdf(hx, a) + cdf(hx, b)) * (cdf(hy, b) - cdf(hy, a))
    return total / 2.0


def random_histogram(rng: np.random.Generator, max_bins: int = 50) -> EquiDepthHistogram:
    """Random histogram with occasional duplicate boundaries and, often,
    boundaries drawn from a coarse integer grid so two independently drawn
    histograms share values."""
    bins = int(rng.integers(1, max_bins + 1))
    if rng.random() < 0.5:
        bounds = rng.integers(-20, 21, size=bins + 1).astype(float)
    else:
        bounds = rng.uniform(-100.0, 100.0, size=bins + 1)
    bounds = np.sort(bounds)
    if rng.random() < 0.3:
        for _ in range(int(rng.integers(1, bins + 1))):
            i = int(rng.integers(0, bins))
            bounds[i + 1] = bounds[i]
        bounds = np.sort(bounds)
    return EquiDepthHistogram(bounds)


def multipass_analyze_column(values, statistics_target, sample_seed=0, sample_cap=None):
    """Multi-pass ANALYZE: the byte-identity reference for ``analyze_column``.

    Deliberately naive: ``np.unique`` and ``lexsort`` for the MCV list,
    ``np.isin`` for the residual, a second ``np.unique`` for its distinct
    count and a fresh sort for the histogram boundaries.  It draws its own
    rows: every row when the cap covers the column, else the seeded
    uniform sample ``default_rng(seed).choice`` draws without replacement.
    """
    if sample_cap is None:
        sample_cap = SAMPLE_ROWS_PER_TARGET * statistics_target
    sample = np.asarray(values, dtype=np.float64)
    if sample_cap < sample.size:
        rows = np.random.default_rng(sample_seed).choice(sample.size, size=sample_cap, replace=False)
        sample = sample[rows]
    nulls = np.isnan(sample)
    null_frac = float(nulls.sum() / sample.size)
    nonnull = sample[~nulls] + 0.0     # ANALYZE writes every zero as +0.0
    if nonnull.size == 0:
        return AttributeStats(null_frac, EMPTY_MCV, None, int(sample.size), statistics_target)

    uniq, counts = np.unique(nonnull, return_counts=True)
    keep = counts >= 2
    uniq, counts = uniq[keep], counts[keep]
    mcv = EMPTY_MCV
    if uniq.size:
        order = np.lexsort((uniq, -counts))[:statistics_target]
        mcv = MostCommonValues(uniq[order], counts[order] / nonnull.size)
    residual = nonnull[~np.isin(nonnull, mcv.values)] if len(mcv) else nonnull

    histogram = None
    if residual.size:
        bins = min(statistics_target, max(np.unique(residual).size - 1, 1))
        ordered = np.sort(residual)
        n = ordered.size
        idx = [(j * (n - 1)) // bins for j in range(bins + 1)]
        histogram = EquiDepthHistogram(ordered[idx])
    return AttributeStats(null_frac, mcv, histogram, int(sample.size), statistics_target)


def normalized_row(lower, upper, lower_closed, upper_closed, empty=False) -> RangeValue:
    """The per-row range rules: the reference for ``RangeColumn``'s normalization.

    Deliberately naive: one row at a time in plain Python.  A NaN bound or
    bounds out of order raise; infinite bounds are open; a range whose
    bounds coincide without both being closed is empty; an empty row holds
    bounds 0.0 with both flags false.
    """
    if empty:
        return EMPTY_RANGE
    lower, upper = float(lower), float(upper)
    if math.isnan(lower) or math.isnan(upper):
        raise ValueError("range bounds may not be NaN")
    if lower == math.inf or upper == -math.inf or lower > upper:
        raise ValueError("range bounds out of order")
    lower_closed = bool(lower_closed) and not math.isinf(lower)
    upper_closed = bool(upper_closed) and not math.isinf(upper)
    if lower == upper and not (lower_closed and upper_closed):
        return EMPTY_RANGE
    return RangeValue(lower, upper, lower_closed, upper_closed)


def column_row(lower, upper, lower_closed=True, upper_closed=True) -> RangeValue:
    """The row a ``RangeColumn`` makes of these fields, checked and normalized."""
    return RangeColumn.from_values([RangeValue(lower, upper, lower_closed, upper_closed)])[0]


def walk_row_starts(d, rows) -> np.ndarray:
    """The offsets in the stream ``d`` at which ``generate_range_column``'s
    first ``rows`` rows start: the reference for ``harness._row_starts``.

    Deliberately naive: one step per row over a list of every offset's
    draw count, 1 for a null or empty row, 8 for a row with an infinite
    bound and 7 for any other.
    """
    blank = d[:-7] < NULL_FRAC + EMPTY_FRAC
    draws = np.where(blank, 1, np.where(d[6:-1] < INF_FRAC, 8, 7)).tolist()
    starts = []
    at = 0
    for _ in range(rows):
        starts.append(at)
        at += draws[at]
    return np.array(starts)
