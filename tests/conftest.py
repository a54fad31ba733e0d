import numpy as np
import pytest

from ineqsel import EquiDepthHistogram, cdf
from ineqsel.histogram import build_equi_depth
from ineqsel.mcv import EMPTY_MCV, MostCommonValues
from ineqsel.stats import SAMPLE_ROWS_PER_TARGET, AttributeStats, sample_rows

R1_X = [10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45]
R2_Y = [15, 16, 17, 20, 30, 35, 38, 39, 40, 42, 45, 50]


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
    count and a fresh sort for the histogram boundaries.
    """
    if sample_cap is None:
        sample_cap = SAMPLE_ROWS_PER_TARGET * statistics_target
    data = np.asarray(values, dtype=np.float64)
    sample = data[sample_rows(data.size, sample_cap, sample_seed)]
    nulls = np.isnan(sample)
    null_frac = float(nulls.sum() / sample.size)
    nonnull = sample[~nulls]
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
