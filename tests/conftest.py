import numpy as np
import pytest

from ineqsel import EquiDepthHistogram, build_equi_depth, cdf

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
