"""Equi-depth histograms and the distribution functions derived from them.

A histogram with B bins is stored as a sorted array of B+1 boundary values.
Every bin carries mass exactly 1/B, so bin widths adapt to the data: dense
regions get narrow bins, sparse regions wide ones.  The approximate CDF is
piecewise linear (uniform-within-bin assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import ArrayFields, as_column, sorted_finite


@dataclass(frozen=True, eq=False)
class EquiDepthHistogram(ArrayFields):
    """Sorted bin boundaries; bounds[0] is the observed min, bounds[-1] the max.

    Boundaries may repeat when the underlying data is heavily tied.  A
    zero-width bin represents a point mass of 1/B: the CDF steps by that
    amount at the shared boundary value and stays right-continuous.
    """

    bounds: np.ndarray = field(repr=True)

    def __post_init__(self):
        bounds = np.array(as_column(self.bounds))
        if bounds.size < 2:
            raise ValueError("histogram needs at least two boundaries")
        if not np.all(np.isfinite(bounds)):
            raise ValueError("histogram boundaries must be finite")
        if np.any(bounds[1:] < bounds[:-1]):
            raise ValueError("bounds not sorted")
        self._freeze(bounds=bounds)

    @property
    def bin_count(self) -> int:
        return self.bounds.size - 1

    @property
    def lo(self) -> float:
        return float(self.bounds[0])

    @property
    def hi(self) -> float:
        return float(self.bounds[-1])


def build_equi_depth(values, bin_count: int) -> EquiDepthHistogram:
    """Build a B-bin equi-depth histogram from raw (non-null, finite) values.

    Boundary j is the element at rank floor(j * (N-1) / B) of the sorted
    input, so the boundaries are always observed values and the first/last
    boundaries are the min/max.  Sorted input is not sorted again.
    """
    if bin_count < 1:
        raise ValueError("invalid bin count")
    data = as_column(values)
    if data.size == 0:
        raise ValueError("no data")
    data = sorted_finite(data)
    return EquiDepthHistogram(data[np.arange(bin_count + 1) * (data.size - 1) // bin_count])


def cdf(h: EquiDepthHistogram, c: float | np.ndarray) -> float | np.ndarray:
    """Approximate P(X <= c): 0 below the histogram, 1 at and above its max,
    linear interpolation within the containing bin otherwise.

    Right-continuous; at a repeated boundary the value jumps by 1/B per
    zero-width bin collapsed there.  ``c`` may be a scalar, which gives a
    Python float, or an array of points, which gives an array of the same
    shape from one ``searchsorted``.
    """
    bounds = h.bounds
    x = np.asarray(c, dtype=np.float64)
    # Bin j holds x in [bounds[j], bounds[j+1]), which has positive width
    # inside [lo, hi); points outside land in bin 0 or B-1, possibly of
    # zero width, and take their value from the np.where below.
    j = np.searchsorted(bounds[1:-1], x, side="right")
    lo, hi, at = bounds[j], bounds[j + 1], x
    if h.hi - h.lo == np.inf:
        # A span beyond the float range would overflow a bin's width;
        # halving is exact for normal floats and keeps every width finite.
        lo, hi, at = lo / 2, hi / 2, at / 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = (j + (at - lo) / (hi - lo)) / h.bin_count
    f = np.where(x < bounds[0], 0.0, np.where(x >= bounds[-1], 1.0, f))
    return float(f) if f.ndim == 0 else f
