"""Small internal helpers."""

from __future__ import annotations

import numpy as np


def as_float_column(values) -> np.ndarray:
    """Coerce a sequence of nullable scalars to a float64 array, nulls as NaN.

    A bool, integer or float array is cast in one step, which rounds as
    float() does; any other values are converted one by one.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        return values.astype(np.float64, copy=False)
    return np.array([np.nan if v is None else float(v) for v in values], dtype=np.float64)


def sorted_finite(values) -> np.ndarray:
    """``values`` as a sorted float64 array, sorted only when it is not already.

    The order check is one O(n) comparison.  Once sorted, -inf sorts first
    and +inf and NaN sort last, so checking the two ends checks every value.
    """
    data = np.asarray(values, dtype=np.float64)
    if not np.all(data[1:] >= data[:-1]):
        data = np.sort(data)
    if data.size and not (np.isfinite(data[0]) and np.isfinite(data[-1])):
        raise ValueError("values must be finite")
    return data


def clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else float(x)
