"""Restriction and join selectivity for scalar inequality operators.

The operator algebra reduces everything to the less-than case:

* restriction: P(X < c) is the histogram CDF at c, plus the exact MCV mass
  below c; GE/GT are complements, LE adds the recoverable equality mass.
* join: P(X < Y) integrates F_X against Y's density.  Both CDFs are
  piecewise linear, so their product integrates exactly by the trapezoid
  rule over the merged boundary sequence.  Equality mass between two
  histograms is taken to be zero (continuous assumption); only MCV overlap
  contributes P(X = Y).

Estimates combine the per-partition results weighted by the null / MCV /
histogram fractions of each side.  All inequality operators are strict, so
null rows contribute nothing.

Ties between point masses (MCV entries, or zero-width histogram bins) are
counted differently per pair of partitions, for P(X < Y):

* histogram X, MCV Y: a tie counts as X < Y (the CDF is right-continuous);
* MCV X, histogram Y: a tie does not count;
* histogram X, histogram Y: a tie does not count;
* MCV X, MCV Y: a tie does not count for LT and counts in full for LE.

LE adds only the MCV x MCV equality mass to LT, GT is LT with the sides
swapped, and GE is the complement of LT.
"""

from __future__ import annotations

import numpy as np

from ._util import clamp01
from .histogram import EquiDepthHistogram, cdf
from .mcv import MostCommonValues, mcv_restriction_selectivity
from .operators import ScalarOp
from .stats import AttributeStats


class InsufficientStatisticsError(ValueError):
    """Raised when an estimate needs a statistics component that is absent."""


def _check_usable(s: AttributeStats) -> None:
    if len(s.mcv) == 0 and s.histogram is None and s.null_frac < 1.0:
        raise InsufficientStatisticsError("insufficient statistics")


def restriction_selectivity(s: AttributeStats, c: float, op: ScalarOp) -> float:
    """Estimate the fraction of rows with ``value <op> c``.

    Combines the exact MCV filter with the interpolated histogram CDF, then
    scales by the non-null fraction.
    """
    if op not in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE):
        raise ValueError(f"unsupported restriction operator {op}")
    if s.null_frac >= 1.0:
        return 0.0
    _check_usable(s)

    mcv_mass = mcv_restriction_selectivity(s.mcv, c, op)
    hist_mass = 0.0
    if s.histogram is not None and s.hist_fraction > 0.0:
        f = cdf(s.histogram, c)
        # Within the histogram partition P(X = c) is 0, so LE behaves as LT
        # and GT as GE; equality mass comes from the MCV term alone.
        below = f if op in (ScalarOp.LT, ScalarOp.LE) else 1.0 - f
        hist_mass = s.hist_fraction * below

    return clamp01((1.0 - s.null_frac) * (mcv_mass + hist_mass))


def join_lt_hist(hx: EquiDepthHistogram, hy: EquiDepthHistogram) -> float:
    """P(X < Y) for two histogram-described attributes.

    Walks the two sorted boundary arrays in parallel, accumulating the
    trapezoid term (F_X(s) + F_X(s')) * (F_Y(s') - F_Y(s)) over consecutive
    distinct merged boundaries.  The product F_X * f_Y is linear on each
    such piece, so this evaluates the integral exactly.  Boundaries outside
    the overlap of the two supports are skipped: below it every term is
    zero, and above X's support the remaining mass of Y counts in full.
    """
    bx, by = hx.bounds, hy.bounds
    nx, ny = hx.bin_count, hy.bin_count
    lo = max(bx[0], by[0])
    hi = min(bx[-1], by[-1])
    if hi < lo:
        # Disjoint supports: X is either entirely below Y or entirely above.
        return 1.0 if bx[-1] <= by[0] else 0.0

    # i, j: greatest boundary index at or below the current merged boundary.
    i = int(np.searchsorted(bx, lo, side="right")) - 1
    j = int(np.searchsorted(by, lo, side="right")) - 1

    def fx(s: float, i: int) -> float:
        if i >= nx:
            return 1.0
        return (i + (s - bx[i]) / (bx[i + 1] - bx[i])) / nx

    def fy(s: float, j: int) -> float:
        if j >= ny:
            return 1.0
        return (j + (s - by[j]) / (by[j + 1] - by[j])) / ny

    prev_fx = fx(lo, i)
    prev_fy = fy(lo, j)
    acc = 0.0

    # Every piece below lo is zero except, when a CDF steps at its own
    # support minimum (duplicated leading boundary), the one piece ending
    # at lo; account for it against the nearest boundary below lo.
    if prev_fx > 0.0 or prev_fy > 0.0:
        kx = int(np.searchsorted(bx, lo, side="left")) - 1
        ky = int(np.searchsorted(by, lo, side="left")) - 1
        below = [float(bx[kx])] if kx >= 0 else []
        if ky >= 0:
            below.append(float(by[ky]))
        if below:
            s_prev = max(below)
            acc += (cdf(hx, s_prev) + prev_fx) * (prev_fy - cdf(hy, s_prev))

    s = lo
    while s < hi:
        # next distinct merged boundary
        nxt_x = bx[i + 1] if i + 1 <= nx else None
        nxt_y = by[j + 1] if j + 1 <= ny else None
        if nxt_y is None or (nxt_x is not None and nxt_x <= nxt_y):
            s = nxt_x
        else:
            s = nxt_y
        while i + 1 <= nx and bx[i + 1] <= s:
            i += 1
        while j + 1 <= ny and by[j + 1] <= s:
            j += 1
        cur_fx = fx(s, i)
        cur_fy = fy(s, j)
        acc += (prev_fx + cur_fx) * (cur_fy - prev_fy)
        prev_fx, prev_fy = cur_fx, cur_fy

    if bx[-1] < by[-1]:
        # F_X is 1 past its support; Y's remaining mass qualifies in full.
        acc += 2.0 * (1.0 - prev_fy)
    return clamp01(acc / 2.0)


def join_lt_mcv_mcv(mx: MostCommonValues, my: MostCommonValues, op: ScalarOp) -> float:
    """Pairwise-exact P(X <op> Y) over the rows both MCV lists cover."""
    if len(mx) == 0 or len(my) == 0:
        return 0.0
    total = 0.0
    for value, fraction in zip(my.values, my.fractions):
        total += fraction * mcv_restriction_selectivity(mx, value, op)
    return float(total)


def join_lt_mcv_hist(mx: MostCommonValues, hy: EquiDepthHistogram) -> float:
    """P(X < Y) with X described by an MCV list and Y by a histogram."""
    return float(
        sum(f * (1.0 - cdf(hy, v)) for v, f in zip(mx.values, mx.fractions))
    )


def join_lt_hist_mcv(hx: EquiDepthHistogram, my: MostCommonValues) -> float:
    """P(X < Y) with X described by a histogram and Y by an MCV list."""
    return float(
        sum(f * cdf(hx, v) for v, f in zip(my.values, my.fractions))
    )


def _join_lt_conditional(sx: AttributeStats, sy: AttributeStats) -> float:
    """P(X < Y) given both sides non-null, combining all partition pairs."""
    phx, phy = sx.hist_fraction, sy.hist_fraction
    total = join_lt_mcv_mcv(sx.mcv, sy.mcv, ScalarOp.LT)
    if phx > 0.0 and sx.histogram is not None and len(sy.mcv):
        total += phx * join_lt_hist_mcv(sx.histogram, sy.mcv)
    if phy > 0.0 and sy.histogram is not None and len(sx.mcv):
        total += phy * join_lt_mcv_hist(sx.mcv, sy.histogram)
    if phx > 0.0 and phy > 0.0 and sx.histogram is not None and sy.histogram is not None:
        total += phx * phy * join_lt_hist(sx.histogram, sy.histogram)
    return total


def _mcv_equality_mass(mx: MostCommonValues, my: MostCommonValues) -> float:
    return join_lt_mcv_mcv(mx, my, ScalarOp.EQ)


def join_selectivity(sx: AttributeStats, sy: AttributeStats, op: ScalarOp) -> float:
    """Estimate the fraction of the Cartesian product with ``x <op> y``."""
    if op is ScalarOp.GT:
        return join_selectivity(sy, sx, ScalarOp.LT)
    if op not in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GE):
        raise ValueError(f"unsupported join operator {op}")
    if sx.null_frac >= 1.0 or sy.null_frac >= 1.0:
        return 0.0
    _check_usable(sx)
    _check_usable(sy)

    lt = _join_lt_conditional(sx, sy)
    if op is ScalarOp.LT:
        cond = lt
    elif op is ScalarOp.GE:
        cond = 1.0 - lt
    else:  # LE
        cond = lt + _mcv_equality_mass(sx.mcv, sy.mcv)
    return clamp01((1.0 - sx.null_frac) * (1.0 - sy.null_frac) * cond)
