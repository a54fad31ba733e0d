"""Restriction and join selectivity for scalar inequality operators.

The operator algebra reduces everything to the less-than case:

* restriction: P(X < c) is the histogram CDF at c, plus the exact MCV mass
  below c; GE/GT are complements, LE adds the recoverable equality mass.
  The CDF is right-continuous, so at a zero-width bin's value LT counts its
  mass and GE does not: at c = 5, a point mass at 5 gives LT 1.0 and GE
  0.0, where the model gives 0 and 1.
* join: P(X < Y) integrates F_X against Y's density.  When neither
  histogram has a zero-width bin, both CDFs are piecewise linear between
  the merged boundaries of the two histograms, so one trapezoid sum over
  those knots, with each CDF evaluated on all of them in one array call,
  integrates their product exactly; the sum takes a zero-width bin's step
  as a ramp from the knot before.  A histogram side against an MCV list is
  one dot product of the MCV fractions with the CDF at the MCV values.
  Equality mass between two histograms is taken to be zero (continuous
  assumption); only MCV overlap contributes P(X = Y).

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
    if np.isnan(c):
        # cdf carries a NaN point through to the estimate
        raise ValueError("restriction constant is NaN")
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

    Evaluates F_X and F_Y on the merged distinct boundaries s_0 < ... < s_k
    and sums the trapezoid terms (F_X(s_i) + F_X(s_i+1)) * (F_Y(s_i+1) - F_Y(s_i)).
    When neither histogram has a zero-width bin, the product F_X * f_Y is
    linear on each piece, so this evaluates the integral exactly.  A
    zero-width bin is a step of its CDF, which the sum takes as a ramp from
    the knot before: join_lt_hist([5, 5], [3, 7]) is 0.75, where the model
    gives P(Y > 5) = 0.5.  No piece ends at s_0, so steps of both CDFs there
    add nothing (a tie between histograms does not count); past X's
    support F_X is 1, so the remaining mass of Y counts in full.
    """
    knots = np.union1d(hx.bounds, hy.bounds)
    fx = cdf(hx, knots)
    fy = cdf(hy, knots)
    return clamp01(float(np.dot(fx[:-1] + fx[1:], np.diff(fy))) / 2.0)


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
    return float(mx.fractions @ (1.0 - cdf(hy, mx.values)))


def join_lt_hist_mcv(hx: EquiDepthHistogram, my: MostCommonValues) -> float:
    """P(X < Y) with X described by a histogram and Y by an MCV list."""
    return float(my.fractions @ cdf(hx, my.values))


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
