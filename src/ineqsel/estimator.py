"""Restriction and join selectivity for scalar inequality operators.

The operator algebra reduces everything to the less-than case:

* restriction: ``x <op> c`` is the join of X with a one-row column holding
  c, whose statistics are the one-entry MCV list {c: 1.0}.  So P(X < c) is
  X's MCV mass below c plus its histogram share times F_X(c), LE adds X's
  MCV mass at c, GE is the complement of LT and GT swaps the sides.  The
  MCV x MCV term restricts the longer list once per entry of the shorter,
  so a restriction costs one pass over X's MCV list for every operator.
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
  assumption); only MCV overlap contributes P(X = Y), in the MCV x MCV
  term of LE.

An estimate is one sum over the partition pairs of the two sides, MCV x
MCV, histogram x MCV, MCV x histogram and histogram x histogram, each
weighted by the MCV or histogram shares of its sides, then clamped to
[0, 1] and scaled by both non-null shares; every operator and every
statistics object runs the whole sum.  An empty MCV list or a histogram
share of 0 makes its terms 0, and an all-null side makes the estimate 0.
All inequality operators are strict, so null rows contribute nothing.
Nothing is checked here: AttributeStats rejects a null fraction outside
[0, 1] and non-null rows left undescribed.

Ties between point masses (MCV entries, or zero-width histogram bins) are
counted differently per pair of partitions, for P(X < Y):

* histogram X, MCV Y: a tie counts as X < Y (the CDF is right-continuous);
* MCV X, histogram Y: a tie does not count;
* histogram X, histogram Y: a tie does not count;
* MCV X, MCV Y: a tie does not count for LT and counts in full for LE.

So LE differs from LT only in the MCV x MCV term, which one pass over the
MCV lists computes for either operator.  GT is LT with the sides swapped,
and GE is the complement of LT.
"""

from __future__ import annotations

import numpy as np

from ._util import as_real, clamp01
from .histogram import EquiDepthHistogram, cdf
from .mcv import MostCommonValues, mcv_restriction_selectivity
from .operators import ScalarOp
from .stats import AttributeStats


def restriction_selectivity(s: AttributeStats, c: float, op: ScalarOp) -> float:
    """Estimate the fraction of rows with ``value <op> c``.

    The join of the column with a one-row column holding c, whose
    statistics are the one-entry MCV list {c: 1.0}.  The constant must be a
    real number (a numpy number or a Fraction too), not a bool, and is read
    as a float: neither NaN nor infinite, and within float range.
    """
    c = as_real(c, "restriction constant")
    if np.isnan(c):
        raise ValueError("restriction constant is NaN")
    if np.isinf(c):
        raise ValueError("restriction constant is infinite")
    point = AttributeStats(0.0, MostCommonValues(np.array([c]), np.array([1.0])), None, 1, 1)
    return join_selectivity(s, point, op)


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
    # np.union1d, without the numpy.ma import it brings
    knots = np.concatenate((hx.bounds, hy.bounds))
    knots.sort()
    knots = knots[np.concatenate(([True], knots[1:] != knots[:-1]))]
    fx = cdf(hx, knots)
    fy = cdf(hy, knots)
    return clamp01(float(np.dot(fx[:-1] + fx[1:], np.diff(fy))) / 2.0)


def join_lt_mcv_mcv(mx: MostCommonValues, my: MostCommonValues, op: ScalarOp) -> float:
    """Pairwise-exact P(X <op> Y), op LT or LE, over the rows both MCV lists
    cover: one restriction of the longer list per entry of the shorter."""
    if len(mx) < len(my):
        # x <op> y restricts Y by the mirrored comparison y <op'> x
        mx, my, op = my, mx, ScalarOp.GT if op is ScalarOp.LT else ScalarOp.GE
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


def join_selectivity(sx: AttributeStats, sy: AttributeStats, op: ScalarOp) -> float:
    """Estimate the fraction of the Cartesian product with ``x <op> y``.

    One partition sum for every operator (see the module docstring): GT
    swaps the sides, LE differs from LT only in the MCV x MCV term, and GE
    is 1 - LT, so a restriction costs the same for every operator.
    """
    if not isinstance(op, ScalarOp):
        raise ValueError(f"unsupported join operator {op}")
    if op is ScalarOp.GT:
        sx, sy, op = sy, sx, ScalarOp.LT
    phx, phy = sx.hist_fraction, sy.hist_fraction
    total = join_lt_mcv_mcv(sx.mcv, sy.mcv, ScalarOp.LE if op is ScalarOp.LE else ScalarOp.LT)
    if sx.histogram is not None:
        total += phx * join_lt_hist_mcv(sx.histogram, sy.mcv)
    if sy.histogram is not None:
        total += phy * join_lt_mcv_hist(sx.mcv, sy.histogram)
    if sx.histogram is not None and sy.histogram is not None:
        total += phx * phy * join_lt_hist(sx.histogram, sy.histogram)
    if op is ScalarOp.GE:
        total = 1.0 - total
    return (1.0 - sx.null_frac) * (1.0 - sy.null_frac) * clamp01(total)
