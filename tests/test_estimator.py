import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ineqsel import (
    EquiDepthHistogram,
    MostCommonValues,
    RangeOp,
    ScalarOp,
    analyze_column,
    cdf,
    exact_join,
    join_selectivity,
    restriction_selectivity,
)
from ineqsel._util import clamp01
from ineqsel.estimator import join_lt_hist, join_lt_hist_mcv, join_lt_mcv_hist, join_lt_mcv_mcv
from ineqsel.histogram import build_equi_depth
from ineqsel.mcv import EMPTY_MCV, mcv_restriction_selectivity
from ineqsel.stats import AttributeStats

from conftest import R1_X, R2_Y, random_histogram, sync_trapezoid

GOLDEN_JOIN = 24221 / 37620


def make_mcv(pairs):
    values, fractions = zip(*pairs)
    return MostCommonValues(np.array(values, dtype=float), np.array(fractions, dtype=float))


def mcv_only_stats(pairs, null_frac=0.0):
    return AttributeStats(null_frac, make_mcv(pairs), None, 100, 10)


class TestRestriction:
    def test_lt_hist_is_cdf(self, hist_x):
        assert cdf(hist_x, 30) == pytest.approx(0.75, abs=1e-12)
        assert cdf(hist_x, 10) == 0.0

    def test_lt_hist_partial_bin(self):
        h = EquiDepthHistogram(np.array([15.0, 20.0, 39.0, 50.0]))
        assert cdf(h, 25) == pytest.approx(8 / 19, abs=1e-12)

    def test_running_example_lt(self, r1_x):
        s = analyze_column(r1_x, 3)
        assert restriction_selectivity(s, 30, ScalarOp.LT) == pytest.approx(0.75, abs=1e-12)
        # 12 rows -> estimated count 9, true count 8
        assert 12 * restriction_selectivity(s, 30, ScalarOp.LT) == pytest.approx(9, abs=1e-9)

    def test_running_example_ge(self, r1_x):
        s = analyze_column(r1_x, 3)
        assert restriction_selectivity(s, 30, ScalarOp.GE) == pytest.approx(0.25, abs=1e-12)

    def test_null_and_mcv_only(self):
        s = mcv_only_stats([(5, 1.0)], null_frac=0.5)
        assert restriction_selectivity(s, 10, ScalarOp.LT) == pytest.approx(0.5, abs=1e-12)

    def test_complement_lt_ge(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            data = rng.integers(0, 30, size=int(rng.integers(1, 200))).astype(float)
            s = analyze_column(data, int(rng.integers(1, 10)), sample_cap=len(data))
            c = float(rng.uniform(-5, 35))
            lt = restriction_selectivity(s, c, ScalarOp.LT)
            ge = restriction_selectivity(s, c, ScalarOp.GE)
            assert lt + ge == pytest.approx(1.0, abs=1e-12)

    def test_le_counts_mcv_point_mass(self):
        s = analyze_column([5, 5, 5, 1, 9], 3)
        le = restriction_selectivity(s, 5, ScalarOp.LE)
        lt = restriction_selectivity(s, 5, ScalarOp.LT)
        assert le - lt == pytest.approx(3 / 5, abs=1e-12)

    def test_all_null_estimates_zero(self):
        s = analyze_column([None, None], 2)
        assert restriction_selectivity(s, 0, ScalarOp.LT) == 0.0

    def test_insufficient_statistics(self):
        # statistics describing none of the non-null rows cannot be built,
        # so no restriction is ever estimated from them
        with pytest.raises(ValueError, match="sum to 0 and there is no histogram"):
            AttributeStats(0.5, EMPTY_MCV, None, 10, 3)

    def test_nan_constant_rejected(self, r1_x):
        s = analyze_column(r1_x, 3)
        for c in (float("nan"), np.float64("nan")):
            with pytest.raises(ValueError, match="^restriction constant is NaN$"):
                restriction_selectivity(s, c, ScalarOp.LT)

    @pytest.mark.parametrize("c", [math.inf, -math.inf, np.float64(-math.inf)],
                             ids=["inf", "-inf", "np-minus-inf"])
    def test_infinite_constant_rejected(self, r1_x, c):
        s = analyze_column(r1_x, 3)
        with pytest.raises(ValueError, match="^restriction constant is infinite$"):
            restriction_selectivity(s, c, ScalarOp.LT)

    @pytest.mark.parametrize("c", [np.array([1.0, 2.0]), np.array(3.0), "3", None, True],
                             ids=["array", "0-d array", "str", "None", "bool"])
    def test_non_number_constant_rejected(self, r1_x, c):
        s = analyze_column(r1_x, 3)
        message = f"restriction constant must be a real number, got {c!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            restriction_selectivity(s, c, ScalarOp.LT)

    def test_numpy_number_constant_accepted(self, r1_x):
        s = analyze_column(r1_x, 3)
        for c in (np.int64(30), np.float64(30.0), Fraction(30)):
            assert restriction_selectivity(s, c, ScalarOp.LT) == restriction_selectivity(
                s, 30.0, ScalarOp.LT)
        # a real number is read as the float nearest it
        for op in ScalarOp:
            assert restriction_selectivity(s, Fraction(1, 3), op) == restriction_selectivity(
                s, 1 / 3, op)

    @pytest.mark.parametrize("c", [10**400, -10**400, Fraction(10**400, 3)],
                             ids=["big-int", "minus-big-int", "big-fraction"])
    def test_constant_beyond_float_range_rejected(self, r1_x, c):
        s = analyze_column(r1_x, 3)
        with pytest.raises(ValueError, match="^restriction constant is beyond float range$"):
            restriction_selectivity(s, c, ScalarOp.LT)

    def test_eq_not_supported(self, r1_x):
        s = analyze_column(r1_x, 3)
        with pytest.raises(ValueError, match="unsupported"):
            restriction_selectivity(s, 30, RangeOp.OVERLAPS)


def _point(c):
    """Statistics of a one-row column holding c: the MCV list {c: 1.0}."""
    return AttributeStats(0.0, make_mcv([(c, 1.0)]), None, 1, 1)


def _restriction_reference(s, c, op):
    """The partition sum restriction_selectivity computed before it became a
    join: the MCV mass plus the histogram share times the CDF at c."""
    if s.null_frac >= 1.0:
        return 0.0
    mcv_mass = mcv_restriction_selectivity(s.mcv, c, op)
    hist_mass = 0.0
    if s.histogram is not None and s.hist_fraction > 0.0:
        f = cdf(s.histogram, c)
        hist_mass = s.hist_fraction * (f if op in (ScalarOp.LT, ScalarOp.LE) else 1.0 - f)
    return clamp01((1.0 - s.null_frac) * (mcv_mass + hist_mass))


def _restriction_columns():
    """The columns of the restriction sweep, by name."""
    rng = np.random.default_rng(404)
    uniform = rng.integers(0, 10**6, size=300).astype(float)
    skewed = np.where(rng.random(300) < 0.5, rng.choice([7.0, 70.0, 700.0], size=300),
                      rng.integers(0, 1000, size=300))
    tied = rng.integers(0, 30, size=300).astype(float)
    nulls = rng.normal(size=300)
    nulls[rng.random(300) < 0.2] = np.nan
    mcv_only = np.repeat(np.arange(10.0), 30)
    # 20 values seen 12 times each and 60 seen once: below target 20 the
    # residual repeats, so the histogram has zero-width bins
    point_mass = np.concatenate((np.repeat(np.arange(0.0, 200.0, 10.0), 12),
                                 rng.uniform(0, 200, size=60)))
    return {"uniform": uniform, "skewed": skewed, "tied": tied, "nulls": nulls,
            "mcv-only": mcv_only, "point-mass-histogram": point_mass}


RESTRICTION_COLUMNS = _restriction_columns()


class TestRestrictionIsJoin:
    """restriction_selectivity is join_selectivity against a one-row column,
    and that keeps the old partition sum: LT, LE and GT bit for bit, GE
    (as 1 - LT) to within 4.5e-16."""

    @pytest.mark.parametrize("name", list(RESTRICTION_COLUMNS))
    def test_sweep_against_reference(self, name):
        data = RESTRICTION_COLUMNS[name]
        finite = data[~np.isnan(data)]
        probes = np.unique(finite)
        rng = np.random.default_rng(405)
        constants = np.concatenate((rng.choice(probes, size=6),
                                    rng.uniform(finite.min() - 1, finite.max() + 1, size=3),
                                    [finite.min() - 1, finite.max() + 1]))
        shapes = set()
        for target in range(1, 101):
            s = analyze_column(data, target, sample_cap=data.size)
            if s.histogram is None:
                shapes.add("mcv-only")
            elif np.any(s.histogram.bounds[1:] == s.histogram.bounds[:-1]):
                shapes.add("point-mass-histogram")
            for c in constants.tolist():
                for op in ScalarOp:
                    got = restriction_selectivity(s, c, op)
                    assert got == join_selectivity(s, _point(c), op), (name, target, c, op)
                    ref = _restriction_reference(s, c, op)
                    if op is not ScalarOp.GE:
                        assert got == ref, (name, target, c, op)
                    else:
                        assert abs(got - ref) <= 4.5e-16, (name, target, c, op)
        # the two special columns reach the statistics they are named for
        assert name not in ("mcv-only", "point-mass-histogram") or name in shapes

    def test_long_mcv_lists_gt_within_summation_error(self):
        # GT swaps the sides, so the one-entry list is X and join_lt_mcv_mcv
        # restricts the column's 100-entry list once, by the mirrored
        # comparison: the same pairwise sum the partition sum takes, so GT
        # is bit for bit too, and GE (as 1 - LT) is within 4.5e-16
        data = np.random.default_rng(406).integers(0, 200, size=2000).astype(float)
        data[::17] = np.nan
        for target in (30, 60, 100):
            s = analyze_column(data, target, sample_cap=data.size)
            for c in np.linspace(-1.0, 200.0, 41).tolist():
                for op in ScalarOp:
                    got, ref = restriction_selectivity(s, c, op), _restriction_reference(s, c, op)
                    if op is ScalarOp.GE:
                        assert abs(got - ref) <= 4.5e-16, (target, c, op)
                    else:
                        assert got == ref, (target, c, op)


class TestJoinHistHist:
    def test_golden_join(self, hist_x, hist_y):
        est = join_lt_hist(hist_x, hist_y)
        assert est == pytest.approx(GOLDEN_JOIN, abs=1e-9)
        # x144 rows: about 92.7 estimated vs 95 actual
        assert 144 * est == pytest.approx(92.712, abs=1e-2)

    def test_disjoint_supports(self):
        a = EquiDepthHistogram(np.array([0.0, 1.0]))
        b = EquiDepthHistogram(np.array([2.0, 3.0]))
        assert join_lt_hist(a, b) == 1.0
        assert join_lt_hist(b, a) == 0.0

    def test_identical_uniform(self):
        u = EquiDepthHistogram(np.array([0.0, 1.0]))
        assert join_lt_hist(u, u) == pytest.approx(0.5, abs=1e-12)

    def test_matches_sync_reference(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            hx = random_histogram(rng)
            hy = random_histogram(rng)
            walk = join_lt_hist(hx, hy)
            ref = sync_trapezoid(hx, hy)
            assert walk == pytest.approx(ref, abs=1e-12), (
                hx.bounds.tolist(),
                hy.bounds.tolist(),
            )

    def test_knots_merge_as_union1d(self):
        # the sort-and-dedupe merge gives np.union1d's knots, signed zeros
        # included, so the sum is the same to the bit
        rng = np.random.default_rng(103)
        for _ in range(300):
            hx, hy = random_histogram(rng), random_histogram(rng)
            if rng.random() < 0.5:
                hx, hy = (EquiDepthHistogram(np.where(h.bounds == 0, -0.0, h.bounds))
                          if rng.random() < 0.5 else h for h in (hx, hy))
            knots = np.union1d(hx.bounds, hy.bounds)
            fx, fy = cdf(hx, knots), cdf(hy, knots)
            want = clamp01(float(np.dot(fx[:-1] + fx[1:], np.diff(fy))) / 2.0)
            assert join_lt_hist(hx, hy) == want, (hx.bounds.tolist(), hy.bounds.tolist())

    def test_point_mass_cases_match_reference(self):
        cases = [
            ([5.0, 5.0], [3.0, 7.0]),
            ([3.0, 7.0], [5.0, 5.0]),
            ([5.0, 5.0], [5.0, 5.0]),
            ([5.0, 5.0], [5.0, 9.0]),
            ([5.0, 9.0], [5.0, 5.0]),
            ([0.0, 5.0, 5.0], [5.0, 5.0, 9.0]),
            ([0.0, 5.0, 5.0, 10.0], [5.0, 5.0]),
        ]
        for bx, by in cases:
            hx = EquiDepthHistogram(np.array(bx))
            hy = EquiDepthHistogram(np.array(by))
            assert join_lt_hist(hx, hy) == pytest.approx(
                sync_trapezoid(hx, hy), abs=1e-12
            ), (bx, by)

    def test_monotone_in_shift(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            hx = random_histogram(rng, max_bins=20)
            hy = random_histogram(rng, max_bins=20)
            base = join_lt_hist(hx, hy)
            for delta in (0.5, 3.0, 250.0):
                shifted = EquiDepthHistogram(hy.bounds + delta)
                assert join_lt_hist(hx, shifted) >= base - 1e-12

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            est = join_lt_hist(random_histogram(rng), random_histogram(rng))
            assert 0.0 <= est <= 1.0


class TestJoinMcv:
    def test_mcv_mcv_lt(self):
        mx = make_mcv([(1, 0.5), (3, 0.5)])
        my = make_mcv([(2, 1.0)])
        assert join_lt_mcv_mcv(mx, my, ScalarOp.LT) == pytest.approx(0.5)

    def test_empty_side_is_zero(self):
        mx = make_mcv([(1, 0.5)])
        assert join_lt_mcv_mcv(mx, EMPTY_MCV, ScalarOp.LT) == 0.0
        assert join_lt_mcv_mcv(EMPTY_MCV, mx, ScalarOp.LT) == 0.0

    def test_equal_singletons(self):
        m = make_mcv([(1, 1.0)])
        assert join_lt_mcv_mcv(m, m, ScalarOp.LT) == 0.0
        assert join_lt_mcv_mcv(m, m, ScalarOp.LE) == pytest.approx(1.0)

    def test_mcv_hist(self):
        hy = EquiDepthHistogram(np.array([15.0, 20.0, 39.0, 50.0]))
        mx = make_mcv([(20, 0.5), (45, 0.5)])
        assert join_lt_mcv_hist(mx, hy) == pytest.approx(27 / 66, abs=1e-12)

    def test_mcv_outside_support(self):
        hy = EquiDepthHistogram(np.array([0.0, 1.0]))
        assert join_lt_mcv_hist(make_mcv([(100, 1.0)]), hy) == 0.0
        assert join_lt_mcv_hist(make_mcv([(-5, 1.0)]), hy) == pytest.approx(1.0)

    def test_hist_mcv_mirror(self):
        hx = EquiDepthHistogram(np.array([15.0, 20.0, 39.0, 50.0]))
        my = make_mcv([(25, 1.0)])
        assert join_lt_hist_mcv(hx, my) == pytest.approx(8 / 19, abs=1e-12)

    def test_hist_terms_match_scalar_cdf_sums(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            h = random_histogram(rng)
            # some values sit exactly on boundaries, the rest anywhere
            on_bounds = rng.choice(np.unique(h.bounds), size=int(rng.integers(1, 6)))
            elsewhere = rng.uniform(h.lo - 10.0, h.hi + 10.0, size=int(rng.integers(0, 60)))
            values = np.unique(np.concatenate([on_bounds, elsewhere]))
            fractions = -np.sort(-rng.random(values.size))
            fractions *= rng.uniform(0.05, 1.0) / fractions.sum()
            m = MostCommonValues(values, fractions)
            pairs = list(zip(values.tolist(), fractions.tolist()))
            below = sum(f * cdf(h, v) for v, f in pairs)
            above = sum(f * (1.0 - cdf(h, v)) for v, f in pairs)
            assert join_lt_hist_mcv(h, m) == pytest.approx(below, abs=1e-15)
            assert join_lt_mcv_hist(m, h) == pytest.approx(above, abs=1e-15)


class TestJoinSelectivity:
    def test_running_example(self, r1_x, r2_y):
        sx = analyze_column(r1_x, 3)
        sy = analyze_column(r2_y, 3)
        assert join_selectivity(sx, sy, ScalarOp.LT) == pytest.approx(GOLDEN_JOIN, abs=1e-9)

    def test_all_null_side(self, r2_y):
        sx = analyze_column([None, None, None], 3)
        sy = analyze_column(r2_y, 3)
        for op in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE):
            assert join_selectivity(sx, sy, op) == 0.0
            assert join_selectivity(sy, sx, op) == 0.0

    def test_complement_with_nulls(self):
        rng = np.random.default_rng(200)
        for _ in range(30):
            xs = rng.integers(0, 40, size=80).astype(float)
            ys = rng.integers(0, 40, size=70).astype(float)
            xs[rng.random(80) < 0.2] = np.nan
            ys[rng.random(70) < 0.1] = np.nan
            sx = analyze_column(xs, 5, sample_cap=80)
            sy = analyze_column(ys, 5, sample_cap=70)
            lt = join_selectivity(sx, sy, ScalarOp.LT)
            ge = join_selectivity(sx, sy, ScalarOp.GE)
            nonnull = (1 - sx.null_frac) * (1 - sy.null_frac)
            assert lt + ge == pytest.approx(nonnull, abs=1e-12)

    def test_swap_is_exact(self):
        rng = np.random.default_rng(201)
        for _ in range(30):
            sx = analyze_column(rng.integers(0, 25, size=60).astype(float), 4, sample_cap=60)
            sy = analyze_column(rng.integers(0, 25, size=50).astype(float), 4, sample_cap=50)
            assert join_selectivity(sx, sy, ScalarOp.GT) == join_selectivity(
                sy, sx, ScalarOp.LT
            )

    def test_le_adds_mcv_equality_mass(self):
        sx = analyze_column([5, 5, 1, 9], 4)
        sy = analyze_column([5, 5, 0, 2], 4)
        lt = join_selectivity(sx, sy, ScalarOp.LT)
        le = join_selectivity(sx, sy, ScalarOp.LE)
        assert le - lt == pytest.approx(0.5 * 0.5, abs=1e-12)
        # tie-heavy integer columns, with nulls; every third pair draws X
        # from even and Y from odd values, so the MCV lists share none
        rng = np.random.default_rng(204)
        kinds = set()
        for k in range(60):
            xs = rng.integers(0, int(rng.integers(2, 40)), size=int(rng.integers(20, 400)))
            ys = rng.integers(0, int(rng.integers(2, 40)), size=int(rng.integers(20, 400)))
            xs, ys = (2 * xs, 2 * ys + 1) if k % 3 == 0 else (xs, ys)
            xs, ys = xs.astype(float), ys.astype(float)
            xs[rng.random(xs.size) < 0.1] = np.nan
            target = int(rng.integers(1, 30))
            sx, sy = analyze_column(xs, target), analyze_column(ys, target)
            lt = join_selectivity(sx, sy, ScalarOp.LT)
            le = join_selectivity(sx, sy, ScalarOp.LE)
            fy = dict(zip(sy.mcv.values.tolist(), sy.mcv.fractions.tolist()))
            shared = [(f, fy[v]) for v, f in zip(sx.mcv.values.tolist(), sx.mcv.fractions.tolist())
                      if v in fy]
            ties = (1 - sx.null_frac) * (1 - sy.null_frac) * sum(f * g for f, g in shared)
            assert le - lt == pytest.approx(ties, abs=1e-12), k
            if not shared:
                assert le == lt, k
            kinds.add(bool(shared))
        assert kinds == {False, True}

    def test_estimates_bounded(self):
        rng = np.random.default_rng(202)
        for _ in range(40):
            sx = analyze_column(rng.normal(size=100), 6, sample_cap=100)
            sy = analyze_column(rng.normal(size=90), 6, sample_cap=90)
            for op in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE):
                assert 0.0 <= join_selectivity(sx, sy, op) <= 1.0

    def test_span_beyond_float_range_bounded(self):
        # histograms whose spans overflow a float, with MCV entries near the
        # ends of the float range on both sides
        wide = AttributeStats(0.1, make_mcv([(1.6e308, 0.25)]),
                              EquiDepthHistogram([-1.7e308, -1e300, 0.0, 1e300, 1.7e308]), 100, 4)
        spread = AttributeStats(0.0, make_mcv([(-1.6e308, 0.2), (5.0, 0.2)]),
                                EquiDepthHistogram([-1.7e308, 1.7e308]), 100, 4)
        for sx, sy in ((wide, spread), (spread, wide), (wide, wide), (spread, spread)):
            for op in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE):
                assert 0.0 <= join_selectivity(sx, sy, op) <= 1.0, (op, sx, sy)
            for c in (-1.7e308, 1.6e308):
                for op in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE):
                    assert 0.0 <= restriction_selectivity(sx, c, op) <= 1.0, (op, c, sx)

    def test_insufficient_statistics_rejected(self):
        # an MCV list short of the non-null rows, with no histogram for the
        # rest, cannot be built, so no join is ever estimated from it
        with pytest.raises(ValueError, match="no histogram"):
            AttributeStats(0.2, EMPTY_MCV, None, 10, 3)
        with pytest.raises(ValueError, match="no histogram"):
            AttributeStats(0.2, make_mcv([(1.0, 0.5)]), None, 10, 3)

    def test_convergence_one_value_per_boundary(self):
        rng = np.random.default_rng(203)
        for n in (11, 26, 51):
            xs = rng.uniform(0, 1000, size=n)
            ys = rng.uniform(0, 1000, size=n)
            b = n - 1
            sx = analyze_column(xs, b, sample_cap=n)
            sy = analyze_column(ys, b, sample_cap=n)
            est = join_selectivity(sx, sy, ScalarOp.LT)
            exact = exact_join(xs, ys, ScalarOp.LT).selectivity
            assert abs(est - exact) <= 2 / b + 1e-9


def point_hist_stats(bounds):
    return AttributeStats(0.0, EMPTY_MCV, EquiDepthHistogram(np.array(bounds, dtype=float)), 1, 1)


class TestTieConventions:
    """Ties at a shared value, one case per pair of partition kinds.

    Each side is a point mass at 5, held either by a zero-width histogram
    bin or by a one-entry MCV list.  The conventions differ by pair; these
    pin them as the estimator documents them.
    """

    @pytest.mark.parametrize(
        "x,y,lt,le",
        [
            ("hist", "mcv", 1.0, 1.0),
            ("mcv", "hist", 0.0, 0.0),
            ("hist", "hist", 0.0, 0.0),
            ("mcv", "mcv", 0.0, 1.0),
        ],
    )
    def test_point_mass_at_five(self, x, y, lt, le):
        side = {"hist": point_hist_stats([5, 5]), "mcv": mcv_only_stats([(5, 1.0)])}
        sx, sy = side[x], side[y]
        assert join_selectivity(sx, sy, ScalarOp.LT) == lt
        assert join_selectivity(sx, sy, ScalarOp.LE) == le

    def test_histogram_steps_meeting(self):
        # X: half spread over [0, 5), half at 5; Y: half at 5, half over (5, 10]
        sx, sy = point_hist_stats([0, 5, 5]), point_hist_stats([5, 5, 10])
        assert join_selectivity(sx, sy, ScalarOp.LT) == pytest.approx(0.75, abs=1e-12)
        assert join_selectivity(sx, sy, ScalarOp.LE) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="the trapezoid sum takes X's step at 5 as a ramp from 3")
def test_histogram_point_mass_against_spread_histogram():
    # X is a point mass at 5 and Y uniform over [3, 7], so P(X < Y) = P(Y > 5)
    hx, hy = EquiDepthHistogram(np.array([5.0, 5.0])), EquiDepthHistogram(np.array([3.0, 7.0]))
    assert join_lt_hist(hx, hy) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.xfail(strict=True, reason="a hist x hist tie is counted by GE and by neither LE nor GT")
def test_histogram_point_masses_le_plus_gt_cover_every_pair():
    s = point_hist_stats([5, 5])
    le = join_selectivity(s, s, ScalarOp.LE)
    gt = join_selectivity(s, s, ScalarOp.GT)
    assert le + gt == pytest.approx(1.0, abs=1e-12)


def test_estimates_never_import_numpy_ma():
    # np.unique and np.union1d import numpy.ma, about 1 MiB and 12 ms
    code = """
import sys
import numpy as np
import ineqsel
from ineqsel import RangeOp, ScalarOp, analyze_range_column, generate_range_column
rng = np.random.default_rng(0)
sx = ineqsel.analyze_column(rng.integers(0, 50, 2000).astype(float), 10)
sy = ineqsel.analyze_column(rng.normal(size=2000), 10)
ineqsel.join_selectivity(sx, sy, ScalarOp.LE)
rx, ry = (analyze_range_column(generate_range_column(500, seed), 10) for seed in (1, 2))
ineqsel.range_join_selectivity(rx, ry, RangeOp.OVERLAPS)
print("numpy.ma" in sys.modules)
"""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
