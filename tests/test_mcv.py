import numpy as np
import pytest

from ineqsel import MostCommonValues, ScalarOp
from ineqsel.mcv import build_mcv, mcv_restriction_selectivity


def make_mcv(pairs):
    values, fractions = zip(*pairs) if pairs else ((), ())
    return MostCommonValues(np.array(values, dtype=float), np.array(fractions, dtype=float))


class TestBuild:
    def test_top_frequencies(self):
        m = build_mcv([1, 1, 1, 2, 2, 3], max_entries=2)
        assert m.values.tolist() == [1, 2]
        assert m.fractions.tolist() == [0.5, pytest.approx(1 / 3)]

    def test_no_repeats_means_empty(self):
        m = build_mcv([1, 2, 3, 4], max_entries=10)
        assert len(m) == 0

    def test_single_repeated_value(self):
        m = build_mcv([7, 7, 7, 7], max_entries=1)
        assert m.values.tolist() == [7]
        assert m.fractions.tolist() == [1.0]

    def test_tie_break_prefers_smaller_value(self):
        m = build_mcv([5, 5, 2, 2, 9, 9], max_entries=2)
        assert m.values.tolist() == [2, 5]

    def test_empty_input(self):
        assert len(build_mcv([], max_entries=3)) == 0

    def test_truncation_keeps_most_frequent(self):
        m = build_mcv([1, 1, 2, 2, 2, 3, 3, 3, 3], max_entries=1)
        assert m.values.tolist() == [3]

    def test_fractions_non_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            data = rng.integers(0, 10, size=100)
            m = build_mcv(data, max_entries=5)
            fr = m.fractions
            assert all(a >= b for a, b in zip(fr, fr[1:]))


class TestRestrictionSelectivity:
    def test_filter_and_sum(self):
        m = make_mcv([(1, 0.2), (2, 0.1), (3, 0.05)])
        assert mcv_restriction_selectivity(m, 3, ScalarOp.LT) == pytest.approx(0.3)

    def test_empty_mcv(self):
        m = make_mcv([])
        assert mcv_restriction_selectivity(m, 0, ScalarOp.LT) == 0.0

    def test_le_includes_equal(self):
        m = make_mcv([(5, 0.4)])
        assert mcv_restriction_selectivity(m, 5, ScalarOp.LE) == pytest.approx(0.4)
        assert mcv_restriction_selectivity(m, 5, ScalarOp.LT) == 0.0

    def test_lt_ge_partition(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            data = rng.integers(0, 8, size=60)
            m = build_mcv(data, max_entries=6)
            c = float(rng.integers(-1, 10))
            lt = mcv_restriction_selectivity(m, c, ScalarOp.LT)
            ge = mcv_restriction_selectivity(m, c, ScalarOp.GE)
            assert lt + ge == pytest.approx(m.total_fraction, abs=1e-12)

    def test_le_minus_lt_is_point_mass(self):
        m = make_mcv([(1, 0.3), (4, 0.2)])
        for c, point in [(1, 0.3), (4, 0.2), (2, 0.0)]:
            le = mcv_restriction_selectivity(m, c, ScalarOp.LE)
            lt = mcv_restriction_selectivity(m, c, ScalarOp.LT)
            assert le - lt == pytest.approx(point, abs=1e-12)

    def test_monotone_in_constant(self):
        m = make_mcv([(1, 0.3), (4, 0.2), (9, 0.1)])
        probes = [-5, 0, 1, 2, 4, 5, 9, 10]
        vals = [mcv_restriction_selectivity(m, c, ScalarOp.LT) for c in probes]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestValidation:
    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            make_mcv([(1, 0.2), (1, 0.1)])

    def test_fraction_sum_capped(self):
        with pytest.raises(ValueError, match="sum"):
            make_mcv([(1, 0.7), (2, 0.7)])

    @pytest.mark.parametrize("data", [
        [1.0, np.nan], [np.nan], [np.inf, 1.0, 1.0], [-np.inf, 1.0, 1.0], [-np.inf, -np.inf], [3.0, np.nan, 3.0],
    ])
    def test_non_finite_values_rejected(self, data):
        with pytest.raises(ValueError, match="finite"):
            build_mcv(data, max_entries=3)

    def test_negative_max_entries(self):
        with pytest.raises(ValueError):
            build_mcv([1, 1], max_entries=-1)
