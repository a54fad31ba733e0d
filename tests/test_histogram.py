import numpy as np
import pytest

from ineqsel import EquiDepthHistogram, cdf
from ineqsel.histogram import build_equi_depth

from conftest import R1_X, R2_Y, assert_copies_rebuilt


class TestBuild:
    def test_running_example_x(self):
        h = build_equi_depth(R1_X, 3)
        assert h.bounds.tolist() == [10, 20, 25, 45]

    def test_running_example_y(self):
        # the worked CDF values (8/19, 28/33) require boundary 39 here
        h = build_equi_depth(R2_Y, 3)
        assert h.bounds.tolist() == [15, 20, 39, 50]

    def test_single_value_single_bin(self):
        h = build_equi_depth([5], 1)
        assert h.bounds.tolist() == [5, 5]

    def test_four_values_two_bins(self):
        h = build_equi_depth([1, 2, 3, 4], 2)
        assert h.bounds.tolist() == [1, 2, 4]
        # each bin holds half the data: [1,2] -> {1,2}, ]2,4] -> {3,4}
        assert sum(1 for v in [1, 2, 3, 4] if v <= 2) == 2

    def test_order_does_not_matter(self):
        h = build_equi_depth([45, 10, 25, 20, 38, 11, 35, 12, 30, 24, 22, 21], 3)
        assert h.bounds.tolist() == [10, 20, 25, 45]

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no data"):
            build_equi_depth([], 3)

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError, match="invalid bin count"):
            build_equi_depth([1, 2, 3], 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_equi_depth([1.0, np.inf], 1)

    @pytest.mark.parametrize("data", [
        [np.nan], [2.0, np.nan, 1.0], [-np.inf, 0.0], [0.0, 1.0, np.nan], [np.inf, 0.0],
    ])
    def test_nan_and_infinity_rejected_sorted_or_not(self, data):
        with pytest.raises(ValueError, match="finite"):
            build_equi_depth(data, 1)

    def test_min_max_always_present(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            data = rng.normal(size=int(rng.integers(1, 200)))
            bins = int(rng.integers(1, 20))
            h = build_equi_depth(data, bins)
            assert h.bounds[0] == data.min()
            assert h.bounds[-1] == data.max()
            assert h.bin_count == bins

    def test_balanced_bin_masses_without_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            data = rng.permutation(np.arange(n)).astype(float)
            bins = int(rng.integers(1, min(n, 40) + 1))
            h = build_equi_depth(data, bins)
            b = h.bounds
            for j in range(bins):
                if j == 0:
                    count = np.sum((data >= b[0]) & (data <= b[1]))
                else:
                    count = np.sum((data > b[j]) & (data <= b[j + 1]))
                assert abs(count - n / bins) <= 1 + 1e-9


class TestValidation:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="bounds not sorted"):
            EquiDepthHistogram(np.array([1.0, 3.0, 2.0]))

    @pytest.mark.parametrize("bounds,kind", [
        (["1", b"2"], "string"),
        (np.array(["1", "2"]), "string"),
        (np.array([1 + 0j, 2]), "complex"),
        ([1.0, 2j], "complex"),
    ], ids=["str-bytes-list", "str-array", "complex-array", "complex-list"])
    def test_strings_and_complex_rejected(self, bounds, kind):
        # the scalar column rule: float() would read a string's digits, and
        # a cast would drop an imaginary part
        with pytest.raises(TypeError, match=f"^expected real values, got a {kind} column$"):
            EquiDepthHistogram(bounds)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            EquiDepthHistogram(np.array([1.0]))

    def test_immutable_bounds(self, hist_x):
        with pytest.raises(ValueError):
            hist_x.bounds[0] = 99.0

    def test_owns_its_bounds(self):
        bounds = np.array([1.0, 2.0, 3.0])
        view = bounds[:]
        h = EquiDepthHistogram(bounds)
        view[0] = 50.0      # unsorted, past the check
        assert h.bounds.tolist() == [1.0, 2.0, 3.0]
        assert bounds.flags.writeable

    def test_copies_are_rebuilt(self, hist_x):
        assert_copies_rebuilt(hist_x)


class TestCdf:
    @pytest.mark.parametrize(
        "c,expected",
        [
            (30, 0.75),
            (5, 0.0),
            (50, 1.0),
            (22, 7 / 15),
            (10, 0.0),
            (45, 1.0),
            (20, 1 / 3),
            (25, 2 / 3),
        ],
    )
    def test_running_example_values(self, hist_x, c, expected):
        assert cdf(hist_x, c) == pytest.approx(expected, abs=1e-12)

    def test_monotone_non_decreasing(self):
        from conftest import random_histogram

        rng = np.random.default_rng(3)
        for _ in range(50):
            h = random_histogram(rng)
            probes = np.sort(rng.uniform(h.lo - 10, h.hi + 10, size=100))
            vals = [cdf(h, c) for c in probes]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_normalization_at_support_edges(self):
        from conftest import random_histogram

        rng = np.random.default_rng(4)
        for _ in range(50):
            h = random_histogram(rng)
            if h.bounds[0] < h.bounds[1]:
                # a duplicated minimum is a step, so zero holds only
                # when the first bin has width
                assert cdf(h, h.lo) == 0.0
            assert cdf(h, h.hi) == 1.0

    def test_bin_mass_is_uniform(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bins = int(rng.integers(1, 30))
            bounds = np.sort(rng.choice(10_000, size=bins + 1, replace=False)).astype(float)
            h = EquiDepthHistogram(bounds)
            for j in range(bins):
                delta = cdf(h, bounds[j + 1]) - cdf(h, bounds[j])
                assert delta == pytest.approx(1 / bins, abs=1e-12)

    def test_affine_within_bin(self, hist_x):
        # three collinear probes inside the bin ]25, 45]
        a, b, c = cdf(hist_x, 28), cdf(hist_x, 31), cdf(hist_x, 34)
        assert b - a == pytest.approx(c - b, abs=1e-12)

    def test_zero_width_bin_steps(self):
        # mass of the duplicated boundary appears as a jump at its value
        h = EquiDepthHistogram(np.array([0.0, 5.0, 5.0, 10.0]))
        assert cdf(h, 5 - 1e-9) == pytest.approx(1 / 3, abs=1e-6)
        assert cdf(h, 5) == pytest.approx(2 / 3, abs=1e-12)
        assert cdf(h, 10) == 1.0

    def test_degenerate_point_mass(self):
        h = EquiDepthHistogram(np.array([5.0, 5.0]))
        assert cdf(h, 4.999) == 0.0
        assert cdf(h, 5.0) == 1.0
        assert cdf(h, 6.0) == 1.0

    def test_array_and_scalar_match_reference_bit_for_bit(self):
        from conftest import random_histogram

        def reference(bounds, c):
            # the per-point formula, one scalar at a time
            if c < bounds[0]:
                return 0.0
            if c >= bounds[-1]:
                return 1.0
            j = int(np.searchsorted(bounds, c, side="right")) - 1
            return float((j + (c - bounds[j]) / (bounds[j + 1] - bounds[j])) / (bounds.size - 1))

        rng = np.random.default_rng(8)
        duplicated = 0
        for _ in range(200):
            h = random_histogram(rng)
            b = h.bounds
            duplicated += bool(np.any(b[1:] == b[:-1]))
            points = np.concatenate([
                [-np.inf, b[0] - 1.0, b[-1] + 1.0, np.inf],  # outside the support
                b,                                           # at every boundary
                (b[:-1] + b[1:]) / 2,                        # at every bin midpoint
            ])
            expected = np.array([reference(b, p) for p in points.tolist()])
            scalar = [cdf(h, p) for p in points.tolist()]
            assert all(type(f) is float for f in scalar)
            array = cdf(h, points)
            assert array.shape == points.shape
            for got in (np.array(scalar), array):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), b.tolist()
        assert duplicated >= 20

    def test_span_beyond_float_range(self):
        # the one bin's width, 3.4e308, overflows a float
        h = EquiDepthHistogram([-1.7e308, 1.7e308])
        assert cdf(h, 1.6e308) == pytest.approx(33 / 34, abs=1e-12)
        assert cdf(h, 0.0) == 0.5
        points = np.array([-np.inf, -1.7e308, -1.6e308, 0.0, 1.6e308, 1.7e308, np.inf])
        got = cdf(h, points)
        assert got.tolist() == [cdf(h, p) for p in points.tolist()]
        assert got.tolist() == pytest.approx([0.0, 0.0, 1 / 34, 0.5, 33 / 34, 1.0, 1.0],
                                             abs=1e-12)

    def test_points_far_outside_a_narrow_histogram(self):
        # x - lo overflows for the first point, which the support check
        # then sends to 0 anyway
        h = EquiDepthHistogram([1.7e308, 1.75e308])
        assert cdf(h, np.array([-1.7e308, -np.inf, 1.725e308])).tolist() == [0.0, 0.0, 0.5]
