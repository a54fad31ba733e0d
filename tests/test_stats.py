import dataclasses
import hashlib
import importlib
import json
import math
import pkgutil
import re
import typing
from fractions import Fraction

import numpy as np
import pytest

import ineqsel
from ineqsel import (
    AttributeStats,
    EquiDepthHistogram,
    MostCommonValues,
    RangeColumn,
    RangeOp,
    RangeStats,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    join_selectivity,
    load_range_stats,
    load_stats,
    range_join_selectivity,
    restriction_selectivity,
    save_range_stats,
    save_stats,
)
from ineqsel._util import ArrayFields
from ineqsel.harness import generate_range_column, generate_scalar_column, write_scalar_column
from ineqsel.histogram import build_equi_depth
from ineqsel.mcv import EMPTY_MCV, build_mcv
from ineqsel.ranges import EMPTY_RANGE, RangeValue
from ineqsel.stats import SAMPLE_ROWS_PER_TARGET, sample_rows

from conftest import (
    NAN_PATTERNS,
    R1_X,
    assert_copies_rebuilt,
    multipass_analyze_column,
    reference_doc,
)


class TestAnalyze:
    def test_running_example(self):
        s = analyze_column(R1_X, 3, sample_seed=0, sample_cap=100)
        assert s.null_frac == 0.0
        assert len(s.mcv) == 0
        assert s.histogram.bounds.tolist() == [10, 20, 25, 45]
        assert s.row_count == 12
        assert s.statistics_target == 3

    def test_all_null_column(self):
        s = analyze_column([None, None, None], 5)
        assert s.null_frac == 1.0
        assert len(s.mcv) == 0
        assert s.histogram is None

    def test_mcv_plus_residual_histogram(self):
        s = analyze_column([1, 1, 1, 1, 2, 3, 4, 5], 2)
        assert s.null_frac == 0.0
        assert s.mcv.values.tolist() == [1]
        assert s.mcv.fractions.tolist() == [0.5]
        assert s.histogram.bounds.tolist() == [2, 3, 5]

    def test_null_fraction_counted(self):
        s = analyze_column([1.0, None, 3.0, None], 2)
        assert s.null_frac == 0.5

    def test_nan_treated_as_null(self):
        s = analyze_column([1.0, np.nan, 3.0, np.nan], 2)
        assert s.null_frac == 0.5

    def test_every_nan_pattern_is_a_null(self):
        rng = np.random.default_rng(25)
        for n in (1, 7, 400, 5000):
            x = rng.choice(np.concatenate((NAN_PATTERNS, [-0.0, 0.0, 1.5, -3.0])), size=n)
            for target in (1, 10, 100):
                # a cap that covers the column, so every row is read
                s = analyze_column(x, target, sample_cap=n)
                assert s.null_frac == np.isnan(x).mean(), (n, target)
        for nulls in (NAN_PATTERNS, np.repeat(NAN_PATTERNS, 7)):
            s = analyze_column(nulls, 5)
            assert (s.null_frac, len(s.mcv), s.histogram) == (1.0, 0, None)

    def test_partition_completeness(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            data = rng.integers(0, 20, size=n).astype(float)
            data[rng.random(n) < 0.2] = np.nan
            target = int(rng.integers(1, 8))
            s = analyze_column(data, target, sample_cap=n)
            covered = s.null_frac + (1 - s.null_frac) * (s.mcv.total_fraction + s.hist_fraction)
            assert covered == pytest.approx(1.0, abs=1e-12)
            # the histogram share matches the rows actually left to it
            nonnull = data[~np.isnan(data)]
            if nonnull.size:
                in_mcv = np.isin(nonnull, s.mcv.values).sum()
                assert s.mcv.total_fraction == pytest.approx(in_mcv / nonnull.size, abs=1e-12)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=5000)
        a = analyze_column(data, 10, sample_seed=42, sample_cap=1000)
        b = analyze_column(data, 10, sample_seed=42, sample_cap=1000)
        assert a == b
        c = analyze_column(data, 10, sample_seed=43, sample_cap=1000)
        assert a != c

    def test_full_sample_when_cap_large(self):
        data = [1.0, None, 2.0, 2.0]
        s = analyze_column(data, 3, sample_seed=9, sample_cap=100)
        assert s.null_frac == 0.25
        assert s.row_count == 4

    def test_histogram_absent_when_all_mcv(self):
        s = analyze_column([7, 7, 7, 7], 2)
        assert s.mcv.values.tolist() == [7]
        assert s.histogram is None
        assert s.hist_fraction == 0.0

    def test_single_residual_value_degenerate_histogram(self):
        s = analyze_column([1.0], 4)
        assert s.histogram.bounds.tolist() == [1, 1]

    def test_invalid_target(self):
        # named as such: with the target at 0, the default cap is 0 too
        with pytest.raises(ValueError, match="statistics target must be at least 1"):
            analyze_column([1, 2, 3], 0)

    def test_infinite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            analyze_column([1.0, np.inf], 2)

    def test_sample_cap_below_one_rejected(self):
        # a zero-row sample has no null fraction to write
        with pytest.raises(ValueError, match="sample cap"):
            analyze_column(np.arange(10.0), 5, 0, 0)


def _scalar_entry(entry, tmp_path):
    """The scalar-column entry point or statistics array ``entry`` as a
    function of the column."""
    return {
        "analyze_column": lambda values: analyze_column(values, 10),
        "exact_join": lambda values: exact_join(values, [1.0], ScalarOp.LT),
        "write_scalar_column": lambda values: write_scalar_column(tmp_path / "c.col", values),
        "build_mcv": lambda values: build_mcv(values, 10),
        "build_equi_depth": lambda values: build_equi_depth(values, 10),
        "mcv_values": lambda values: MostCommonValues(values, [0.5]),
        "mcv_fractions": lambda values: MostCommonValues([1.0], values),
        "histogram_bounds": EquiDepthHistogram,
    }[entry]


SCALAR_ENTRIES = ["analyze_column", "exact_join", "write_scalar_column", "build_mcv",
                  "build_equi_depth", "mcv_values", "mcv_fractions", "histogram_bounds"]


@pytest.mark.parametrize("values,shape", [
    (np.full((), 3.0), ()), (np.full((2, 2), 3.0), (2, 2)),
    # a bare scalar is a 0-d column, not a TypeError from iterating it
    (3.0, ()), (np.float64(3.0), ()), (3, ()), (True, ()), (None, ()),
], ids=["0-d", "2-d", "float", "numpy-float", "int", "bool", "none"])
@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_scalar_columns_are_one_dimensional(tmp_path, entry, values, shape):
    message = f"expected a one-dimensional column, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _scalar_entry(entry, tmp_path)(values)
    assert not (tmp_path / "c.col").exists()


@pytest.mark.parametrize("values,error,message", [
    ([[3.0, 1.0], [2.0, 2.0]], ValueError, "expected a one-dimensional column, got shape (2, 2)"),
    (np.array([1 + 2j, 3.0]), TypeError, "expected real values, got a complex column"),
    ([1 + 2j, 3.0], TypeError, "expected real values, got a complex column"),
    ([None, 1 + 2j], TypeError, "expected real values, got a complex column"),
    # float() would read a string's digits, or iterating bytes its byte codes
    ("3141", TypeError, "expected real values, got a string column"),
    (b"12", TypeError, "expected real values, got a string column"),
    (np.array(["1", "2"]), TypeError, "expected real values, got a string column"),
    (np.array([b"1", b"2"]), TypeError, "expected real values, got a string column"),
    ([None, "1.5"], TypeError, "expected real values, got a string column"),
    ([None, b"1"], TypeError, "expected real values, got a string column"),
], ids=["nested-list", "complex-array", "complex-list", "complex-element", "str-column",
        "bytes-column", "str-array", "bytes-array", "str-element", "bytes-element"])
@pytest.mark.parametrize("entry", SCALAR_ENTRIES)
def test_scalar_columns_are_coerced_by_one_rule(tmp_path, entry, values, error, message):
    # a list is made an array first, so it meets the same checks an array does
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        _scalar_entry(entry, tmp_path)(values)
    assert not (tmp_path / "c.col").exists()


class TestOwnership:
    """Statistics own their arrays: copied in, read-only, rebuilt when copied."""

    def test_checked_arrays_cannot_change(self):
        values, fractions, bounds = np.array([1.0, 2.0]), np.array([0.3, 0.2]), np.array([3.0, 4.0])
        views = values[:], fractions[:], bounds[:]
        mcv = MostCommonValues(values, fractions)
        s = AttributeStats(0.0, mcv, EquiDepthHistogram(bounds), 10, 2)
        doc = save_stats(s)
        for view in views:
            view[0] = 9.0   # repeated values, a sum of 9.2, unsorted bounds
        assert save_stats(s) == doc
        assert all(a.flags.writeable for a in (values, fractions, bounds))

    def test_copies_are_rebuilt(self):
        assert_copies_rebuilt(analyze_column(generate_scalar_column("skewed-int", 500, 4), 8))

    def test_every_array_holding_type_subclasses_array_fields(self):
        holders = []
        for info in pkgutil.iter_modules(ineqsel.__path__):
            if info.name == "__main__":     # importing it runs the CLI
                continue
            module = importlib.import_module(f"ineqsel.{info.name}")
            for cls in vars(module).values():
                if not (dataclasses.is_dataclass(cls) and isinstance(cls, type)
                        and cls.__module__ == module.__name__):
                    continue
                hints = typing.get_type_hints(cls).values()
                if any(np.ndarray in (tp, *typing.get_args(tp)) for tp in hints):
                    holders.append(cls.__name__)
                    assert issubclass(cls, ArrayFields), cls.__name__
        assert sorted(holders) == ["EquiDepthHistogram", "MostCommonValues", "RangeColumn"]


class TestSampleRows:
    """The one rule by which ANALYZE draws a column's rows, scalar or range."""

    def test_column_read_in_place_when_the_cap_covers_it(self):
        assert sample_rows(300, 1) == slice(None)          # default cap 300
        for cap in (5, 6):
            assert sample_rows(5, 1, 3, cap) == slice(None)

    def test_seeded_draw_without_replacement(self):
        for n, target, seed, cap in ((301, 1, 0, None), (1000, 2, 7, None), (50, 9, 3, 49)):
            want = np.random.default_rng(seed).choice(
                n, size=cap or SAMPLE_ROWS_PER_TARGET * target, replace=False)
            got = sample_rows(n, target, seed, cap)
            assert np.array_equal(got, want)

    def test_repeated_draw_is_kept_read_only(self):
        rows = sample_rows(1000, 1, 5)
        assert sample_rows(1000, 1, 5) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0] = 0

    def test_interleaved_draws_are_fresh(self):
        # keys A, B, A: every draw equals a fresh one, whether its arguments
        # are Python or numpy integers
        a = (1000, 2, 7, None)
        b = (np.int64(900), np.int32(1), np.uint8(3), np.int16(250))
        a_numpy = (np.int64(1000), np.int16(2), np.int64(7), np.int32(600))
        for n, target, seed, cap in (a, b, a_numpy):
            want = np.random.default_rng(int(seed)).choice(
                int(n), size=int(cap or SAMPLE_ROWS_PER_TARGET * target), replace=False)
            rows = sample_rows(n, target, seed, cap)
            assert np.array_equal(rows, want)
        assert sample_rows(*a) is rows

    def test_covering_cap_keeps_the_draw(self):
        rows = sample_rows(1000, 1, 3, 100)
        assert sample_rows(50, 1, 3, 100) == slice(None)
        assert sample_rows(1000, 1, 3, 100) is rows

    @pytest.mark.parametrize("args,message", [
        ((10, 0), "statistics target must be at least 1"),
        ((0, 0, 0, 0), "statistics target must be at least 1"),
        ((0, 1), "no data"),
        ((0, 1, 0, 0), "no data"),
        ((10, 1, 0, 0), "sample cap must be at least 1"),
        ((10, 1, 0, -3), "sample cap must be at least 1"),
        ((10, 1, -1), "sample seed must be at least 0"),
    ])
    def test_rejections_in_order(self, args, message):
        # the target is checked first, then the column, then the cap, then
        # the seed, which is checked when the cap covers the column too
        with pytest.raises(ValueError, match=message):
            sample_rows(*args)

    @pytest.mark.parametrize("name,value", [
        pytest.param(name, value, id=f"{name}-{value_id}")
        for name in ("statistics_target", "sample_cap", "sample_seed")
        for value, value_id in ((True, "bool"), (np.True_, "numpy-bool"), (2.5, "float"),
                                (np.float64(3.0), "numpy-float"), ("3", "str"), (None, "None"))
        if not (name == "sample_cap" and value is None)     # no cap is the default
    ])
    def test_target_and_cap_are_integers(self, name, value):
        # an empty column: the types are checked before anything else
        args = [1, 0, None]     # sample_rows' target, seed and cap
        args[["statistics_target", "sample_seed", "sample_cap"].index(name)] = value
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            sample_rows(0, *args)


def _range_column_of(values):
    # closed ranges [v, v + 1], so each bound holds the values
    return RangeColumn(values, values + 1, np.ones(values.size, bool), np.ones(values.size, bool),
                       np.zeros(values.size, bool), np.zeros(values.size, bool))


class TestStatisticsTargetIsAnInteger:
    """Both ANALYZE functions take a Python or numpy integer target, store
    it as an int, so that the document loads back, and refuse anything else
    before a row is drawn."""

    ANALYZE = {
        "analyze_column": (analyze_column, save_stats, load_stats),
        "analyze_range_column": (lambda v, *a: analyze_range_column(_range_column_of(v), *a),
                                 save_range_stats, load_range_stats),
    }

    @pytest.mark.parametrize("target", [np.int64(3), np.int32(3), np.uint16(3)],
                             ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("entry", list(ANALYZE))
    def test_numpy_integer_target_round_trips(self, entry, target):
        analyze, save, load = self.ANALYZE[entry]
        values = np.arange(20.0) % 7
        s = analyze(values, target, 0, np.int64(15))
        assert s == analyze(values, 3, 0, 15)
        assert load(save(s)) == s
        assert save(s) == save(analyze(values, 3, 0, 15))

    @pytest.mark.parametrize("target", [True, 2.5, "3"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("entry", list(ANALYZE))
    def test_non_integer_target_rejected(self, entry, target):
        analyze = self.ANALYZE[entry][0]
        message = f"statistics_target must be an integer, got {target!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            analyze(np.arange(20.0), target)

    @pytest.mark.parametrize("value", [True, np.int64(2), 2.0], ids=["bool", "numpy-int", "float"])
    @pytest.mark.parametrize("fld", ["row_count", "statistics_target"])
    def test_attribute_stats_fields_are_ints(self, fld, value):
        args = {"row_count": 2, "statistics_target": 1} | {fld: value}
        message = f"{fld} must be an int, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            AttributeStats(0.0, MostCommonValues([5.0], [1.0]), None, **args)


def _one_sort_columns() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20)
    n = 3000
    nulls = rng.normal(size=n)
    nulls[rng.random(n) < 0.2] = np.nan
    # a few hot values over a wide spread, so the MCV list and the
    # histogram both matter at every target
    skewed = rng.integers(-400, 400, size=n).astype(float)
    hot = rng.random(n) < 0.4
    skewed[hot] = rng.choice([-7.0, 3.0, 11.0, 250.0], size=int(hot.sum()))
    zeros_common = rng.integers(-3, 4, size=n).astype(float)
    zeros_rare = rng.integers(0, 50, size=n).astype(float)
    for col in (zeros_common, zeros_rare):
        col[(col == 0) & (rng.random(n) < 0.5)] = -0.0
    return {
        "nulls": nulls,
        "heavy-ties": rng.integers(0, 12, size=n).astype(float),
        "skewed": skewed,
        # -0.0 and 0.0 as a common value, and as the minimum that stays
        # in the histogram at low targets; ANALYZE writes both as one +0.0
        "signed-zeros-common": zeros_common,
        "signed-zeros-rare": zeros_rare,
        "all-equal": np.full(500, 4.5),
        "all-distinct": rng.permutation(n).astype(float),
        "single-row": np.array([2.5]),
        "sorted": np.sort(skewed),
    }


ONE_SORT_COLUMNS = _one_sort_columns()


def _rank_mapping_columns() -> dict[str, np.ndarray]:
    """Columns that put the MCV runs where the rank mapping has edge cases."""
    rng = np.random.default_rng(21)
    nulls_full = rng.integers(0, 20, size=400).astype(float)
    nulls_full[rng.random(400) < 0.25] = np.nan
    zeros_mcv = np.concatenate((np.zeros(60), rng.permutation(200).astype(float) + 1))
    zeros_mcv[:30] = -0.0
    zeros_boundary = np.concatenate((
        np.repeat(np.arange(100.0, 110.0), 20), np.arange(-40.0, 0.0), np.zeros(12),
        np.arange(6.0, 46.0),
    ))
    zeros_boundary[200 + 40:200 + 46] = -0.0
    columns = {
        # the smallest and the largest values are MCV runs: the first and
        # the last kept stretches are empty
        "mcv-first-and-last": np.concatenate(
            (np.full(40, -5.0), np.full(40, 90.0), np.arange(100.0) / 2)),
        # three MCV runs side by side: the stretches between them are empty
        "adjacent-mcv-runs": np.concatenate(
            (np.repeat([3.0, 4.0, 5.0], 30), np.arange(100.0) + 10, np.arange(50.0) - 60)),
        # from target 3 on the residual is one row
        "one-row-residual": np.concatenate((np.repeat([1.0, 2.0, 3.0], 10), [7.5])),
        # at target 3 the residual is four rows of one value
        "one-value-residual": np.concatenate((np.repeat([1.0, 2.0, 3.0], 10), np.full(4, 6.0))),
        # default sampling takes every row from target 2 on
        "full-column-nulls": nulls_full,
        # -0.0 and 0.0 together make the most common value, written +0.0
        "mixed-zeros-in-mcv": zeros_mcv,
        # mixed zeros stay in the residual, and +0.0 boundaries land on them
        "mixed-zeros-at-boundary": zeros_boundary,
        "all-null": np.full(10, np.nan),
        "all-null-patterns": np.repeat(NAN_PATTERNS, 2),
        # every NaN bit pattern among both zeros and a few values
        "nan-patterns": np.concatenate((np.tile(NAN_PATTERNS, 8), np.zeros(20), np.full(20, -0.0),
                                        rng.integers(-5, 30, size=120).astype(float))),
        "nulls-and-one-value": np.array([np.nan] * 5 + [3.0]),
    }
    return {name: rng.permutation(col) for name, col in columns.items()}


RANK_MAPPING_COLUMNS = _rank_mapping_columns()


def _random_column(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(1, 400))
    kind = int(rng.integers(4))
    if kind == 0:
        col = rng.integers(-5, 6, size=n).astype(float)
    elif kind == 1:
        col = rng.integers(-1000, 1000, size=n).astype(float)
    elif kind == 2:
        col = rng.normal(size=n)
    else:
        col = rng.integers(-50, 50, size=n).astype(float)
        hot = rng.random(n) < rng.random()
        col[hot] = rng.choice(rng.integers(-60, 60, size=4), size=int(hot.sum())).astype(float)
    if rng.random() < 0.5:
        col[(col == 0) & (rng.random(n) < 0.5)] = -0.0
    if rng.random() < 0.5:
        col[rng.random(n) < rng.random() / 2] = np.nan
    return col


def _assert_matches_multipass(col, targets=(1, 2, 3, 10, 100, 1000), seed=0, label=""):
    for target in targets:
        for cap in (None, 50, col.size, col.size + 1):
            got = save_stats(analyze_column(col, target, seed, cap))
            want = save_stats(multipass_analyze_column(col, target, seed, cap))
            assert got == want, (label, target, cap)


def _run_cut_columns() -> dict[str, np.ndarray]:
    """Columns that put the MCV runs, whose starts and lengths cut the
    residual out of the sorted sample, at the ends of the sample's runs."""
    rng = np.random.default_rng(34)
    spread = np.arange(100.0) / 2
    both_ends = np.concatenate((np.full(40, -5.0), spread, np.full(30, 90.0)))
    columns = {
        # at target 1 the MCV run is the sample's first run, or its last
        "mcv-first-run": np.concatenate((np.full(40, -5.0), spread)),
        "mcv-last-run": np.concatenate((spread, np.full(40, 90.0))),
        # from target 4 on the MCV list takes every run: no histogram
        "every-run-mcv": np.repeat([-2.0, 1.0, 4.0, 8.0], [5, 4, 3, 2]),
        # at target 3 the residual is one row, or four rows of one value
        "one-row-residual": np.concatenate((np.repeat([1.0, 2.0, 3.0], 10), [7.5])),
        "one-value-residual": np.concatenate((np.repeat([1.0, 2.0, 3.0], 10), np.full(4, 6.0))),
        # -0.0 and 0.0 make one run, the most common value
        "mixed-zero-mcv": np.concatenate((np.zeros(20), np.full(20, -0.0), spread + 1)),
        # nulls of each NaN bit pattern sort past the last MCV run
        **{f"nulls-{i}": np.concatenate((both_ends, np.full(25, nan)))
           for i, nan in enumerate(NAN_PATTERNS)},
    }
    return {name: rng.permutation(col) for name, col in columns.items()}


RUN_CUT_COLUMNS = _run_cut_columns()


class TestRunCuts:
    """The MCV runs' starts and lengths cut the residual as the multi-pass
    build's ``np.isin`` does, byte for byte."""

    @pytest.mark.parametrize("name", sorted(RUN_CUT_COLUMNS))
    def test_documents_match_multipass_reference(self, name):
        _assert_matches_multipass(RUN_CUT_COLUMNS[name], targets=(1, 2, 3, 4, 10, 100),
                                  label=name)

    def test_columns_cover_their_cases(self):
        cols = RUN_CUT_COLUMNS
        s = analyze_column(cols["mcv-first-run"], 1)
        assert s.mcv.values.tolist() == [-5.0] and s.histogram.lo == 0.0
        s = analyze_column(cols["mcv-last-run"], 1)
        assert s.mcv.values.tolist() == [90.0] and s.histogram.hi == 49.5
        s = analyze_column(cols["every-run-mcv"], 4)
        assert sorted(s.mcv.values) == [-2.0, 1.0, 4.0, 8.0] and s.histogram is None
        s = analyze_column(cols["one-row-residual"], 3)
        assert s.histogram.bounds.tolist() == [7.5, 7.5]
        s = analyze_column(cols["one-value-residual"], 3)
        assert s.histogram.bounds.tolist() == [6.0, 6.0]
        s = analyze_column(cols["mixed-zero-mcv"], 1)
        assert s.mcv.values.tolist() == [0.0] and not np.signbit(s.mcv.values[0])
        assert s.mcv.fractions.tolist() == [40 / 140]
        for i in range(NAN_PATTERNS.size):
            s = analyze_column(cols[f"nulls-{i}"], 2)
            assert sorted(s.mcv.values) == [-5.0, 90.0] and s.null_frac == 25 / 195
            assert (s.histogram.lo, s.histogram.hi) == (0.0, 49.5)


class TestOneSortAnalyze:
    """The one-sort ANALYZE writes the same bytes as the multi-pass build."""

    @pytest.mark.parametrize("name", sorted(ONE_SORT_COLUMNS))
    def test_documents_match_multipass_reference(self, name):
        col = ONE_SORT_COLUMNS[name]
        for target in (1, 2, 10, 100, 1000):
            for seed, cap in enumerate((None, 50, col.size, col.size + 1)):
                got = save_stats(analyze_column(col, target, seed, cap))
                want = save_stats(multipass_analyze_column(col, target, seed, cap))
                assert got == want, (name, target, cap)

    @pytest.mark.parametrize("name", sorted(ONE_SORT_COLUMNS))
    def test_builders_ignore_input_order(self, name):
        col = ONE_SORT_COLUMNS[name]
        ordered = np.sort(col[~np.isnan(col)])
        shuffled = np.random.default_rng(5).permutation(ordered)
        for target in (1, 2, 10, 100, 1000):
            assert build_mcv(ordered, target) == build_mcv(shuffled, target)
            assert build_equi_depth(ordered, target) == build_equi_depth(shuffled, target)

    @pytest.mark.parametrize("name", sorted(RANK_MAPPING_COLUMNS))
    def test_edge_columns_match_multipass_reference(self, name):
        _assert_matches_multipass(RANK_MAPPING_COLUMNS[name], label=name)

    def test_edge_columns_cover_their_cases(self):
        cols = RANK_MAPPING_COLUMNS
        s = analyze_column(cols["mcv-first-and-last"], 2)
        assert sorted(s.mcv.values) == [-5.0, 90.0]
        assert s.histogram.lo == 0.0 and s.histogram.hi == 49.5
        s = analyze_column(cols["adjacent-mcv-runs"], 3)
        assert sorted(s.mcv.values) == [3.0, 4.0, 5.0]
        s = analyze_column(cols["one-row-residual"], 3)
        assert s.histogram.bounds.tolist() == [7.5, 7.5]
        s = analyze_column(cols["one-value-residual"], 3)
        assert s.histogram.bounds.tolist() == [6.0, 6.0]
        s = analyze_column(cols["full-column-nulls"], 2)
        assert s.row_count == 400 and 0 < s.null_frac < 1
        s = analyze_column(cols["mixed-zeros-in-mcv"], 1)
        assert s.mcv.values.tolist() == [0.0]
        s = analyze_column(cols["mixed-zeros-at-boundary"], 10)
        assert sorted(s.mcv.values) == list(range(100, 110))
        assert np.any(s.histogram.bounds == 0)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_columns_match_multipass_reference(self, chunk):
        rng = np.random.default_rng(100 + chunk)
        for k in range(50):
            col = _random_column(rng)
            _assert_matches_multipass(col, seed=k, label=(chunk, k))

    # One zero: a column's -0.0 and 0.0 are one value, and the statistics
    # hold it as +0.0, so they are those of the column with +0.0 zeros.

    SIGNED_ZERO_COLUMNS = {
        **{name: ONE_SORT_COLUMNS[name] for name in ("signed-zeros-common", "signed-zeros-rare")},
        **{name: RANK_MAPPING_COLUMNS[name]
           for name in ("mixed-zeros-in-mcv", "mixed-zeros-at-boundary")},
    }

    @staticmethod
    def _negative_zeros(doc: bytes) -> list[str]:
        found = []

        def number(text):
            value = float(text)
            if value == 0 and np.signbit(value):
                found.append(text)
            return value

        json.loads(doc, parse_float=number)
        return found

    @staticmethod
    def _signed_zero_range_column() -> RangeColumn:
        rng = np.random.default_rng(22)
        n = 2000
        ends = np.sort(rng.integers(-3, 4, size=(2, n)).astype(float), axis=0)
        for bound in ends:
            bound[(bound == 0) & (rng.random(n) < 0.5)] = -0.0
        lower, upper = ends
        lower[rng.random(n) < 0.05] = -np.inf
        upper[rng.random(n) < 0.05] = np.inf
        closed = rng.random((2, n)) < 0.5
        return RangeColumn(lower, upper, closed[0], closed[1], rng.random(n) < 0.05,
                           rng.random(n) < 0.05)

    def test_documents_hold_one_zero(self):
        for name, col in self.SIGNED_ZERO_COLUMNS.items():
            assert np.any(np.signbit(col[col == 0])) and np.any(~np.signbit(col[col == 0]))
            for target in (1, 2, 10, 100, 1000):
                for seed, cap in enumerate((None, 50, col.size, col.size + 1)):
                    doc = save_stats(analyze_column(col, target, seed, cap))
                    assert self._negative_zeros(doc) == [], (name, target, cap)
        col = self._signed_zero_range_column()
        for bound in (col.lower, col.upper):
            assert np.any(np.signbit(bound[bound == 0])) and np.any(~np.signbit(bound[bound == 0]))
        for target in (1, 2, 10, 100, 1000):
            for seed, cap in enumerate((None, 50, len(col), len(col) + 1)):
                doc = save_range_stats(analyze_range_column(col, target, seed, cap))
                assert self._negative_zeros(doc) == [], (target, cap)

    def test_estimates_match_positive_zero_column(self):
        ops = (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE)
        names = sorted(self.SIGNED_ZERO_COLUMNS)
        for name, partner in zip(names, names[1:] + names[:1]):
            col, other = self.SIGNED_ZERO_COLUMNS[name], self.SIGNED_ZERO_COLUMNS[partner]
            for target in (1, 2, 10, 100, 1000):
                for seed, cap in enumerate((None, 50, col.size, col.size + 1)):
                    sx, sx0 = (analyze_column(c, target, seed, cap) for c in (col, col + 0.0))
                    sy, sy0 = (analyze_column(c, target, seed) for c in (other, other + 0.0))
                    for op in ops:
                        assert join_selectivity(sx, sy, op) == join_selectivity(sx0, sy0, op)
                        assert join_selectivity(sy, sx, op) == join_selectivity(sy0, sx0, op)
                        for c in (-1.0, -0.0, 0.0, 0.5, 1.0):
                            assert (restriction_selectivity(sx, c, op)
                                    == restriction_selectivity(sx0, c, op)), (name, op, c)
        col = self._signed_zero_range_column()
        positive = RangeColumn(col.lower + 0.0, col.upper + 0.0, col.lower_closed,
                               col.upper_closed, col.null, col.empty)
        other = generate_range_column(500, seed=3)
        for target in (1, 2, 10, 100, 1000):
            for seed, cap in enumerate((None, 50, len(col), len(col) + 1)):
                rx, rx0 = (analyze_range_column(c, target, seed, cap) for c in (col, positive))
                ry = analyze_range_column(other, target, seed)
                for op in RangeOp:
                    assert range_join_selectivity(rx, ry, op) == range_join_selectivity(rx0, ry, op)
                    assert range_join_selectivity(ry, rx, op) == range_join_selectivity(ry, rx0, op)


# sha256 of the range documents of 200k-row generated columns, which every
# target samples: caps 3000 and 30000
RANGE_SAMPLED_DIGESTS = [
    (1, 10, 0, "10fd1b66aa1cc156b41a953e826d89b4dd03ede7a150feea2cc9e24a9445d8b0"),
    (1, 100, 0, "67a34c804a44734784b6aa736daaf895a5244f37e2fa0a127736240f6262de93"),
    (2, 10, 0, "36325927f9b5fd0418f68ab05ded0f0e6d87c430a7ea465f1cb05d55c24bf7f8"),
    (2, 100, 0, "7594e4330b7be93e25ae7fca1678d2d79ed96e53293136c21098fc38612211c0"),
    (1, 10, 7, "fb0155eff8e3d8b1406922f59ff414a7214f159289d000ee99a8db076afe6069"),
    (2, 100, 7, "b188eac90d4042ee8b4b4c895dcaf4c1bb6218665414a7316120ac4b0e5a01c3"),
]


class TestPinnedStatistics:
    """sha256 of the statistics documents the benchmark workloads write, with
    default sampling: ANALYZE must keep writing these bytes."""

    @pytest.mark.parametrize("kind,seed,target,digest", [
        ("uniform-int", 1, 100, "51d869fc5d58f108fc51824315ced0b4418dd19a66f4242c2c39a57e46f4a4e1"),
        ("uniform-int", 1, 1000, "f4afbb8dfb6fd09d2d32f703db8dcb679bd473f93383648bf366561bc4739a9a"),
        ("uniform-int", 2, 100, "cc77df522ea65d876ba2cde44cb69e7b906686af2be46f5c1d297947bd87ecbf"),
        ("uniform-int", 2, 1000, "d5fb92fd70ecf39a97fb546a4f805df8e592f2d12d888d2d6cdedf1f25a3906c"),
        ("skewed-int", 1, 100, "806fe041c8453a23a0890f40fa8e81733bc8496182774ca7ba6a22df08fa0f24"),
        ("skewed-int", 1, 1000, "1132e8b6644e185797745d85c8d924714a3b4365cbbc16cbec8ecf2d4af7a2fd"),
        ("skewed-int", 2, 100, "3cfe12e36846fcf60cf9a5aa233d1aa969436a70a672bd7e770e7a73016862d5"),
        ("skewed-int", 2, 1000, "6d71f8667efcc25efca52ae6df052567708a83ec8f8f7b30e6d9ca8c831ad3fb"),
    ])
    def test_scalar(self, kind, seed, target, digest):
        doc = save_stats(analyze_column(generate_scalar_column(kind, 200_000, seed), target))
        assert hashlib.sha256(doc).hexdigest() == digest

    @pytest.mark.parametrize("seed,target,digest", [
        (1, 100, "107f5ac5604fc3f853d5a1e43db3faa4547d6f1404932396434fef2b7ebf6dfc"),
        (1, 1000, "dcbf7a12e800234dd693ba7bdf70799d6f2976e03cf8e1d6ba23301b833f1721"),
        (2, 100, "3beeeb5cc69eb050c9ad73eb81998f62dbb4d10755a45b47f02dcaf1eb946075"),
        (2, 1000, "0cf2515163f780fe9135faf978915d3ee0c470ea09ca705d9829618859f8a184"),
    ])
    def test_range(self, seed, target, digest):
        doc = save_range_stats(analyze_range_column(generate_range_column(20_000, seed), target))
        assert hashlib.sha256(doc).hexdigest() == digest

    @pytest.mark.parametrize("seed,target,sample_seed,digest", RANGE_SAMPLED_DIGESTS)
    def test_range_sampled(self, seed, target, sample_seed, digest):
        column = generate_range_column(200_000, seed)
        doc = save_range_stats(analyze_range_column(column, target, sample_seed))
        assert hashlib.sha256(doc).hexdigest() == digest

    # documents with null parts, which generated columns never write
    @pytest.mark.parametrize("make,text", [
        (lambda: save_stats(analyze_column([None, None], 1)),
         '{"null_frac": 1.0, "mcv": {"values": [], "fractions": []}, "histogram": null, '
         '"row_count": 2, "statistics_target": 1}'),
        (lambda: save_stats(analyze_column([1.0, 1.0, 2.0, 2.0], 2)),
         '{"null_frac": 0.0, "mcv": {"values": [1.0, 2.0], "fractions": [0.5, 0.5]}, '
         '"histogram": null, "row_count": 4, "statistics_target": 2}'),
        (lambda: save_stats(analyze_column([-0.0, 3.5], 1)),
         '{"null_frac": 0.0, "mcv": {"values": [], "fractions": []}, '
         '"histogram": {"bounds": [0.0, 3.5]}, "row_count": 2, "statistics_target": 1}'),
        (lambda: save_range_stats(analyze_range_column(
            RangeColumn.from_values([None, EMPTY_RANGE]), 1)),
         '{"null_frac": 0.5, "empty_frac": 1.0, '
         '"lower_stats": {"null_frac": 1.0, "mcv": {"values": [], "fractions": []}, '
         '"histogram": null, "row_count": 0, "statistics_target": 1}, '
         '"upper_stats": {"null_frac": 1.0, "mcv": {"values": [], "fractions": []}, '
         '"histogram": null, "row_count": 0, "statistics_target": 1}}'),
        (lambda: save_range_stats(analyze_range_column(RangeColumn.from_values(
            [RangeValue(1.0, math.inf, True, False), RangeValue(2.0, math.inf, True, False)]), 1)),
         '{"null_frac": 0.0, "empty_frac": 0.0, '
         '"lower_stats": {"null_frac": 0.0, "mcv": {"values": [], "fractions": []}, '
         '"histogram": {"bounds": [1.0, 2.0]}, "row_count": 2, "statistics_target": 1}, '
         '"upper_stats": {"null_frac": 1.0, "mcv": {"values": [], "fractions": []}, '
         '"histogram": null, "row_count": 2, "statistics_target": 1}}'),
    ], ids=["all-null", "mcv-only", "signed-zero", "range-null-empty", "range-upper-infinite"])
    def test_null_parts(self, make, text):
        assert make() == text.encode("utf-8")


class TestOneTableOneDraw:
    """Columns of one length, target, cap and seed are analyzed from one
    draw, as the columns of a PostgreSQL table are from one row sample:
    analyzed in either order, with a draw of another length between, each
    writes the bytes of its own draw."""

    @pytest.mark.parametrize("target,sample_seed", [(10, 0), (100, 0), (100, 7)])
    def test_scalar(self, target, sample_seed):
        cols = [generate_scalar_column("uniform-int", 200_000, 1),
                generate_scalar_column("skewed-int", 200_000, 2)]
        want = [save_stats(multipass_analyze_column(c, target, sample_seed)) for c in cols]
        for order in ((0, 1), (1, 0)):
            for k in order:
                assert save_stats(analyze_column(cols[k], target, sample_seed)) == want[k], order
            sample_rows(150_000, target, sample_seed)

    @pytest.mark.parametrize("target,sample_seed", [(10, 0), (100, 0)])
    def test_range(self, target, sample_seed):
        digests = {seed: digest for seed, t, s, digest in RANGE_SAMPLED_DIGESTS
                   if (t, s) == (target, sample_seed)}
        cols = {seed: generate_range_column(200_000, seed) for seed in digests}
        for order in (sorted(cols), sorted(cols, reverse=True)):
            for seed in order:
                doc = save_range_stats(analyze_range_column(cols[seed], target, sample_seed))
                assert hashlib.sha256(doc).hexdigest() == digests[seed], order
            sample_rows(150_000, target, sample_seed)


class TestRoundTrip:
    def test_running_example_round_trip(self):
        s = analyze_column(R1_X, 3, sample_cap=100)
        assert load_stats(save_stats(s)) == s

    def test_bit_level_floats(self):
        s = analyze_column(np.random.default_rng(0).normal(size=500), 7, sample_cap=500)
        t = load_stats(save_stats(s))
        assert t.histogram.bounds.tobytes() == s.histogram.bounds.tobytes()

    def test_no_histogram_round_trip(self):
        s = analyze_column([None, None], 1)
        t = load_stats(save_stats(s))
        assert t == s
        assert t.histogram is None

    def test_document_shape(self):
        s = analyze_column([1, 1, 2, 3], 2)
        doc = json.loads(save_stats(s))
        assert set(doc) == {"null_frac", "mcv", "histogram", "row_count", "statistics_target"}


MAX = 1.7976931348623157e308

# Arrays at the edges of the writer's rules, each sorted so that it can be
# a histogram's bounds: -0.0 next to 0.0, the whole-number limit 1e16 and
# the largest whole number below it, 2**53 +- 2 (spaced 2 apart), the
# smallest subnormal and the largest doubles.
EDGE_BOUNDS = [
    [-MAX, -0.0, 0.0, 5e-324, 2.0**53 - 2, 2.0**53 + 2, 9999999999999998.0, 1e16, MAX],
    [-0.0, 1.0, 2.0],
    [-2.0, -0.0, 0.0, 3.0],
    [-0.0, -0.0, 0.0, 0.0],
    [-0.0, -0.0, -0.0, 1.0],
    [0.0, 0.0, 0.0, -0.0],
    [0.0, 1.0, 1e16],
    [1.0, 1e16, 1e16, 1e16],
    [-1e16, -1e16, -1e16, 0.0],
    [-9999999999999998.0, 0.0, 9999999999999998.0],
    [9999999999999998.0, 9999999999999998.0],
    [2.0**53 - 2, 2.0**53, 2.0**53 + 2],
    [2.0**53 + 2, 2.0**53 + 2, 2.0**53 + 2, 1e16],
    [5e-324, 5e-324, 5e-324, 5e-324],
    [0.0, 5e-324, 5e-324, 1.0],
    [-MAX, -MAX, MAX, MAX],
    [-MAX, 0.0, 1.0, MAX],
    [0.5, 1.5, 2.5],
    [0.1, 0.1, 0.1, 0.2, 0.2, 0.3],
]


def edge_stats(bounds) -> AttributeStats:
    """Statistics whose histogram holds ``bounds`` and whose MCV list holds
    the distinct values of ``bounds``, with equal fractions that sum to 0.5."""
    values = np.unique(bounds)
    mcv = MostCommonValues(values, np.full(values.size, 0.5 / values.size))
    return AttributeStats(0.0, mcv, EquiDepthHistogram(bounds), 10, 3)


def _generated_columns():
    rng = np.random.default_rng(11)
    with_nulls = rng.normal(size=5000)
    with_nulls[::9] = np.nan
    return {
        "uniform-int": generate_scalar_column("uniform-int", 20_000, 1),
        "skewed-int": generate_scalar_column("skewed-int", 20_000, 2),
        "negative-int": -generate_scalar_column("skewed-int", 5000, 3),
        "two-decimals": np.round(rng.normal(size=20_000), 2),
        "doubles": rng.uniform(-1.0, 1.0, size=20_000),
        "with-nulls": with_nulls,
        "huge-whole": np.round(rng.uniform(-2e16, 2e16, size=3000)),
    }


# Scalar columns of every kind of array a document holds: whole numbers,
# decimals that repeat, distinct doubles, and nulls.
GENERATED_COLUMNS = _generated_columns()


class TestWriter:
    """save_stats and save_range_stats write, byte for byte, what json.dumps
    writes for the statistics object's field tree (conftest.reference_doc),
    whichever of the writer's rules each array takes."""

    TARGETS = (1, 2, 3, 7, 10, 30, 100, 300, 1000)

    @pytest.mark.parametrize("name", sorted(GENERATED_COLUMNS))
    def test_generated_scalar_documents(self, name):
        column = GENERATED_COLUMNS[name]
        for target in self.TARGETS:
            for cap in (None, 50):
                s = analyze_column(column, target, sample_cap=cap)
                assert save_stats(s) == reference_doc(s), (target, cap)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_generated_range_documents(self, seed):
        column = generate_range_column(20_000, seed)
        for target in self.TARGETS:
            s = analyze_range_column(column, target)
            assert save_range_stats(s) == reference_doc(s), target

    @pytest.mark.parametrize("bounds", EDGE_BOUNDS, ids=str)
    def test_edge_numbers(self, bounds):
        s = edge_stats(bounds)
        assert save_stats(s) == reference_doc(s)
        ranged = RangeStats(0.25, 0.0, s, s)
        assert save_range_stats(ranged) == reference_doc(ranged)
        assert load_stats(save_stats(s)) == s

    def test_edge_numbers_cover_the_rules(self):
        # whole arrays with -0.0 or at 1e16 (which %d would write wrong),
        # whole arrays below it, and repeated values of each kind
        kinds = {(np.all(np.abs(b) < 1e16) and np.array_equal(np.trunc(b), b),
                  bool(np.any(np.signbit(b) & (b == 0))), bool(np.any(b == 1e16)))
                 for b in map(np.array, EDGE_BOUNDS)}
        assert kinds >= {(True, False, False), (True, True, False), (False, False, True)}
        doc = save_stats(edge_stats(EDGE_BOUNDS[0]))
        for text in ("-1.7976931348623157e+308", "-0.0", "5e-324", "9007199254740990.0",
                     "9007199254740994.0", "9999999999999998.0", "1e+16"):
            assert text.encode() in doc

    @pytest.mark.parametrize("fractions", [
        [0.3, 0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05],
        [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        [0.05, 0.1, 0.05, 0.1, 0.05, 0.1],
        [0.1, 0.1, 0.05, 0.1, 0.1, 0.05, 0.05, 0.1],
        [1 / 3, 1 / 3, 1 / 6, 1 / 6],
        [1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7],
    ], ids=["sorted", "one-run", "alternating", "unsorted-runs", "thirds", "sevenths"])
    def test_repeated_fractions(self, fractions):
        values = np.arange(len(fractions)) + 0.5
        mcv = MostCommonValues(values, fractions)
        s = AttributeStats(0.0, mcv, EquiDepthHistogram([0.0, 1.0]), 10, 3)
        assert save_stats(s) == reference_doc(s)

    @pytest.mark.parametrize("s", [
        AttributeStats(0.0, EMPTY_MCV, EquiDepthHistogram([1.0, 2.0]), 2, 1),
        AttributeStats(0.0, MostCommonValues([1.0, 2.0], [0.5, 0.5]), None, 4, 2),
        AttributeStats(0.0, MostCommonValues([-0.0], [1.0]), None, 4, 2),
        analyze_column([None, None], 1),
        analyze_column([math.nan] * 10, 5),
        RangeStats(0.5, 1.0, *[AttributeStats(1.0, EMPTY_MCV, None, 0, 1)] * 2),
        RangeStats(0.0, 0.0, AttributeStats(1.0, EMPTY_MCV, None, 2, 1),
                   AttributeStats(0.0, EMPTY_MCV, EquiDepthHistogram([1.0, 2.0]), 2, 1)),
        RangeStats(0.0, 0.0, AttributeStats(0.0, MostCommonValues([3.0], [1.0]), None, 2, 1),
                   AttributeStats(1.0, EMPTY_MCV, None, 2, 1)),
    ], ids=["empty-mcv", "no-histogram", "negative-zero-mcv", "all-null", "all-nan",
            "range-no-positioned-row", "range-lower-infinite", "range-upper-infinite"])
    def test_documents_with_missing_parts(self, s):
        save = save_range_stats if isinstance(s, RangeStats) else save_stats
        assert save(s) == reference_doc(s)

    # the documents TestPinnedStatistics pins
    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda k=kind, s=seed, t=target: save_stats(analyze_column(
            generate_scalar_column(k, 200_000, s), t)), id=f"{kind}-{seed}-{target}")
          for kind in ("uniform-int", "skewed-int") for seed in (1, 2) for target in (100, 1000)),
        *(pytest.param(lambda s=seed, t=target: save_range_stats(analyze_range_column(
            generate_range_column(20_000, s), t)), id=f"range-{seed}-{target}")
          for seed in (1, 2) for target in (100, 1000)),
        *(pytest.param(lambda s=seed, t=target, ss=sample_seed: save_range_stats(
            analyze_range_column(generate_range_column(200_000, s), t, ss)),
            id=f"range-sampled-{seed}-{target}-{sample_seed}")
          for seed, target, sample_seed, _ in RANGE_SAMPLED_DIGESTS),
    ])
    def test_pinned_documents_are_json_dumps_own(self, make):
        doc = make()
        assert json.dumps(json.loads(doc)).encode() == doc


class TestByteOrderMark:
    """A statistics document may start with one UTF-8 byte-order mark, as
    a column file may; a mark anywhere else is still not JSON."""

    @pytest.mark.parametrize("save,load,s", [
        (save_stats, load_stats, analyze_column(R1_X, 3)),
        (save_range_stats, load_range_stats, analyze_range_column(
            generate_range_column(500, 1), 10)),
    ], ids=["scalar", "range"])
    def test_leading_mark_dropped(self, save, load, s):
        doc = save(s)
        assert load(b"\xef\xbb\xbf" + doc) == s
        assert load("\ufeff" + doc.decode()) == s

    @pytest.mark.parametrize("doc", [
        b"\xef\xbb\xbf\xef\xbb\xbf{}", "\ufeff\ufeff{}", b" \xef\xbb\xbf{}", "{\ufeff}",
        b"\xef\xbb\xbf", "\ufeff",
    ])
    def test_other_marks_rejected(self, doc):
        with pytest.raises(ValueError, match="^not valid JSON: "):
            load_stats(doc)


# Every field path of both kinds of statistics document: a field added to
# AttributeStats or RangeStats needs one more entry here.
SCALAR_FIELDS = ("null_frac", "mcv", "histogram", "row_count", "statistics_target")
SCALAR_NESTED_FIELDS = (("mcv", "values"), ("mcv", "fractions"), ("histogram", "bounds"))
RANGE_FIELDS = ("null_frac", "empty_frac", "lower_stats", "upper_stats")
RANGE_NESTED_FIELDS = tuple(
    (bound, *path)
    for bound in ("lower_stats", "upper_stats")
    for path in (*((f,) for f in SCALAR_FIELDS), *SCALAR_NESTED_FIELDS)
)

# A valid document of each kind with every optional part present: an MCV
# list and a histogram in each statistics object.
GOOD_DOCS = {
    load_stats: lambda: json.loads(save_stats(analyze_column([1, 1, 2, 3, 4], 2))),
    load_range_stats: lambda: json.loads(save_range_stats(analyze_range_column(
        RangeColumn.from_values([RangeValue(lo, hi, True, True)
                                 for lo, hi in ((1, 3), (1, 3), (2, 5), (4, 9), (6, 7))]),
        2))),
}


class TestLoadErrors:
    def good_doc(self):
        return json.loads(save_stats(analyze_column([1, 1, 2, 3, 4], 2)))

    def test_missing_bounds(self):
        doc = self.good_doc()
        del doc["histogram"]["bounds"]
        with pytest.raises(ValueError, match="missing field bounds"):
            load_stats(json.dumps(doc))

    @pytest.mark.parametrize("load,field", [
        *(pytest.param(load_stats, f, id=f) for f in SCALAR_FIELDS),
        *(pytest.param(load_range_stats, f, id=f"range-{f}") for f in RANGE_FIELDS),
    ])
    def test_missing_top_level_field(self, load, field):
        doc = GOOD_DOCS[load]()
        del doc[field]
        with pytest.raises(ValueError, match=f"^missing field {field}$"):
            load(json.dumps(doc))

    @pytest.mark.parametrize("load,path", [
        *(pytest.param(load_stats, p, id=".".join(p)) for p in SCALAR_NESTED_FIELDS),
        *(pytest.param(load_range_stats, p, id="range-" + ".".join(p))
          for p in RANGE_NESTED_FIELDS),
    ])
    def test_missing_nested_field(self, load, path):
        # the error names every field on the way down
        doc = GOOD_DOCS[load]()
        *parents, leaf = path
        node = doc
        for name in parents:
            node = node[name]
        del node[leaf]
        message = ": ".join((*parents, f"missing field {leaf}"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(json.dumps(doc))

    @pytest.mark.parametrize("load,path", [
        pytest.param(load_stats, ("extra",), id="extra"),
        pytest.param(load_stats, ("mcv", "extra"), id="mcv.extra"),
        pytest.param(load_stats, ("histogram", "extra"), id="histogram.extra"),
        pytest.param(load_range_stats, ("lower_inf_frac",), id="range-lower_inf_frac"),
        pytest.param(load_range_stats, ("upper_stats", "extra"), id="range-upper_stats.extra"),
        pytest.param(load_range_stats, ("lower_stats", "histogram", "extra"),
                     id="range-lower_stats.histogram.extra"),
    ])
    def test_unknown_field(self, load, path):
        # a field the type does not declare is rejected, at any depth, and
        # the error names every field on the way down
        doc = GOOD_DOCS[load]()
        *parents, leaf = path
        node = doc
        for name in parents:
            node = node[name]
        node[leaf] = 0.0
        message = ": ".join((*parents, f"unknown field {leaf}"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(json.dumps(doc))

    def test_unsorted_bounds(self):
        doc = self.good_doc()
        doc["histogram"]["bounds"] = [3.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="bounds not sorted"):
            load_stats(json.dumps(doc))

    def test_null_frac_out_of_range(self):
        doc = self.good_doc()
        doc["null_frac"] = 1.5
        with pytest.raises(ValueError, match="null_frac"):
            load_stats(json.dumps(doc))

    def test_mcv_length_mismatch(self):
        doc = self.good_doc()
        doc["mcv"]["fractions"].append(0.1)
        with pytest.raises(ValueError, match="length"):
            load_stats(json.dumps(doc))

    def test_null_frac_beyond_float_range(self):
        doc = self.good_doc()
        doc["null_frac"] = 10**400
        with pytest.raises(ValueError, match="null_frac holds a number beyond float range"):
            load_stats(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(ValueError, match="JSON"):
            load_stats(b"{nope")

    @pytest.mark.parametrize("load", [load_stats, load_range_stats])
    def test_deeply_nested(self, load):
        # deeper than the JSON parser's recursion limit
        with pytest.raises(ValueError, match="not valid JSON"):
            load("[" * 100_000 + "]" * 100_000)


class TestInvariants:
    """AttributeStats rejects shares that no column can have."""

    HISTOGRAM = EquiDepthHistogram([0.0, 1.0])

    @pytest.mark.parametrize("null_frac", [-0.1, 1.5, math.nan])
    def test_null_frac_out_of_range(self, null_frac):
        with pytest.raises(ValueError, match="^null_frac out of range$"):
            AttributeStats(null_frac, EMPTY_MCV, self.HISTOGRAM, 10, 3)

    @pytest.mark.parametrize("row_count,target,message", [
        (-5, 0, "^row_count must be at least 0$"),
        (-1, 3, "^row_count must be at least 0$"),
        (10, 0, "^statistics_target must be at least 1$"),
    ])
    def test_counts_out_of_range(self, row_count, target, message):
        mcv = MostCommonValues([1.0], [0.5])
        with pytest.raises(ValueError, match=message):
            AttributeStats(0.0, mcv, self.HISTOGRAM, row_count, target)

    def test_mcv_short_of_the_rows_without_histogram(self):
        # such statistics once gave LT 0.5, LE 0.5 and GT 0.0, so LE + GT = 0.5
        mcv = MostCommonValues([1.0, 2.0], [0.25, 0.25])
        with pytest.raises(ValueError, match="mcv fractions sum to 0.5 and there is no histogram"):
            AttributeStats(0.0, mcv, None, 10, 3)

    def test_edge_cases_accepted(self):
        AttributeStats(1.0, EMPTY_MCV, None, 10, 3)
        AttributeStats(0.0, EMPTY_MCV, self.HISTOGRAM, 0, 1)
        AttributeStats(1.0, EMPTY_MCV, self.HISTOGRAM, 10, 3)
        near = MostCommonValues([1.0, 2.0], [0.5, 0.5 - 5e-10])
        s = AttributeStats(0.25, near, None, 10, 3)
        for op in ScalarOp:
            assert 0.0 <= join_selectivity(s, s, op) <= 1.0
        with pytest.raises(ValueError, match="no histogram"):
            AttributeStats(0.25, MostCommonValues([1.0, 2.0], [0.5, 0.5 - 2e-9]), None, 10, 3)


class TestFractionsAreFloats:
    """A statistics object stores each fraction it is given as a float, so
    that every document it saves loads back and saves the same bytes; a
    bool or a value that is not a real number is refused by name. A range
    bound's null_frac, its infinite share, is one of them."""

    BOUND = AttributeStats(0.0, EMPTY_MCV, EquiDepthHistogram([0.0, 1.0]), 10, 3)
    FIELDS = [("scalar", "null_frac"),
              *(("range", f) for f in ("null_frac", "empty_frac",
                                       "lower_stats.null_frac", "upper_stats.null_frac"))]

    def make(self, kind, fld, value):
        if kind == "scalar":
            s = AttributeStats(value, EMPTY_MCV, self.BOUND.histogram, 10, 3)
            return s, save_stats, load_stats
        fields = dict(null_frac=0.1, empty_frac=0.1, lower_stats=self.BOUND, upper_stats=self.BOUND)
        bound = fld.rpartition(".")[0]
        if bound:
            fields[bound] = AttributeStats(value, EMPTY_MCV, self.BOUND.histogram, 10, 3)
        else:
            fields[fld] = value
        return RangeStats(**fields), save_range_stats, load_range_stats

    @staticmethod
    def fraction(s, fld):
        for name in fld.split("."):
            s = getattr(s, name)
        return s

    @pytest.mark.parametrize("value", [0, 1, 0.75, np.float64(0.5), np.float32(0.25), np.int64(0),
                                       Fraction(1, 4), Fraction(1, 3)],
                             ids=["int-0", "int-1", "float", "float64", "float32", "int64",
                                  "fraction", "fraction-third"])
    @pytest.mark.parametrize("kind,fld", FIELDS)
    def test_real_value_round_trips(self, kind, fld, value):
        s, save, load = self.make(kind, fld, value)
        got = self.fraction(s, fld)
        assert type(got) is float and got == float(value)
        doc = save(s)
        assert save(load(doc)) == doc

    @pytest.mark.parametrize("value,error", [
        (True, TypeError), (np.True_, TypeError), ("0.25", TypeError), (None, TypeError),
        (0.25j, TypeError), (10**400, ValueError),
    ], ids=["bool", "numpy-bool", "str", "None", "complex", "big-int"])
    @pytest.mark.parametrize("kind,fld", FIELDS)
    def test_other_value_refused(self, kind, fld, value, error):
        # a bound's statistics name their own field
        leaf = fld.rpartition(".")[2]
        message = (f"{leaf} must be a real number, got {value!r}" if error is TypeError
                   else f"{leaf} is beyond float range")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            self.make(kind, fld, value)
