import hashlib
import json
import math

import numpy as np
import pytest

from ineqsel import (
    AttributeStats,
    EquiDepthHistogram,
    MostCommonValues,
    RangeColumn,
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    join_selectivity,
    load_range_stats,
    load_stats,
    range_join_selectivity,
    restriction_selectivity,
    save_range_stats,
    save_stats,
)
from ineqsel.harness import generate_range_column, generate_scalar_column
from ineqsel.histogram import build_equi_depth
from ineqsel.mcv import EMPTY_MCV, build_mcv
from ineqsel.ranges import EMPTY_RANGE, RangeValue
from ineqsel.stats import stats_from_dict

from conftest import R1_X, multipass_analyze_column


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
        with pytest.raises(ValueError):
            analyze_column([1, 2, 3], 0)

    def test_infinite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            analyze_column([1.0, np.inf], 2)

    def test_sample_cap_below_one_rejected(self):
        # a zero-row sample has no null fraction to write
        with pytest.raises(ValueError, match="sample cap"):
            analyze_column(np.arange(10.0), 5, 0, 0)


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
        (1, 100, "1aad800f96f023f51a943e6fec79880beae0bbc3493e356af8ea26a941b68943"),
        (1, 1000, "d1d46c0195230c4bcbedf879768588ec8b1bebb83bd95716e76ddca602bf56e6"),
        (2, 100, "c6d8f4abb29e1a5b73e8077721e1e4926ca061203c8f33dc7b1e28ddb74dfc69"),
        (2, 1000, "a407c909cb8076db674aaa70cffdf05489b6f382655fe107d6b1743a6e21692c"),
    ])
    def test_range(self, seed, target, digest):
        doc = save_range_stats(analyze_range_column(generate_range_column(20_000, seed), target))
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
         '{"null_frac": 0.5, "empty_frac": 1.0, "lower_inf_frac": 0.0, "upper_inf_frac": 0.0, '
         '"lower_stats": null, "upper_stats": null}'),
        (lambda: save_range_stats(analyze_range_column(RangeColumn.from_values(
            [RangeValue(1.0, math.inf, True, False), RangeValue(2.0, math.inf, True, False)]), 1)),
         '{"null_frac": 0.0, "empty_frac": 0.0, "lower_inf_frac": 0.0, "upper_inf_frac": 1.0, '
         '"lower_stats": {"null_frac": 0.0, "mcv": {"values": [], "fractions": []}, '
         '"histogram": {"bounds": [1.0, 2.0]}, "row_count": 2, "statistics_target": 1}, '
         '"upper_stats": null}'),
    ], ids=["all-null", "mcv-only", "signed-zero", "range-null-empty", "range-upper-infinite"])
    def test_null_parts(self, make, text):
        assert make() == text.encode("utf-8")


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


class TestLoadErrors:
    def good_doc(self):
        return json.loads(save_stats(analyze_column([1, 1, 2, 3, 4], 2)))

    def test_missing_bounds(self):
        doc = self.good_doc()
        del doc["histogram"]["bounds"]
        with pytest.raises(ValueError, match="missing field bounds"):
            stats_from_dict(doc)

    @pytest.mark.parametrize(
        "field", ["null_frac", "mcv", "histogram", "row_count", "statistics_target"]
    )
    def test_missing_top_level_field(self, field):
        doc = self.good_doc()
        del doc[field]
        with pytest.raises(ValueError, match=f"missing field {field}"):
            stats_from_dict(doc)

    def test_unsorted_bounds(self):
        doc = self.good_doc()
        doc["histogram"]["bounds"] = [3.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="bounds not sorted"):
            stats_from_dict(doc)

    def test_null_frac_out_of_range(self):
        doc = self.good_doc()
        doc["null_frac"] = 1.5
        with pytest.raises(ValueError, match="null_frac"):
            stats_from_dict(doc)

    def test_mcv_length_mismatch(self):
        doc = self.good_doc()
        doc["mcv"]["fractions"].append(0.1)
        with pytest.raises(ValueError, match="length"):
            stats_from_dict(doc)

    def test_null_frac_beyond_float_range(self):
        doc = self.good_doc()
        doc["null_frac"] = 10**400
        with pytest.raises(ValueError, match="null_frac holds a number beyond float range"):
            stats_from_dict(doc)

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
