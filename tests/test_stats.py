import hashlib
import json

import numpy as np
import pytest

from ineqsel import (
    analyze_column,
    analyze_range_column,
    load_stats,
    save_range_stats,
    save_stats,
)
from ineqsel.harness import generate_range_column, generate_scalar_column
from ineqsel.histogram import build_equi_depth
from ineqsel.mcv import build_mcv
from ineqsel.stats import stats_from_dict, stats_to_dict

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
            covered = s.null_frac + (1 - s.null_frac) * (s.mcv_fraction + s.hist_fraction)
            assert covered == pytest.approx(1.0, abs=1e-12)
            # the histogram share matches the rows actually left to it
            nonnull = data[~np.isnan(data)]
            if nonnull.size:
                in_mcv = np.isin(nonnull, s.mcv.values).sum()
                assert s.mcv_fraction == pytest.approx(in_mcv / nonnull.size, abs=1e-12)

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
        # in the histogram at low targets, where the sort of a mixed zero
        # run may keep either sign
        "signed-zeros-common": zeros_common,
        "signed-zeros-rare": zeros_rare,
        "all-equal": np.full(500, 4.5),
        "all-distinct": rng.permutation(n).astype(float),
        "single-row": np.array([2.5]),
        "sorted": np.sort(skewed),
    }


ONE_SORT_COLUMNS = _one_sort_columns()


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
        return stats_to_dict(analyze_column([1, 1, 2, 3, 4], 2))

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

    def test_not_json(self):
        with pytest.raises(ValueError, match="JSON"):
            load_stats(b"{nope")
