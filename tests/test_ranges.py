import json
import math

import numpy as np
import pytest

from ineqsel import (
    RangeColumn,
    RangeOp,
    RangeStats,
    RangeValue,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_range_join,
    join_selectivity,
    load_range_stats,
    parse_range,
    range_join_selectivity,
    range_op_holds,
    save_range_stats,
)
from ineqsel.harness import generate_range_column, write_range_column
from ineqsel.ranges import EMPTY_RANGE, range_stats_from_dict

from conftest import column_row, normalized_row


def rv(lo, hi, lc=True, uc=True):
    return RangeValue(lo, hi, lc, uc)


class TestRangeValue:
    """A RangeValue built by hand is a plain record; RangeColumn.from_values
    checks and normalizes it."""

    def test_basic(self):
        assert rv(2, 1) == (2, 1, True, True, False)      # unchecked
        r = column_row(1, 2)
        assert (r.lower, r.upper, r.lower_closed, r.upper_closed, r.empty) == (
            1.0, 2.0, True, True, False,
        )
        assert [type(f) for f in r] == [float, float, bool, bool, bool]

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="row 0: range bounds out of order"):
            column_row(2, 1)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="row 0: range bounds may not be NaN"):
            column_row(math.nan, 1)

    def test_degenerate_open_normalizes_to_empty(self):
        assert column_row(5, 5, True, False) == EMPTY_RANGE
        assert column_row(5, 5, False, True) == EMPTY_RANGE
        assert not column_row(5, 5, True, True).empty

    def test_infinite_bounds_forced_open(self):
        assert not column_row(-math.inf, 5).lower_closed
        assert not column_row(0, math.inf).upper_closed

    def test_infinite_lower_above_all_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            column_row(math.inf, math.inf)


class TestRangeColumn:
    def raw_rows(self, rng, n):
        lo = rng.integers(0, 6, size=n).astype(float)
        hi = lo + rng.integers(0, 3, size=n)
        lo[rng.random(n) < 0.1] = -math.inf
        hi[rng.random(n) < 0.1] = math.inf
        return lo, hi, rng.random(n) < 0.5, rng.random(n) < 0.5

    def test_normalizes_like_range_value(self):
        rng = np.random.default_rng(0)
        lo, hi, lc, uc = self.raw_rows(rng, 300)
        null, empty = rng.random(300) < 0.1, rng.random(300) < 0.1
        col = RangeColumn(lo, hi, lc, uc, null, empty)
        want = [None if n else normalized_row(*row, empty=e)
                for *row, n, e in zip(lo, hi, lc, uc, null, empty)]
        fields = ("lower", "upper", "lower_closed", "upper_closed", "null", "empty")
        got = list(zip(*(getattr(col, f).tolist() for f in fields)))
        assert got == [(0.0, 0.0, False, False, True, False) if r is None else
                       (r.lower, r.upper, r.lower_closed, r.upper_closed, False, r.empty)
                       for r in want]
        assert list(col) == want and [col[k] for k in range(len(col))] == want
        # hand-built rows are normalized by from_values alone
        raw = [None if n else RangeValue(*row, empty=e)
               for *row, n, e in zip(lo, hi, lc, uc, null, empty)]
        assert RangeColumn.from_values(raw) == col == RangeColumn.from_values(want)
        for row in filter(None, col):
            assert [type(f) for f in row] == [float, float, bool, bool, bool]
        # a generated column's rows are normalized already
        rows = list(generate_range_column(400, 5))
        assert rows == [None if r is None else normalized_row(*r) for r in rows]

    @pytest.mark.parametrize("lo,hi,message", [
        (math.nan, 1.0, "row 1: range bounds may not be NaN"),
        (2.0, 1.0, "row 1: range bounds out of order"),
        (math.inf, math.inf, "row 1: range bounds out of order"),
        (-math.inf, -math.inf, "row 1: range bounds out of order"),
    ])
    def test_invalid_row_rejected(self, lo, hi, message):
        with pytest.raises(ValueError, match=message):
            RangeColumn([0.0, lo], [1.0, hi], [True] * 2, [True] * 2, [False] * 2, [False] * 2)

    def test_invalid_bounds_of_null_and_empty_rows_ignored(self):
        col = RangeColumn([math.nan, 5.0], [0.0, 1.0], [True] * 2, [True] * 2,
                          [True, False], [False, True])
        assert list(col) == [None, EMPTY_RANGE]

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="equally long"):
            RangeColumn([0.0], [1.0, 2.0], [True], [True], [False], [False])

    def test_sequence_interface(self):
        rows = [rv(1, 2), None, EMPTY_RANGE, rv(-math.inf, 4, False, True)]
        col = RangeColumn.from_values(rows)
        assert RangeColumn.from_values(col) is col
        assert len(col) == 4
        assert [col[k] for k in range(-4, 4)] == rows + rows
        assert isinstance(col[1:3], RangeColumn) and list(col[1:3]) == rows[1:3]
        assert list(col[::-1]) == rows[::-1]
        assert col == RangeColumn.from_values(list(rows))
        assert col != col[:3] and col != col[::-1] and col != rows and col != "[1,2]"
        with pytest.raises(IndexError):
            col[4]
        with pytest.raises(ValueError):
            col.lower[0] = 7.0

    def test_columns_and_lists_give_the_same_results(self):
        rng = np.random.default_rng(1)
        xs = uniform_ranges(rng, 40) + [None, EMPTY_RANGE, rv(-math.inf, 3)]
        ys = uniform_ranges(rng, 30) + [rv(5, math.inf), None]
        cx, cy = RangeColumn.from_values(xs), RangeColumn.from_values(ys)
        assert analyze_range_column(cx, 4) == analyze_range_column(xs, 4)
        for op in RangeOp:
            assert exact_range_join(cx, cy, op) == exact_range_join(xs, ys, op)


class TestLiterals:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("[1,2]", rv(1, 2, True, True)),
            ("[1,2)", rv(1, 2, True, False)),
            ("(1,2]", rv(1, 2, False, True)),
            ("(1,2)", rv(1, 2, False, False)),
            ("[-inf,5]", rv(-math.inf, 5)),
            ("(0,inf)", rv(0, math.inf, False, False)),
            ("empty", EMPTY_RANGE),
            (" [ 1.5 , 2.5 ] ", rv(1.5, 2.5)),
            ("[5,5)", rv(5, 5, True, False)),      # as written, not normalized
        ],
    )
    def test_parse(self, text, expected):
        assert parse_range(text) == expected

    def test_empty_string_is_null(self):
        assert parse_range("") is None
        assert parse_range("   ") is None

    @pytest.mark.parametrize("text", ["[1;2]", "[1,2", "1,2]", "[a,b]", "[nan,2]", "<1,2>"])
    def test_malformed(self, text):
        with pytest.raises(ValueError, match="malformed|invalid"):
            parse_range(text)

    def test_reversed_literal(self):
        with pytest.raises(ValueError, match="out of order"):
            parse_range("[5,2]")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        drawn = []
        for _ in range(100):
            if rng.random() < 0.1:
                r = EMPTY_RANGE
            else:
                lo = float(rng.integers(-50, 50))
                hi = lo + float(rng.integers(0, 50))
                r = RangeValue(
                    -math.inf if rng.random() < 0.1 else lo,
                    math.inf if rng.random() < 0.1 else hi,
                    bool(rng.random() < 0.5) or lo == hi,
                    bool(rng.random() < 0.5) or lo == hi,
                )
            drawn.append(r)
        rows = list(RangeColumn.from_values(drawn))
        path = tmp_path / "r.col"
        write_range_column(path, rows + [None])
        *lines, null, end = path.read_bytes().decode("ascii").split("\n")
        assert [parse_range(line) for line in lines] == rows
        assert null == end == ""


class TestOperatorSemantics:
    def test_strictly_left_boundary_flags(self):
        assert range_op_holds(RangeOp.STRICTLY_LEFT, rv(1, 2, True, False), rv(2, 3))
        assert not range_op_holds(RangeOp.STRICTLY_LEFT, rv(1, 2), rv(2, 3))
        assert range_op_holds(RangeOp.STRICTLY_LEFT, rv(1, 2), rv(2, 3, False, True))

    def test_strictly_right_is_mirror(self):
        x, y = rv(5, 9, False, True), rv(2, 5)
        assert range_op_holds(RangeOp.STRICTLY_RIGHT, x, y)
        assert range_op_holds(RangeOp.STRICTLY_LEFT, y, x)

    def test_no_extend_right(self):
        assert range_op_holds(RangeOp.NO_EXTEND_RIGHT, rv(0, 5), rv(3, 5))
        assert not range_op_holds(RangeOp.NO_EXTEND_RIGHT, rv(0, 5), rv(3, 5, True, False))
        assert range_op_holds(RangeOp.NO_EXTEND_RIGHT, rv(0, 5, True, False), rv(3, 5, True, False))

    def test_no_extend_left(self):
        assert range_op_holds(RangeOp.NO_EXTEND_LEFT, rv(3, 9), rv(3, 5))
        assert not range_op_holds(RangeOp.NO_EXTEND_LEFT, rv(3, 9), rv(3, 5, False, True))
        assert range_op_holds(RangeOp.NO_EXTEND_LEFT, rv(3, 9, False, True), rv(3, 5, False, True))

    def test_overlaps(self):
        assert range_op_holds(RangeOp.OVERLAPS, rv(1, 5), rv(5, 9))
        assert not range_op_holds(RangeOp.OVERLAPS, rv(1, 5, True, False), rv(5, 9))
        assert range_op_holds(RangeOp.OVERLAPS, rv(-math.inf, math.inf, False, False), rv(5, 9))

    def test_empty_never_qualifies(self):
        x = rv(1, 5)
        for op in RangeOp:
            assert not range_op_holds(op, EMPTY_RANGE, x)
            assert not range_op_holds(op, x, EMPTY_RANGE)
            assert not range_op_holds(op, EMPTY_RANGE, EMPTY_RANGE)
            assert not range_op_holds(op, None, x)
            assert not range_op_holds(op, x, None)

    def test_exactly_one_positional_class(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            lo1, lo2 = rng.integers(0, 10, size=2).astype(float)
            x = column_row(lo1, lo1 + rng.integers(0, 5), rng.random() < 0.5, rng.random() < 0.5)
            y = column_row(lo2, lo2 + rng.integers(0, 5), rng.random() < 0.5, rng.random() < 0.5)
            if x.empty or y.empty:
                continue
            flags = [
                range_op_holds(RangeOp.STRICTLY_LEFT, x, y),
                range_op_holds(RangeOp.STRICTLY_RIGHT, x, y),
                range_op_holds(RangeOp.OVERLAPS, x, y),
            ]
            assert sum(flags) == 1


class TestAnalyze:
    def test_counting_example(self):
        rows = [rv(1, 2), rv(3, 9), EMPTY_RANGE, None]
        s = analyze_range_column(rows, 2)
        assert s.null_frac == 0.25
        assert s.empty_frac == pytest.approx(1 / 3)
        assert s.lower_stats.histogram.bounds.tolist() == [1, 3]
        assert s.upper_stats.histogram.bounds.tolist() == [2, 9]

    def test_all_empty(self):
        s = analyze_range_column([EMPTY_RANGE, EMPTY_RANGE], 2)
        assert s.empty_frac == 1.0
        assert s.lower_stats is None and s.upper_stats is None

    def test_infinite_bound_fractions(self):
        rows = [rv(-math.inf, 5), rv(0, 5)]
        s = analyze_range_column(rows, 2)
        assert s.lower_inf_frac == 0.5
        assert s.upper_inf_frac == 0.0
        assert s.lower_stats.histogram.bounds.tolist() == [0, 0]

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            analyze_range_column([rv(1, 2)], 0)

    def test_sample_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="sample cap"):
            analyze_range_column([rv(1, 2), rv(3, 4)], 2, sample_cap=0)


def uniform_ranges(rng, n, lo=0, hi=1000, max_width=50):
    out = []
    for _ in range(n):
        start = float(rng.integers(lo, hi - max_width))
        out.append(rv(start, start + float(rng.integers(1, max_width))))
    return out


class TestJoin:
    def test_disjoint_strictly_left(self):
        rng = np.random.default_rng(2)
        sx = analyze_range_column(uniform_ranges(rng, 50, 0, 10, 3), 5)
        sy = analyze_range_column(uniform_ranges(rng, 50, 20, 30, 3), 5)
        assert range_join_selectivity(sx, sy, RangeOp.STRICTLY_LEFT) == pytest.approx(1.0)
        assert range_join_selectivity(sx, sy, RangeOp.OVERLAPS) == pytest.approx(0.0)

    def test_reduction_fidelity(self):
        # with no nulls, empties or infinities the strictly-left estimate
        # is exactly the scalar join of the bound statistics
        rng = np.random.default_rng(3)
        sx = analyze_range_column(uniform_ranges(rng, 100), 10)
        sy = analyze_range_column(uniform_ranges(rng, 100), 10)
        direct = join_selectivity(sx.upper_stats, sy.lower_stats, ScalarOp.LT)
        assert range_join_selectivity(sx, sy, RangeOp.STRICTLY_LEFT) == direct

    def test_mirror(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sx = analyze_range_column(uniform_ranges(rng, 60), 6)
            sy = analyze_range_column(uniform_ranges(rng, 60), 6)
            assert range_join_selectivity(sx, sy, RangeOp.STRICTLY_RIGHT) == \
                range_join_selectivity(sy, sx, RangeOp.STRICTLY_LEFT)

    def test_overlap_complement_on_clean_data(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sx = analyze_range_column(uniform_ranges(rng, 80), 8)
            sy = analyze_range_column(uniform_ranges(rng, 80), 8)
            total = (
                range_join_selectivity(sx, sy, RangeOp.STRICTLY_LEFT)
                + range_join_selectivity(sx, sy, RangeOp.STRICTLY_RIGHT)
                + range_join_selectivity(sx, sy, RangeOp.OVERLAPS)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_absorption(self):
        rng = np.random.default_rng(6)
        s_empty = analyze_range_column([EMPTY_RANGE] * 10, 3)
        s = analyze_range_column(uniform_ranges(rng, 20), 3)
        for op in RangeOp:
            assert range_join_selectivity(s_empty, s, op) == 0.0
            assert range_join_selectivity(s, s_empty, op) == 0.0

    def test_null_absorption(self):
        rng = np.random.default_rng(7)
        s_null = analyze_range_column([None] * 10, 3)
        s = analyze_range_column(uniform_ranges(rng, 20), 3)
        for op in RangeOp:
            assert range_join_selectivity(s_null, s, op) == 0.0

    def test_all_upper_bounds_infinite(self):
        # equal infinite upper bounds are both open, so every pair ends by
        # the other: no-extend-right holds for all of them
        xs = [RangeValue(k, math.inf, True, False) for k in range(10)]
        ys = [RangeValue(k + 5, math.inf, True, False) for k in range(10)]
        sx, sy = analyze_range_column(xs, 3), analyze_range_column(ys, 3)
        assert exact_range_join(xs, ys, RangeOp.NO_EXTEND_RIGHT).selectivity == 1.0
        assert range_join_selectivity(sx, sy, RangeOp.NO_EXTEND_RIGHT) == 1.0

    def test_infinite_upper_never_strictly_left(self):
        rows = [RangeValue(0, math.inf, True, False)] * 10
        sx = analyze_range_column(rows, 3)
        rng = np.random.default_rng(9)
        sy = analyze_range_column(uniform_ranges(rng, 20), 3)
        assert range_join_selectivity(sx, sy, RangeOp.STRICTLY_LEFT) == 0.0

    def test_insufficient_statistics(self):
        # finite bounds without their statistics cannot be built, so no join
        # is ever estimated from them
        with pytest.raises(ValueError, match="lower_stats missing"):
            RangeStats(0.0, 0.0, 0.0, 0.0, None, None)


class TestRangeStatsInvariants:
    """RangeStats rejects fractions outside [0, 1] and missing bound statistics."""

    FRACTIONS = ("null_frac", "empty_frac", "lower_inf_frac", "upper_inf_frac")

    @staticmethod
    def stats(**changes) -> RangeStats:
        bound = analyze_column([1.0, 2.0, 3.0, 5.0], 2)
        fields = dict(null_frac=0.1, empty_frac=0.1, lower_stats=bound, upper_stats=bound,
                      lower_inf_frac=0.1, upper_inf_frac=0.1)
        return RangeStats(**{**fields, **changes})

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("fld", FRACTIONS)
    def test_fraction_out_of_range(self, fld, value):
        with pytest.raises(ValueError, match=f"^{fld} out of range$"):
            self.stats(**{fld: value})

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    @pytest.mark.parametrize("inf_frac", [0.0, 0.5, 1.0 - 1e-12])
    def test_missing_bound_with_finite_mass(self, bound, inf_frac):
        with pytest.raises(ValueError, match=f"{bound}_stats missing"):
            self.stats(**{f"{bound}_stats": None, f"{bound}_inf_frac": inf_frac})

    @pytest.mark.parametrize("blank", [{"null_frac": 1.0}, {"empty_frac": 1.0}])
    def test_missing_bounds_accepted_without_positioned_rows(self, blank):
        s = self.stats(lower_stats=None, upper_stats=None, **blank)
        for op in RangeOp:
            assert range_join_selectivity(s, self.stats(), op) == 0.0

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_missing_bound_accepted_when_every_one_is_infinite(self, bound):
        s = self.stats(**{f"{bound}_stats": None, f"{bound}_inf_frac": 1.0})
        for op in RangeOp:
            assert 0.0 <= range_join_selectivity(s, self.stats(), op) <= 1.0
            assert 0.0 <= range_join_selectivity(self.stats(), s, op) <= 1.0

    @pytest.mark.parametrize("rows,missing", [
        ([None, None], ("lower", "upper")),
        ([EMPTY_RANGE, None], ("lower", "upper")),
        ([rv(-math.inf, 3), rv(-math.inf, 4), None], ("lower",)),
        ([rv(1, math.inf), EMPTY_RANGE], ("upper",)),
    ])
    def test_analyze_leaves_out_only_bounds_without_finite_values(self, rows, missing):
        s = analyze_range_column(rows, 3)
        assert tuple(b for b in ("lower", "upper") if getattr(s, f"{b}_stats") is None) == missing


class TestRoundTrip:
    def test_save_load(self):
        rng = np.random.default_rng(11)
        rows = uniform_ranges(rng, 50) + [None, EMPTY_RANGE, rv(-math.inf, 3)]
        s = analyze_range_column(rows, 4)
        assert load_range_stats(save_range_stats(s)) == s

    def test_missing_field(self):
        rng = np.random.default_rng(12)
        s = analyze_range_column(uniform_ranges(rng, 10), 2)
        doc = json.loads(save_range_stats(s))
        del doc["empty_frac"]
        with pytest.raises(ValueError, match="missing field empty_frac"):
            range_stats_from_dict(doc)

    def test_nested_stats_validated(self):
        rng = np.random.default_rng(13)
        s = analyze_range_column(uniform_ranges(rng, 10), 2)
        doc = json.loads(save_range_stats(s))
        doc["lower_stats"]["histogram"]["bounds"] = [5.0, 1.0]
        with pytest.raises(ValueError, match="bounds not sorted"):
            range_stats_from_dict(doc)
