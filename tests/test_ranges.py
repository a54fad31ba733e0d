import itertools
import json
import math
import re

import numpy as np
import pytest

from ineqsel import (
    AttributeStats,
    EquiDepthHistogram,
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
from ineqsel.mcv import EMPTY_MCV
from ineqsel.ranges import _COLUMN_FIELDS, BOUND_INEQUALITY, EMPTY_RANGE

from conftest import assert_copies_rebuilt, column_row, normalized_row


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

    @pytest.mark.parametrize("field", _COLUMN_FIELDS)
    @pytest.mark.parametrize("value", [1.0, np.float64(1.0), True, [[1.0]]],
                             ids=["float", "numpy-float", "bool", "nested-list"])
    def test_fields_are_one_dimensional(self, field, value):
        columns = dict(zip(_COLUMN_FIELDS, ([1.0], [2.0], [True], [True], [False], [False])))
        columns[field] = value
        shape = np.shape(value)
        message = f"range column {field}: expected a one-dimensional column, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RangeColumn(**columns)

    @pytest.mark.parametrize("field", _COLUMN_FIELDS)
    @pytest.mark.parametrize("value", [
        ["1"], [b"1"], ["no"], "1", b"1", np.array(["1"]), np.array([b"1"]),
        np.array(["1"], dtype=object),
    ], ids=["str-list", "bytes-list", "no", "str", "bytes", "U-array", "S-array",
            "object-array"])
    def test_strings_rejected(self, field, value):
        # float() would read a bound's digits, bool() a flag's length
        columns = dict(zip(_COLUMN_FIELDS, ([1.0], [2.0], [True], [True], [False], [False])))
        columns[field] = value
        message = f"range column {field}: expected real values, got a string column"
        with pytest.raises(TypeError, match=f"^{message}$"):
            RangeColumn(**columns)

    @pytest.mark.parametrize("field", _COLUMN_FIELDS)
    @pytest.mark.parametrize("value", [
        [1 + 0j], np.array([1 + 2j]), np.array([1j], dtype=object), [None, np.complex64(1)],
    ], ids=["complex-list", "complex-array", "object-array", "object-list"])
    def test_complex_rejected(self, field, value):
        # a cast would drop the imaginary part with only a ComplexWarning,
        # and bool() would read a complex element's truth
        columns = dict(zip(_COLUMN_FIELDS, ([1.0], [2.0], [True], [True], [False], [False])))
        columns[field] = value
        message = f"range column {field}: expected real values, got a complex column"
        with pytest.raises(TypeError, match=f"^{message}$"):
            RangeColumn(**columns)

    @pytest.mark.parametrize("field", ["lower", "upper"])
    def test_bound_beyond_float_range_names_its_field(self, field):
        columns = dict(zip(_COLUMN_FIELDS, ([1.0], [2.0], [True], [True], [False], [False])))
        columns[field] = [10**400]
        with pytest.raises(OverflowError, match=f"^range column {field}: "):
            RangeColumn(**columns)

    def test_numeric_flags_keep_numpy_truth(self):
        col = RangeColumn([1.0, 1.0], [2.0, 2.0], [2, 0.0], np.array([0, -1]), [0, 0], [0, 0])
        assert list(col) == [rv(1.0, 2.0, True, False), rv(1.0, 2.0, False, True)]

    def test_sequence_interface(self):
        rows = [rv(1, 2), None, EMPTY_RANGE, rv(-math.inf, 4, False, True)]
        col = RangeColumn.from_values(rows)
        assert RangeColumn.from_values(col) == col
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
        write_range_column(path, RangeColumn.from_values(rows + [None]))
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

    @pytest.mark.parametrize("x", [None, EMPTY_RANGE, rv(1, 2)],
                             ids=["null", "empty", "positioned"])
    def test_unknown_operator_raises(self, x):
        # checked before the shortcut for null and empty operands
        for op in ("bogus", "overlaps", ScalarOp.LT, None, [RangeOp.OVERLAPS], {}):
            with pytest.raises(ValueError, match="unsupported operator"):
                range_op_holds(op, x, rv(3, 4))

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
        s = analyze_range_column(RangeColumn.from_values(rows), 2)
        assert s.null_frac == 0.25
        assert s.empty_frac == pytest.approx(1 / 3)
        assert s.lower_stats.histogram.bounds.tolist() == [1, 3]
        assert s.upper_stats.histogram.bounds.tolist() == [2, 9]

    @pytest.mark.parametrize("rows", [[EMPTY_RANGE, EMPTY_RANGE], [None, None],
                                      [EMPTY_RANGE, None]], ids=["empty", "null", "both"])
    def test_no_positioned_row_gives_all_null_bounds(self, rows):
        # each bound has zero rows, all of them null
        s = analyze_range_column(RangeColumn.from_values(rows), 2)
        blank = AttributeStats(1.0, EMPTY_MCV, None, 0, 2)
        assert s.lower_stats == blank and s.upper_stats == blank
        for op in RangeOp:
            assert range_join_selectivity(s, s, op) == 0.0

    def test_infinite_bounds_are_nulls_of_their_bound(self):
        rows = [rv(-math.inf, 5), rv(0, 5)]
        s = analyze_range_column(RangeColumn.from_values(rows), 2)
        assert s.lower_stats.null_frac == 0.5
        assert s.upper_stats.null_frac == 0.0
        assert s.lower_stats.histogram.bounds.tolist() == [0, 0]
        assert s.lower_stats.row_count == s.upper_stats.row_count == 2

    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_bound_infinite_in_every_positioned_row(self, bound):
        # the other bound and the null and empty rows are as usual
        rows = [RangeValue(-math.inf, 3, False, True), RangeValue(-math.inf, 4, False, True)]
        if bound == "upper":
            rows = [RangeValue(3, math.inf, True, False), RangeValue(4, math.inf, True, False)]
        s = analyze_range_column(RangeColumn.from_values(rows + [None, EMPTY_RANGE]), 2)
        infinite = getattr(s, f"{bound}_stats")
        assert infinite == AttributeStats(1.0, EMPTY_MCV, None, 2, 2)
        other = s.upper_stats if bound == "lower" else s.lower_stats
        assert other.null_frac == 0.0 and other.row_count == 2

    def test_invalid_target(self):
        # named as such: with the target at 0, the default cap is 0 too
        with pytest.raises(ValueError, match="statistics target must be at least 1"):
            analyze_range_column(RangeColumn.from_values([rv(1, 2)]), 0)

    def test_sample_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="sample cap"):
            analyze_range_column(RangeColumn.from_values([rv(1, 2), rv(3, 4)]), 2, sample_cap=0)

    def test_sampled_rows_analyzed_as_a_column(self):
        # the rows are drawn as default_rng(seed).choice draws them, and then
        # analyzed as a column of their own would be, in full
        col = generate_range_column(5000, 3)
        for target, seed in ((1, 0), (3, 4), (10, 1)):
            cap = 300 * target
            rows = np.random.default_rng(seed).choice(len(col), size=cap, replace=False)
            sampled = RangeColumn(*(getattr(col, name)[rows] for name in _COLUMN_FIELDS))
            got = analyze_range_column(col, target, seed)
            assert got == analyze_range_column(sampled, target, seed, cap), (target, seed)

    def test_bound_values_analyzed_in_full(self):
        # a cap above the default reads every row, and then every bound of
        # the positioned rows, the infinite ones as nulls
        col = generate_range_column(5000, 3)
        s = analyze_range_column(col, 1, 0, len(col))
        for bound in ("lower", "upper"):
            values = getattr(col, bound)[col.positioned]
            stats = getattr(s, f"{bound}_stats")
            assert stats.row_count == values.size > 300
            assert stats.null_frac == np.isinf(values).sum() / values.size > 0


class TestColumnRequired:
    """Every range entry point takes a RangeColumn: a list of rows fails at
    once, naming RangeColumn and the conversion that makes one."""

    @pytest.mark.parametrize("call", [
        lambda rows, col, path: exact_range_join(rows, col, RangeOp.OVERLAPS),
        lambda rows, col, path: exact_range_join(col, rows, RangeOp.STRICTLY_LEFT),
        lambda rows, col, path: analyze_range_column(rows, 10),
        lambda rows, col, path: write_range_column(path, rows),
    ], ids=["exact_range_join-xs", "exact_range_join-ys", "analyze_range_column",
            "write_range_column"])
    def test_list_of_rows_rejected(self, call, tmp_path):
        rows = [rv(1, 2), rv(3, 4), None]
        path = tmp_path / "col.txt"
        with pytest.raises(TypeError, match=r"RangeColumn\b.*RangeColumn\.from_values"):
            call(rows, RangeColumn.from_values(rows), path)
        assert not path.exists()


def uniform_ranges(rng, n, lo=0, hi=1000, max_width=50):
    out = []
    for _ in range(n):
        start = float(rng.integers(lo, hi - max_width))
        out.append(rv(start, start + float(rng.integers(1, max_width))))
    return RangeColumn.from_values(out)


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
        s_empty = analyze_range_column(RangeColumn.from_values([EMPTY_RANGE] * 10), 3)
        s = analyze_range_column(uniform_ranges(rng, 20), 3)
        for op in RangeOp:
            assert range_join_selectivity(s_empty, s, op) == 0.0
            assert range_join_selectivity(s, s_empty, op) == 0.0

    def test_null_absorption(self):
        rng = np.random.default_rng(7)
        s_null = analyze_range_column(RangeColumn.from_values([None] * 10), 3)
        s = analyze_range_column(uniform_ranges(rng, 20), 3)
        for op in RangeOp:
            assert range_join_selectivity(s_null, s, op) == 0.0

    @pytest.mark.parametrize("rows", [[None, None], [EMPTY_RANGE], [rv(1, 2), rv(3, 5)]],
                             ids=["all-null", "all-empty", "positioned"])
    def test_unknown_operator_raises(self, rows):
        # checked before the shortcut for a side without positioned rows
        s = analyze_range_column(RangeColumn.from_values(rows), 10)
        for op in ("bogus", "overlaps", ScalarOp.LT, None, [RangeOp.OVERLAPS], {}):
            with pytest.raises(ValueError, match="unsupported operator"):
                range_join_selectivity(s, s, op)

    def test_all_upper_bounds_infinite(self):
        # equal infinite upper bounds are both open, so every pair ends by
        # the other: no-extend-right holds for all of them
        xs = RangeColumn.from_values([RangeValue(k, math.inf, True, False) for k in range(10)])
        ys = RangeColumn.from_values([RangeValue(k + 5, math.inf, True, False) for k in range(10)])
        sx, sy = analyze_range_column(xs, 3), analyze_range_column(ys, 3)
        assert exact_range_join(xs, ys, RangeOp.NO_EXTEND_RIGHT).selectivity == 1.0
        assert range_join_selectivity(sx, sy, RangeOp.NO_EXTEND_RIGHT) == 1.0

    def test_infinite_upper_never_strictly_left(self):
        rows = [RangeValue(0, math.inf, True, False)] * 10
        sx = analyze_range_column(RangeColumn.from_values(rows), 3)
        rng = np.random.default_rng(9)
        sy = analyze_range_column(uniform_ranges(rng, 20), 3)
        assert range_join_selectivity(sx, sy, RangeOp.STRICTLY_LEFT) == 0.0


def bound_column(seed, lower_inf, upper_inf, mixed_flags=False):
    """A column with null and empty rows whose finite bounds take a few
    values, each at least twice (every drawn row appears twice), and about
    the given shares of infinite lower and upper bounds.  The finite bounds
    are closed unless mixed_flags."""
    rng, rows = np.random.default_rng(seed), 150
    lower = rng.integers(0, 8, rows).astype(float)
    upper = lower + rng.integers(0, 4, rows)
    lower[rng.random(rows) < lower_inf] = -math.inf
    upper[rng.random(rows) < upper_inf] = math.inf
    lower_closed = upper_closed = np.ones(rows, dtype=bool)
    if mixed_flags:
        lower_closed, upper_closed = rng.random((2, rows)) < 0.5
    null, empty = rng.random((2, rows)) < 0.1
    arrays = (lower, upper, lower_closed, upper_closed, null, empty)
    return RangeColumn(*(np.tile(a, 2) for a in arrays))


# (X lower, X upper, Y lower, Y upper) shares of infinite bounds
INFINITE_SHARES = [
    (0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.0),
    (0.0, 0.0, 0.0, 0.5), (0.5, 0.5, 0.5, 0.5), (0.1, 0.3, 0.5, 0.2), (0.4, 0.0, 0.0, 0.25),
    (0.0, 0.35, 0.15, 0.0),
]

BOUNDS = [("x", "lower"), ("x", "upper"), ("y", "lower"), ("y", "upper")]


def _decided(op, infinite) -> bool:
    """Whether every pair op compares has an infinite bound, those in
    ``infinite`` being infinite on every row."""
    ops = (RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT) if op is RangeOp.OVERLAPS else (op,)
    return all(("x", x_bound) in infinite or ("y", y_bound) in infinite
               for x_bound, _, y_bound in map(BOUND_INEQUALITY.get, ops))


DECIDED_LAYOUTS = [
    (op, infinite) for op in RangeOp
    for k in range(1, 5) for infinite in itertools.combinations(BOUNDS, k)
    if _decided(op, infinite)
]


class TestInfiniteBoundRule:
    """An infinite bound never holds in a strict comparison, and Y's holds in
    full in a same-bound one: the estimate meets the oracle wherever the
    scalar part is exact or absent."""

    @pytest.mark.parametrize("shares", INFINITE_SHARES, ids=str)
    @pytest.mark.parametrize("op", list(RangeOp), ids=lambda op: op.value)
    def test_exact_statistics_meet_the_oracle(self, op, shares):
        xs, ys = bound_column(1, *shares[:2]), bound_column(2, *shares[2:])
        # the full columns are analyzed, and every finite value is an MCV
        # entry, so the scalar estimate over the bounds is exact
        sx, sy = (analyze_range_column(c, 20) for c in (xs, ys))
        for s in (sx, sy):
            assert s.lower_stats.histogram is None and s.upper_stats.histogram is None
        want = exact_range_join(xs, ys, op).selectivity
        assert range_join_selectivity(sx, sy, op) == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("op,infinite", DECIDED_LAYOUTS, ids=[
        f"{op.value}-" + "+".join(f"{side}.{bound}" for side, bound in infinite)
        for op, infinite in DECIDED_LAYOUTS])
    def test_infinite_bounds_decide_whatever_the_flags(self, op, infinite):
        share = {b: 1.0 if b in infinite else 0.0 for b in BOUNDS}
        xs, ys = (bound_column(seed, share[side, "lower"], share[side, "upper"], mixed_flags=True)
                  for seed, side in ((3, "x"), (4, "y")))
        sx, sy = (analyze_range_column(c, 5) for c in (xs, ys))
        want = exact_range_join(xs, ys, op).selectivity
        assert range_join_selectivity(sx, sy, op) == pytest.approx(want, rel=0, abs=1e-12)


class TestRangeStatsInvariants:
    """RangeStats rejects fractions outside [0, 1]."""

    FRACTIONS = ("null_frac", "empty_frac")

    @staticmethod
    def stats(**changes) -> RangeStats:
        bound = analyze_column([1.0, 2.0, 3.0, 5.0], 2)
        fields = dict(null_frac=0.1, empty_frac=0.1, lower_stats=bound, upper_stats=bound)
        return RangeStats(**{**fields, **changes})

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("fld", FRACTIONS)
    def test_fraction_out_of_range(self, fld, value):
        with pytest.raises(ValueError, match=f"^{fld} out of range$"):
            self.stats(**{fld: value})


class TestOwnership:
    def test_checked_arrays_cannot_change(self):
        bounds = np.array([1.0, 2.0, 5.0])
        view = bounds[:]
        bound = AttributeStats(0.0, EMPTY_MCV, EquiDepthHistogram(bounds), 3, 2)
        s = RangeStats(0.0, 0.0, bound, bound)
        doc = save_range_stats(s)
        view[0] = 9.0       # unsorted, past the check
        assert save_range_stats(s) == doc
        assert bounds.flags.writeable

    def test_copies_are_rebuilt(self):
        rng = np.random.default_rng(14)
        rows = list(uniform_ranges(rng, 50)) + [None, EMPTY_RANGE, rv(-math.inf, 3)]
        column = RangeColumn.from_values(rows)
        assert_copies_rebuilt(column)
        assert_copies_rebuilt(analyze_range_column(column, 4))


class TestRoundTrip:
    def test_save_load(self):
        rng = np.random.default_rng(11)
        rows = list(uniform_ranges(rng, 50)) + [None, EMPTY_RANGE, rv(-math.inf, 3)]
        s = analyze_range_column(RangeColumn.from_values(rows), 4)
        assert load_range_stats(save_range_stats(s)) == s

    def test_missing_field(self):
        rng = np.random.default_rng(12)
        s = analyze_range_column(uniform_ranges(rng, 10), 2)
        doc = json.loads(save_range_stats(s))
        del doc["empty_frac"]
        with pytest.raises(ValueError, match="missing field empty_frac"):
            load_range_stats(json.dumps(doc))

    def test_nested_stats_validated(self):
        rng = np.random.default_rng(13)
        s = analyze_range_column(uniform_ranges(rng, 10), 2)
        doc = json.loads(save_range_stats(s))
        doc["lower_stats"]["histogram"]["bounds"] = [5.0, 1.0]
        with pytest.raises(ValueError, match="bounds not sorted"):
            load_range_stats(json.dumps(doc))
