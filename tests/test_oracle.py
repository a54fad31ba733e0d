import gc
import math
import pickle

import numpy as np
import pytest

from ineqsel import (
    ExactCount,
    RangeOp,
    RangeValue,
    ScalarOp,
    exact_join,
    exact_range_join,
    exact_restriction,
    range_op_holds,
)
from ineqsel._util import as_float_column
from ineqsel.oracle import _count_le, _keys, _pair_counts
from ineqsel.ranges import EMPTY_RANGE, RangeColumn

from conftest import R1_X, R2_Y, column_row

ALL_SCALAR_OPS = (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE)
PAIRWISE = {
    ScalarOp.LT: np.less,
    ScalarOp.LE: np.less_equal,
    ScalarOp.GT: np.greater,
    ScalarOp.GE: np.greater_equal,
}
# ties, both zeros, the infinities and nulls (a NaN compares false pairwise)
EDGE_VALUES = np.array([-math.inf, -2.5, -0.0, 0.0, 0.0, 1e-300, 0.1, 0.1, 7.0, math.inf, math.nan])
NAN = math.nan


class TestExactCount:
    def test_selectivity(self):
        assert ExactCount(3, 12).selectivity == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            ExactCount(1, 0)
        with pytest.raises(ValueError):
            ExactCount(5, 4)


class TestRestriction:
    def test_running_example(self):
        c = exact_restriction(R1_X, 30, ScalarOp.LT)
        assert (c.qualifying, c.total) == (8, 12)
        assert c.selectivity == pytest.approx(2 / 3)

    def test_below_minimum(self):
        c = exact_restriction(R1_X, -1e9, ScalarOp.LT)
        assert c.qualifying == 0

    def test_nulls_never_qualify_but_count(self):
        c = exact_restriction([1, None, 3], 2, ScalarOp.LT)
        assert (c.qualifying, c.total) == (1, 3)

    def test_all_ops_against_loop(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 10, size=50).astype(float)
        data[rng.random(50) < 0.2] = np.nan
        for op in ALL_SCALAR_OPS:
            for c in (-1.0, 3.0, 9.0, 12.0):
                expect = sum(
                    1 for v in data if not math.isnan(v) and op.apply(v, c)
                )
                assert exact_restriction(data, c, op).qualifying == expect


class TestJoin:
    def test_running_example(self):
        c = exact_join(R1_X, R2_Y, ScalarOp.LT)
        assert (c.qualifying, c.total) == (95, 144)
        assert c.selectivity == pytest.approx(95 / 144)

    def test_identical_singletons(self):
        assert exact_join([5], [5], ScalarOp.LT).qualifying == 0
        assert exact_join([5], [5], ScalarOp.LE).qualifying == 1

    def test_small_enumeration(self):
        c = exact_join([1, 2], [1, 2], ScalarOp.LT)
        assert (c.qualifying, c.total) == (1, 4)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n, m = rng.integers(1, 200, size=2)
            xs = rng.integers(0, 25, size=n).astype(float)
            ys = rng.integers(0, 25, size=m).astype(float)
            xs[rng.random(n) < 0.15] = np.nan
            ys[rng.random(m) < 0.15] = np.nan
            op = ALL_SCALAR_OPS[int(rng.integers(0, len(ALL_SCALAR_OPS)))]
            naive = sum(
                1
                for x in xs
                for y in ys
                if not math.isnan(x) and not math.isnan(y) and op.apply(x, y)
            )
            got = exact_join(xs, ys, op)
            assert got.qualifying == naive
            assert got.total == n * m

    @pytest.mark.parametrize("xs,ys", [
        ([NAN], [1.0]),
        ([1.0], [NAN, NAN]),
        ([NAN], [NAN]),
        ([NAN, NAN, NAN], [-0.0, 0.0, math.inf]),
        ([2.0], [2.0]),
        ([-0.0], [0.0]),
        ([math.inf], [math.inf, -math.inf, NAN]),
        ([-math.inf, -math.inf], [-math.inf]),
        (list(EDGE_VALUES), list(EDGE_VALUES)),
        ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0, NAN]),
    ])
    def test_edge_cases_match_pairwise(self, xs, ys):
        self.check_pairwise(np.array(xs), np.array(ys))

    def test_float_draws_match_pairwise(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            n, m = rng.integers(1, 40, size=2)
            self.check_pairwise(rng.choice(EDGE_VALUES, size=n), rng.choice(EDGE_VALUES, size=m))

    @staticmethod
    def check_pairwise(xs, ys):
        for a, b in ((xs, ys), (ys, xs)):
            for op, compare in PAIRWISE.items():
                got = exact_join(a, b, op)
                assert got.qualifying == int(compare.outer(a, b).sum()), (op, a, b)
                assert got.total == a.size * b.size

    @pytest.mark.parametrize("xs,ys", [([NAN], [1.0]), ([1.0], [NAN]), ([1.0], [2.0]), ([NAN], [NAN])])
    def test_unknown_operator_raises_before_counting(self, xs, ys):
        for op in ("bogus", "lt", RangeOp.STRICTLY_LEFT, None):
            with pytest.raises(ValueError, match="unsupported operator"):
                exact_join(xs, ys, op)
            with pytest.raises(ValueError, match="unsupported operator"):
                exact_restriction(xs, ys[0], op)

    def test_lt_ge_partition_nonnull_pairs(self):
        rng = np.random.default_rng(2)
        xs = rng.integers(0, 9, size=40).astype(float)
        ys = rng.integers(0, 9, size=30).astype(float)
        xs[:7] = np.nan
        ys[:3] = np.nan
        lt = exact_join(xs, ys, ScalarOp.LT).qualifying
        ge = exact_join(xs, ys, ScalarOp.GE).qualifying
        assert lt + ge == 33 * 27


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_integer_column_converts_as_float_does(dtype):
    # past 2**53 not every integer is a double: the cast rounds each value
    # to the bits float() gives it, halfway cases included
    info = np.iinfo(dtype)
    rng = np.random.default_rng(22)
    edges = [2**53 + 1, 2**53 + 3, 2**54 + 2, 2**63 - 1, info.max, info.min, 0]
    values = np.concatenate((np.array(edges, dtype=dtype),
                             rng.integers(info.min, info.max, size=2000, dtype=dtype)))
    want = np.array([float(v) for v in values.tolist()])
    assert as_float_column(values).tobytes() == want.tobytes()


def rv(lo, hi, lc=True, uc=True):
    return RangeValue(lo, hi, lc, uc)


# hand-enumerated 4x4 fixture; see the expected counts worked out per pair
XS_FIXTURE = [rv(1, 2), rv(3, 5, False, True), EMPTY_RANGE, None]
YS_FIXTURE = [rv(2, 3), rv(5, 7, False, False), rv(0, 10), None]

HAND_COUNTS = {
    RangeOp.STRICTLY_LEFT: 2,    # [1,2]<<(5,7)  (3,5]<<(5,7)
    RangeOp.STRICTLY_RIGHT: 1,   # (3,5]>>[2,3]
    RangeOp.NO_EXTEND_RIGHT: 5,  # [1,2]&<{all three}  (3,5]&<{(5,7) [0,10]}
    RangeOp.NO_EXTEND_LEFT: 3,   # [1,2]&>[0,10]  (3,5]&>{[2,3] [0,10]}
    RangeOp.OVERLAPS: 3,         # [1,2]&&{[2,3] [0,10]}  (3,5]&&[0,10]
}


class TestRangeJoin:
    @pytest.mark.parametrize("op,expected", sorted(HAND_COUNTS.items(), key=lambda kv: kv[0].value))
    def test_hand_fixture(self, op, expected):
        c = exact_range_join(XS_FIXTURE, YS_FIXTURE, op)
        assert c.total == 16
        assert c.qualifying == expected, op

    def test_disjoint_full_count(self):
        xs = [rv(0, 10)] * 5
        ys = [rv(20, 30)] * 7
        c = exact_range_join(xs, ys, RangeOp.STRICTLY_LEFT)
        assert (c.qualifying, c.total) == (35, 35)

    def test_all_null_side(self):
        ys = [rv(0, 1), rv(2, 3)]
        for op in RangeOp:
            assert exact_range_join([None, None], ys, op).qualifying == 0

    def test_matches_predicate_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = rng.integers(1, 60, size=2)
            xs = [random_range(rng) for _ in range(n)]
            ys = [random_range(rng) for _ in range(m)]
            for op in RangeOp:
                naive = sum(1 for x in xs for y in ys if range_op_holds(op, x, y))
                got = exact_range_join(xs, ys, op)
                assert got.qualifying == naive, op
                assert got.total == n * m


def point_column(values):
    """The closed point ranges [v, v] of values, NaN as a null row."""
    values = np.asarray(values, dtype=float)
    return RangeColumn(values, values, np.ones(values.size, bool), np.ones(values.size, bool),
                       np.isnan(values), np.zeros(values.size, bool))


class TestPointRangesJoinAsScalars:
    """Both oracles use one key convention: closed point ranges [v, v]
    compare as their values, so each bound inequality counts as the scalar
    join of the same values."""

    AS_SCALAR = {
        RangeOp.STRICTLY_LEFT: ScalarOp.LT,    # v_x < v_y
        RangeOp.NO_EXTEND_RIGHT: ScalarOp.LE,  # v_x <= v_y
        RangeOp.STRICTLY_RIGHT: ScalarOp.GT,   # v_x > v_y
        RangeOp.NO_EXTEND_LEFT: ScalarOp.GE,   # v_x >= v_y
    }

    def test_tied_columns(self):
        rng = np.random.default_rng(21)
        pool = np.array([-3.0, -0.0, 0.0, 0.5, 0.5, 2.0, 1e9, NAN])
        for _ in range(30):
            n, m = rng.integers(1, 50, size=2)
            xs, ys = rng.choice(pool, size=n), rng.choice(pool, size=m)
            for a, b in ((xs, ys), (ys, xs), (xs, xs)):
                for range_op, scalar_op in self.AS_SCALAR.items():
                    got = exact_range_join(point_column(a), point_column(b), range_op)
                    assert got == exact_join(a, b, scalar_op), (range_op, a, b)


def random_range(rng):
    """A null, empty or drawn row, as a column normalizes it."""
    u = rng.random()
    if u < 0.08:
        return None
    if u < 0.16:
        return EMPTY_RANGE
    lo = float(rng.integers(0, 12))
    hi = lo + float(rng.integers(0, 6))
    lc = bool(rng.random() < 0.5)
    uc = bool(rng.random() < 0.5)
    if lo == hi:
        lc = uc = True
    if rng.random() < 0.1:
        lo = -math.inf
    if rng.random() < 0.1:
        hi = math.inf
    return column_row(lo, hi, lc, uc)


def tie_heavy_range(rng):
    """Bounds from {0, 1, 2, 3} and the infinities, so most pairs tie somewhere;
    each row as a column normalizes it."""
    u = rng.random()
    if u < 0.1:
        return None
    if u < 0.2:
        return EMPTY_RANGE
    lo = float(rng.integers(0, 4))
    hi = lo + float(rng.integers(0, 3))
    lc, uc = (bool(f) for f in rng.random(2) < 0.5)
    if lo == hi:
        lc = uc = True
    if rng.random() < 0.15:
        lo = -math.inf
    if rng.random() < 0.15:
        hi = math.inf
    return column_row(lo, hi, lc, uc)


# both zeros, both infinities and few other values, so most keys tie
KEY_POOL = np.array([-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf])


@pytest.mark.parametrize("layout", range(16))
def test_count_le_matches_pairwise(layout):
    # bit i of the layout: whether run i of (a0, a1, b0, b1) is non-empty
    rng = np.random.default_rng(layout)
    for _ in range(30):
        runs = [np.sort(rng.choice(KEY_POOL, size=int(rng.integers(1, 15))))
                if layout >> i & 1 else np.empty(0) for i in range(4)]
        a, b = tuple(runs[:2]), tuple(runs[2:])
        # a key (value, offset) as a tuple compares value first, then offset
        a_keys = [(v, offset) for offset, run in enumerate(a) for v in run.tolist()]
        b_keys = [(v, offset) for offset, run in enumerate(b) for v in run.tolist()]
        assert _count_le(a, b) == sum(ka <= kb for ka in a_keys for kb in b_keys), runs


class TestRangeJoinSortedKeys:
    """A column's bound keys are sorted once; every later count reuses them."""

    def test_warm_columns_count_as_fresh_and_pairwise(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n, m = rng.integers(1, 30, size=2)
            xs = [tie_heavy_range(rng) for _ in range(n)]
            ys = [tie_heavy_range(rng) for _ in range(m)]
            wx, wy = RangeColumn.from_values(xs), RangeColumn.from_values(ys)
            ops = list(rng.permutation(list(RangeOp))) + list(rng.permutation(list(RangeOp)))
            for op in ops:
                for (a, av), (b, bv) in (((wx, xs), (wy, ys)), ((wy, ys), (wx, xs)),
                                         ((wx, xs), (wx, xs))):
                    got = exact_range_join(a, b, op)
                    fresh = exact_range_join(RangeColumn.from_values(av),
                                             RangeColumn.from_values(bv), op)
                    naive = sum(range_op_holds(op, x, y) for x in av for y in bv)
                    assert got == fresh, op
                    assert got.qualifying == naive, op
            assert wx == RangeColumn.from_values(xs) and list(wx) == xs
            assert wy == RangeColumn.from_values(ys) and list(wy) == ys

    def test_sorted_once_read_only(self):
        rng = np.random.default_rng(13)
        column = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(40)])
        for bound in ("lower", "upper"):
            keys = _keys(column, bound)
            assert _keys(column, bound) is keys
            for k in keys:
                assert not k.flags.writeable
                assert np.array_equal(k, np.sort(k))

    def test_slices_sort_their_own_rows(self):
        rng = np.random.default_rng(14)
        rows = [tie_heavy_range(rng) for _ in range(40)]
        other = [tie_heavy_range(rng) for _ in range(25)]
        column, ys = RangeColumn.from_values(rows), RangeColumn.from_values(other)
        for op in RangeOp:
            exact_range_join(column, ys, op)
            exact_range_join(ys, column, op)
        for key in (slice(5, 30), slice(None, None, 3), slice(20, None)):
            part = column[key]
            assert list(part) == rows[key]
            for op in RangeOp:
                naive = sum(range_op_holds(op, x, y) for x in rows[key] for y in other)
                assert exact_range_join(part, ys, op).qualifying == naive, (op, key)
                naive = sum(range_op_holds(op, y, x) for x in rows[key] for y in other)
                assert exact_range_join(ys, part, op).qualifying == naive, (op, key)


class TestRangeJoinPairCounts:
    """The strict counts of a pair (xs, ys) are made once; overlaps reuses them."""

    STRICT = (RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT)

    def test_counts_independent_of_call_order(self):
        rng = np.random.default_rng(15)
        xs = [tie_heavy_range(rng) for _ in range(30)]
        ys = [tie_heavy_range(rng) for _ in range(25)]
        want = {op: sum(range_op_holds(op, x, y) for x in xs for y in ys) for op in RangeOp}
        orders = [list(RangeOp), list(reversed(list(RangeOp)))]
        orders += [list(rng.permutation(list(RangeOp))) for _ in range(4)]
        for order in orders:
            wx, wy = RangeColumn.from_values(xs), RangeColumn.from_values(ys)
            for op in order + order:
                assert exact_range_join(wx, wy, op).qualifying == want[op], (order, op)

    def test_overlaps_reads_the_strict_counts(self):
        rng = np.random.default_rng(16)
        xs = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(30)])
        ys = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(25)])
        overlaps = exact_range_join(xs, ys, RangeOp.OVERLAPS).qualifying
        counts = _pair_counts(xs, ys)
        assert set(counts) == set(self.STRICT)
        for op in self.STRICT:
            assert counts[op] == exact_range_join(xs, ys, op).qualifying
        # a planted count shows that overlaps takes the memo's values
        counts[RangeOp.STRICTLY_LEFT] += 1
        assert exact_range_join(xs, ys, RangeOp.OVERLAPS).qualifying == overlaps - 1

    def test_another_column_never_hits_the_memo(self):
        rng = np.random.default_rng(17)
        rows = [tie_heavy_range(rng) for _ in range(30)]
        xs = RangeColumn.from_values(rows)
        ys = [RangeColumn.from_values([tie_heavy_range(rng) for _ in range(20)])
              for _ in range(3)]
        # an equal column that is not ys is a different pair too
        ys.append(RangeColumn.from_values(list(ys[0])))
        for _ in range(2):
            for y in ys:
                for op in RangeOp:
                    naive = sum(range_op_holds(op, x, v) for x in rows for v in y)
                    assert exact_range_join(xs, y, op).qualifying == naive, op
                    assert _pair_counts(xs, y) is _pair_counts(xs, y)
        # a self-join counts against itself
        for op in RangeOp:
            naive = sum(range_op_holds(op, a, b) for a in rows for b in rows)
            assert exact_range_join(xs, xs, op).qualifying == naive, op

    def test_memo_does_not_keep_ys_alive(self):
        rng = np.random.default_rng(18)
        xs = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(30)])
        ys = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(20)])
        exact_range_join(xs, ys, RangeOp.OVERLAPS)
        ref, _ = vars(xs)["_pair_counts"]
        assert ref() is ys
        del ys
        gc.collect()
        assert ref() is None

    def test_warm_column_pickles_as_a_fresh_one(self):
        rng = np.random.default_rng(19)
        rows = [tie_heavy_range(rng) for _ in range(30)]
        xs = RangeColumn.from_values(rows)
        for op in RangeOp:
            exact_range_join(xs, xs, op)
        copy = pickle.loads(pickle.dumps(xs))
        assert copy == xs and list(copy) == rows
        assert "_pair_counts" not in vars(copy) and "_sorted_keys" not in vars(copy)
        assert not copy.lower.flags.writeable
        for op in RangeOp:
            assert exact_range_join(copy, copy, op) == exact_range_join(xs, xs, op)
