import gc
import math
import pickle
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from ineqsel import (
    ExactCount,
    RangeOp,
    RangeValue,
    ScalarOp,
    exact_join,
    exact_range_join,
    range_op_holds,
)
from ineqsel import harness, oracle
from ineqsel._util import as_column
from ineqsel.oracle import _count_le
from ineqsel.ranges import EMPTY_RANGE, RangeColumn

from conftest import NAN_BITS, NAN_PATTERNS, R1_X, R2_Y, column_row

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
# every NaN bit pattern among both infinities and both zeros
NAN_MIXED = np.concatenate((NAN_PATTERNS, [-math.inf, -0.0, 0.0, 1.0, math.inf]))
COLUMN_FIELDS = ("lower", "upper", "lower_closed", "upper_closed", "null", "empty")


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
        c = exact_join(R1_X, [30], ScalarOp.LT)
        assert (c.qualifying, c.total) == (8, 12)
        assert c.selectivity == pytest.approx(2 / 3)

    def test_below_minimum(self):
        c = exact_join(R1_X, [-1e9], ScalarOp.LT)
        assert c.qualifying == 0

    def test_nulls_never_qualify_but_count(self):
        c = exact_join([1, None, 3], [2], ScalarOp.LT)
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
                assert exact_join(data, [c], op).qualifying == expect


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
        (NAN_MIXED, NAN_MIXED[::-1]),
        (NAN_PATTERNS, NAN_MIXED),
        (NAN_MIXED[[5, 0, 7, 3, 6, 9, 1, 8, 4, 2]], [-0.0, NAN_PATTERNS[3], 0.0, NAN_PATTERNS[4]]),
    ])
    def test_edge_cases_match_pairwise(self, xs, ys):
        self.check_pairwise(np.array(xs), np.array(ys))

    def test_every_nan_pattern_is_a_null(self):
        assert NAN_PATTERNS.view(np.uint64).tolist() == list(NAN_BITS)
        assert np.array([-np.nan]).view(np.uint64).tolist() == [NAN_BITS[1]]
        rng = np.random.default_rng(24)
        for _ in range(20):
            n, m = rng.integers(1, 60, size=2)
            self.check_pairwise(rng.choice(NAN_MIXED, size=n), rng.choice(NAN_MIXED, size=m))
        for nulls in (NAN_PATTERNS, np.repeat(NAN_PATTERNS, 3)):
            for other in (NAN_MIXED, nulls):
                for x, y in ((nulls, other), (other, nulls)):
                    for op in ScalarOp:
                        assert exact_join(x, y, op) == ExactCount(0, x.size * y.size), op

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
        for op in ("bogus", "lt", RangeOp.STRICTLY_LEFT, None, [ScalarOp.LT], {}):
            with pytest.raises(ValueError, match="unsupported operator"):
                exact_join(xs, ys, op)

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
    assert as_column(values).tobytes() == want.tobytes()


def rv(lo, hi, lc=True, uc=True):
    return RangeValue(lo, hi, lc, uc)


# hand-enumerated 4x4 fixture; see the expected counts worked out per pair
XS_FIXTURE = RangeColumn.from_values([rv(1, 2), rv(3, 5, False, True), EMPTY_RANGE, None])
YS_FIXTURE = RangeColumn.from_values([rv(2, 3), rv(5, 7, False, False), rv(0, 10), None])

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
        xs = RangeColumn.from_values([rv(0, 10)] * 5)
        ys = RangeColumn.from_values([rv(20, 30)] * 7)
        c = exact_range_join(xs, ys, RangeOp.STRICTLY_LEFT)
        assert (c.qualifying, c.total) == (35, 35)

    def test_unknown_operator_raises(self):
        xs = RangeColumn.from_values([rv(0, 1), None])
        for op in ("bogus", "overlaps", ScalarOp.LT, None, [RangeOp.OVERLAPS], {}):
            with pytest.raises(ValueError, match="unsupported operator"):
                exact_range_join(xs, xs, op)

    def test_all_null_side(self):
        ys = RangeColumn.from_values([rv(0, 1), rv(2, 3)])
        for op in RangeOp:
            assert exact_range_join(RangeColumn.from_values([None, None]), ys, op).qualifying == 0

    @pytest.mark.parametrize("blank", [[None], [EMPTY_RANGE] * 3, [None, EMPTY_RANGE, None]],
                             ids=["null", "empty", "null-and-empty"])
    def test_side_without_positioned_rows_counts_zero(self, blank):
        # every run of keys on that side is empty, and _count_le counts them
        rng = np.random.default_rng(23)
        others = [blank, [EMPTY_RANGE, None], [tie_heavy_range(rng) for _ in range(9)] + [rv(1, 2)]]
        for rows in others:
            for xs, ys in ((blank, rows), (rows, blank)):
                x, y = RangeColumn.from_values(xs), RangeColumn.from_values(ys)
                for op in rng.permutation(list(RangeOp)):
                    assert exact_range_join(x, y, op) == ExactCount(0, len(xs) * len(ys)), op

    def test_matches_predicate_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, m = rng.integers(1, 60, size=2)
            xs = [random_range(rng) for _ in range(n)]
            ys = [random_range(rng) for _ in range(m)]
            cx, cy = RangeColumn.from_values(xs), RangeColumn.from_values(ys)
            for op in RangeOp:
                naive = sum(1 for x in xs for y in ys if range_op_holds(op, x, y))
                got = exact_range_join(cx, cy, op)
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
    """Counts on columns counted before, and on their slices, are fresh counts."""

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
    """A pair's five counts are made together and kept for the last pair
    counted, which a count of any other pair replaces."""

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

    def test_interleaved_pairs_count_as_fresh_and_pairwise(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            rows = [[tie_heavy_range(rng) for _ in range(int(rng.integers(1, 25)))]
                    for _ in range(3)]
            x, y, z = (RangeColumn.from_values(r) for r in rows)
            for a, b in ((x, y), (x, z), (x, y), (y, x), (x, x), (y, x)):
                for op in rng.permutation(list(RangeOp)):
                    got = exact_range_join(a, b, op)
                    fresh = exact_range_join(RangeColumn.from_values(list(a)),
                                             RangeColumn.from_values(list(b)), op)
                    naive = sum(range_op_holds(op, u, v) for u in a for v in b)
                    assert got == fresh and got.qualifying == naive, op
                    assert got.total == len(a) * len(b)

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
        # a self-join counts against itself
        for op in RangeOp:
            naive = sum(range_op_holds(op, a, b) for a in rows for b in rows)
            assert exact_range_join(xs, xs, op).qualifying == naive, op

    def test_freed_column_never_reads_stale_counts(self):
        # a column built right after another is freed commonly takes its
        # place in memory, and so its id
        rng = np.random.default_rng(18)
        rows = [tie_heavy_range(rng) for _ in range(30)]
        xs = RangeColumn.from_values(rows)
        others = [[tie_heavy_range(rng) for _ in range(int(rng.integers(1, 25)))]
                  for _ in range(20)]
        arrays = [[getattr(RangeColumn.from_values(o), f) for f in COLUMN_FIELDS] for o in others]
        ys = None
        for other, fields in zip(others, arrays):
            del ys
            ys = RangeColumn(*fields)
            for op in rng.permutation(list(RangeOp)):
                naive = sum(range_op_holds(op, x, y) for x in rows for y in other)
                assert exact_range_join(xs, ys, op) == ExactCount(naive, 30 * len(other)), op

    def test_threads_never_mix_pairs(self):
        # each thread counts its own pair, so the slot changes hands often
        rng = np.random.default_rng(24)
        pairs = [tuple(RangeColumn.from_values([tie_heavy_range(rng) for _ in range(20)])
                       for _ in range(2)) for _ in range(4)]
        want = [{op: exact_range_join(x, y, op) for op in RangeOp} for x, y in pairs]
        wrong = []
        start = threading.Barrier(len(pairs), timeout=60)

        def count(k):
            x, y = pairs[k]
            start.wait()
            for _ in range(1000):
                for op in RangeOp:
                    if exact_range_join(x, y, op) != want[k][op]:
                        wrong.append((k, op))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=count, args=(k,)) for k in range(len(pairs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_memo_does_not_keep_ys_alive(self):
        rng = np.random.default_rng(18)
        xs = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(30)])
        ys = RangeColumn.from_values([tie_heavy_range(rng) for _ in range(20)])
        exact_range_join(xs, ys, RangeOp.OVERLAPS)
        refs = weakref.ref(xs), weakref.ref(ys)
        del xs, ys
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_warm_column_pickles_as_a_fresh_one(self):
        rng = np.random.default_rng(19)
        rows = [tie_heavy_range(rng) for _ in range(30)]
        xs = RangeColumn.from_values(rows)
        for op in RangeOp:
            exact_range_join(xs, xs, op)
        copy = pickle.loads(pickle.dumps(xs))
        assert copy == xs and list(copy) == rows
        assert copy == RangeColumn.from_values(rows)
        for name in COLUMN_FIELDS:
            assert not getattr(copy, name).flags.writeable, name
        for op in RangeOp:
            assert exact_range_join(copy, copy, op) == exact_range_join(xs, xs, op)


# ---------------------------------------------------------------------------
# The window search: b's sorted keys are searched _WINDOW at a time, each
# window in a's stretch between its first and last key.  Every input below is
# counted against one whole-array search of b into a.


def whole_array_count(x, y, op: ScalarOp) -> int:
    """The count as one ``searchsorted`` of all of b's sorted keys into a."""
    a, b = (y, x) if op in (ScalarOp.GT, ScalarOp.GE) else (x, y)
    a, b = (np.sort(v[~np.isnan(v)]) for v in (np.asarray(a, float), np.asarray(b, float)))
    side = "right" if op in (ScalarOp.LE, ScalarOp.GE) else "left"
    return int(np.searchsorted(a, b, side).sum())


def _window_pairs() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    w = oracle._WINDOW
    rng = np.random.default_rng(33)
    a = rng.integers(0, 5000, size=3 * w).astype(float)

    def keys(n):
        # some keys below a's least value and some above its greatest
        return rng.integers(-100, 5100, size=n).astype(float)

    pairs = {f"{n}-keys": (a, keys(n)) for n in (w // 2, w - 1, w, w + 1, 2 * w + 1)}
    # sorted, the run of 2500s covers ranks w - 50 to w + 49: it crosses the
    # first window boundary, and b's midpoint w + 1 where the search splits
    run = np.concatenate((rng.integers(0, 2500, size=w - 50), np.full(100, 2500),
                          rng.integers(2501, 5000, size=w - 48))).astype(float)
    pairs["run-across-a-window"] = (a, rng.permutation(run))
    pairs["all-keys-equal"] = (a, np.full(2 * w + 1, 2500.0))
    pairs["a-is-b"] = (a, a)
    pairs["a-equals-b"] = (a, a.copy())
    pairs["keys-below-a"] = (a, rng.uniform(-50.0, -1.0, size=w + 1))
    pairs["keys-above-a"] = (a, rng.uniform(5000.0, 6000.0, size=w + 1))
    pairs["one-row-side"] = (np.array([2500.0]), keys(2 * w + 1))
    pairs["one-value-side"] = (np.full(w + 3, 7.0), keys(2 * w + 1))
    return pairs


WINDOW_PAIRS = _window_pairs()


class TestWindowSearch:
    @pytest.mark.parametrize("name", sorted(WINDOW_PAIRS))
    def test_counts_equal_the_whole_array_search(self, name):
        xs, ys = WINDOW_PAIRS[name]
        for x, y in ((xs, ys), (ys, xs)):
            for op in ScalarOp:
                got = exact_join(x, y, op)
                assert got == ExactCount(whole_array_count(x, y, op), x.size * y.size), op
            # and unsplit: every key of b in one run of windows
            a, b = np.sort(x), np.sort(y)
            for side in ("left", "right"):
                assert oracle._search_sum(a, b, side) == int(np.searchsorted(a, b, side).sum())

    def test_run_crosses_a_window_and_the_midpoint(self):
        w = oracle._WINDOW
        run = np.sort(WINDOW_PAIRS["run-across-a-window"][1])
        assert run[w - 1] == run[w] == run[run.size // 2] == 2500.0
        assert oracle._search_sum(np.array([]), run, "left") == 0


# ---------------------------------------------------------------------------
# The two-thread rule: each oracle call runs its independent halves on one
# helper thread beside the caller, or inline when a half has nothing to do
# or no thread can start.


def tie_heavy_scalars(rng, n):
    """Nulls, both infinities and both zeros among few values."""
    return rng.choice(np.array([NAN, -math.inf, -0.0, 0.0, 1.0, 1.0, 2.0, math.inf]), size=n)


def scalar_pairs():
    rng = np.random.default_rng(31)
    pairs = [(harness.generate_scalar_column("uniform-int", rows, 1),
              harness.generate_scalar_column("skewed-int", rows, 2)) for rows in (20_000, 200_000)]
    pairs.append((tie_heavy_scalars(rng, 5000), tie_heavy_scalars(rng, 3001)))
    pairs.append((tie_heavy_scalars(rng, 7), np.full(4, NAN)))
    pairs.append((tie_heavy_scalars(rng, 1), tie_heavy_scalars(rng, 1)))
    pairs.append((tie_heavy_scalars(rng, 5000), np.array([1.0])))
    pairs.extend(WINDOW_PAIRS.values())
    return pairs


def range_pairs():
    rng = np.random.default_rng(32)
    pairs = [(harness.generate_range_column(rows, 1), harness.generate_range_column(rows, 2))
             for rows in (20_000, 200_000)]
    tied = [RangeColumn.from_values([tie_heavy_range(rng) for _ in range(n)]) for n in (3000, 2001)]
    pairs.append(tuple(tied))
    pairs.append((tied[0], RangeColumn.from_values([None, None])))
    pairs.append((RangeColumn.from_values([EMPTY_RANGE, None]), tied[1]))
    pairs.append((RangeColumn.from_values([rv(1, 2)]), tied[1]))
    return pairs


@pytest.fixture
def starts(monkeypatch):
    """The threads started from here on, counted; with ``refuse`` set,
    ``Thread.start`` raises as it does at interpreter shutdown."""
    log = types.SimpleNamespace(count=0, refuse=False)
    start = threading.Thread.start

    def counted(self):
        if log.refuse:
            raise RuntimeError("can't create new thread at interpreter shutdown")
        log.count += 1
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return log


def inline(starts, call):
    """call() with every thread start refused, so both halves run here."""
    starts.refuse = True
    try:
        return call()
    finally:
        starts.refuse = False


class TestTwoThreads:
    def test_scalar_counts_equal_the_inline_run(self, starts):
        for xs, ys in scalar_pairs():
            for x, y in ((xs, ys), (ys, xs)):
                for op in ScalarOp:
                    want = inline(starts, lambda: exact_join(x, y, op))
                    assert starts.count == 0
                    assert exact_join(x, y, op) == want, (op, x.size, y.size)
                    # the sorts split when each side holds more than one
                    # row, the search when each holds more than one value
                    values = min(np.count_nonzero(~np.isnan(v)) for v in (x, y))
                    assert starts.count == int(min(x.size, y.size) > 1) + int(values > 1)
                    starts.count = 0

    def test_range_counts_equal_the_inline_run(self, starts):
        for xs, ys in range_pairs():
            want = inline(starts, lambda: oracle._range_counts(xs, ys))
            assert starts.count == 0
            assert oracle._range_counts(xs, ys) == want, (len(xs), len(ys))
            assert starts.count == (2 if min(len(xs), len(ys)) > 1 else 0)
            assert {op: exact_range_join(xs, ys, op).qualifying for op in RangeOp} == want
            assert set(want) == set(RangeOp)
            starts.count = 0

    def test_a_restriction_starts_no_thread(self, starts):
        values = harness.generate_scalar_column("skewed-int", 5000, 3)
        for op in ScalarOp:
            for x, y in ((values, [30.0]), ([30.0], values), ([NAN], values)):
                got = exact_join(x, y, op)
                assert got == inline(starts, lambda: exact_join(x, y, op))
        assert starts.count == 0

    @pytest.mark.parametrize("refuse", [False, True], ids=["thread", "refused"])
    def test_helper_error_reaches_the_caller(self, monkeypatch, starts, refuse):
        starts.refuse = refuse
        x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        # fresh columns, so the last pair's counts are never read instead
        rx = RangeColumn.from_values([rv(1, 2), rv(3, 5), None, EMPTY_RANGE])
        ry = RangeColumn.from_values([rv(2, 3), rv(4, 6)])
        sorted_values, bound_keys = oracle._sorted_values, oracle._bound_keys

        def fail_on(side, real):
            def wrapped(v):
                if v is side:
                    raise ZeroDivisionError(f"helper failed on {len(v)} rows")
                return real(v)
            return wrapped

        before = threading.active_count()
        # the helper takes x's half: x's sort, x's bound keys
        monkeypatch.setattr(oracle, "_sorted_values", fail_on(x, sorted_values))
        with pytest.raises(ZeroDivisionError, match="^helper failed on 2 rows$"):
            exact_join(x, y, ScalarOp.LT)
        assert threading.active_count() == before
        monkeypatch.setattr(oracle, "_bound_keys", fail_on(rx, bound_keys))
        with pytest.raises(ZeroDivisionError, match="^helper failed on 4 rows$"):
            exact_range_join(rx, ry, RangeOp.OVERLAPS)
        assert threading.active_count() == before
        assert starts.count == (0 if refuse else 2)

    @pytest.mark.parametrize("refuse", [False, True], ids=["thread", "refused"])
    def test_caller_error_joins_the_helper(self, monkeypatch, starts, refuse):
        starts.refuse = refuse
        finished = []
        sorted_values = oracle._sorted_values
        x, y = np.arange(50_000.0), np.array([3.0, 4.0])

        def wrapped(v):
            if v is y:
                raise KeyError("caller failed")
            out = sorted_values(v)
            finished.append(v.size)
            return out

        monkeypatch.setattr(oracle, "_sorted_values", wrapped)
        before = threading.active_count()
        with pytest.raises(KeyError, match="caller failed"):
            exact_join(x, y, ScalarOp.LT)
        # the helper's half ran to its end before the error left the call
        assert finished == [50_000]
        assert threading.active_count() == before
        assert starts.count == (0 if refuse else 1)

    def test_no_thread_outlives_a_call(self, starts):
        before = threading.active_count()
        for xs, ys in scalar_pairs()[2:]:
            for op in ScalarOp:
                exact_join(xs, ys, op)
                assert threading.active_count() == before
        for xs, ys in range_pairs()[2:]:
            for op in RangeOp:
                exact_range_join(xs, ys, op)
                assert threading.active_count() == before
        with pytest.raises(ValueError, match="no data"):
            exact_join([], [1.0], ScalarOp.LT)
        with pytest.raises(ValueError, match="no data"):
            exact_range_join(RangeColumn.from_values([]), XS_FIXTURE, RangeOp.OVERLAPS)
        assert threading.active_count() == before
        assert starts.count > 0
