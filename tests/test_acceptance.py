"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; each one also asserts, so a plain pytest run fails if
any criterion does.
"""

import pickle
import time

import numpy as np
import pytest

from ineqsel import (
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    generate_range_column,
    join_selectivity,
    load_range_stats,
    load_stats,
    range_join_selectivity,
    restriction_selectivity,
    save_range_stats,
    save_stats,
)
from ineqsel.estimator import join_lt_hist
from ineqsel.histogram import build_equi_depth
from ineqsel.harness import (DATASET_KINDS, RANGE_KINDS, generate_scalar_column, run_sweep,
                             write_range_column, write_results_csv)
from ineqsel.histogram import cdf
from ineqsel.ranges import EMPTY_RANGE, RangeColumn, RangeValue

from conftest import R1_X, R2_Y, nested_arrays, random_histogram, sync_trapezoid

GOLDEN_JOIN = 24221 / 37620


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_sweep(tmp_path_factory):
    """Desk-scale error-vs-bins experiment, shared by two criteria."""
    tmp = tmp_path_factory.mktemp("sweep")
    fx, fy = tmp / "rx.col", tmp / "ry.col"
    write_range_column(fx, generate_range_column(20390, seed=1))
    write_range_column(fy, generate_range_column(20060, seed=2))
    start = time.monotonic()
    rows = run_sweep(fx, fy, RangeOp.STRICTLY_LEFT, range(100, 1001, 100))
    elapsed = time.monotonic() - start
    write_results_csv(rows, tmp / "results.csv")
    return rows, elapsed


def test_golden_running_example_restriction():
    start = time.monotonic()
    s = analyze_column(R1_X, 3, sample_seed=0, sample_cap=100)
    hist_ok = s.histogram is not None and s.histogram.bounds.tolist() == [10, 20, 25, 45]
    est = restriction_selectivity(s, 30, ScalarOp.LT)
    oracle = exact_join(R1_X, [30], ScalarOp.LT)
    elapsed = time.monotonic() - start
    _report(
        "golden-restriction",
        hist_ok
        and abs(est - 0.75) <= 1e-12
        and (oracle.qualifying, oracle.total) == (8, 12)
        and elapsed < 1.0,
        f"est={est!r} oracle={oracle.qualifying}/{oracle.total} {elapsed:.3f}s",
    )


def test_golden_running_example_join():
    start = time.monotonic()
    hx = build_equi_depth(R1_X, 3)
    hy = build_equi_depth(R2_Y, 3)
    bounds_ok = hx.bounds.tolist() == [10, 20, 25, 45] and hy.bounds.tolist() == [
        15, 20, 39, 50,
    ]
    est = join_lt_hist(hx, hy)
    oracle = exact_join(R1_X, R2_Y, ScalarOp.LT)
    elapsed = time.monotonic() - start
    _report(
        "golden-join",
        bounds_ok
        and abs(est - GOLDEN_JOIN) <= 1e-9
        and (oracle.qualifying, oracle.total) == (95, 144)
        and elapsed < 1.0,
        f"est={est!r} expected={GOLDEN_JOIN!r} oracle=95/144 {elapsed:.3f}s",
    )


def test_integration_oracle_equivalence():
    rng = np.random.default_rng(1234)
    pairs = 1000
    worst = 0.0
    for _ in range(pairs):
        hx = random_histogram(rng, max_bins=50)
        hy = random_histogram(rng, max_bins=50)
        worst = max(worst, abs(join_lt_hist(hx, hy) - sync_trapezoid(hx, hy)))
    _report(
        "walk-vs-materialized-sync",
        worst <= 1e-12,
        f"{pairs} pairs, max |walk - reference| = {worst:.2e}",
    )


def test_small_instance_end_to_end():
    rng = np.random.default_rng(777)
    ops = (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE)
    worst_ratio = 0.0
    trials = 150
    for _ in range(trials):
        dx, dy = int(rng.integers(1, 31)), int(rng.integers(1, 31))
        pool_x = rng.choice(1000, size=dx, replace=False).astype(float)
        pool_y = rng.choice(1000, size=dy, replace=False).astype(float)
        nx, ny = int(rng.integers(dx, 120)), int(rng.integers(dy, 120))
        xs = np.concatenate([pool_x, rng.choice(pool_x, size=nx - dx)])
        ys = np.concatenate([pool_y, rng.choice(pool_y, size=ny - dy)])
        target = max(dx, dy)
        sx = analyze_column(xs, target, sample_cap=nx)
        sy = analyze_column(ys, target, sample_cap=ny)
        bins = [s.histogram.bin_count for s in (sx, sy) if s.histogram is not None]
        bound = 2 / min(bins) if bins else 1e-9
        for op in ops:
            err = abs(join_selectivity(sx, sy, op) - exact_join(xs, ys, op).selectivity)
            worst_ratio = max(worst_ratio, err / bound)
    _report(
        "small-instance-2-over-B",
        worst_ratio <= 1.0 + 1e-9,
        f"{trials} column pairs x 4 ops, worst error / (2/B) = {worst_ratio:.3f}",
    )


def test_error_vs_bins_experiment(desk_sweep):
    rows, elapsed = desk_sweep
    by_target = {r.statistics_target: r for r in rows}
    e100 = by_target[100].error
    e900 = by_target[900].error
    e1000 = by_target[1000].error
    _report(
        "error-vs-bins",
        e100 <= 0.05
        and e900 <= 0.001
        and e1000 <= 0.001
        and e1000 <= e100
        and elapsed < 300.0,
        f"err(100)={e100:.2e} err(900)={e900:.2e} err(1000)={e1000:.2e} {elapsed:.1f}s",
    )


def test_estimation_time_growth(desk_sweep):
    rows, _ = desk_sweep
    by_target = {r.statistics_target: r for r in rows}
    ratio = by_target[1000].est_time_us / by_target[100].est_time_us
    _report(
        "time-growth-near-linear",
        ratio <= 20.0,
        f"est_time(1000)/est_time(100) = {ratio:.2f}",
    )


def test_identity_suite():
    rng = np.random.default_rng(55)
    ok = True
    details = []

    # scalar complement and swap
    for _ in range(40):
        xs = rng.integers(0, 40, size=80).astype(float)
        ys = rng.integers(0, 40, size=60).astype(float)
        sx = analyze_column(xs, 5, sample_cap=80)
        sy = analyze_column(ys, 5, sample_cap=60)
        lt = join_selectivity(sx, sy, ScalarOp.LT)
        ge = join_selectivity(sx, sy, ScalarOp.GE)
        ok &= abs(lt + ge - 1.0) <= 1e-12
        ok &= join_selectivity(sx, sy, ScalarOp.GT) == join_selectivity(sy, sx, ScalarOp.LT)
        c = float(rng.uniform(-5, 45))
        r_lt = restriction_selectivity(sx, c, ScalarOp.LT)
        r_ge = restriction_selectivity(sx, c, ScalarOp.GE)
        ok &= abs(r_lt + r_ge - 1.0) <= 1e-12
    details.append("complement+swap")

    # range mirror and overlap complement on clean data
    def clean_ranges(n):
        out = []
        for _ in range(n):
            start = float(rng.integers(0, 900))
            out.append(RangeValue(start, start + float(rng.integers(1, 60)), True, True))
        return RangeColumn.from_values(out)

    for _ in range(10):
        rx = analyze_range_column(clean_ranges(60), 6)
        ry = analyze_range_column(clean_ranges(60), 6)
        ok &= range_join_selectivity(rx, ry, RangeOp.STRICTLY_RIGHT) == \
            range_join_selectivity(ry, rx, RangeOp.STRICTLY_LEFT)
        total = (
            range_join_selectivity(rx, ry, RangeOp.STRICTLY_LEFT)
            + range_join_selectivity(rx, ry, RangeOp.STRICTLY_RIGHT)
            + range_join_selectivity(rx, ry, RangeOp.OVERLAPS)
        )
        ok &= abs(total - 1.0) <= 1e-9
    details.append("mirror+overlap-complement")

    # null absorption
    s_null = analyze_column([None] * 5, 3)
    s_vals = analyze_column([1.0, 2.0, 3.0], 3)
    for op in (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE):
        ok &= join_selectivity(s_null, s_vals, op) == 0.0
        ok &= join_selectivity(s_vals, s_null, op) == 0.0
    r_null = analyze_range_column(RangeColumn.from_values([None] * 5), 3)
    r_vals = analyze_range_column(clean_ranges(10), 3)
    for rop in RangeOp:
        ok &= range_join_selectivity(r_null, r_vals, rop) == 0.0
    details.append("null-absorption")

    # CDF monotonicity and normalization
    for _ in range(40):
        h = random_histogram(rng)
        probes = np.sort(rng.uniform(h.lo - 5, h.hi + 5, size=60))
        vals = [cdf(h, c) for c in probes]
        ok &= all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        ok &= cdf(h, h.hi) == 1.0
        if h.bounds[0] < h.bounds[1]:
            ok &= cdf(h, h.lo) == 0.0
    details.append("cdf-monotone+normalized")

    # the range partition on the statistics ANALYZE builds from messy
    # columns: mixed flags, infinite bounds, null and empty rows (coinciding
    # bounds not both closed are empty too) over a 50-value domain, sampled
    # by default and in full
    mrng = np.random.default_rng(56)

    def messy_ranges(n):
        lower = mrng.integers(0, 50, n).astype(float)
        upper = lower + mrng.integers(0, 5, n)
        lower[mrng.random(n) < 0.1] = -np.inf
        upper[mrng.random(n) < 0.1] = np.inf
        flags = mrng.random((2, n)) < 0.5
        return RangeColumn(lower, upper, flags[0], flags[1],
                           mrng.random(n) < 0.1, mrng.random(n) < 0.05)

    worst = 0.0
    for target in (1, 3, 10, 30, 100, 300, 1000):
        for cap in (None, 1000):
            for _ in range(10):
                rx, ry = (analyze_range_column(messy_ranges(1000), target, 0, cap)
                          for _ in range(2))
                share = ((1.0 - rx.null_frac) * (1.0 - rx.empty_frac)
                         * (1.0 - ry.null_frac) * (1.0 - ry.empty_frac))
                total = sum(range_join_selectivity(rx, ry, op) for op in (
                    RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT, RangeOp.OVERLAPS))
                worst = max(worst, abs(total - share))
    ok &= worst <= 1e-12
    details.append(f"messy-range-partition(worst {worst:.1e})")

    _report("identity-suite", ok, ", ".join(details))


def _identity_gaps(sx, sy, values) -> tuple[float, float, bool]:
    """The worst gap of LT + GE and LE + GT from the non-null share; the
    worst fall of a restriction as c grows (a rise for GT and GE), over at
    most 100 of ``values`` and sx's MCV values and bounds; and whether
    LT <= LE and every estimate lies in [0, 1]."""
    share = (1.0 - sx.null_frac) * (1.0 - sy.null_frac)
    est = {op: join_selectivity(sx, sy, op) for op in ScalarOp}
    sums = (est[ScalarOp.LT] + est[ScalarOp.GE], est[ScalarOp.LE] + est[ScalarOp.GT])
    gap = max(abs(total - share) for total in sums)
    bounds = [] if sx.histogram is None else [sx.histogram.bounds]
    probes = np.unique(np.concatenate([values, sx.mcv.values, *bounds]))
    # an even spread of at most 100 probes keeps the test fast
    probes = probes[np.unique(np.linspace(0, probes.size - 1, 100).astype(int))].tolist()
    fall, in_unit = 0.0, all(0.0 <= e <= 1.0 for e in est.values())
    for op in ScalarOp:
        r = np.array([restriction_selectivity(sx, c, op) for c in probes])
        in_unit &= bool(np.all((r >= 0.0) & (r <= 1.0)))
        step = np.diff(r) if op in (ScalarOp.LT, ScalarOp.LE) else -np.diff(r)
        fall = max(fall, -float(step.min(initial=0.0)))
    return gap, fall, in_unit and est[ScalarOp.LT] <= est[ScalarOp.LE]


@pytest.mark.parametrize("kind", DATASET_KINDS)
def test_identities_on_every_dataset_kind(kind):
    # small seeded columns of each kind, sampled by default and in full; a
    # range column's identities are checked on its bound statistics too
    gap = fall = partition = 0.0
    ok = True
    for seeds in ((1, 2), (3, 4)):
        for target in (1, 3, 10, 100, 1000):
            for cap in (None, 2000):
                if kind in RANGE_KINDS:
                    cx, cy = (generate_range_column(2000, seed) for seed in seeds)
                    rx, ry = (analyze_range_column(c, target, 0, cap) for c in (cx, cy))
                    share = ((1.0 - rx.null_frac) * (1.0 - rx.empty_frac)
                             * (1.0 - ry.null_frac) * (1.0 - ry.empty_frac))
                    est = {op: range_join_selectivity(rx, ry, op) for op in RangeOp}
                    ok &= all(0.0 <= e <= 1.0 for e in est.values())
                    total = (est[RangeOp.STRICTLY_LEFT] + est[RangeOp.STRICTLY_RIGHT]
                             + est[RangeOp.OVERLAPS])
                    partition = max(partition, abs(total - share))
                    pairs = [(rx.lower_stats, ry.upper_stats, cx.lower[cx.positioned]),
                             (rx.upper_stats, ry.lower_stats, cx.upper[cx.positioned])]
                else:
                    cx, cy = (generate_scalar_column(kind, 2000, seed) for seed in seeds)
                    pairs = [(analyze_column(cx, target, 0, cap),
                              analyze_column(cy, target, 0, cap), cx)]
                for sx, sy, values in pairs:
                    g, f, good = _identity_gaps(sx, sy, values[np.isfinite(values)])
                    gap, fall, ok = max(gap, g), max(fall, f), ok and good
    ok &= gap <= 1e-12 and fall <= 1e-15 and partition <= 1e-12
    _report(f"identities-{kind}", ok,
            f"complement gap {gap:.1e}, restriction fall {fall:.1e}, partition gap {partition:.1e}")


def test_stats_round_trip():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 400))
        data = rng.integers(0, 50, size=n).astype(float)
        data[rng.random(n) < 0.15] = np.nan
        s = analyze_column(data, int(rng.integers(1, 12)), sample_cap=n)
        blob = save_stats(s)
        back = load_stats(blob)
        ok &= back == s
        ok &= save_stats(back) == blob  # byte-for-byte stable
        pickled = pickle.loads(pickle.dumps(back))
        ok &= save_stats(pickled) == blob
        ok &= not any(a.flags.writeable for a in nested_arrays(pickled))

        rows = []
        for _ in range(int(rng.integers(1, 60))):
            u = rng.random()
            if u < 0.1:
                rows.append(None)
            elif u < 0.2:
                rows.append(EMPTY_RANGE)
            else:
                lo = float(rng.integers(0, 500))
                rows.append(RangeValue(lo, lo + float(rng.integers(1, 50)), True, False))
        if not all(r is None for r in rows):
            rs = analyze_range_column(RangeColumn.from_values(rows), int(rng.integers(1, 8)))
            rblob = save_range_stats(rs)
            rback = load_range_stats(rblob)
            ok &= rback == rs
            ok &= save_range_stats(rback) == rblob
            rpickled = pickle.loads(pickle.dumps(rback))
            ok &= save_range_stats(rpickled) == rblob
            ok &= not any(a.flags.writeable for a in nested_arrays(rpickled))
    _report("stats-round-trip", ok, "100 scalar + range stats, bit-stable documents")
