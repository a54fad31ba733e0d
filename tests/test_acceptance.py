"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; each one also asserts, so a plain pytest run fails if
any criterion does.
"""

import time

import numpy as np
import pytest

from ineqsel import (
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    exact_restriction,
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
from ineqsel.harness import run_sweep, write_range_column, write_results_csv
from ineqsel.histogram import cdf
from ineqsel.ranges import EMPTY_RANGE, RangeValue

from conftest import R1_X, R2_Y, random_histogram, sync_trapezoid

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
    rows = run_sweep(fx, fy, RangeOp.STRICTLY_LEFT, range(100, 1001, 100), seed=0)
    elapsed = time.monotonic() - start
    write_results_csv(rows, tmp / "results.csv")
    return rows, elapsed


def test_golden_running_example_restriction():
    start = time.monotonic()
    s = analyze_column(R1_X, 3, sample_seed=0, sample_cap=100)
    hist_ok = s.histogram is not None and s.histogram.bounds.tolist() == [10, 20, 25, 45]
    est = restriction_selectivity(s, 30, ScalarOp.LT)
    oracle = exact_restriction(R1_X, 30, ScalarOp.LT)
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
        return out

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
    r_null = analyze_range_column([None] * 5, 3)
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

    _report("identity-suite", ok, ", ".join(details))


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
            rs = analyze_range_column(rows, int(rng.integers(1, 8)))
            rblob = save_range_stats(rs)
            rback = load_range_stats(rblob)
            ok &= rback == rs
            ok &= save_range_stats(rback) == rblob
    _report("stats-round-trip", ok, "100 scalar + range stats, bit-stable documents")
