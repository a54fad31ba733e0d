"""Correctness gate, run before any timing.

It pins the paper's 12-row running example (restriction 0.75, join
estimate 24221/37620, oracle 95/144) through the library and through the
command line, and checks partition identities that hold for any data:
strictly-left + strictly-right + overlaps = non-empty range pairs, and
lt + ge = non-null scalar pairs, for the oracle and the estimators alike.
The oracle is also compared with a pairwise count on a small slice.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

from ineqsel import (
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    exact_range_join,
    join_selectivity,
    load_range_stats,
    range_join_selectivity,
    range_op_holds,
    restriction_selectivity,
    save_range_stats,
)
from ineqsel import cli, harness

R1 = (10, 11, 12, 20, 21, 22, 24, 25, 30, 35, 38, 45)
R2 = (15, 16, 17, 20, 30, 35, 38, 39, 40, 42, 45, 50)
GOLDEN_RESTRICTION = 0.75        # P(R1 < 30), target 3
GOLDEN_JOIN = 24221 / 37620      # P(R1 < R2), target 3
GOLDEN_ORACLE = (95, 144)
TOL = 1e-12

IDENTITY_ROWS = 400     # per side, for the identity checks
PAIRWISE_ROWS = 120     # per side, for the pairwise oracle check
SCALAR_PAIRWISE = {
    ScalarOp.LT: np.less, ScalarOp.LE: np.less_equal,
    ScalarOp.GT: np.greater, ScalarOp.GE: np.greater_equal,
}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _golden_library() -> list[str]:
    sx, sy = analyze_column(R1, 3), analyze_column(R2, 3)
    problems = []
    got = restriction_selectivity(sx, 30, ScalarOp.LT)
    if not _close(got, GOLDEN_RESTRICTION):
        problems.append(f"restriction {got!r} != {GOLDEN_RESTRICTION!r}")
    got = join_selectivity(sx, sy, ScalarOp.LT)
    if not _close(got, GOLDEN_JOIN):
        problems.append(f"join estimate {got!r} != {GOLDEN_JOIN!r}")
    count = exact_join(R1, R2, ScalarOp.LT)
    if (count.qualifying, count.total) != GOLDEN_ORACLE:
        problems.append(f"oracle {count.qualifying}/{count.total} != 95/144")
    return problems


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def _golden_cli(work) -> list[str]:
    files = {k: str(work / k) for k in ("r1.col", "r2.col", "r1.json", "r2.json")}
    steps = [
        ["gen", "--kind", "running-example-r1", "--out", files["r1.col"]],
        ["gen", "--kind", "running-example-r2", "--out", files["r2.col"]],
        ["analyze", "--in", files["r1.col"], "--target", "3", "--out", files["r1.json"]],
        ["analyze", "--in", files["r2.col"], "--target", "3", "--out", files["r2.json"]],
    ]
    for argv in steps:
        code, _ = _cli(argv)
        if code != 0:
            return [f"ineqsel {' '.join(argv[:3])} exited {code}"]
    problems = []
    code, out = _cli(["estimate", "--stats-x", files["r1.json"], "--stats-y", files["r2.json"],
                      "--op", "lt"])
    try:
        ok = code == 0 and _close(float(out), GOLDEN_JOIN)
    except ValueError:
        ok = False
    if not ok:
        problems.append(f"cli estimate printed {out!r} (exit {code})")
    code, out = _cli(["oracle", "--in-x", files["r1.col"], "--in-y", files["r2.col"],
                      "--op", "lt"])
    if code != 0 or out != "95/144\n":
        problems.append(f"cli oracle printed {out!r} (exit {code})")
    return problems


def _range_identities(work, seed: int) -> list[str]:
    problems = []
    cols = []
    for side in (1, 2):
        col = harness.generate_range_column(IDENTITY_ROWS, 2 * seed + side)
        path = work / f"gate{side}.col"
        harness.write_range_column(path, col)
        if harness.read_range_column(path) != col:
            problems.append("range column does not round-trip through its file")
        cols.append(col)
    x, y = cols
    nonempty = [sum(r is not None and not r.empty for r in c) for c in cols]
    parts = (RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT, RangeOp.OVERLAPS)
    counts = sum(exact_range_join(x, y, op).qualifying for op in parts)
    if counts != nonempty[0] * nonempty[1]:
        problems.append(f"oracle: << + >> + && = {counts}, non-empty pairs"
                        f" = {nonempty[0] * nonempty[1]}")

    sx, sy = (load_range_stats(save_range_stats(analyze_range_column(c, 10))) for c in cols)
    nn = [(1 - s.null_frac) * (1 - s.empty_frac) for s in (sx, sy)]
    est = sum(range_join_selectivity(sx, sy, op) for op in parts)
    if not _close(est, nn[0] * nn[1]):
        problems.append(f"estimate: << + >> + && = {est!r}, non-empty share {nn[0] * nn[1]!r}")

    xs, ys = x[:PAIRWISE_ROWS], y[:PAIRWISE_ROWS]
    for op in RangeOp:
        want = sum(range_op_holds(op, a, b) for a in xs for b in ys)
        got = exact_range_join(xs, ys, op).qualifying
        if got != want:
            problems.append(f"oracle {op.value}: {got} != pairwise {want}")
    return problems


def _scalar_identities(seed: int) -> list[str]:
    problems = []
    x, y = (harness.generate_scalar_column("skewed-int", IDENTITY_ROWS, 2 * seed + side)
            for side in (1, 2))
    x[::37] = np.nan     # a few nulls, so the non-null factor is exercised
    nonnull = int(np.sum(~np.isnan(x))) * int(np.sum(~np.isnan(y)))
    for a, b in ((ScalarOp.LT, ScalarOp.GE), (ScalarOp.LE, ScalarOp.GT)):
        total = exact_join(x, y, a).qualifying + exact_join(x, y, b).qualifying
        if total != nonnull:
            problems.append(f"oracle: {a.value} + {b.value} = {total}, non-null pairs = {nonnull}")
    sx, sy = analyze_column(x, 10), analyze_column(y, 10)
    share = (1 - sx.null_frac) * (1 - sy.null_frac)
    est = join_selectivity(sx, sy, ScalarOp.LT) + join_selectivity(sx, sy, ScalarOp.GE)
    if not _close(est, share):
        problems.append(f"estimate: lt + ge = {est!r}, non-null share {share!r}")
    xs, ys = x[:PAIRWISE_ROWS], y[:PAIRWISE_ROWS]
    for op, fn in SCALAR_PAIRWISE.items():
        want = int(fn.outer(xs, ys).sum())      # NaN compares false, as a null should
        got = exact_join(xs, ys, op).qualifying
        if got != want:
            problems.append(f"oracle {op.value}: {got} != pairwise {want}")
    return problems


def run_gate(work, seed: int) -> list[str]:
    """All gate checks; an empty list means the library passed."""
    return (_golden_library() + _golden_cli(work)
            + _range_identities(work, seed) + _scalar_identities(seed))
