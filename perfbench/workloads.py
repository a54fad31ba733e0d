"""The benchmark workloads.

Each workload is a closed loop driven by one caller: the next operation
starts when the previous one has returned.  A workload builds its inputs
from the workload seed in ``setup``, runs one operation per ``op`` call,
and checks every output in ``check`` (and, for outputs only judged
together, in ``finish``).  The library sees only the generated inputs and
is always called with its defaults.

In the three library workloads 4 of every 5 operations run at statistics
target 100 and 1 of every 5 at target 1000, so the median reads the common
default-target case and the tail reads the high-resolution one.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ineqsel import (
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    exact_join,
    exact_range_join,
    join_selectivity,
    load_range_stats,
    load_stats,
    range_join_selectivity,
    save_range_stats,
    save_stats,
)
from ineqsel import cli, harness

TARGET_ROTATION = (100, 100, 100, 100, 1000)
SCALAR_KINDS = ("uniform-int", "skewed-int")
SCALAR_OPS = (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE)
RANGE_OPS = tuple(RangeOp)

# An estimate further than 2/B from the exact answer (B = 100, the default
# target) is wrong.  Smaller errors are not failures; they are reported
# as abs_error_max.
ACCURACY_TOL = 0.02

# abs_error_max is measured on the inputs of this seed whatever the run's
# seed, so that it compares code versions rather than data sets.
REFERENCE_SEED = 0


class SetupError(RuntimeError):
    """The inputs or the reference answers of a workload are inconsistent."""


def column_seeds(seed: int) -> tuple[int, int]:
    """Data seeds of the x and y columns; seed 0 gives 1 and 2."""
    return 2 * seed + 1, 2 * seed + 2


def target_of(i: int) -> int:
    return TARGET_ROTATION[i % len(TARGET_ROTATION)]


@dataclass
class State:
    """Everything ``setup`` builds; the timed loop only reads it."""

    work: Path
    data: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)


class Workload:
    name = ""
    cycle = 1                 # ops per rotation; a timed phase ends on a cycle boundary
    tail_percentile = 99.0    # fixed per workload, so runs of any speed stay comparable
    rss_of_children = False   # peak memory is the library process's own

    def __init__(self, rows: int):
        self.rows = rows

    def setup(self, seed: int, work: Path) -> State:
        raise NotImplementedError

    def case(self, i: int):
        """Operations of the same case must give identical outputs."""
        return i % self.cycle

    def op(self, state: State, i: int):
        raise NotImplementedError

    def traced_op(self, state: State, i: int):
        return self.op(state, i)

    def check(self, state: State, i: int, out) -> list[str]:
        return []

    def finish(self, state: State, outputs: dict) -> dict:
        """Checks over the first output of each case: {case: [problems]}."""
        return {}

    def abs_errors(self, state: State) -> list[float]:
        """|estimate - exact| for every estimate the workload checks."""
        raise NotImplementedError


def _full_stats(values, target):
    s = analyze_column(values, target, 0, len(values))
    doc = save_stats(s)
    loaded = load_stats(doc)
    if loaded != s or save_stats(loaded) != doc:
        raise SetupError("scalar statistics do not round-trip through JSON")
    return loaded


class PlanScalar(Workload):
    """Planner hot path: one join_selectivity call on prebuilt statistics."""

    name = "plan-scalar"
    cases = [(kind, op) for kind in SCALAR_KINDS for op in SCALAR_OPS]
    cycle = len(cases) * len(TARGET_ROTATION)

    def setup(self, seed, work):
        state = State(work)
        sx_seed, sy_seed = column_seeds(seed)
        for kind in SCALAR_KINDS:
            x = harness.generate_scalar_column(kind, self.rows, sx_seed)
            y = harness.generate_scalar_column(kind, self.rows, sy_seed)
            for target in set(TARGET_ROTATION):
                state.data[kind, target] = (_full_stats(x, target), _full_stats(y, target))
            for op in SCALAR_OPS:
                state.exact[kind, op] = exact_join(x, y, op).selectivity
        return state

    def case(self, i):
        return self.cases[i % len(self.cases)], target_of(i)

    def op(self, state, i):
        (kind, op), target = self.case(i)
        sx, sy = state.data[kind, target]
        return join_selectivity(sx, sy, op)

    def check(self, state, i, out):
        (kind, op), target = self.case(i)
        err = abs(out - state.exact[kind, op])
        if not 0.0 <= out <= 1.0 or err > ACCURACY_TOL:
            return [f"{kind} {op.value} t{target}: estimate {out!r} off by {err:.3g}"]
        return []

    def abs_errors(self, state):
        return [abs(join_selectivity(*state.data[kind, t], op) - state.exact[kind, op])
                for kind in SCALAR_KINDS for op in SCALAR_OPS for t in set(TARGET_ROTATION)]


class AnalyzeScalar(Workload):
    """Statistics write path: analyze_column with default sampling, then save_stats."""

    name = "analyze-scalar"
    cases = [(kind, side) for kind in SCALAR_KINDS for side in (0, 1)]
    cycle = len(cases) * len(TARGET_ROTATION)

    def setup(self, seed, work):
        state = State(work)
        seeds = column_seeds(seed)
        for kind in SCALAR_KINDS:
            cols = [harness.generate_scalar_column(kind, self.rows, s) for s in seeds]
            for side, col in enumerate(cols):
                state.data[kind, side] = col
            for op in SCALAR_OPS:
                state.exact[kind, op] = exact_join(cols[0], cols[1], op).selectivity
        return state

    def case(self, i):
        return self.cases[i % len(self.cases)], target_of(i)

    def op(self, state, i):
        (kind, side), target = self.case(i)
        return save_stats(analyze_column(state.data[kind, side], target))

    def finish(self, state, outputs):
        problems = {}
        for kind in SCALAR_KINDS:
            for target in set(TARGET_ROTATION):
                keys = [((kind, side), target) for side in (0, 1)]
                docs = [outputs.get(k) for k in keys]
                if None in docs:
                    continue
                bad = [f"{kind} t{target}: {p}" for p in _judge_docs(docs, state.exact, kind)]
                if bad:
                    problems.update(dict.fromkeys(keys, bad))
        return problems

    def abs_errors(self, state):
        errs = []
        for kind in SCALAR_KINDS:
            for target in set(TARGET_ROTATION):
                sx, sy = (analyze_column(state.data[kind, side], target) for side in (0, 1))
                errs += [abs(join_selectivity(sx, sy, op) - state.exact[kind, op])
                         for op in SCALAR_OPS]
        return errs


def _judge_docs(docs, exact, kind) -> list[str]:
    problems = []
    stats = [load_stats(d) for d in docs]
    if any(save_stats(s) != d for s, d in zip(stats, docs)):
        problems.append("statistics do not round-trip through JSON")
    for op in SCALAR_OPS:
        err = abs(join_selectivity(stats[0], stats[1], op) - exact[kind, op])
        if err > ACCURACY_TOL:
            problems.append(f"{op.value} estimate off by {err:.3g}")
    return problems


class RangesMixed(Workload):
    """Range ground truth as the harness runs it: parse, analyze, estimate, count."""

    name = "ranges-mixed"
    cycle = len(TARGET_ROTATION)
    tail_percentile = 75.0

    def setup(self, seed, work):
        state = State(work)
        cols = [harness.generate_range_column(self.rows, s) for s in column_seeds(seed)]
        paths = [work / "rx.col", work / "ry.col"]
        for col, path in zip(cols, paths):
            harness.write_range_column(path, col)
        state.data["cols"], state.data["paths"] = cols, paths
        x, y = cols
        for op in RANGE_OPS:
            state.exact[op] = exact_range_join(x, y, op)
        nonempty = [sum(r is not None and not r.empty for r in c) for c in cols]
        state.data["nonempty_pairs"] = nonempty[0] * nonempty[1]
        problem = _partition_problem(state.exact, state.data["nonempty_pairs"])
        if problem:
            raise SetupError(problem)
        return state

    def case(self, i):
        return target_of(i)

    def op(self, state, i):
        target = target_of(i)
        xs, ys = (harness.read_range_column(p) for p in state.data["paths"])
        sx, sy = (load_range_stats(save_range_stats(analyze_range_column(c, target)))
                  for c in (xs, ys))
        estimates = tuple(range_join_selectivity(sx, sy, op) for op in RANGE_OPS)
        counts = tuple(exact_range_join(xs, ys, op) for op in RANGE_OPS)
        return estimates, counts

    def check(self, state, i, out):
        estimates, counts = out
        problems = []
        for op, est, count in zip(RANGE_OPS, estimates, counts):
            want = state.exact[op]
            if count != want:
                problems.append(f"{op.value}: oracle {count} != {want}")
            err = abs(est - want.selectivity)
            if not 0.0 <= est <= 1.0 or err > ACCURACY_TOL:
                problems.append(f"{op.value}: estimate {est!r} off by {err:.3g}")
        problem = _partition_problem(dict(zip(RANGE_OPS, counts)), state.data["nonempty_pairs"])
        return problems + ([problem] if problem else [])

    def abs_errors(self, state):
        errs = []
        for target in set(TARGET_ROTATION):
            sx, sy = (analyze_range_column(c, target) for c in state.data["cols"])
            errs += [abs(range_join_selectivity(sx, sy, op) - state.exact[op].selectivity)
                     for op in RANGE_OPS]
        return errs


def _partition_problem(counts, nonempty_pairs) -> str | None:
    """Every non-empty pair is strictly left, strictly right, or overlapping."""
    total = sum(counts[op].qualifying for op in
                (RangeOp.STRICTLY_LEFT, RangeOp.STRICTLY_RIGHT, RangeOp.OVERLAPS))
    if total != nonempty_pairs:
        return (f"strictly-left + strictly-right + overlaps = {total},"
                f" non-empty pairs = {nonempty_pairs}")
    return None


class Cli(Workload):
    """Command-line users: one ``python -m ineqsel`` process per operation."""

    name = "cli"
    target = 100
    cycle = 4
    tail_percentile = 75.0
    rss_of_children = True

    def setup(self, seed, work):
        state = State(work)
        sx_seed, sy_seed = column_seeds(seed)
        x = harness.generate_scalar_column("uniform-int", self.rows, sx_seed)
        y = harness.generate_scalar_column("uniform-int", self.rows, sy_seed)
        rx = harness.generate_range_column(self.rows, sx_seed)
        ry = harness.generate_range_column(self.rows, sy_seed)
        files = {name: work / name for name in
                 ("x.col", "y.col", "x.json", "y.json", "rx.json", "ry.json", "out.json")}
        harness.write_scalar_column(files["x.col"], x)
        harness.write_scalar_column(files["y.col"], y)
        docs = {
            "x.json": save_stats(analyze_column(x, self.target)),
            "y.json": save_stats(analyze_column(y, self.target)),
            "rx.json": save_range_stats(analyze_range_column(rx, self.target)),
            "ry.json": save_range_stats(analyze_range_column(ry, self.target)),
        }
        for name, doc in docs.items():
            files[name].write_bytes(doc)

        est = join_selectivity(load_stats(docs["x.json"]), load_stats(docs["y.json"]),
                               ScalarOp.LT)
        range_est = range_join_selectivity(load_range_stats(docs["rx.json"]),
                                           load_range_stats(docs["ry.json"]), RangeOp.OVERLAPS)
        x_read = harness.read_scalar_column(files["x.col"])
        count = exact_join(x_read, harness.read_scalar_column(files["y.col"]), ScalarOp.LT)
        analyzed = save_stats(analyze_column(x_read, self.target, 0))
        f = {k: str(v) for k, v in files.items()}
        state.data["commands"] = [
            (["estimate", "--stats-x", f["x.json"], "--stats-y", f["y.json"], "--op", "lt"],
             (0, f"{est!r}\n".encode(), None)),
            (["estimate", "--stats-x", f["rx.json"], "--stats-y", f["ry.json"],
              "--op", "overlaps"],
             (0, f"{range_est!r}\n".encode(), None)),
            (["analyze", "--in", f["x.col"], "--target", str(self.target), "--seed", "0",
              "--out", f["out.json"]],
             (0, b"", analyzed)),
            (["oracle", "--in-x", f["x.col"], "--in-y", f["y.col"], "--op", "lt"],
             (0, f"{count.qualifying}/{count.total}\n".encode(), None)),
        ]
        state.data["out"] = files["out.json"]
        state.data["ranges"] = (rx, ry)
        state.data["estimates"] = (est, range_est)
        state.exact["lt"] = count.selectivity
        state.data["env"] = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        return state

    def _run(self, state, i, invoke):
        argv, _ = state.data["commands"][i % self.cycle]
        out = state.data["out"]
        writes = "--out" in argv
        if writes:
            out.unlink(missing_ok=True)
        code, stdout = invoke(argv)
        return code, stdout, out.read_bytes() if writes and out.exists() else None

    def op(self, state, i):
        def invoke(argv):
            proc = subprocess.run([sys.executable, "-m", "ineqsel", *argv],
                                  env=state.data["env"], cwd=state.work,
                                  capture_output=True, check=False)
            return proc.returncode, proc.stdout
        return self._run(state, i, invoke)

    def traced_op(self, state, i):
        """The same command through ``cli.main`` in this process, so it can be traced."""
        def invoke(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().encode()
        return self._run(state, i, invoke)

    def check(self, state, i, out):
        argv, want = state.data["commands"][i % self.cycle]
        if out != want:
            return [f"ineqsel {argv[0]}: got {out!r:.200}, want {want!r:.200}"]
        return []

    def abs_errors(self, state):
        rx, ry = state.data["ranges"]
        est, range_est = state.data["estimates"]
        exact_overlaps = exact_range_join(rx, ry, RangeOp.OVERLAPS).selectivity
        return [abs(est - state.exact["lt"]), abs(range_est - exact_overlaps)]


WORKLOADS = {
    w.name: w
    for w in (PlanScalar(20_000), AnalyzeScalar(200_000), RangesMixed(20_000), Cli(20_000))
}
