"""Benchmark for ineqsel: one closed-loop workload per process.

    python3 perfbench/run.py --workload plan-scalar --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload, as a table

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy.  The correctness gate runs
first and a failure exits with status 1 before anything is timed.

With ``--trace 0`` the run sets up its inputs several times (``setup_s`` is
the median), then times operations for ``--seconds`` seconds and reports the
end-to-end metrics, their times at reference machine speed (calibrate.py).
With ``--trace 1`` it sets up once, times half the
period untraced and half traced, and reports the per-layer metrics; the
spans are written to ``.perfbench/trace-<workload>-seed<seed>.json``.

The last line of standard output is the result object; the line before it
records the environment and the sample counts behind each latency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S, Calibration, time_kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("plan-scalar", "analyze-scalar", "ranges-mixed", "cli")
SETUP_REPEATS = 5
SETUP_KERNEL_RUNS = 5     # calibration kernel runs before and after each set-up
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10          # samples that must lie above the tail percentile
CLI_PROBES = 5            # interpreter / import start-ups timed per traced run

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "abs_error_max": "fraction",
    "peak_rss_mib": "MiB",
}

# Span name -> the fields reported for it.  Span names are <module>.<function>.
TRACED_FIELDS = {
    "estimator.join_selectivity": ("calls", "busy_ms", "self_ms"),
    "estimator.join_lt_hist": ("calls", "busy_ms"),
    "estimator.join_lt_mcv_mcv": ("calls", "busy_ms"),
    "estimator.join_lt_hist_mcv": ("calls", "busy_ms"),
    "estimator.join_lt_mcv_hist": ("calls", "busy_ms"),
    "histogram.build_equi_depth": ("calls", "self_ms"),
    "histogram.cdf": ("calls", "busy_ms"),
    "mcv.build_mcv": ("calls", "self_ms"),
    "mcv.mcv_restriction_selectivity": ("calls", "busy_ms"),
    "stats.analyze_column": ("calls", "self_ms"),
    "stats.save_stats": ("calls", "busy_ms"),
    "stats.load_stats": ("calls", "busy_ms"),
    "ranges.parse_range": ("calls", "busy_ms"),
    "ranges.analyze_range_column": ("calls", "self_ms"),
    "ranges.range_join_selectivity": ("calls", "busy_ms", "self_ms"),
    "ranges.save_range_stats": ("busy_ms",),
    "ranges.load_range_stats": ("busy_ms",),
    "oracle.exact_join": ("calls", "busy_ms"),
    "oracle.exact_range_join": ("calls", "busy_ms"),
    "harness.generate_scalar_column": ("busy_ms",),
    "harness.generate_range_column": ("busy_ms",),
    "harness.write_scalar_column": ("busy_ms",),
    "harness.write_range_column": ("busy_ms",),
    "harness.read_scalar_column": ("calls", "busy_ms"),
    "harness.read_range_column": ("calls", "busy_ms"),
    "cli.main.estimate": ("busy_ms",),
    "cli.main.analyze": ("busy_ms",),
    "cli.main.oracle": ("busy_ms",),
}
COUNTERS = {
    "estimator.hist_knots": "count",     # histogram boundaries fed to join_lt_hist
    "mcv.entries": "count",
    "stats.rows_analyzed": "count",
    "stats.doc_bytes": "bytes",          # bytes written by save_stats
    "oracle.pairs": "count",             # Cartesian pairs the oracle counted over
    "harness.lines_read": "count",
}
PER_LAYER = {
    **{f"{span}.{f}": "count" if f == "calls" else "ms"
       for span, fields in TRACED_FIELDS.items() for f in fields},
    **COUNTERS,
    "mcv.useful_share": "ratio",         # entries well above the average frequency / entries
    "cli.interp_ms": "ms",               # python -c pass
    "cli.import_ms": "ms",               # python -c "import ineqsel"
    "trace.ops": "count",                # timed operations in the traced half
    "derived.est_oracle_ratio": "ratio",  # estimator busy per call / oracle busy per call
    "derived.tracing_overhead": "ratio",  # traced / untraced time per operation
}


class GateFailed(Exception):
    """The library gave a wrong answer before anything was timed."""


def check_gate(problems) -> None:
    if problems:
        raise GateFailed("correctness gate failed:\n  " + "\n  ".join(problems))


def _import_library():
    """Import ineqsel from this checkout's src directory, or exit."""
    if not (SRC / "ineqsel" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ineqsel'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import ineqsel

    if SRC.resolve() not in Path(ineqsel.__file__).resolve().parents:
        sys.exit(f"error: ineqsel was imported from {ineqsel.__file__}, not {SRC}")
    return ineqsel


# ---------------------------------------------------------------------------
# The timed loop.


class Loop:
    """Outcome of a closed-loop timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ops_of_case: dict = {}
        self.failed_of_case: dict = {}
        self.firsts: dict = {}           # case -> first output
        self.problems: list[str] = []    # the first few, for the log

    def fail(self, case, msg: str, ops: int = 1) -> None:
        self.failed += ops
        self.failed_of_case[case] = self.failed_of_case.get(case, 0) + ops
        if len(self.problems) < 20:
            self.problems.append(msg)


def _run_op(wl, state, op, i: int, loop: Loop, after_op=None) -> float:
    """Run and check operation ``i``; return its latency in seconds.

    An operation fails if it raises, if its output differs from the first
    output of its case, or if ``wl.check`` objects.
    """
    t0 = time.perf_counter()
    try:
        out = op(state, i)
        problems = []
    except Exception as exc:
        out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    latency = time.perf_counter() - t0
    if after_op is not None:
        after_op(i)
    case = wl.case(i)
    if out is not None:
        first = loop.firsts.setdefault(case, out)
        if out != first:
            problems.append("output differs from the first of its case")
        problems += wl.check(state, i, out)
    loop.attempted += 1
    loop.ops_of_case[case] = loop.ops_of_case.get(case, 0) + 1
    if problems:
        loop.fail(case, f"{wl.name} op {i} {case}: " + "; ".join(problems))
    return latency


def run_loop(wl, state, seconds: float, op=None, after_op=None, warmup: bool = True,
             loop: Loop | None = None, cal: Calibration | None = None) -> Loop:
    """Time operations until ``seconds`` have passed and the rotation cycle is whole.

    With ``warmup`` one operation runs and is checked first, untimed.  With
    ``cal`` the calibration kernel runs between groups of operations.
    """
    op = op or wl.op
    loop = loop or Loop()
    if warmup:
        _run_op(wl, state, op, 0, loop)
    if cal is not None:
        cal.start()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        latency = _run_op(wl, state, op, i, loop, after_op)
        loop.latencies.append(latency)
        if cal is not None:
            cal.after(latency)
        i += 1
        if i % wl.cycle == 0 and time.perf_counter() >= deadline:
            if cal is not None:
                cal.close()
            return loop


def finish_loop(wl, state, loop: Loop) -> None:
    """Post-loop checks: every operation of a case that fails them has failed."""
    for case, problems in wl.finish(state, loop.firsts).items():
        ops = loop.ops_of_case.get(case, 0) - loop.failed_of_case.get(case, 0)
        loop.fail(case, f"{wl.name} {case}: " + "; ".join(problems), ops)


def percentile(ordered, p: float) -> float:
    """Linear-interpolated percentile of sorted samples."""
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(latencies, preferred: float) -> tuple[float, float]:
    """(percentile, value) at ``preferred``, or at the highest lower step of
    TAIL_LADDER, whichever first has TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        if p > preferred:
            continue
        value = percentile(ordered, p)
        if sum(v > value for v in ordered) >= TAIL_BEYOND:
            return p, value
    return TAIL_LADDER[-1], percentile(ordered, TAIL_LADDER[-1])


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0     # KiB on Linux


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# The two kinds of run.  Modules that import ineqsel are imported only
# after _import_library has put this checkout's src on the path.


def measure(wl, seed: int, seconds: float, work: Path):
    """Untraced run: end-to-end metrics, the loop, and the sample record.

    Times are reported at reference machine speed (see calibrate.py); the
    raw wall-clock figures go into the record.
    """
    from workloads import REFERENCE_SEED

    def kernel_s():
        return statistics.median(time_kernel() for _ in range(SETUP_KERNEL_RUNS))

    setups, setups_raw = [], []
    for k in range(SETUP_REPEATS):
        before = kernel_s()
        t0 = time.perf_counter()
        state = wl.setup(seed, _fresh(work / f"setup{k}"))
        took = time.perf_counter() - t0
        setups_raw.append(took)
        setups.append(took * REFERENCE_S / ((before + kernel_s()) / 2))
    cal = Calibration()
    loop = run_loop(wl, state, seconds, cal=cal)
    finish_loop(wl, state, loop)
    rss = peak_rss_mib(wl.rss_of_children)

    ref = state if seed == REFERENCE_SEED else wl.setup(REFERENCE_SEED, _fresh(work / "ref"))
    n = len(loop.latencies)
    scaled = [t * f for t, f in zip(loop.latencies, cal.factors())]
    pct, tail_s = tail(scaled, wl.tail_percentile)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(n / sum(scaled), "1/s"),
        "op_p50_ms": _metric(statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": _metric(tail_s * 1e3, "ms"),
        "ok_frac": _metric(1.0 - loop.failed / loop.attempted, "ratio"),
        "abs_error_max": _metric(max(wl.abs_errors(ref)), "fraction"),
        "peak_rss_mib": _metric(rss, "MiB"),
    }
    record = {
        "setup_s": {"samples": len(setups)},
        "ops_per_s": {"samples": n},
        "op_p50_ms": {"samples": n},
        "op_tail_ms": {"samples": n, "percentile": pct},
        "calibration": {
            "reference_ms": REFERENCE_S * 1e3,
            "kernel_runs": len(cal.kernel_s),
            "kernel_p50_ms": cal.median_kernel_s() * 1e3,
        },
        "raw": {
            "setup_s": statistics.median(setups_raw),
            "ops_per_s": n / sum(loop.latencies),
            "op_p50_ms": statistics.median(loop.latencies) * 1e3,
            "op_tail_ms": percentile(sorted(loop.latencies), pct) * 1e3,
        },
    }
    return metrics, loop, record


def _probe_ms(argv) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def measure_traced(wl, seed: int, seconds: float, work: Path, dump_to: Path):
    """Traced run: per-layer metrics over the gate, one set-up and the traced half.

    The spans are written to ``dump_to``.
    """
    from gate import run_gate
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("gate")
        check_gate(run_gate(_fresh(work / "gate"), seed))
        tracer.fold("gate")
        tracer.begin("setup")
        state = wl.setup(seed, _fresh(work / "setup"))
        tracer.fold("setup")
    finally:
        tracer.uninstall()

    loop = run_loop(wl, state, seconds / 2, op=wl.traced_op)
    untraced = loop.latencies
    loop.latencies = []

    def after_op(i):
        tracer.fold("run")
        tracer.begin(i + 1)

    tracer.install()
    try:
        tracer.begin(0)
        run_loop(wl, state, seconds / 2, op=wl.traced_op, after_op=after_op,
                 warmup=False, loop=loop)
        tracer.begin("finish")
        finish_loop(wl, state, loop)
        tracer.fold("finish")
    finally:
        tracer.uninstall()
    tracer.dump(dump_to)

    metrics = {}
    for name in PER_LAYER:
        key, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = tracer.total(key, "calls")
        elif key in TRACED_FIELDS:
            metrics[name] = tracer.total(key, field.replace("_ms", "_ns")) / 1e6
        else:
            metrics[name] = tracer.counter(name)
    entries = tracer.counter("mcv.entries")
    metrics["mcv.useful_share"] = tracer.counter("mcv.useful") / entries if entries else 0.0
    metrics["cli.interp_ms"] = _probe_ms([sys.executable, "-c", "pass"])
    metrics["cli.import_ms"] = _probe_ms([sys.executable, "-c", "import ineqsel"])
    metrics["trace.ops"] = len(loop.latencies)

    workload_phases = ("setup", "run", "finish")

    def busy_per_call(group):
        calls = tracer.total(group, "calls", workload_phases)
        return tracer.total(group, "busy_ns", workload_phases) / calls if calls else 0.0

    oracle = busy_per_call("oracle")
    metrics["derived.est_oracle_ratio"] = busy_per_call("estimate") / oracle if oracle else 0.0
    metrics["derived.tracing_overhead"] = (statistics.fmean(loop.latencies)
                                           / statistics.fmean(untraced))
    record = {"untraced_ops": len(untraced), "traced_ops": len(loop.latencies),
              "absent": tracer.absent, "spans_kept": len(tracer.kept),
              "spans_dropped": tracer.dropped}
    return {n: _metric(metrics[n], u) for n, u in PER_LAYER.items()}, loop, record


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_one(args) -> int:
    _import_library()
    import numpy

    from gate import run_gate
    from workloads import WORKLOADS, SetupError

    wl = WORKLOADS[args.workload]
    work = _fresh(OUT / f"{wl.name}-{os.getpid()}")
    try:
        if args.trace:
            metrics, loop, record = measure_traced(
                wl, args.seed, args.seconds, work, OUT / f"trace-{wl.name}-seed{args.seed}.json")
        else:
            check_gate(run_gate(_fresh(work / "gate"), args.seed))
            metrics, loop, record = measure(wl, args.seed, args.seconds, work)
    except (GateFailed, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in loop.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "samples": record,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ineqsel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        _import_library()
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
