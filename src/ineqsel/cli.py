"""Command-line interface.

Subcommands: gen, analyze, estimate, oracle, sweep.  Exit status is 0 on
success, 2 for usage errors (argparse checks every option, integer ranges
included), 1 for data errors (unreadable or malformed files or statistics).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from dataclasses import fields

from . import harness
from ._util import from_doc, parse_json
from .columnfile import looks_like_range_file
from .operators import RangeOp, ScalarOp

SCALAR_OPS = tuple(op.value for op in ScalarOp)
RANGE_OPS = tuple(op.value for op in RangeOp)
ALL_OPS = SCALAR_OPS + RANGE_OPS


def _parse_op(text: str) -> ScalarOp | RangeOp:
    # argparse's choices have already checked the text
    return ScalarOp(text) if text in SCALAR_OPS else RangeOp(text)


# PostgreSQL's maximum statistics target; a larger HI is turned down before
# its list is built
MAX_TARGET = 10000


def _integer(name: str, lo: int, hi: float = math.inf) -> Callable[[str], int]:
    """An argparse type: an integer in [lo, hi]; anything else is a usage error."""
    rule = f"{name} >= {lo}" if hi == math.inf else f"{lo} <= {name} <= {hi}"

    def parse(text: str) -> int:
        try:
            if lo <= int(text) <= hi:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{name} must be an integer with {rule}")
    return parse


def _parse_targets(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("targets must be LO:HI:STEP")
    lo = _integer("LO", 1, MAX_TARGET)(parts[0])
    hi = _integer("HI", lo, MAX_TARGET)(parts[1])
    step = _integer("STEP", 1)(parts[2])
    return list(range(lo, hi + 1, step))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqsel",
        description="Build column statistics and estimate inequality-join selectivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a column data file")
    p.add_argument("--kind", required=True, choices=harness.DATASET_KINDS)
    p.add_argument("--rows", type=_integer("ROWS", 1), default=1000)
    p.add_argument("--seed", type=_integer("SEED", 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("analyze", help="build statistics for a column file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--target", type=_integer("TARGET", 1, MAX_TARGET), required=True)
    p.add_argument("--seed", type=_integer("SEED", 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_analyze)

    p = sub.add_parser("estimate", help="estimate join selectivity from statistics")
    p.add_argument("--stats-x", required=True)
    p.add_argument("--stats-y", required=True)
    p.add_argument("--op", required=True, choices=ALL_OPS)
    p.set_defaults(run=_cmd_estimate)

    p = sub.add_parser("oracle", help="exact join count from raw column files")
    p.add_argument("--in-x", dest="in_x", required=True)
    p.add_argument("--in-y", dest="in_y", required=True)
    p.add_argument("--op", required=True, choices=ALL_OPS)
    p.set_defaults(run=_cmd_oracle)

    p = sub.add_parser("sweep", help="error-vs-statistics-target experiment")
    p.add_argument("--in-x", dest="in_x", required=True)
    p.add_argument("--in-y", dest="in_y", required=True)
    p.add_argument("--op", required=True, choices=ALL_OPS)
    p.add_argument("--targets", type=_parse_targets, required=True, metavar="LO:HI:STEP")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_sweep)

    return parser


def _cmd_gen(args) -> int:
    if args.kind in harness.RANGE_KINDS:
        values = harness.generate_range_column(args.rows, args.seed)
        harness.write_range_column(args.out, values)
    else:
        values = harness.generate_scalar_column(args.kind, args.rows, args.seed)
        harness.write_scalar_column(args.out, values)
    return 0


def _cmd_analyze(args) -> int:
    kind = harness.RANGE if looks_like_range_file(args.infile) else harness.SCALAR
    doc = kind.save(kind.analyze(kind.read(args.infile), args.target, args.seed))
    with open(args.out, "wb") as fh:
        fh.write(doc)
    return 0


# the fields only a range statistics document holds
_RANGE_ONLY = ({f.name for f in fields(harness.RANGE.stats_type)}
               - {f.name for f in fields(harness.SCALAR.stats_type)})


def _load_any_stats(path: str):
    """Load a statistics file: range statistics when it holds any field only
    they declare, so a missing field is reported by its own type, and
    scalar statistics otherwise."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = parse_json(data)
        ranged = isinstance(doc, dict) and not _RANGE_ONLY.isdisjoint(doc)
        kind = harness.RANGE if ranged else harness.SCALAR
        return from_doc(kind.stats_type, doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_estimate(args) -> int:
    op = _parse_op(args.op)
    kind = harness.kind_of(op)
    sx = _load_any_stats(args.stats_x)
    sy = _load_any_stats(args.stats_y)
    for path, s in ((args.stats_x, sx), (args.stats_y, sy)):
        if not isinstance(s, kind.stats_type):
            raise ValueError(f"{path}: operator {args.op} needs {kind.name} statistics")
    print(repr(kind.estimate(sx, sy, op)))
    return 0


def _cmd_oracle(args) -> int:
    op = _parse_op(args.op)
    kind = harness.kind_of(op)
    count = kind.oracle(kind.read(args.in_x), kind.read(args.in_y), op)
    print(f"{count.qualifying}/{count.total}")
    return 0


def _cmd_sweep(args) -> int:
    op = _parse_op(args.op)
    rows = harness.run_sweep(args.in_x, args.in_y, op, args.targets)
    harness.write_results_csv(rows, args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
