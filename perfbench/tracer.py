"""Per-layer tracing from outside the library.

The tracer replaces public functions of the ``ineqsel`` modules with
wrappers that record one span per call: (name, start_ns, end_ns, parent
span, op id).  Modules import each other's names with ``from .x import y``,
so a function is rebound in every loaded module namespace that holds it,
the package's own and the benchmark's alike; patching only the defining
module would miss the internal calls.

Spans are kept in memory for one operation at a time, then folded into
per-name totals (calls, busy time, self time).  Only the first
``KEEP_SPANS`` spans are retained for the dump written when the run ends,
which keeps memory bounded on workloads with tens of thousands of calls
per operation.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

KEEP_SPANS = 20_000

# A value is a "useful" MCV entry when it occurs at least this many times
# more often than the average distinct value of the analyzed input.
USEFUL_MCV_FACTOR = 2.0


def _hist_knots(args, kwargs, result):
    hx, hy = args[0], args[1]
    return {"estimator.hist_knots": hx.bounds.size + hy.bounds.size}


def _mcv_entries(args, kwargs, result):
    data = np.asarray(args[0], dtype=np.float64)
    avg_fraction = 1.0 / np.unique(data).size if data.size else 0.0
    useful = int(np.sum(result.fractions > USEFUL_MCV_FACTOR * avg_fraction))
    return {"mcv.entries": len(result), "mcv.useful": useful}


def _rows_analyzed(args, kwargs, result):
    return {"stats.rows_analyzed": result.row_count}


def _doc_bytes(args, kwargs, result):
    return {"stats.doc_bytes": len(result)}


def _pairs(args, kwargs, result):
    return {"oracle.pairs": result.total}


def _lines_read(args, kwargs, result):
    return {"harness.lines_read": len(result)}


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined, its span group and counter."""

    module: str
    function: str
    group: str | None = None
    counter: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


# Groups name the entry points behind derived.est_oracle_ratio: an
# estimator call nested in another (range_join_selectivity calling
# join_selectivity) counts once.
TARGETS = (
    Target("estimator", "join_selectivity", "estimate"),
    Target("estimator", "join_lt_hist", counter=_hist_knots),
    Target("estimator", "join_lt_mcv_mcv"),
    Target("estimator", "join_lt_hist_mcv"),
    Target("estimator", "join_lt_mcv_hist"),
    Target("histogram", "build_equi_depth"),
    Target("histogram", "cdf"),
    Target("mcv", "build_mcv", counter=_mcv_entries),
    Target("mcv", "mcv_restriction_selectivity"),
    Target("stats", "analyze_column", counter=_rows_analyzed),
    Target("stats", "save_stats", counter=_doc_bytes),
    Target("stats", "load_stats"),
    Target("ranges", "parse_range"),
    Target("ranges", "analyze_range_column"),
    Target("ranges", "range_join_selectivity", "estimate"),
    Target("ranges", "save_range_stats"),
    Target("ranges", "load_range_stats"),
    Target("oracle", "exact_join", "oracle", _pairs),
    Target("oracle", "exact_range_join", "oracle", _pairs),
    Target("harness", "generate_scalar_column"),
    Target("harness", "generate_range_column"),
    Target("harness", "write_scalar_column"),
    Target("harness", "write_range_column"),
    Target("harness", "read_scalar_column", counter=_lines_read),
    Target("harness", "read_range_column", counter=_lines_read),
    Target("cli", "main"),
)


def _cli_span_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else "none"
    return f"cli.main.{command}"


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    op: object


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, groups=None) -> dict:
    """Fold spans into {key: {"calls", "busy_ns", "self_ns"}}.

    ``parent`` is an index into ``spans``.  Self time is a span's duration
    minus the part of it covered by its child spans.  Busy time counts only
    spans with no ancestor of the same key, so recursion is not counted
    twice.  Keys are span names plus the group names in ``groups`` (a map
    from span name to group).
    """
    groups = groups or {}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
    for i, s in enumerate(spans):
        keys = [s.name] + ([groups[s.name]] if s.name in groups else [])
        ancestors = set()
        p = s.parent
        while p is not None:
            anc = spans[p].name
            ancestors.add(anc)
            if anc in groups:
                ancestors.add(groups[anc])
            p = spans[p].parent
        dur = s.end - s.start
        self_ns = dur - _covered(children[i], s.start, s.end)
        for key in keys:
            agg = out[key]
            agg["calls"] += 1
            agg["self_ns"] += self_ns
            if key not in ancestors:
                agg["busy_ns"] += dur
    return dict(out)


class Tracer:
    """Installs span-recording wrappers and accumulates per-phase totals."""

    def __init__(self):
        self.groups = {t.name: t.group for t in TARGETS if t.group}
        self.absent: list[str] = []
        self.op: object = None
        self.spans: list[Span] = []
        self.kept: list[list] = []
        self.dropped = 0
        self.totals: dict[str, dict] = {}      # phase -> key -> aggregate
        self.counters: dict[str, dict] = {}    # phase -> counter -> value
        self._stack: list[int] = []
        self._pending: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        wrappers = {}
        for t in TARGETS:
            home = sys.modules.get(f"ineqsel.{t.module}")
            original = getattr(home, t.function, None)
            if not callable(original):
                self.absent.append(t.name)
                continue
            wrappers[id(original)] = (original, self._wrap(t, original))
        for module in list(sys.modules.values()):
            ns = getattr(module, "__dict__", None)
            if not isinstance(ns, dict):
                continue
            for attr, val in list(ns.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((ns, attr, val))
                    ns[attr] = hit[1]

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            ns[attr] = original
        self._patches = []

    def _wrap(self, target: Target, fn):
        name_of = _cli_span_name if target.name == "cli.main" else (lambda a, k: target.name)
        counter = target.counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name_of(args, kwargs), 0, 0, parent, self.op)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                # evaluated at fold time, outside every timed span
                self._pending.append((counter, args, kwargs, result))
            return result

        return wrapper

    # -- folding ------------------------------------------------------------

    def begin(self, op) -> None:
        """Start attributing spans to operation ``op`` (or a phase name)."""
        self.op = op

    def fold(self, phase: str) -> None:
        """Add the spans and counters recorded since the last fold to ``phase``."""
        totals = self.totals.setdefault(phase, {})
        for key, agg in summarize(self.spans, self.groups).items():
            acc = totals.setdefault(key, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            for f in acc:
                acc[f] += agg[f]
        counters = self.counters.setdefault(phase, {})
        for counter, args, kwargs, result in self._pending:
            for key, value in counter(args, kwargs, result).items():
                counters[key] = counters.get(key, 0) + value
        base = len(self.kept)
        room = max(KEEP_SPANS - base, 0)
        for s in self.spans[:room]:
            parent = None if s.parent is None else base + s.parent
            self.kept.append([s.name, s.start, s.end, parent, s.op])
        self.dropped += max(len(self.spans) - room, 0)
        self.spans = []
        self._pending = []

    def total(self, key: str, field: str, phases=None) -> int:
        return sum(t.get(key, {}).get(field, 0)
                   for p, t in self.totals.items() if phases is None or p in phases)

    def counter(self, key: str) -> float:
        return sum(c.get(key, 0) for c in self.counters.values())

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.kept,
            "dropped": self.dropped,
            "totals": self.totals,
            "counters": self.counters,
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
