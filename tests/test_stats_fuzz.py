"""Seeded fuzz test of statistics documents.

Valid scalar and range statistics documents are broken the ways hand-edited
or corrupted documents go wrong: a field or an array element is dropped, or
a value anywhere in the document is swapped for null, a bool, a string, a
list, NaN or Infinity, a huge integer, or a negative or overfull fraction.
Each document must either load and give estimates in [0, 1] for every
operator, or raise ValueError.  A scalar document that loads must keep the
operator identities too.  The CLI must end a rejected document with
exit status 1 and one ``error:`` line.
"""

import copy
import dataclasses
import json
import math
import pickle
import subprocess
import sys

import numpy as np
import pytest

from ineqsel import (
    RangeColumn,
    RangeOp,
    ScalarOp,
    analyze_column,
    analyze_range_column,
    join_selectivity,
    load_range_stats,
    load_stats,
    range_join_selectivity,
    restriction_selectivity,
    save_range_stats,
    save_stats,
)
from ineqsel.cli import main
from ineqsel.harness import generate_range_column, generate_scalar_column

from conftest import nested_arrays

SEEDS = range(3000)
CLI_EVERY = 20       # every 20th seed's rejected document also goes through the CLI
SCALAR_OPS = (ScalarOp.LT, ScalarOp.LE, ScalarOp.GT, ScalarOp.GE)
PROBES = (-1.0, 0.0, 5e5, 2e6)

# 10**400 is beyond float range; 10**308 converts, near the top of it
REPLACEMENTS = [
    None, True, False, "0.5", "", [], [0.5], {}, math.nan, math.inf, -math.inf,
    10**400, -10**400, 10**308, -10**308, -0.25, 1.5, 0, 1,
]


def _base_documents():
    """Small valid documents (a few MCV entries and bins), scalar and range,
    one of the range documents with all-null lower bound statistics."""
    scalar = [
        json.loads(save_stats(analyze_column(generate_scalar_column(kind, 300, seed), target)))
        for kind in ("skewed-int", "uniform-int") for seed, target in ((0, 4), (1, 8))
    ]
    column = generate_scalar_column("skewed-int", 200, 2)
    column[::4] = np.nan
    scalar.append(json.loads(save_stats(analyze_column(column, 3))))
    scalar.append(json.loads(save_stats(analyze_column([1, 1, 2, 2, 2, 7, 7], 3))))
    columns = [generate_range_column(300, seed) for seed in range(4)]
    # every lower bound infinite: lower bound statistics that are all null
    last = columns[-1]
    columns[-1] = RangeColumn(np.full(len(last), -np.inf), last.upper, last.lower_closed,
                              last.upper_closed, last.null, last.empty)
    ranges = [json.loads(save_range_stats(analyze_range_column(c, 5))) for c in columns]
    return scalar, ranges


SCALAR_DOCS, RANGE_DOCS = _base_documents()


def _paths(node, path=()):
    """Every position in a JSON tree, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


def _mutate(doc, rng):
    """``doc`` with one value dropped or replaced, chosen by ``rng``."""
    paths = list(_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    replacement = copy.deepcopy(REPLACEMENTS[int(rng.integers(len(REPLACEMENTS)))])
    if not path:
        return replacement
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if rng.random() < 0.25:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def fuzzed_text(base, seed):
    """One to three mutations of a deep copy of ``base``, as JSON text."""
    rng = np.random.default_rng(seed)
    doc = json.loads(json.dumps(base))
    for _ in range(int(rng.integers(1, 4))):
        doc = _mutate(doc, rng)
    return json.dumps(doc)


def scalar_estimates(s, ref):
    for op in SCALAR_OPS:
        yield join_selectivity(s, ref, op)
        yield join_selectivity(ref, s, op)
        for c in PROBES:
            yield restriction_selectivity(s, c, op)


def scalar_identities(s, ref):
    """The operator identities, for s on either side of ref and against
    itself: LT + GE and LE + GT each equal the non-null share of the pairs,
    and LT <= LE.  A restriction is monotone in its constant, over the
    probes and s's own MCV values and histogram bounds."""
    lt, le, gt, ge = SCALAR_OPS
    for x, y in ((s, ref), (ref, s), (s, s)):
        est = {op: join_selectivity(x, y, op) for op in SCALAR_OPS}
        nonnull = (1.0 - x.null_frac) * (1.0 - y.null_frac)
        assert abs(est[lt] + est[ge] - nonnull) <= 1e-12, est
        assert abs(est[le] + est[gt] - nonnull) <= 1e-12, est
        assert est[lt] <= est[le], est
    bounds = s.histogram.bounds.tolist() if s.histogram else []
    probes = sorted({*PROBES, *s.mcv.values.tolist(), *bounds})
    for op, sign in ((lt, 1), (le, 1), (gt, -1), (ge, -1)):
        sel = [restriction_selectivity(s, c, op) for c in probes]
        assert all(sign * (b - a) >= 0.0 for a, b in zip(sel, sel[1:])), (op, sel)


def range_estimates(s, ref):
    for op in RangeOp:
        yield range_join_selectivity(s, ref, op)
        yield range_join_selectivity(ref, s, op)


# A range document that loads is held to no identity: an edited one can
# hold lower and upper bound statistics that cross, and then << + >> + &&
# exceeds the positioned share, since overlaps is clamped at 0.
KINDS = {
    "scalar": (SCALAR_DOCS, load_stats, save_stats, scalar_estimates, scalar_identities, "lt"),
    "range": (RANGE_DOCS, load_range_stats, save_range_stats, range_estimates, None, "overlaps"),
}


def check_document(text, load, save, estimates, identities, ref):
    """True when the document is rejected.  Otherwise its estimates must lie
    in [0, 1] and keep the kind's identities, and a pickled copy must give
    the same document and hold only read-only arrays."""
    try:
        s = load(text)
    except ValueError:
        return True
    back = pickle.loads(pickle.dumps(s))
    assert save(back) == save(s), text
    assert not any(a.flags.writeable for a in nested_arrays(back)), text
    values = list(estimates(s, ref))
    assert all(0.0 <= v <= 1.0 for v in values), (text, values)
    if identities:
        identities(s, ref)
    return False


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_fuzz_loads_or_raises_value_error(tmp_path, capsys, kind):
    docs, load, save, estimates, identities, op = KINDS[kind]
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(docs[0]))
    ref = load(ref_path.read_text())
    rejected = 0
    for seed in SEEDS:
        text = fuzzed_text(docs[seed % len(docs)], seed)
        if not check_document(text, load, save, estimates, identities, ref):
            continue
        rejected += 1
        if seed % CLI_EVERY:
            continue
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(["estimate", "--stats-x", str(bad), "--stats-y", str(ref_path), "--op", op])
        captured = capsys.readouterr()
        assert code == 1, (seed, text)
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    # most documents break; some mutations leave a valid one
    assert 0.5 * len(SEEDS) < rejected < len(SEEDS)


@pytest.mark.parametrize("kind,seed", [("scalar", 3), ("scalar", 11), ("range", 5)])
def test_module_entry_point_rejects_fuzzed_document(tmp_path, kind, seed):
    docs, load, _, _, _, op = KINDS[kind]
    bad, ref = tmp_path / "bad.json", tmp_path / "ref.json"
    ref.write_text(json.dumps(docs[0]))
    # the first seed from ``seed`` on whose document the library rejects
    while True:
        text = fuzzed_text(docs[seed % len(docs)], seed)
        try:
            load(text)
        except ValueError:
            break
        seed += 1
    bad.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "ineqsel", "estimate", "--stats-x", str(bad),
         "--stats-y", str(ref), "--op", op],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_range_document_without_positioned_rows_estimates_positive_zero():
    # A null or empty share of 1 leaves no positioned row, whatever bound
    # statistics the document holds: every estimate with it on either side
    # is +0.0, against the first base document and against the document it
    # was made from.  The documents are every base and fuzzed range document
    # that loads, each made blank both ways.
    loaded = [load_range_stats(json.dumps(doc)) for doc in RANGE_DOCS]
    for seed in SEEDS:
        try:
            loaded.append(load_range_stats(fuzzed_text(RANGE_DOCS[seed % len(RANGE_DOCS)], seed)))
        except ValueError:
            pass
    assert len(loaded) > 100
    for s in loaded:
        for blank in (dataclasses.replace(s, null_frac=1.0), dataclasses.replace(s, empty_frac=1.0)):
            for other in (loaded[0], s):
                for op in RangeOp:
                    assert range_join_selectivity(blank, other, op).hex() == "0x0.0p+0", (s, op)
                    assert range_join_selectivity(other, blank, op).hex() == "0x0.0p+0", (s, op)
