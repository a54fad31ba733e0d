"""Seeded fuzz test of statistics documents.

Valid scalar and range statistics documents are broken the ways hand-edited
or corrupted documents go wrong: a field or an array element is dropped, or
a value anywhere in the document is swapped for null, a bool, a string, a
list, NaN or Infinity, a huge integer, or a negative or overfull fraction.
Each document must either load and give estimates in [0, 1] for every
operator, or raise ValueError.  The CLI must end a rejected document with
exit status 1 and one ``error:`` line.
"""

import copy
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ineqsel import (
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
    """Small valid documents (a few MCV entries and bins), scalar and range."""
    scalar = [
        json.loads(save_stats(analyze_column(generate_scalar_column(kind, 300, seed), target)))
        for kind in ("skewed-int", "uniform-int") for seed, target in ((0, 4), (1, 8))
    ]
    column = generate_scalar_column("skewed-int", 200, 2)
    column[::4] = np.nan
    scalar.append(json.loads(save_stats(analyze_column(column, 3))))
    scalar.append(json.loads(save_stats(analyze_column([1, 1, 2, 2, 2, 7, 7], 3))))
    ranges = [
        json.loads(save_range_stats(analyze_range_column(generate_range_column(300, seed), 5)))
        for seed in range(3)
    ]
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


def range_estimates(s, ref):
    for op in RangeOp:
        yield range_join_selectivity(s, ref, op)
        yield range_join_selectivity(ref, s, op)


KINDS = {
    "scalar": (SCALAR_DOCS, load_stats, scalar_estimates, "lt"),
    "range": (RANGE_DOCS, load_range_stats, range_estimates, "overlaps"),
}


def check_document(text, load, estimates, ref):
    """True when the document is rejected; its estimates must lie in [0, 1] otherwise."""
    try:
        s = load(text)
    except ValueError:
        return True
    try:
        values = list(estimates(s, ref))
    except ValueError:      # insufficient statistics
        return False
    assert all(0.0 <= v <= 1.0 for v in values), (text, values)
    return False


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_fuzz_loads_or_raises_value_error(tmp_path, capsys, kind):
    docs, load, estimates, op = KINDS[kind]
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(docs[0]))
    ref = load(ref_path.read_text())
    rejected = 0
    for seed in SEEDS:
        text = fuzzed_text(docs[seed % len(docs)], seed)
        if not check_document(text, load, estimates, ref):
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
    docs, load, _, op = KINDS[kind]
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
