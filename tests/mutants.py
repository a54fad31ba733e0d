"""Committed mutants: small breaks of the program that the tests must catch.

Run from the repository root (pytest does not collect this file):

    python tests/mutants.py

It copies ``src/``, ``tests/`` and ``pyproject.toml`` (pytest's settings)
into a temporary directory and first runs each mutant's test selection on
the unchanged copy, which must pass.  Then, one mutant at a time, it
replaces the mutant's old text, which must occur exactly once in its file,
and runs ``python -m pytest -q -x -p no:cacheprovider <selection>`` on the
copy, which must fail.  The exit status is 1 when a mutant survives or its
old text is not found once: a change to the code a mutant breaks ports the
mutant or removes it, and says so.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    path: str           # relative to the repository root
    old: str            # occurs exactly once in the file
    new: str
    selection: str      # the tests that must fail
    reason: str


WRITER = "tests/test_stats.py::TestWriter"
GENERATION = "tests/test_harness.py::TestGeneration"
WINDOW_SEARCH = "tests/test_oracle.py::TestWindowSearch"
CHUNKS = "tests/test_column_fuzz.py::test_long_token_at_either_end_of_a_chunk"
CHUNK_SIZES = "tests/test_column_fuzz.py::test_corpora_read_alike_at_every_chunk_size"
RUN_CUTS = "tests/test_stats.py::TestRunCuts"

MUTANTS = [
    Mutant("src/ineqsel/_util.py",
           "if (ints == a).all() and not np.signbit(a[ints == 0]).any():",
           "if (ints == a).all():",
           WRITER, "rule 1 without the -0.0 guard writes -0.0 as 0.0"),
    Mutant("src/ineqsel/_util.py",
           "np.abs(a).max() < 1e16",
           "np.abs(a).max() < 1e17",
           WRITER, "rule 1 at 1e16 writes digits where repr writes 1e+16"),
    Mutant("src/ineqsel/_util.py",
           '"{" + ", ".join(',
           '"{" + ",".join(',
           WRITER, "fields separated by a bare comma, not json.dumps's \", \""),
    Mutant("src/ineqsel/_util.py",
           'return "null"',
           'return "None"',
           WRITER, "None written as None, not null"),
    Mutant("src/ineqsel/_util.py",
           "zip(numbers, [-1, *ends], ends)",
           "zip(numbers, [0, *ends], ends)",
           WRITER, "rule 2 repeats the first run's number once too few"),
    Mutant("src/ineqsel/harness.py",
           "+ 7 * np.arange(rows)",
           "+ 8 * np.arange(rows)",
           GENERATION, "a run's starts filled 8 doubles apart, not 7"),
    Mutant("src/ineqsel/harness.py",
           "i = bisect_left(ks, k)",
           "i = bisect_left(ks, k + 1)",
           GENERATION, "bisect_right's position: an odd row at a run's own start is skipped"),
    Mutant("src/ineqsel/harness.py",
           "np.where(blank[r::7][k], 1, 8)",
           "np.where(blank[r::7][k], 1, 7)",
           GENERATION, "a row with an infinite bound steps 7 doubles, not 8"),
    Mutant("src/ineqsel/harness.py",
           "np.where(blank[r::7][k], 1, 8)",
           "np.where(d[6:-1][r::7][k] < INF_FRAC, 8, 1)",
           GENERATION, "the infinite-bound test before the null/empty one: a blank row steps 8"),
    Mutant("src/ineqsel/oracle.py",
           "return s[:np.searchsorted(s, np.nan)]",
           "return s",
           "tests/test_oracle.py::TestJoin", "the sorted NaN tail kept, so nulls are counted"),
    Mutant("src/ineqsel/oracle.py",
           "op in (ScalarOp.GT, ScalarOp.GE)",
           "op in (ScalarOp.GT,)",
           "tests/test_oracle.py::TestJoin", "GE not oriented: x >= y counted as x <= y"),
    Mutant("src/ineqsel/ranges.py",
           "0 if row.lower_closed else 1",
           "0 if row.lower_closed else -1",
           "tests/test_ranges.py::TestOperatorSemantics", "an open lower bound nudged down, not up"),
    Mutant("src/ineqsel/ranges.py",
           "0 if row.upper_closed else -1",
           "0 if row.upper_closed else 1",
           "tests/test_ranges.py::TestOperatorSemantics", "an open upper bound nudged up, not down"),
    Mutant("src/ineqsel/oracle.py",
           'raise outcome["error"]',
           "pass",
           "tests/test_oracle.py::TestTwoThreads", "the helper's exception is not raised again"),
    Mutant("src/ineqsel/stats.py",
           "rows.flags.writeable = False",
           "pass",
           "tests/test_stats.py::TestSampleRows", "the kept draw is writable, so a caller can change it"),
    Mutant("src/ineqsel/oracle.py",
           "np.searchsorted(a, window[[0, -1]], side=side)",
           'np.searchsorted(a, window[[0, -1]], side="right" if side == "left" else "left")',
           WINDOW_SEARCH, "a window's stretch bounded on the other side than its keys"),
    Mutant("src/ineqsel/oracle.py",
           "window[[0, -1]]",
           "window[[0, 0]]",
           WINDOW_SEARCH, "a window's stretch ends at its first key, not its last"),
    Mutant("src/ineqsel/oracle.py",
           "window = keys[first:first + _WINDOW]",
           "window = keys[first:first + _WINDOW - 1]",
           WINDOW_SEARCH, "each window one key short, so a key per window is never counted"),
    Mutant("src/ineqsel/oracle.py",
           "np.searchsorted(a[start:end], window, side=side)",
           "np.searchsorted(a[start + 1:end], window, side=side)",
           WINDOW_SEARCH, "a window's stretch starts one past its first key's position"),
    Mutant("src/ineqsel/columnfile.py",
           "after_minus[part].max() <= _SHORT",
           "after_minus[part][0] <= _SHORT",
           CHUNKS, "a chunk's kernel window chosen by its first token only"),
    Mutant("src/ineqsel/columnfile.py",
           "ends[part]], minus[part],",
           "ends[part]], minus[:_CHUNK][:ends[part].size],",
           CHUNK_SIZES, "every chunk read with the first chunk's minus flags"),
    Mutant("src/ineqsel/stats.py",
           "kept = np.sort(order)",
           "kept = order",
           RUN_CUTS, "the MCV cuts taken in MCV order, not sample order"),
    Mutant("src/ineqsel/stats.py",
           "np.append(starts[kept], ordered.size)",
           "np.append(starts[kept] + 1, ordered.size)",
           RUN_CUTS, "each kept stretch ends one row past its MCV run's start"),
    Mutant("src/ineqsel/ranges.py",
           "return 0.0, 0.0, False, False, True, False",
           "return 0.0, 0.0, False, False, False, True",
           "tests/test_column_fuzz.py", "a blank line read per line as an empty range, not a null"),
]


def _pytest(root: Path, selection: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", selection]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(repo / name, root / name, ignore=ignore)
        shutil.copy(repo / "pyproject.toml", root)
        for selection in dict.fromkeys(m.selection for m in MUTANTS):
            if _pytest(root, selection):
                print(f"FAIL  {selection} fails with no mutant")
                return 1
        for m in MUTANTS:
            path = root / m.path
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                print(f"FAIL  {m.path}: old text found {text.count(m.old)} times: {m.old!r}")
                failures += 1
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                survived = _pytest(root, m.selection) == 0
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{'FAIL  survived' if survived else 'ok    killed'}: {m.reason}")
            failures += survived
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
