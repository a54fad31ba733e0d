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
           "return json.dumps(v)",
           "return str(v)",
           WRITER, "scalars by str, which writes None as None, not null"),
    Mutant("src/ineqsel/_util.py",
           "zip(numbers, [-1, *ends], ends)",
           "zip(numbers, [0, *ends], ends)",
           WRITER, "rule 2 repeats the first run's number once too few"),
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
