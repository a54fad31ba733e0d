"""Every demo script runs to completion against the library in ``src``, and
so does every Python block of the README."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # demos write their outputs (CSV, plots, temporary columns) where they
    # run, so each runs in its own scratch directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    # a child process does not inherit pytest's warning filters, so a
    # warning fails the demo here as it fails a test
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # TMPDIR is the test's directory, so a temporary directory the demo
    # failed to remove is left here
    assert not list(tmp_path.glob("ineqsel-demo-*"))


def test_readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    names = {}
    for block in blocks:
        exec(block, names)
    # the values the quick start's comments give
    assert names["est"] == pytest.approx(24221 / 37620, abs=1e-12)
    assert (names["act"].qualifying, names["act"].total) == (95, 144)
