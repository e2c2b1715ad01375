"""Every demo prints the bytes of its golden file.

``tests/golden/demos/<name>.txt`` holds the stdout of ``demos/<name>.py``.
Each demo runs in a fresh interpreter, as a reader runs it, so a change that
moves any printed digit (a price, a witness) shows here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_stdout_matches_golden(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


def test_every_golden_has_its_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]
