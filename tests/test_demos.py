"""Every demo prints the bytes of its golden file.

``tests/golden/demos/<name>.txt`` holds the stdout of ``demos/<name>.py``.
Each demo runs in a fresh interpreter, as a reader runs it, so a change that
moves any printed digit (a price, a witness) shows here.  The interpreter
runs with ``-W error``, so a warning a demo raises fails its test.
"""

import math
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
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=ROOT,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


def test_every_golden_has_its_demo():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


# Golden lines revised once, because a zero now prints as 0. where a solver
# returned -0.0: (demo, the line as it printed before).  The split of demo 03
# came from an LP; it is now the eta differences, and 0.0 - (-0.0) is 0.0.
ZERO_SIGN_REVISIONS = [
    ("03_pricing_and_reserving", "LP increment 1: [ 0.8 -0.  -1.2 -0. ]"),
]


def parse_line(line):
    label, _, body = line.partition(":")
    return label, [float(v) for v in body.strip().strip("[]").split()]


@pytest.mark.parametrize("demo, old", ZERO_SIGN_REVISIONS)
def test_revised_lines_differ_only_in_the_signs_of_zeros(demo, old):
    label, old_values = parse_line(old)
    golden = (GOLDEN / f"{demo}.txt").read_text().splitlines()
    [new] = [line for line in golden if line.startswith(label + ":")]
    _, new_values = parse_line(new)
    assert new != old
    assert new_values == old_values         # as floats, where -0.0 == 0.0
    flipped = [math.copysign(1.0, a) != math.copysign(1.0, b)
               for a, b in zip(old_values, new_values)]
    assert any(flipped)
    assert all(a == 0.0 for a, f in zip(old_values, flipped) if f)
