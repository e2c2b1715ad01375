"""The cli workload: cold ``python -m riskchain.cli`` calls on the demo specs.

Every call is a fresh interpreter, so import cost is part of each op.  The
specs are copies of ``demos/specs`` and each argv's stdout bytes, as the CLI
printed them when the benchmark was written, are stored in ``golden/``.
This module imports nothing from the engine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = "perfbench/specs/twobytwo.json"      # relative to ROOT, the calls' cwd

ARGVS = {
    "price_X_0": ["price", "--spec", SPEC, "--claim", "X", "--stage", "0"],
    "price_unit_if_0p": ["price", "--spec", SPEC, "--claim", "unit_if", "--stage", "0+"],
    "price_flat5_1": ["price", "--spec", SPEC, "--claim", "flat5", "--stage", "1"],
    "check": ["check", "--spec", SPEC],
    "hull": ["hull", "--spec", SPEC],
    "reserve_X": ["reserve", "--spec", SPEC, "--claim", "X"],
    "split_unit_if": ["split", "--spec", SPEC, "--claim", "unit_if"],
    "psi": ["psi", "--spec", "perfbench/specs/product_pricing.json"],
    "example6_0.1": ["example6", "--epsilon", "0.1"],
    "example6_0.2": ["example6", "--epsilon", "0.2"],
    "example6_0.5": ["example6", "--epsilon", "0.5"],
}


class Item:
    def __init__(self, label, argv):
        self.kind = argv[0]         # the subcommand
        self.label = label
        self.argv = argv


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def env():
    """The calling environment with the checkout's ``src`` importable."""
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), out.get("PYTHONPATH")) if p)
    return out


class Cli:
    name = "cli"
    rss_scope = "children"  # the engine runs in the CLI processes

    def __init__(self, seed: int):
        self.items = [Item(label, argv) for label, argv in ARGVS.items()]
        self.golden = {label: (HERE / "golden" / f"{label}.json").read_bytes()
                       for label in ARGVS}
        self.env = env()
        self.tracer = None

    def warm_up(self):
        """One call per distinct argv; the first also compiles bytecode."""
        for item in self.items:
            self.op(item)

    def trace_begin(self, tracer):
        self.tracer = tracer

    def trace_end(self, tracer):
        self.tracer = None

    def op(self, item):
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "riskchain.cli", *item.argv],
                                  cwd=ROOT, env=self.env, capture_output=True)
            return proc.returncode, proc.stdout
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
            spans_path = Path(tmp) / "spans.json"
            proc = subprocess.run([sys.executable, str(HERE / "clitrace.py"),
                                   str(spans_path), *item.argv],
                                  cwd=ROOT, env=self.env, capture_output=True)
            if spans_path.exists():
                doc = json.loads(spans_path.read_text())
                self.tracer.adopt(doc["spans"], self.tracer.current())
                self.tracer.counts.update(doc["counts"])
        return proc.returncode, proc.stdout

    def check(self, item, result):
        code, out = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if out != self.golden[item.label]:
            problems.append("stdout differs from the golden bytes")
        try:
            json.loads(out, parse_constant=_reject_constant)
        except ValueError as exc:
            problems.append(f"stdout is not strict JSON: {exc}")
        return problems
