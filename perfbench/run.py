"""riskchain benchmark: seeded closed-loop workloads with checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload hull --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload cli,hull,price,market --seed 1

Each workload runs in a fresh worker process with one closed-loop client.
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Human-readable lines come first; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With more than one
workload the metric names are prefixed by the workload name.  README.md
explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "hull", "price", "market")
BUDGET_S = 170.0            # a run must end within 180 s
SETUP_REPEATS = 3           # in-process workloads set up this many times

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PROBE_LIBS = ("import time; t0 = time.perf_counter(); import numpy; "
              "t1 = time.perf_counter(); import scipy.optimize; "
              "t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")
PROBE_RISKCHAIN = ("import time; t0 = time.perf_counter(); import riskchain; "
                   "print(time.perf_counter() - t0)")


class RunError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + BUDGET_S
        sys.path.insert(0, str(HERE))
        import cliwork
        self.env = cliwork.env()

    def _remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise RunError("time budget exhausted")
        return left

    def _run(self, cmd):
        """Run a child to completion within the budget; return (spawn time, stdout)."""
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)     # the worker and its cli calls
            proc.communicate()
            raise RunError(f"{cmd[1:3]} did not finish within the budget")
        if proc.returncode != 0:
            raise RunError(f"{cmd[1:3]} exited with {proc.returncode}")
        return t_spawn, out.decode()

    def worker(self, name, *flags):
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), name, str(a.seed), str(a.seconds),
               str(a.trace), *flags] + (["--tiny"] if a.tiny else [])
        t_spawn, out = self._run(cmd)
        doc = json.loads(out.strip().splitlines()[-1])
        doc["setup_s"] = doc["t_ready"] - t_spawn
        return doc

    def import_probes(self, rounds=3):
        """Fresh-interpreter import costs, median of ``rounds``."""
        vals = {k: [] for k in ("python", "numpy", "scipy_optimize", "riskchain")}
        for _ in range(rounds):
            t_spawn, _ = self._run([sys.executable, "-c", "pass"])
            vals["python"].append(time.perf_counter() - t_spawn)
            _, out = self._run([sys.executable, "-c", PROBE_LIBS])
            np_s, sp_s = map(float, out.split())
            vals["numpy"].append(np_s)
            vals["scipy_optimize"].append(sp_s)
            _, out = self._run([sys.executable, "-c", PROBE_RISKCHAIN])
            vals["riskchain"].append(float(out))
        return {f"import.{k}_s": statistics.median(v) for k, v in vals.items()}

    def workload(self, name):
        """Metrics of one workload: (metrics {name: (value, unit)}, doc)."""
        if self.args.trace:
            from tracer import LAYER_METRICS
            doc = self.worker(name)
            layers = dict(doc["layers"], **self.import_probes())
            return {m: (layers[m], unit) for m, unit, _, _ in LAYER_METRICS}, doc
        setups = []
        if name != "cli":   # the cli set-up is its warm-up pass: 11 cold starts
            for _ in range(SETUP_REPEATS - 1):
                setups.append(self.worker(name, "--setup-only")["setup_s"])
        doc = self.worker(name)
        setups.append(doc["setup_s"])
        doc["setup_s"] = statistics.median(setups)
        return {m: (doc[m], unit) for m, unit in END_TO_END}, doc


def report(name, metrics, doc, trace):
    print(f"== {name}: pool {doc['pool']}, passes {doc['passes']}, "
          f"attempted {doc['attempted']}, failed {doc['failed']}")
    for metric, (value, unit) in metrics.items():
        print(f"   {metric:44s} {value:14.6g} {unit}")
    if trace:
        print("   largest self-time shares: "
              + ", ".join(f"{k} {v:.1%}" for k, v in doc["top_self_shares"]))
        print(f"   op glue outside any wrapped call: {doc['op_glue_share']:.1%}")
    else:
        ratio = doc["failed"] / doc["attempted"]
        print(f"   {'error_ratio':44s} {ratio:14.6g} ratio")
        print(f"   latency samples {doc['samples']}, {doc['beyond_p90']} beyond p90")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=",".join(WORKLOADS),
                   help="comma-separated subset of " + ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one item per kind, for the smoke test")
    args = p.parse_args(argv)
    args.workloads = args.workload.split(",")
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        p.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "riskchain" / "__init__.py").is_file():
        print(f"riskchain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in args.workloads:
            metrics, doc = runner.workload(name)
            report(name, metrics, doc, args.trace)
            result["attempted"] += doc["attempted"]
            result["failed"] += doc["failed"]
            prefix = f"{name}." if len(args.workloads) > 1 else ""
            for metric, (value, unit) in metrics.items():
                result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
