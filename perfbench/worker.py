"""One workload in a fresh process: set up, run the closed loop, check.

Usage: python perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only] [--tiny]

``run.py`` starts this and reads the JSON object on its last stdout line.
One client sends the next op when the previous one returns.  The loop runs
whole passes over the item pool, each in a seeded order, until SECONDS
have passed, so every run holds the same mix.
Outputs are checked after the timed phase.  With TRACE=1 each untraced
pass is followed by a traced pass of the same order, and the result holds
per-pass layer numbers instead.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def load(name: str, seed: int):
    if name == "cli":
        import cliwork
        return cliwork.Cli(seed)
    import engine
    return engine.WORKLOADS[name](seed)


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_op(wl, item, outcomes):
    try:
        result, error = wl.op(item), None
    except Exception as exc:  # a failed op is counted, the loop goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    outcomes.append((item, result, error))


def timed_pass(wl, order, outcomes, latencies):
    for item in order:
        t0 = time.perf_counter()
        run_op(wl, item, outcomes)
        latencies.append(time.perf_counter() - t0)


def traced_pass(wl, order, outcomes, tracer):
    wl.trace_begin(tracer)
    try:
        for item in order:
            idx = tracer.begin("op")
            try:
                run_op(wl, item, outcomes)
            finally:
                tracer.end(idx)
    finally:
        wl.trace_end(tracer)


def count_failures(wl, outcomes):
    failed = 0
    messages = []
    for item, result, error in outcomes:
        problems = [error] if error is not None else wl.check(item, result)
        if problems:
            failed += 1
            messages.append(f"{item.label}: {'; '.join(problems)}")
    return failed, messages


def peak_rss_mb(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_report(tracer, pass_bounds, counts, untraced_s, traced_s, n_ops):
    """Per-pass layer numbers: counts from the first traced pass (they must
    repeat exactly), times averaged over the traced passes."""
    from tracer import LAYER_METRICS, NAMED

    passes = len(pass_bounds)
    _, self_s, root_s = tracer.layer_stats()
    first_calls, _, _ = tracer.layer_stats(*pass_bounds[0])
    layers = {}
    for metric, _unit, kind, key in LAYER_METRICS:
        if kind == "calls":
            layers[metric] = first_calls[key]
        elif kind == "self":
            layers[metric] = self_s[key] / passes
        elif kind == "count":
            layers[metric] = counts[key]
        elif kind == "ratio":
            num, den = key
            layers[metric] = counts[num] / counts[den] if counts[den] else 0.0
    layers["trace.named_share"] = sum(self_s[k] for k in NAMED) / root_s
    layers["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s) / n_ops
    shares = sorted(((v / root_s, k) for k, v in self_s.items() if k != "op"), reverse=True)
    return layers, [[k, round(s, 4)] for s, k in shares[:8]], self_s["op"] / root_s


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    wl = load(name, seed)
    if "--tiny" in argv:
        kinds = {}
        for item in wl.items:
            kinds.setdefault(item.kind, item)
        wl.items = list(kinds.values())
    wl.warm_up()
    t_ready = time.perf_counter()
    if "--setup-only" in argv:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    rnd = random.Random(seed)
    order = list(wl.items)
    outcomes: list = []
    latencies: list = []
    tracer = None
    pass_bounds = []
    first_counts = Counter()
    if trace:
        from tracer import Tracer
        OUT_DIR.mkdir(exist_ok=True)
        tracer = Tracer()
    deadline = t_ready + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        rnd.shuffle(order)
        timed_pass(wl, order, outcomes, latencies)
        if tracer is not None:
            first = len(tracer.spans)
            before = Counter(tracer.counts)
            traced_pass(wl, order, outcomes, tracer)
            pass_bounds.append((first, len(tracer.spans)))
            if passes == 0:
                first_counts = tracer.counts - before
        passes += 1
    elapsed = time.perf_counter() - t_ready

    failed, messages = count_failures(wl, outcomes)
    for line in messages[:5]:
        print(f"{name}: failed op {line}", file=sys.stderr)
    lat = sorted(latencies)
    out = {
        "t_ready": t_ready,
        "attempted": len(outcomes),
        "failed": failed,
        "passes": passes,
        "pool": len(wl.items),
        "samples": len(lat),
        "ops_per_s": len(lat) / elapsed,
        "latency_p50_ms": 1e3 * percentile(lat, 0.5),
        "latency_p90_ms": 1e3 * percentile(lat, 0.9),
        "beyond_p90": sum(1 for v in lat if v > percentile(lat, 0.9)),
        "peak_rss_mb": peak_rss_mb(wl.rss_scope),
    }
    if tracer is not None:
        roots = [s for s in tracer.spans if s[0] == "op" and s[3] < 0]
        traced_s = sum(end - start for _, start, end, _ in roots)
        layers, top, unnamed = layer_report(tracer, pass_bounds, first_counts,
                                            sum(latencies), traced_s, len(roots))
        out.update(layers=layers, top_self_shares=top, op_glue_share=unnamed)
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.spans,
                                          "counts": first_counts}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
