# Time-consistency: a set prices consistently over time exactly when
# per-node recombination of its kernels adds nothing (the pasting hull is
# the set itself).  A two-vertex counterexample shows everything that
# breaks: a strictly larger hull, a witness claim whose backward price
# exceeds its one-shot price, a failed supermartingale property and an
# acceptable claim with no per-period decomposition.

import numpy as np

from riskchain import (
    Claim,
    InfeasibleError,
    RiskSet,
    ScenarioModel,
    check_supermartingale,
    consistency_report,
    decompose_acceptance,
    is_acceptable,
    is_mstable,
    mstable_hull,
    rho,
)
from riskchain.twobytwo import market_model, pricing_set

# the worked market is consistent
worked = pricing_set(market_model().model, 0.2)
print("worked set pasting-stable:", is_mstable(worked))

# a two-vertex set on a three-stage tree is not
model = ScenarioModel(
    ["a", "b", "c", "d"], ["0", "1", "2"],
    [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
    [0.25] * 4)
rs = RiskSet.from_vertices(model, [[0.4, 0.1, 0.4, 0.1],
                                   [0.1, 0.4, 0.1, 0.4]])
hull = mstable_hull(rs)
print("set vertices:", len(rs.vertices), "hull vertices:", len(hull.vertices))
print("hull adds the cross recombination (0.4, 0.1, 0.1, 0.4)")

rng = np.random.default_rng(0)
sample = [Claim(rng.uniform(-1, 1, 4)) for _ in range(50)]
report = consistency_report(rs, sample)
print("strong consistency:", report.strong,
      "| analytic:", report.mstable, "| sampled:", report.sampled)
print("witness claim:", np.round(report.witness.values, 4),
      "gap:", round(report.witness_gap, 6))

w = report.witness
print("supermartingale at witness:", check_supermartingale(rs, w).passed)
print("supermartingale on the hull:", check_supermartingale(hull, w).passed)

# the witness funds itself at its quoted price yet cannot be hedged
funded = Claim(w.values - float(rho(rs, w, 0).values[0]))
print("funded witness acceptable:", is_acceptable(rs, funded))
try:
    decompose_acceptance(rs, funded)
    print("decomposed (unexpected)")
except InfeasibleError:
    print("no per-period decomposition exists, as the theory predicts")
