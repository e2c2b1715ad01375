# Pricing on a product space: a complete binary financial market times an
# independent two-state intermediate risk (alive / dead).  Given a financial
# pricing Pi and any intermediate set Phi, pasting Pi's financial kernels
# with Phi's intermediate kernels yields the unique time-consistent global
# pricing with those two parts.  The contract pays one share if the insured
# survives; its premium comes out the same three ways.

import numpy as np

from riskchain import (
    Claim,
    RiskSet,
    ScenarioModel,
    product_reserve,
    product_space,
    psi_build,
    psi_verify,
    rho,
    singleton,
)

fin = ScenarioModel(["f", "f'"], ["0", "1"], [[[0, 1]], [[0], [1]]], [0.5, 0.5])
inter = ScenarioModel(["alive", "dead"], ["0", "1"],
                      [[[0, 1]], [[0], [1]]], [0.5, 0.5])
pm = product_space(fin, inter)
print("product outcomes:", pm.model.outcomes)

# financial pricing: the unique martingale measure of the complete market
pi = singleton(fin, [0.5, 0.5])
# intermediate pricing: a mortality band around the even odds
eps = 0.2
band = RiskSet.from_vertices(
    inter, [[(1 + eps) / 2, (1 - eps) / 2], [(1 - eps) / 2, (1 + eps) / 2]])

# share price S ends at 2 or 0.5; payoff S * 1{alive}, one row per
# intermediate state (outcomes are intermediate-major)
s_values = {0: 2.0, 1: 0.5}
h = Claim(np.array([[s_values[0], s_values[1]], [0.0, 0.0]]).ravel())
print("contract payoff:", h.values)

# route 1: price the mortality risk per financial state, then the market
res = product_reserve(pi, band, h, pm)
print("two-stage premium:", res.premium)
print("  worst-case value per financial state:",
      rho(band, Claim(pm.grid(h.values).T), 0).values[:, 0])
print("  hedgeable part:", res.fin_increments[0].values)
print("  residual part: ", res.int_increments[0].values)

# route 2: build the global pricing set and price in one shot
phi = RiskSet.from_vertices(
    pm.model, [[0.3, 0.3, 0.2, 0.2], [0.2, 0.2, 0.3, 0.3]])  # its qi is the band
q = psi_build(pi, phi, pm)
print("global set vertices:")
print(q.vertices)
print("one-shot premium:", float(rho(q, h, "0").values[0]))

# route 3: brute force over the band's kernels per financial state
kernels = [np.array([(1 + eps) / 2, (1 - eps) / 2]),
           np.array([(1 - eps) / 2, (1 + eps) / 2])]
hf = [max(k @ np.array([s_values[f], 0.0]) for k in kernels) for f in (0, 1)]
print("brute-force premium:", 0.5 * hf[0] + 0.5 * hf[1])

# and the construction identities hold on random claims
rng = np.random.default_rng(1)
claims = [Claim(rng.uniform(-1, 1, 4)) for _ in range(20)]
ver = psi_verify(pi, phi, pm, q, claims)
print("construction verified:", {k: ver[k] for k in
      ("qf_recovered", "qi_recovered", "mstable",
       "composition_ok", "financial_agreement_ok")})
