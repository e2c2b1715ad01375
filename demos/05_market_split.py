# The financial / intermediate decomposition.  Half-steps refine each
# period by the next financial information; the financial part of the
# pricing set fixes its (t -> t+) kernels and the intermediate part its
# (t+ -> t+1) kernels.  Their intersection recovers the set exactly when
# it is time-consistent, and reserve plans split into a hedgeable and a
# residual stream.

import numpy as np

from riskchain import (Claim, check_fi, is_mstable, qf, qi, set_equal, simplex_set,
                       split_reserve)
from riskchain.riskset import RiskSet
from riskchain.twobytwo import market_model, pricing_constraints

eps = 0.2
mm = market_model()
rs = RiskSet.from_constraints(mm.model, pricing_constraints(eps))
print("refined grid:", [s.label for s in mm.model.stages])

qf_set = qf(rs, mm)
print("financial part (pinned column sums):")
print(qf_set.vertices)
qi_set = qi(rs, mm)
print("intermediate part (likelihood-ratio band, delta =",
      (1 + eps) / (1 - eps), "):")
print(qi_set.vertices)

report = check_fi(rs, mm)
print("set = financial part ∩ intermediate part:", report.equals_intersection)
print("pasting-stable:", report.mstable, "| verdicts agree:", report.parts_agree)
print("parts are stable themselves:", is_mstable(qf_set), is_mstable(qi_set))
full = simplex_set(mm.model)
print("each part densifies the other to the whole simplex:",
      set_equal(qi(qf_set, mm), full), set_equal(qf(qi_set, mm), full))

x = Claim(np.array([1.0, 0.0, -1.0, 0.0]))
plan = split_reserve(rs, mm, x)
print("premium:", plan.premium)
print("hedgeable increment u^F_0:", plan.fin_increments[0].values)
print("residual  increment u^I_0:", plan.int_increments[0].values)
print("telescopes:", np.allclose(plan.total(mm.model), x.values, atol=1e-12))
