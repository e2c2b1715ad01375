# Conditional prices, the backward recursion and reserve plans.
# The claim pays +1 on (i,f), -1 on (i',f) and nothing on the f' column;
# its premium is eps/2 and the plan telescopes exactly.

import numpy as np

from riskchain import (
    Chain,
    Claim,
    cone_member,
    decompose_acceptance,
    eta,
    is_acceptable,
    reserve_plan,
    rho,
)
from riskchain.twobytwo import market_model, pricing_set

eps = 0.2
model = market_model().model
rs = pricing_set(model, eps)
x = Claim(np.array([1.0, 0.0, -1.0, 0.0]))

for label in ("1", "0+", "0"):
    print(f"rho at {label:>2}:", np.round(rho(rs, x, label).values, 6))

process = eta(Chain.single(rs), x)
print("eta stages:", [model.stages[c.stage].label for c in process.claims])
print("eta at 0+: ", process.claims[1].values)
print("premium:   ", process.claims[0].values[0])

print("claim acceptable as-is:", is_acceptable(rs, x))
funded = Claim(x.values - process.claims[0].values[0])
print("after charging the premium:", is_acceptable(rs, funded))

plan = reserve_plan(Chain.single(rs), x)
print("reserve plan premium:", plan.premium,
      "time-consistent:", plan.time_consistent)
for inc in plan.increments:
    s = inc.stage - 1
    label = model.stages[s].label
    print(f"  increment at {label:>2}:", inc.values,
          "in cone:", cone_member(rs, inc, s, inc.stage))
print("telescopes to the claim:",
      np.allclose(plan.total(model), x.values, atol=1e-12))

# the funded claim also splits into per-period acceptable pieces: the eta
# differences, with the first piece absorbing the (nonpositive) premium; the
# printed "LP" label is kept so that the output bytes stay as they were
parts = decompose_acceptance(rs, funded)
for i, p in enumerate(parts):
    print(f"LP increment {i}:", np.round(p.values, 6))
