# Scenario trees: outcomes, a stage grid with a half-step, refining
# partitions and a reference measure.  The bundled worked market has four
# outcomes (two intermediate states times two financial states), and the
# half-step 0+ reveals the financial coordinate first.  A model is checked
# when it is built: its partitions must refine one another from the single
# root atom to the discrete final stage, and its reference must be strictly
# positive and sum to one.

import numpy as np

from riskchain import Claim, ModelError, ScenarioModel, condexp
from riskchain.twobytwo import market_model

model = market_model().model
print("outcomes:", model.outcomes)
print("grid:    ", [s.label for s in model.stages])
for s in model.stages:
    print(f"  atoms at {s.label}:", model.atoms(s))

# revealing the intermediate coordinate at 1, after the financial one at
# 0+, would forget what 0+ revealed: the model is refused
try:
    ScenarioModel(model.outcomes, ["0", "0+", "1", "2"],
                  [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0, 1], [2, 3]],
                   [[0], [1], [2], [3]]], model.reference)
except ModelError as exc:
    print("refused:", exc.code, "-", exc)

# conditional expectation under a tilted measure, atom by atom
tilted = np.array([0.4, 0.1, 0.1, 0.4])
payoff = Claim(np.array([1.0, 2.0, 3.0, 4.0]))
for label in ("0", "0+", "1"):
    values = condexp(tilted, payoff, label, model).values
    print(f"E[X | {label:>2}] =", np.round(values, 6))

# atoms with zero mass fall back to the reference measure, so the
# conditional expectation is always defined
sparse = np.array([0.5, 0.0, 0.5, 0.0])
print("null-atom fallback:", condexp(sparse, payoff, "0+", model).values)
