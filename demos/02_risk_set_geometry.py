# Risk sets are polytopes of probability measures, given as vertices or
# as linear inequalities over the weights; the other representation is
# derived on demand.  The worked pricing set
# caps every density at 1 + eps and pins the financial column sums, which
# leaves exactly four extreme points.

import numpy as np

from riskchain import (
    density,
    kernel_polytope,
    maximize_ratio,
    member,
)
from riskchain.twobytwo import extreme_points, market_model, pricing_set

eps = 0.2
model = market_model().model
rs = pricing_set(model, eps)

print("H-representation rows:", len(rs.constraints))
verts = rs.vertices
print("enumerated vertices:")
print(verts)
print("closed-form extreme points:")
print(extreme_points(eps))

# membership at tolerance works from either representation
print("uniform measure in the set:", member(rs, np.full(4, 0.25)))
print("capped density violation:  ", member(rs, np.array([1.5, 1, 0.5, 1]) / 4))

# densities: the half-step restriction of every member is identically one
lam, lam_half = density(model, verts[0], "0+")
print("density of a vertex:", lam, "restricted:", lam_half)

# one-step kernels of the whole set at one node, reduced to extreme points
for k in kernel_polytope(rs, "0+", "1", 0):
    print("kernel vertex on the f column:", k)

# the pricing primitive: worst-case conditional expectation on an atom
payoff = np.array([1.0, 0.0, 0.0, 0.0])
print("worst-case price of 1_(i,f) given f:",
      maximize_ratio(rs, payoff, (0, 2)))
print("selling it instead:", maximize_ratio(rs, -payoff, (0, 2)))
