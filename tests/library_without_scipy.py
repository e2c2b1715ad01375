"""Run the library's membership path and print the scipy modules it loaded.

Usage: python tests/library_without_scipy.py

The runs: ``consistency_report`` on a set with more vertices than outcomes
that is not m-stable, so its verdict compares the set with its pasting hull
and ``find_witness`` fits a hull vertex by NNLS; ``check_supermartingale``
at that witness on the set, where it fails, and on its hull, where it
passes, both on the sets' atom blocks; then ``check_fi`` and
``split_reserve`` on a random refined market, and ``product_reserve`` on a
random horizon-2 product.  The last stdout line is the sorted list of loaded
``scipy`` modules, ``[]`` when none was imported.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from randmodels import random_claim, random_market, random_model, random_riskset

from riskchain import (check_fi, check_supermartingale, consistency_report, mstable_hull,
                       product_reserve, product_space, split_reserve)

rng = np.random.default_rng(3)
model = random_model(rng, n_min=4, n_max=4, stages_min=3, stages_max=3)
rs = random_riskset(rng, model, k_min=6, k_max=6)
report = consistency_report(rs, [random_claim(rng, model) for _ in range(5)])
if len(rs.vertices) <= model.n or report.mstable or report.witness is None:
    sys.exit("the set does not take the hull route to a witness")
if (check_supermartingale(rs, report.witness).passed
        or not check_supermartingale(mstable_hull(rs), report.witness).passed):
    sys.exit("the witness does not fail the supermartingale test on the set alone")

mkt = random_market(rng)
rs = random_riskset(rng, mkt.model)
check_fi(rs, mkt)
split_reserve(rs, mkt, random_claim(rng, mkt.model))

fin, inter = (random_model(rng, n_min=2, n_max=3, stages_min=3, stages_max=3)
              for _ in range(2))
pm = product_space(fin, inter)
product_reserve(random_riskset(rng, fin), random_riskset(rng, inter),
                random_claim(rng, pm.model), pm)

print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
