"""Bundled worked market: two financial states times two intermediate states.

One period, a complete binary financial market with pinned column marginals,
and a tail-cap pricing set over the intermediate factor controlled by a
spread parameter ``epsilon``.  Everything here has a closed form, which makes
the module the golden fixture for the engine: the extreme points, both
decomposition parts, the half-step prices and the time-0 price can each be
written down directly and diffed against engine output.

Outcome order is intermediate-major: ``(i,f), (i,f'), (i',f), (i',f')``.
The grid ``0, 0+, 1`` is the one ``intermarket.build_refined`` makes from the
whole-time model and the financial partition ``{f, f'}``.
"""

from __future__ import annotations

import numpy as np

from .intermarket import MarketModel, build_refined
from .riskset import RiskSet
from .scenario import ScenarioModel

OUTCOMES = ["if", "if'", "i'f", "i'f'"]
COLUMNS = {"f": [0, 2], "f'": [1, 3]}


def market_model() -> MarketModel:
    """The one-period market with the financial partition made explicit;
    ``build_refined`` inserts the half-step."""
    base = ScenarioModel(
        outcomes=OUTCOMES,
        grid=["0", "1"],
        partitions=[[[0, 1, 2, 3]], [[0], [1], [2], [3]]],
        reference=[0.25, 0.25, 0.25, 0.25],
    )
    return build_refined(base, {1: [[0, 2], [1, 3]]})


def pricing_constraints(epsilon: float) -> np.ndarray:
    """H-representation rows ``[a | b]`` of ``a . q <= b``: weight caps at
    (1+eps)/4, then each column sum pinned to one half by a pair of rows."""
    cap = (1.0 + epsilon) / 4.0
    rows = [np.r_[np.eye(4)[k], cap] for k in range(4)]
    for col in COLUMNS.values():
        a = np.zeros(4)
        a[col] = 1.0
        rows += [np.r_[a, 0.5], np.r_[-a, -0.5]]
    return np.array(rows)


def pricing_set(model: ScenarioModel, epsilon: float) -> RiskSet:
    return RiskSet.from_constraints(model, pricing_constraints(epsilon))


def extreme_points(epsilon: float) -> np.ndarray:
    """The four extreme points, indexed by signs (a, b) on the two columns."""
    rows = []
    for a in (1, -1):
        for b in (1, -1):
            rows.append([(1 + a * epsilon) / 4, (1 + b * epsilon) / 4,
                         (1 - a * epsilon) / 4, (1 - b * epsilon) / 4])
    return np.array(rows)


def fin_part_vertices() -> np.ndarray:
    """Financial part: every measure with both column sums one half."""
    return np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.5],
    ])


def int_part_vertices(epsilon: float) -> np.ndarray:
    """Intermediate part: per-column likelihood-ratio band, concentrated
    vertices at the extreme ratios."""
    hi = (1.0 + epsilon) / 2.0
    lo = (1.0 - epsilon) / 2.0
    return np.array([
        [hi, 0.0, lo, 0.0],
        [lo, 0.0, hi, 0.0],
        [0.0, hi, 0.0, lo],
        [0.0, lo, 0.0, hi],
    ])


def half_step_price(values, epsilon: float) -> np.ndarray:
    """Closed-form half-step price, one value per financial column, for one
    claim ``(4,)`` or a stack ``(m, 4)``.

    On a column with payoffs (x_top, x_bottom) the reachable kernels form the
    band [(1-eps)/2, (1+eps)/2] on the top state, so the worst case is the
    midpoint plus half the spread times the payoff gap.
    """
    v = np.asarray(values, dtype=float)
    top, bottom = v[..., :2], v[..., 2:]      # columns f and f', by the outcome order
    return 0.5 * (top + bottom + epsilon * np.abs(top - bottom))


def indicator_price(x, epsilon: float):
    """Half-step price of ``x`` paid on a single outcome of its column."""
    return 0.5 * (x + epsilon * np.abs(x))


def time0_price(values, epsilon: float):
    """Time-0 price: plain expectation of the half-step price (the column
    marginals are pinned, so nothing is left to maximize)."""
    half = half_step_price(values, epsilon)
    return 0.5 * half[..., 0] + 0.5 * half[..., 1]
