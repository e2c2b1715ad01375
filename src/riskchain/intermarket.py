"""Financial / intermediate market decomposition and product-space pricing.

Half-step stages refine each period by the next financial information
(``G_{t+} = G_t v F_{t+1}``); only ``build_refined`` inserts them.  The
financial part of a pricing set fixes its (t -> t+) kernels, the intermediate
part its (t+ -> t+1) kernels (``_step_sources``); reserve plans split
accordingly into hedgeable and residual increments.  On product spaces, a
financial pricing set extends by independence and combines with any
intermediate set into a time-consistent global pricing mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consistency import _analytic, _part, is_mstable, mstable_hull, paste_assembly
from .errors import NotCoarserError, SchemaError
from .risk import AdaptedProcess, Chain, ReservePlan, _finite_claim, _plan, reserve_plan, rho
from .riskset import RiskSet, _check_same_model, set_equal
from .scenario import (Claim, ScenarioModel, _canonical_atoms, atom_index,
                       crossing_atom, parse_stage_label)


def _whole_times(model: ScenarioModel) -> int:
    """Horizon of a plain model; rejects grids with half-steps or gaps."""
    times = [st.time for st in model.stages]
    if any(st.half for st in model.stages) or times != list(range(len(times))):
        raise SchemaError("expected a plain grid 0,1,...,T without half-steps")
    return times[-1]


def _common_refinement(p1, p2, n: int) -> list[list[int]]:
    ids1, ids2 = atom_index(p1, n), atom_index(p2, n)
    cells: dict[tuple[int, int], list[int]] = {}
    for w in range(n):
        cells.setdefault((int(ids1[w]), int(ids2[w])), []).append(w)
    return list(cells.values())


@dataclass(frozen=True)
class MarketModel:
    """Refined model with grid ``0, 0+, 1, ..., T``, whose half-step
    ``t+`` carries ``G_t v F_{t+1}``."""

    model: ScenarioModel

    @property
    def horizon(self) -> int:
        return self.model.final_stage.time

    def whole(self, t: int):
        return self.model.stage(str(t))

    def half(self, t: int):
        return self.model.stage(f"{t}+")


def build_refined(model: ScenarioModel, financial_partitions) -> MarketModel:
    """Insert half-step stages carrying ``G_t v F_{t+1}``.

    ``financial_partitions`` maps whole times (1..T; 0 optional and trivial)
    to partitions coarser than the model's own at the same time.  A key is
    read as a stage label, whose time it names; two keys naming one time,
    or a time past ``T``, are refused.
    """
    T = _whole_times(model)
    n = model.n
    fins: list[list[tuple[int, ...]]] = []
    by_time = {}
    for key, part in dict(financial_partitions).items():
        t = parse_stage_label(key)[0]
        if t in by_time:
            raise SchemaError(f"financial partitions name time {t} twice", time=t)
        if t > T:
            raise SchemaError(f"financial partition for time {t} lies past the "
                              f"horizon {T}", time=t)
        by_time[t] = part
    for t in range(T + 1):
        if t == 0:
            part = by_time.get(0, [tuple(range(n))])
        elif t in by_time:
            part = by_time[t]
        else:
            raise SchemaError(f"missing financial partition for time {t}")
        try:
            part = _canonical_atoms(part, n)
        except SchemaError as exc:
            raise SchemaError(f"financial partition at time {t}: {exc}", time=t) from exc
        if crossing_atom(model.atom_ids(str(t)), atom_index(part, n)) is not None:
            raise NotCoarserError(
                f"financial partition at time {t} is not coarser than the model's",
                time=t)
        if t == 0 and len(part) != 1:
            raise NotCoarserError("financial partition at time 0 must be trivial", time=0)
        fins.append(part)

    grid = []
    partitions = []
    for t in range(T + 1):
        grid.append(str(t))
        partitions.append(model.atoms(str(t)))
        if t < T:
            grid.append(f"{t}+")
            partitions.append(_common_refinement(model.atoms(str(t)), fins[t + 1], n))
    return MarketModel(ScenarioModel(model.outcomes, grid, partitions, model.reference,
                                     config=model.config))


def _step_sources(mm: MarketModel, fin_src, int_src):
    """One kernel source per adjacent pair of the refined grid: ``int_src`` on
    the (t+ -> t+1) steps, ``fin_src`` on the (t -> t+) ones; ``None`` leaves
    a step free."""
    return [int_src if st.half else fin_src for st in mm.model.stages[:-1]]


def qf(rs: RiskSet, mm: MarketModel) -> RiskSet:
    """Financial part: all measures whose (t -> t+) kernels the set allows.

    Equals the intersection of the per-period projections; assembled directly
    from the set's financial-step kernels with free intermediate steps.  A
    pasted set, so m-stable and its kernels known; kept on ``rs`` per
    refined model.  A set on another model is a SCHEMA error.
    """
    _check_same_model(rs.model, mm.model)
    return _part(rs, "qf", mm.model,
                 lambda: paste_assembly(mm.model, _step_sources(mm, rs, None)))


def qi(rs: RiskSet, mm: MarketModel) -> RiskSet:
    """Intermediate part: all measures whose (t+ -> t+1) kernels the set
    allows; pasted and kept on ``rs`` as ``qf`` is."""
    _check_same_model(rs.model, mm.model)
    return _part(rs, "qi", mm.model,
                 lambda: paste_assembly(mm.model, _step_sources(mm, None, rs)))


@dataclass(frozen=True, slots=True)
class FiReport:
    """Decomposition diagnostics for a pricing set on a refined model.

    ``equals_intersection`` is ``rs == mstable_hull(rs)``: the hull pastes
    the set's kernels on every step of the refined grid, so it is
    ``qf(rs) ∩ qi(rs)`` by rectangularity.  ``mstable`` is the verdict of
    ``is_mstable``, reached by another route where the set has rows.  That
    each part is m-stable, and that each part's complementary part is the
    whole simplex, holds for every set by construction (pasting), so the
    tests check it.
    """

    mstable: bool
    equals_intersection: bool
    parts_agree: bool          # the two verdicts above match, as they must


def check_fi(rs: RiskSet, mm: MarketModel) -> FiReport:
    """The paper's decomposition check: the set is m-stable iff it equals the
    intersection of its financial and intermediate parts.

    The intersection is taken as the set's pasting hull, the only set pasted
    here, so neither part is built; ``intersect(qf(rs), qi(rs))`` is the same
    set.  A verdict that takes the hull route is that same comparison, made
    once.  The parts are undefined where no vertex charges an atom of a
    non-final stage, so such a set is refused before the hull: EMPTY_KERNEL
    names the first such atom in stage order, with ``kernel_polytope``'s
    message and details.  A set on another model is a SCHEMA error.
    """
    _check_same_model(rs.model, mm.model)
    rs._refuse_uncharged(range(rs.model.final_stage.index))
    eq = set_equal(rs, mstable_hull(rs))
    mst = _analytic(rs, eq)[0]
    return FiReport(mstable=mst, equals_intersection=eq, parts_agree=(eq == mst))


def split_reserve(rs: RiskSet, mm: MarketModel, claim: Claim) -> ReservePlan:
    """Reserve schedule split into hedgeable and residual increments.

    ``reserve_plan`` on the refined grid ``0, 0+, 1, 1+, ...``, so the
    increments alternate financial and intermediate (``fin_increments``,
    ``int_increments``).  Each is an η difference, so it prices to zero at
    its own date by cash invariance, time-consistent set or not; the split
    telescopes to the claim.  A set on another model than the market's is a
    SCHEMA error.
    """
    _check_same_model(rs.model, mm.model)
    return reserve_plan(Chain.single(rs), claim)


# -- product spaces -----------------------------------------------------------

@dataclass(frozen=True)
class ProductModel:
    """Rectangle product of a financial and an intermediate factor.

    Product outcomes are ordered intermediate-major: outcome ``(i, f)`` is
    ``i * fin.n + f``.
    """

    fin: ScenarioModel
    inter: ScenarioModel
    market: MarketModel

    @property
    def model(self) -> ScenarioModel:
        return self.market.model

    def grid(self, values) -> np.ndarray:
        """A product vector as an ``(inter.n, fin.n)`` array, row ``i`` column
        ``f`` holding outcome ``(i, f)``."""
        return np.asarray(values, dtype=float).reshape(self.inter.n, self.fin.n)


def product_space(fin: ScenarioModel, inter: ScenarioModel) -> ProductModel:
    """Build the product model with ``G_t = F_t x I_t`` and factorized
    reference; ``build_refined`` adds ``G_{t+} = F_{t+1} x I_t`` from the
    financial partitions ``F_t x {every intermediate outcome}``."""
    T = _whole_times(fin)
    if _whole_times(inter) != T:
        raise SchemaError("factor models must share the horizon")
    outcomes = [f"({io},{fo})" for io in inter.outcomes for fo in fin.outcomes]
    reference = np.outer(inter.reference, fin.reference).ravel()

    def rect(p_fin, p_int):
        return [[i * fin.n + f for i in ai for f in af]
                for ai in p_int for af in p_fin]

    grid = [str(t) for t in range(T + 1)]
    partitions = [rect(fin.atoms(t), inter.atoms(t)) for t in grid]
    model = ScenarioModel(outcomes, grid, partitions, reference, config=fin.config)
    every = [tuple(range(inter.n))]
    market = build_refined(model, {t: rect(fin.atoms(t), every) for t in grid})
    return ProductModel(fin, inter, market)


def extend_pi(pi: RiskSet, pm: ProductModel) -> RiskSet:
    """Extend a financial pricing set by independence: each vertex becomes its
    product with the intermediate reference.  Made once per product model
    object and kept on ``pi``, so ``psi_build`` and ``psi_verify`` share it
    and its parts.  A set on another model than ``pm``'s financial factor is
    a SCHEMA error."""
    _check_same_model(pi.model, pm.fin)
    return _part(pi, "extend", pm.model, lambda: RiskSet.from_vertices(
        pm.model, [np.outer(pm.inter.reference, v).ravel() for v in pi.vertices]))


def psi_build(pi: RiskSet, phi: RiskSet, pm: ProductModel) -> RiskSet:
    """Global pricing set agreeing with ``pi`` financially and ``phi`` on the
    residual risk: the financial part of the extension intersected with the
    intermediate part of ``phi``.  Assembled directly by pasting the
    extension's financial-step kernels with ``phi``'s intermediate-step
    kernels, which is the same set; a pasted set is pasting-stable and has
    those two parts by construction, which ``psi_verify`` reports.  A set on
    another model than the factor's (``pi``) or the product's (``phi``) is a
    SCHEMA error."""
    _check_same_model(phi.model, pm.model)
    hat_pi = extend_pi(pi, pm)
    return paste_assembly(pm.model, _step_sources(pm.market, hat_pi, phi))


def is_purely_financial(pm: ProductModel, claim: Claim) -> bool:
    """Structural test: constant across the intermediate factor per financial
    outcome, at the claim's scale."""
    band = pm.model.config.tol_at(claim.values)
    return bool(np.all(np.ptp(pm.grid(claim.values), axis=0) <= band))


def fin_restriction(pm: ProductModel, claim: Claim) -> Claim:
    """Financial-factor claim of a purely financial product claim."""
    return Claim(pm.grid(claim.values)[0].copy(), pm.fin.final_stage.index)


def lift_financial(pm: ProductModel, values) -> np.ndarray:
    """Lift a financial-factor vector to the product outcome space."""
    return np.tile(np.asarray(values, dtype=float), pm.inter.n)


def psi_verify(pi: RiskSet, phi: RiskSet, pm: ProductModel, q: RiskSet,
               claims: Sequence[Claim]) -> dict:
    """Report the construction identities on sampled claims: the backward
    composition through both parts, and financial agreement when the
    financial pricing is itself time-consistent.  An ``_ok`` flag compares
    each claim at its own scale (``Config.tol_at``); a ``_max_dev`` is raw.
    A claim other than one finite ``(n,)`` vector is a SCHEMA error."""
    n = pm.model.n
    X = Claim(np.array([_finite_claim(x, n) for x in claims]).reshape(-1, n))   # one row per claim
    hat_pi = extend_pi(pi, pm)
    qf_part = qf(hat_pi, pm.market)
    qi_part = qi(phi, pm.market)
    # q's prices at every date, the horizon's being the claims themselves
    prices = [rho(q, X, str(t)).values for t in range(pm.market.horizon + 1)]
    comp_dev = np.zeros(len(X.values))
    for t in range(pm.market.horizon):
        mid = rho(qi_part, Claim(prices[t + 1]), pm.market.half(t))
        lhs = rho(qf_part, mid, str(t)).values
        comp_dev = np.fmax(comp_dev, np.max(np.abs(lhs - prices[t]), axis=1))
    pi_consistent = is_mstable(pi)
    fin = [i for i, x in enumerate(claims) if is_purely_financial(pm, x)]
    fin_dev = np.zeros(len(fin))
    if pi_consistent and fin:
        FX = Claim(np.array([fin_restriction(pm, claims[i]).values for i in fin]))
        for t in range(pm.market.horizon):
            lifted = lift_financial(pm, rho(pi, FX, str(t)).values)
            fin_dev = np.fmax(fin_dev, np.max(np.abs(prices[t][fin] - lifted), axis=1))
    return {
        "qf_recovered": set_equal(qf(q, pm.market), qf_part),
        "qi_recovered": set_equal(qi(q, pm.market), qi_part),
        "mstable": is_mstable(q),
        "composition_max_dev": float(np.max(comp_dev, initial=0.0)),
        "composition_ok": bool(np.all(comp_dev <= pm.model.config.tol_at(X.values))),
        "pi_time_consistent": pi_consistent,
        "financial_agreement_max_dev": float(np.max(fin_dev, initial=0.0)),
        "financial_agreement_ok": bool(np.all(
            fin_dev <= pm.model.config.tol_at(X.values[fin]))),
    }


def product_reserve(p_fin: RiskSet, p_int: RiskSet, claim: Claim,
                    pm: ProductModel) -> ReservePlan:
    """``split_reserve`` on ``psi_build``'s set from ``p_fin`` and ``p_int``
    extended by independence, without building it: backward over the
    periods, ``p_int`` prices the value once per financial outcome, then
    ``p_fin`` that once per intermediate outcome.  Pasting makes the set
    m-stable, so the plan is time-consistent.  A factor set on another model
    than ``pm``'s factor, or a claim not one finite ``(n,)`` vector, is SCHEMA."""
    _check_same_model(p_fin.model, pm.fin)
    _check_same_model(p_int.model, pm.inter)
    mkt = pm.market
    v = pm.grid(_finite_claim(claim, pm.model.n))
    # the η process on the refined grid, latest date first
    claims = [Claim(v.ravel(), mkt.whole(mkt.horizon).index)]
    for t in range(mkt.horizon - 1, -1, -1):
        half = rho(p_int, Claim(v.T), t).values.T
        v = rho(p_fin, Claim(half), t).values
        claims += [Claim(half.ravel(), mkt.half(t).index), Claim(v.ravel(), mkt.whole(t).index)]
    return _plan(AdaptedProcess(tuple(reversed(claims))), True)
