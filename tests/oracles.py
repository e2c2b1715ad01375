"""Verification-only constructions, kept as test oracles.

``project`` builds the projection of a set (its one-step conditional kernels
fixed between two dates, everything else free) vertex by vertex; it is the
independent route to the financial and intermediate parts ``qf`` / ``qi``
and to the acceptance criterion that ``dual_cone_member`` states as an LP.
``acceptance_lp`` is the feasibility LP of the acceptance split, the oracle
of ``decompose_acceptance``.
``atom_masses`` lays out vertex masses per atom pair for those LPs.
``node_kernel`` is the conditional kernel of one measure, the oracle of
``kernel_polytope``'s perspective identity, and ``kernel_rows`` the charged
vertices' kernels by the per-child formula, the oracle of its rows before
reduction.  ``int_band_constraints`` is the intermediate part
of the worked 2x2 market as inequalities.  ``qhull_facets`` takes every
facet from qhull, the oracle of ``_facets``' closed forms for polygons and
simplices.  ``hull_nnls`` is scipy's NNLS fit of a point by a convex
combination of points, the oracle of ``riskset._hull_nnls``.
``check_fi_by_parts`` is the decomposition check by way of both parts, the
oracle of ``check_fi``, which pastes only the hull.  ``one_period_premium``
is the former horizon-1 two-stage premium, the oracle of ``product_reserve``
at horizon 1.  ``supermartingale_terms`` lists each vertex's one-step
conditional expectation of the price process by ``condexp`` per vertex and a
mass test per atom, and ``check_supermartingale_by_vertices`` is that nested
loop's verdict, the oracle of ``check_supermartingale``, which reads the
set's atom blocks.  ``dedup_pairwise`` is the former blocked all-pairs
greedy dedup, the oracle of ``_dedup_rows``' projection screen; the oracles
here and in ``test_kernel_oracles`` dedup with it, so none shares the kernel
it checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull

from riskchain import (
    EngineError,
    InfeasibleError,
    OutOfRangeError,
    RiskSet,
    SchemaError,
    ScenarioModel,
    SizeBoundError,
    condexp,
    is_mstable,
    kernel_polytope,
    lift_financial,
    mstable_hull,
    qf,
    qi,
    rho,
    set_equal,
)
from riskchain.config import DEDUP_TOL, WORK_BOUND
from riskchain.consistency import CheckReport
from riskchain.riskset import (
    _FACET_TOL,
    _affine_rank,
)
from riskchain.scenario import Claim


# elements per block of the row-blocked near test
_BLOCK = 1 << 16


def dedup_pairwise(rows: np.ndarray, tol: float) -> np.ndarray:
    """Greedy max-norm dedup in row order.

    A row is kept iff its max-norm distance to every earlier *kept* row is
    more than ``tol``: of a chain of near-duplicates the first row survives,
    and a row near only to dropped rows survives too.  The near pairs come
    from row blocks of the lower-triangular distance test, one column at a
    time, so no k x k x d array is built; only rows with an earlier near row
    take part in the sequential greedy pass.
    """
    k = len(rows)
    if k <= 1:
        return rows.copy()
    keep = np.ones(k, dtype=bool)
    step = max(1, _BLOCK // k)
    for s in range(0, k, step):
        e = min(s + step, k)
        # near[i, j]: row s+i is within tol of the earlier row j
        near = np.arange(e) < np.arange(s, e)[:, None]
        for col in rows.T:
            near &= np.abs(col[s:e, None] - col[:e]) <= tol
        for i in np.flatnonzero(near.any(axis=1)):
            keep[s + i] = not (near[i] & keep[:e]).any()
    return rows[keep]


def atom_masses(model: ScenarioModel, V: np.ndarray, s, t) -> np.ndarray:
    """Mass of each vertex on each stage-``t`` atom inside each stage-``s`` atom.

    One row per (stage-``s`` atom, vertex), atom outer; one column per
    stage-``t`` atom.  Row ``(A, v)`` holds ``sum_{w in A, w in B} v[w]`` in
    column ``B``, accumulated over outcomes in index order.
    """
    V = np.asarray(V, dtype=float)
    k = len(V)
    rows = model.atom_ids(s)[:, None] * k + np.arange(k)
    cols = np.broadcast_to(model.atom_ids(t)[:, None], rows.shape)
    out = np.zeros((len(model.atoms(s)) * k, len(model.atoms(t))))
    np.add.at(out, (rows, cols), V.T)
    return out


def project(rs: RiskSet, s, t) -> RiskSet:
    """All measures whose (s -> t) conditional kernels the set already allows.

    Extreme points concentrate on one stage-``s`` atom, follow one extreme
    kernel there, and continue as point masses inside each stage-``t`` atom;
    the marginal across atoms and the continuation beyond ``t`` are free.
    """
    model = rs.model
    st_s, st_t = model.stage(s), model.stage(t)
    if st_t.index <= st_s.index:
        raise OutOfRangeError("projection needs s < t")
    rows = []
    for bi in range(len(model.atoms(st_s))):
        child_atoms = [model.atoms(st_t)[c] for c in model.sub_atoms(st_s, st_t, bi)]
        for probs in kernel_polytope(rs, st_s, st_t, bi):
            charged = [i for i, p in enumerate(probs) if p > 0]
            count = 1
            for i in charged:
                count *= len(child_atoms[i])
            if count + len(rows) > WORK_BOUND:
                raise SizeBoundError(
                    f"projection vertex count exceeds the bound of {WORK_BOUND}",
                    bound=WORK_BOUND, reached=count + len(rows),
                    layer="consistency.project")
            for combo in itertools.product(*(child_atoms[i] for i in charged)):
                mu = np.zeros(model.n)
                for i, outcome in zip(charged, combo):
                    mu[outcome] = probs[i]
                rows.append(mu)
    return RiskSet._of_extreme(model, dedup_pairwise(np.array(rows), DEDUP_TOL))


def dual_cone_member(rs: RiskSet, claim: Claim, s, t) -> bool:
    """Feasibility of ``X = Y + Z`` with ``Y`` stage-``t`` measurable, every
    vertex expectation of ``Y`` nonpositive on every stage-``s`` atom, and
    ``Z <= 0`` (the dual-cone description of the projection's acceptance)."""
    model = rs.model
    atoms_t = model.atoms(t)
    x = np.asarray(claim.values, dtype=float)
    n_var = len(atoms_t)
    # Y_A >= X on the atom (Z = X - Y <= 0), then the vertex expectations
    masses = atom_masses(model, rs.vertices, s, t)
    A_ub = np.vstack([np.diag(np.full(n_var, -1.0)), masses])
    b_ub = np.concatenate([[-float(x[list(atom)].max()) for atom in atoms_t],
                           np.zeros(len(masses))])
    res = linprog(np.zeros(n_var), A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * n_var, method="highs")
    if res.status == 2:
        return False
    if res.status != 0:
        raise EngineError(f"dual cone LP failed with status {res.status}")
    return True


def acceptance_lp(rs: RiskSet, claim: Claim) -> list[Claim]:
    """The acceptance split as a feasibility LP: one increment per adjacent
    stage pair, measurable at the later stage, with every vertex expectation
    nonpositive on every earlier-stage atom (which linearizes the vertex-max
    price exactly).  Raises INFEASIBLE when no split exists."""
    model = rs.model
    x = np.asarray(claim.values, dtype=float)
    V = rs.vertices
    n_stages = len(model.stages)
    if n_stages < 2:
        raise SchemaError("need at least two stages to decompose")

    # increment s has one variable per stage-(s+1) atom, in block s
    steps = range(n_stages - 1)
    ids = [model.atom_ids(s + 1) for s in steps]
    sizes = [len(model.atoms(s + 1)) for s in steps]
    offsets = np.cumsum([0] + sizes)
    n_var = int(offsets[-1])

    # sum of increments reproduces the claim outcome by outcome
    A_eq = np.hstack([np.eye(k)[i] for k, i in zip(sizes, ids)])

    # every vertex expectation of increment s is nonpositive on every stage-s atom
    blocks = [atom_masses(model, V, s, s + 1) for s in steps]
    A_ub = np.zeros((sum(len(b) for b in blocks), n_var))
    r = 0
    for s, b in enumerate(blocks):
        A_ub[r:r + len(b), offsets[s]:offsets[s + 1]] = b
        r += len(b)

    res = linprog(np.zeros(n_var), A_ub=A_ub, b_ub=np.zeros(len(A_ub)), A_eq=A_eq,
                  b_eq=x, bounds=[(None, None)] * n_var, method="highs")
    if res.status == 2:
        raise InfeasibleError("claim admits no acceptance decomposition")
    if res.status != 0:
        raise EngineError(f"decomposition LP failed with status {res.status}")
    return [Claim(res.x[offsets[s] + ids[s]], s + 1) for s in steps]


def node_kernel(model: ScenarioModel, q, s, t, atom_id: int) -> np.ndarray:
    """Conditional distribution of ``q`` on a stage-``s`` atom over its
    stage-``t`` sub-atoms, in ``model.sub_atoms`` order; the reference kernel
    on atoms of zero mass."""
    st_s, st_t = model.stage(s), model.stage(t)
    if st_t.index <= st_s.index:
        raise OutOfRangeError("kernel target stage must come after the source stage")
    atoms_s = model.atoms(st_s)
    if not 0 <= atom_id < len(atoms_s):
        raise OutOfRangeError(f"atom id {atom_id} out of range at stage {st_s.label}")
    children = model.sub_atoms(st_s, st_t, atom_id)
    w = np.asarray(q, dtype=float)
    idx = list(atoms_s[atom_id])
    src = w if w[idx].sum() > 0 else model.reference
    total = src[idx].sum()
    atoms_t = model.atoms(st_t)
    return np.array([src[list(atoms_t[c])].sum() for c in children]) / total


def kernel_rows(rs: RiskSet, s, t, atom_id: int) -> np.ndarray:
    """The kernels of the vertices that charge a stage-``s`` atom, one row
    each, before any reduction: per stage-``t`` child ``ci``, the vertices'
    mass on it over their mass on the atom."""
    model = rs.model
    idx = list(model.atoms(s)[atom_id])
    child_idx = [list(model.atoms(t)[c]) for c in model.sub_atoms(s, t, atom_id)]
    V = rs.vertices
    masses = V[:, idx].sum(axis=1)
    charged = masses > 0
    rows = np.stack([V[charged][:, ci].sum(axis=1) for ci in child_idx], axis=1)
    return rows / masses[charged][:, None]


def int_band_constraints(epsilon: float, model: ScenarioModel) -> RiskSet:
    """The same intermediate part as inequalities ``q_top <= d q_bottom`` and
    ``q_bottom <= d q_top`` per column, with ``d = (1+eps)/(1-eps)``."""
    d = (1.0 + epsilon) / (1.0 - epsilon)
    rows = []
    for top, bottom in ([0, 2], [1, 3]):
        for hi, lo in ((top, bottom), (bottom, top)):
            row = np.zeros(5)
            row[hi], row[lo] = 1.0, -d
            rows.append(row)
    return RiskSet.from_constraints(model, rows)


def qhull_facets(verts: np.ndarray) -> np.ndarray:
    """Rows ``[a | b]`` of ``a . q <= b`` describing the hull of ``verts``, a
    set of affine rank 2 or more: the complement of the affine hull as
    equality pairs, then qhull's facets in the affine hull's coordinates,
    mapped back and deduplicated."""
    v0 = verts[0]
    diffs = verts - v0
    _, svals, vt = np.linalg.svd(diffs, full_matrices=True)
    rank = _affine_rank(svals)
    basis = vt[:rank]
    eqs = ConvexHull(diffs @ basis.T).equations
    A = eqs[:, :-1] @ basis
    b = -eqs[:, -1] + A @ v0
    pairs = [row for w in vt[rank:] for row in (np.r_[w, w @ v0], -np.r_[w, w @ v0])]
    return np.vstack(pairs + [dedup_pairwise(np.column_stack([A, b]), _FACET_TOL)])


def hull_nnls(points: np.ndarray, x: np.ndarray) -> float:
    """The residual norm of scipy's NNLS fit of ``[x; 1]`` by
    ``[points^T; 1]``."""
    A = np.vstack([points.T, np.ones(len(points))])
    return float(nnls(A, np.append(x, 1.0))[1])


def check_fi_by_parts(rs: RiskSet, mm) -> dict:
    """``check_fi`` by way of both parts: paste ``qf`` and ``qi``, which
    refuses a set that leaves an atom of a non-final stage uncharged (the
    first one met depth-first, in ``qf`` and then in ``qi``), read their
    verdicts, then compare the set with its hull."""
    qf_set, qi_set = qf(rs, mm), qi(rs, mm)
    eq = set_equal(rs, mstable_hull(rs))
    mst = is_mstable(rs)
    return {"mstable": mst, "equals_intersection": eq, "parts_agree": eq == mst,
            "qf_mstable": is_mstable(qf_set), "qi_mstable": is_mstable(qi_set)}


@dataclass(frozen=True)
class OnePeriodPremium:
    premium: float
    fin_values: np.ndarray        # worst-case value per financial outcome
    fin_increment: Claim          # hedgeable part, financial-only payoff
    int_increment: Claim          # residual part


def one_period_premium(p_fin: RiskSet, p_int: RiskSet, h: Claim, pm) -> OnePeriodPremium:
    """Two-stage premium of a one-period product claim.

    First the intermediate pricing is applied per financial outcome, turning
    the claim into a purely financial one; then the financial pricing prices
    that.  The hedgeable increment is the financial values less the premium,
    the residual one the claim less the financial values.
    """
    if pm.market.horizon != 1:
        raise SchemaError("one-period premium needs a horizon-1 product model")
    v = np.asarray(h.values, dtype=float)
    # one intermediate claim per financial outcome, one per row
    fin_vals = rho(p_int, Claim(pm.grid(v).T), 0).values[:, 0].copy()
    premium = float(rho(p_fin, Claim(fin_vals), 0).values[0])

    uf = Claim(lift_financial(pm, fin_vals - premium), pm.market.half(0).index)
    ui = Claim(v - lift_financial(pm, fin_vals), pm.model.final_stage.index)
    return OnePeriodPremium(premium, fin_vals, uf, ui)


def supermartingale_terms(rs: RiskSet, claim: Claim):
    """``(stage, vertex, atom, ce, cap)`` for every vertex and every atom of a
    stage before the last that the vertex charges, in stage, vertex, then
    atom order: ``ce`` is the vertex's conditional expectation on the atom of
    the next stage's price (``condexp``), ``cap`` the stage's own price."""
    model = rs.model
    prices = [rho(rs, claim, s).values for s in range(len(model.stages))]
    for s in range(len(model.stages) - 1):
        for vi, v in enumerate(rs.vertices):
            ce = condexp(v, prices[s + 1], s, model).values
            for a, atom in enumerate(model.atoms(s)):
                idx = list(atom)
                if v[idx].sum() > 0:
                    yield s, vi, a, ce[idx[0]], prices[s][idx[0]]


def check_supermartingale_by_vertices(rs: RiskSet, claim: Claim) -> CheckReport:
    """The supermartingale test as a nested vertex-by-atom loop: the first
    term whose ``ce`` exceeds ``cap`` by more than the band at the claim's
    scale is the witness."""
    model = rs.model
    band = model.config.tol_at(claim.values)
    for s, vi, a, ce, cap in supermartingale_terms(rs, claim):
        if ce > cap + band:
            return CheckReport(False, witness={
                "vertex_index": vi, "stage": model.stages[s].label,
                "atom": model.atom_label(s, a), "excess": float(ce - cap)})
    return CheckReport(True)
