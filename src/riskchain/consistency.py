"""Projections, m-stable hulls and time-consistency checks.

The projection of a set fixes its one-step conditional kernels node by node
and frees everything else; the m-stable hull recombines per-node kernels along
the whole grid.  Both are exact vertex constructions.  On top of them sit the
lower / weak / strong consistency checks and the supermartingale test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .errors import EngineError, OutOfRangeError, SchemaError, SizeBoundError
from .risk import Chain, eta, rho
from .riskset import (
    RiskSet,
    _dedup_rows,
    _extreme_rows,
    _sorted_rows,
    includes,
    kernel_polytope,
    member,
    set_equal,
)
from .scenario import Claim, condexp


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
    bound = rs.config.work_bound
    rows = []
    for bi in range(len(model.atoms(st_s))):
        kernels = kernel_polytope(rs, st_s, st_t, bi)
        child_atoms = [model.atoms(st_t)[c] for c in kernels[0].children]
        for ker in kernels:
            charged = [i for i, p in enumerate(ker.probs) if p > 0]
            count = 1
            for i in charged:
                count *= len(child_atoms[i])
            if count + len(rows) > bound:
                raise SizeBoundError(
                    f"projection vertex count exceeds the bound of {bound}")
            for combo in itertools.product(*(child_atoms[i] for i in charged)):
                mu = np.zeros(model.n)
                for i, outcome in zip(charged, combo):
                    mu[outcome] = ker.probs[i]
                rows.append(mu)
    verts = _sorted_rows(_dedup_rows(np.array(rows), rs.config.dedup_tol))
    return RiskSet.from_vertices(model, verts, config=rs.config)


def paste_assembly(model, sources, config=None) -> RiskSet:
    """Per-node recombination with one kernel source per adjacent stage pair.

    ``sources[i]`` constrains the kernels of the step ``stages[i] ->
    stages[i+1]``: a RiskSet contributes its extreme node kernels, ``None``
    leaves the step free (every point-mass kernel, i.e. the full simplex).
    Vertices are telescoping products of one extreme kernel per node.

    At a node, each kernel's candidate rows are built by a running broadcast
    over its charged children, ``acc = acc[:, None] + p_i * P_i[None]``, in
    ``itertools.product`` order with the additions done left to right, so
    every row is bit-identical to summing ``p_i * cond_i`` per combination.
    The candidates are then reduced by ``_extreme_rows``.  ``work_bound`` is
    checked before any candidate array is built.
    """
    config = config or model.config
    bound = config.work_bound
    final = model.final_stage.index
    if len(sources) != final:
        raise SchemaError("need one kernel source per adjacent stage pair")
    cache: dict[tuple[int, int], np.ndarray] = {}

    def node_kernels(stage_idx: int, atom_id: int):
        src = sources[stage_idx]
        if src is None:
            children = model.sub_atoms(stage_idx, stage_idx + 1, atom_id)
            return children, list(np.eye(len(children)))
        kernels = kernel_polytope(src, stage_idx, stage_idx + 1, atom_id)
        return list(kernels[0].children), [k.probs for k in kernels]

    def assemble(stage_idx: int, atom_id: int) -> np.ndarray:
        key = (stage_idx, atom_id)
        if key in cache:
            return cache[key]
        atom = model.atoms(stage_idx)[atom_id]
        if stage_idx == final:
            mu = np.zeros(model.n)
            mu[atom[0]] = 1.0
            cache[key] = mu[None, :]
            return cache[key]
        children, kernels = node_kernels(stage_idx, atom_id)
        blocks = []
        total = 0
        for probs in kernels:
            charged = [i for i, p in enumerate(probs) if p > 0]
            parts = [assemble(stage_idx + 1, children[i]) for i in charged]
            count = 1
            for p in parts:
                count *= len(p)
            if count * len(kernels) > bound or count + total > bound:
                raise SizeBoundError(
                    f"pasting assembly exceeds the work bound of {bound}")
            acc = np.zeros((1, model.n))
            for i, part in zip(charged, parts):
                acc = (acc[:, None, :] + probs[i] * part[None]).reshape(-1, model.n)
            blocks.append(acc)
            total += count
        out = _extreme_rows(np.concatenate(blocks), config.dedup_tol)
        cache[key] = out
        return out

    verts = _sorted_rows(assemble(0, 0))
    return RiskSet.from_vertices(model, verts, config=config)


def mstable_hull(rs: RiskSet) -> RiskSet:
    """Smallest per-node pasting-stable set containing the set.

    Every vertex is assembled by choosing one extreme kernel at every node of
    the tree and telescoping the products from the root.  Fixed point of
    itself; contains the input.
    """
    model = rs.model
    return paste_assembly(model, [rs] * (len(model.stages) - 1), rs.config)


def is_mstable(rs: RiskSet, tol: Optional[float] = None) -> bool:
    """True when per-node recombination adds nothing to the set."""
    return set_equal(rs, mstable_hull(rs), tol)


def chain_time_consistent(chain: Chain) -> bool:
    """Strong time-consistency of a chain.

    A single-set chain is time-consistent iff its set is m-stable.  A
    per-stage chain must be weakly consistent (every stage set equals the
    projection of the first) with an m-stable base set.
    """
    if chain.is_single_set:
        return is_mstable(chain.sets)
    if not check_weak(chain).passed:
        return False
    return is_mstable(chain.set_at(0))


# -- lower / weak -------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    passed: bool
    witness: Optional[dict] = None
    note: Optional[str] = None


def check_lower(chain: Chain, sample: Sequence[Claim]) -> CheckReport:
    """ρ_s(X) <= ρ_s(ρ_t(X)) on every sampled claim and stage pair, plus the
    exact dual criterion (earlier sets included in later ones) on adjacent
    pairs.  Single-set chains pass unconditionally."""
    if chain.is_single_set:
        return CheckReport(True, note="single-set chain, lower consistency is automatic")
    model = chain.model
    tol = model.config.tol
    for i in range(len(chain.stage_indices) - 1):
        if not includes(chain.set_at(i + 1), chain.set_at(i)):
            return CheckReport(False, witness={
                "kind": "dual", "stage": model.stages[chain.stage_indices[i]].label,
                "next_stage": model.stages[chain.stage_indices[i + 1]].label})
    for ci, x in enumerate(sample):
        for i in range(len(chain.stage_indices)):
            for j in range(i + 1, len(chain.stage_indices)):
                s, t = chain.stage_indices[i], chain.stage_indices[j]
                lhs = rho(chain.set_at(i), x, s).values
                rhs = rho(chain.set_at(i), rho(chain.set_at(j), x, t), s).values
                if np.any(lhs > rhs + tol):
                    return CheckReport(False, witness={
                        "kind": "sampled", "claim_index": ci,
                        "claim": [float(v) for v in x.values],
                        "stage": model.stages[s].label,
                        "next_stage": model.stages[t].label})
    return CheckReport(True)


def check_weak(chain: Chain) -> CheckReport:
    """Every stage set equals the projection of the first stage's set.

    A single-set chain is weakly consistent by definition (the set itself
    generates every date), so the projection comparison only applies to
    per-stage chains.
    """
    if chain.is_single_set:
        return CheckReport(True, note="single-set chain generates every date")
    model = chain.model
    base = chain.set_at(0)
    final = model.final_stage.index
    for i in range(1, len(chain.stage_indices)):
        t = chain.stage_indices[i]
        if not set_equal(chain.set_at(i), project(base, t, final)):
            return CheckReport(False, witness={
                "stage": model.stages[t].label,
                "reason": "stage set differs from the projection of the first set"})
    return CheckReport(True)


# -- strong -------------------------------------------------------------------

@dataclass(frozen=True)
class StrongReport:
    passed: bool
    analytic: bool
    sampled: bool
    max_sampled_gap: float
    witness: Optional[Claim] = None
    witness_gap: float = 0.0
    note: Optional[str] = None


def _stage0_gap(rs: RiskSet, hull: RiskSet, values: np.ndarray) -> float:
    """η_0 - ρ_0 for one claim: hull expectations versus set expectations."""
    return float((hull.vertices @ values).max() - (rs.vertices @ values).max())


def find_witness(rs: RiskSet, hull: RiskSet,
                 n_random: int = 200, seed: int = 0) -> tuple[Optional[Claim], float]:
    """Deterministic search for a claim with positive time-0 domination gap.

    Tries indicator claims, then sign patterns of vertex differences, then
    seeded random claims; a separating LP per hull vertex outside the set
    guarantees a witness whenever the hull is strictly larger.
    """
    model = rs.model
    tol = rs.config.tol
    candidates: list[np.ndarray] = []
    for w in range(model.n):
        e = np.zeros(model.n)
        e[w] = 1.0
        candidates.append(e)
    missing = [h for h in hull.vertices if not member(rs, h)]
    for h in missing:
        for v in rs.vertices:
            d = np.sign(np.round(h - v, 12))
            candidates.append(d)
            candidates.append(-d)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        candidates.append(rng.uniform(-1.0, 1.0, model.n))
    for x in candidates:
        gap = _stage0_gap(rs, hull, x)
        if gap > tol:
            return Claim(x), gap
    # separation LP: maximize h.x - max_i V_i.x over the unit box
    V = rs.vertices
    for h in missing:
        c = np.concatenate([-h, [1.0]])
        A_ub = np.hstack([V, -np.ones((len(V), 1))])
        res = linprog(c, A_ub=A_ub, b_ub=np.zeros(len(V)),
                      bounds=[(-1, 1)] * model.n + [(None, None)], method="highs")
        if res.status == 0 and -res.fun > tol:
            x = res.x[:model.n]
            gap = _stage0_gap(rs, hull, x)
            if gap > tol:
                return Claim(x), gap
    return None, 0.0


def check_strong(rs: RiskSet, sample: Sequence[Claim]) -> StrongReport:
    """Two verdicts that must agree: the analytic hull fixed-point test and a
    sampled domination test of the backward recursion against the one-shot
    price.  When only the analytic test fails, a witness search runs."""
    model = rs.model
    tol = rs.config.tol
    hull = mstable_hull(rs)
    analytic = set_equal(rs, hull)

    chain = Chain.single(rs)
    max_gap = 0.0
    sampled_witness = None
    for x in sample:
        process = eta(chain, x)
        for pos, s in enumerate(process.stage_indices[:-1]):
            gap = float(np.max(process.claims[pos].values - rho(rs, x, s).values))
            if gap > max_gap:
                max_gap = gap
                sampled_witness = x
    sampled = max_gap <= tol

    if analytic and not sampled:
        raise EngineError(
            "internal disagreement: hull fixed point holds but domination fails "
            f"with gap {max_gap}")

    witness = None
    witness_gap = 0.0
    note = None
    if not analytic:
        witness, witness_gap = find_witness(rs, hull)
        if sampled:
            note = "inconsistent, sample found no witness; search supplied one"
        if witness is None and sampled_witness is not None:
            witness = sampled_witness
            witness_gap = _stage0_gap(rs, hull, sampled_witness.values)
    return StrongReport(analytic and sampled, analytic, sampled, max_gap,
                        witness, witness_gap, note)


def check_supermartingale(rs: RiskSet, claim: Claim) -> CheckReport:
    """Vertex one-step conditional expectations of the price process never
    rise, checked on every atom the vertex charges."""
    model = rs.model
    tol = rs.config.tol
    prices = {s: rho(rs, claim, s) for s in range(len(model.stages))}
    for s in range(len(model.stages) - 1):
        nxt = prices[s + 1]
        cap = prices[s].values
        for vi, v in enumerate(rs.vertices):
            ce = condexp(v, nxt, s, model).values
            for atom in model.atoms(s):
                idx = list(atom)
                if v[idx].sum() <= 0:
                    continue
                if ce[idx[0]] > cap[idx[0]] + tol:
                    return CheckReport(False, witness={
                        "vertex_index": vi,
                        "stage": model.stages[s].label,
                        "atom": model.atom_label(s, model.atom_of(s, idx[0])),
                        "excess": float(ce[idx[0]] - cap[idx[0]])})
    return CheckReport(True)


# -- assembled report ---------------------------------------------------------

@dataclass(frozen=True)
class ConsistencyReport:
    """Verdicts for a single-set chain; strong-pass implies the weaker two."""

    lower: bool
    weak: bool
    strong: bool
    mstable: bool
    gap: float
    witness: Optional[Claim] = None
    notes: dict = field(default_factory=dict)


def consistency_report(rs: RiskSet, sample: Sequence[Claim]) -> ConsistencyReport:
    strong = check_strong(rs, sample)
    notes = {}
    if strong.note:
        notes["strong"] = strong.note
    return ConsistencyReport(
        lower=True, weak=True,
        strong=strong.passed, mstable=strong.analytic,
        gap=strong.witness_gap if strong.witness is not None else strong.max_sampled_gap,
        witness=strong.witness, notes=notes)


def dual_cone_member(rs: RiskSet, claim: Claim, s, t) -> bool:
    """Feasibility of ``X = Y + Z`` with ``Y`` stage-``t`` measurable, every
    vertex expectation of ``Y`` nonpositive on every stage-``s`` atom, and
    ``Z <= 0`` (the dual-cone description of the projection's acceptance)."""
    model = rs.model
    st_s, st_t = model.stage(s), model.stage(t)
    atoms_t = model.atoms(st_t)
    ids = model.atom_ids(st_t)
    x = np.asarray(claim.values, dtype=float)
    n_var = len(atoms_t)
    # Y_A >= X on the atom (Z = X - Y <= 0)
    rows = []
    rhs = []
    for a, atom in enumerate(atoms_t):
        row = np.zeros(n_var)
        row[a] = -1.0
        rows.append(row)
        rhs.append(-float(x[list(atom)].max()))
    for atom in model.atoms(st_s):
        for v in rs.vertices:
            row = np.zeros(n_var)
            for w in atom:
                row[ids[w]] += v[w]
            rows.append(row)
            rhs.append(0.0)
    res = linprog(np.zeros(n_var), A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * n_var, method="highs")
    if res.status == 2:
        return False
    if res.status != 0:
        raise EngineError(f"dual cone LP failed with status {res.status}")
    return True
