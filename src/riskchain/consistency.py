"""m-stable hulls and time-consistency checks.

Pasting assembly recombines per-node kernels along the whole grid into an
exact vertex set, which is m-stable by construction and keeps that verdict
and its kernels; the m-stable hull is its one-source case.  On top of it sit
the time-consistency report and the supermartingale test.  The m-stability
verdict reads η_0 on the set's rows where it has or cheaply gets them, and
builds the hull only for the other V-sets; ``_analytic`` decides it once per
set and keeps it there with its witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEDUP_TOL, WORK_BOUND
from .errors import EmptyKernelError, EngineError, SchemaError, SizeBoundError
from .risk import Chain, _atom_means, _finite_claim, eta, rho
from .riskset import (
    RiskSet,
    _affine_rank,
    _dedup_rows,
    _facets,
    _hull_nnls,
    _sorted_rows,
    _unit_rows,
    kernel_polytope,
    member,
    set_equal,
)
from .scenario import Claim


def paste_assembly(model, sources) -> RiskSet:
    """Per-node recombination with one kernel source per adjacent stage pair.

    ``sources[i]`` constrains the kernels of the step ``stages[i] ->
    stages[i+1]``: a RiskSet contributes its extreme node kernels, ``None``
    leaves the step free (every point-mass kernel, i.e. the full simplex).
    ``WORK_BOUND`` is checked before any row array is built.

    A node has one row per choice of a kernel ``p`` and one row ``mu_i`` of
    each charged child: a running broadcast ``acc = acc[:, None] + p_i *
    P_i[None]`` in ``itertools.product`` order, bit-identical to summing
    ``p_i * mu_i`` per combination.  Every row is a vertex, so none is
    reduced away.  The children partition the atom, so a row gives back
    ``p`` as its block sums and each ``mu_i`` as its block over ``p_i``; two
    rows that mix to it mix to ``p`` and to every ``mu_i``, which are
    extreme, so both are the row.  ``_dedup_rows`` at ``DEDUP_TOL`` stays:
    rows that differ only on a child of tiny mass can fall within it.

    The output keeps what pasting knows.  It is rectangular, so m-stable
    (Epstein-Schneider 2003, Delbaen 2006), and its verdict is set.  Its
    one-step kernels at every node it assembled are the ones it pasted, so
    they are kept under ``kernel_polytope``'s key: the source's own
    read-only array, or the sorted identity on a free step.  A node that no
    row charges gets no entry, and ``kernel_polytope`` raises there.
    """
    final = model.final_stage.index
    if len(sources) != final:
        raise SchemaError("need one kernel source per adjacent stage pair")
    cache: dict[tuple[int, int], np.ndarray] = {}
    used: dict[tuple[int, int, int], np.ndarray] = {}

    def assemble(stage_idx: int, atom_id: int) -> np.ndarray:
        key = (stage_idx, atom_id)
        if key in cache:
            return cache[key]
        if stage_idx == final:
            cache[key] = np.eye(1, model.n, model.atoms(final)[atom_id][0])
            return cache[key]
        src = sources[stage_idx]
        children = model.sub_atoms(stage_idx, stage_idx + 1, atom_id)
        if src is None:
            kernels = np.eye(len(children))
            kept = _sorted_rows(kernels)
            kept.flags.writeable = False
        else:
            kernels = kept = kernel_polytope(src, stage_idx, stage_idx + 1, atom_id)
        used[stage_idx, stage_idx + 1, atom_id] = kept
        blocks = []
        total = 0
        for probs in kernels:
            charged = [i for i, p in enumerate(probs) if p > 0]
            parts = [assemble(stage_idx + 1, children[i]) for i in charged]
            count = math.prod(len(p) for p in parts)
            reached = max(count * len(kernels), count + total)
            if reached > WORK_BOUND:
                raise SizeBoundError(
                    f"pasting assembly exceeds the work bound of {WORK_BOUND}",
                    bound=WORK_BOUND, reached=reached, layer="consistency.paste_assembly")
            acc = np.zeros((1, model.n))
            for i, part in zip(charged, parts):
                acc = (acc[:, None, :] + probs[i] * part[None]).reshape(-1, model.n)
            blocks.append(acc)
            total += count
        cache[key] = _dedup_rows(np.concatenate(blocks), DEDUP_TOL)
        return cache[key]

    try:
        out = RiskSet._of_extreme(model, assemble(0, 0))
    finally:
        del assemble    # it refers to itself; the cycle would hold every row
    out._verdict = (True, None, 0.0)
    out._kernels = used
    return out


def _part(rs: RiskSet, kind: str, model, build) -> RiskSet:
    """``build()``, made once per set, kind and model object and kept on the
    set, so it lives as long as the set and no longer."""
    key = (kind, model)
    part = rs._parts.get(key)
    if part is None:
        part = rs._parts[key] = build()
    return part


def mstable_hull(rs: RiskSet) -> RiskSet:
    """Smallest per-node pasting-stable set containing the set.

    Every vertex is assembled by choosing one extreme kernel at every node of
    the tree and telescoping the products from the root.  Fixed point of
    itself; contains the input; carries its verdict and kernels from
    ``paste_assembly``.  Kept on the set, as ``qf`` and ``qi`` are.
    """
    model = rs.model
    return _part(rs, "hull", model,
                 lambda: paste_assembly(model, [rs] * (len(model.stages) - 1)))


def _verdict_rows(rs: RiskSet) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Unit-normal rows ``(A, b)`` of an H-representation of the set, or None
    when the set takes the hull route.

    Rows the set already carries are used as they are.  A V-set with affinely
    independent vertices gets its facets, in closed form and with no
    solver; any other V-set returns None, because facet enumeration of a
    many-vertex set costs far more than building its hull.  So does a
    simplex too thin for its facets (a singular barycentric inverse, or
    rows that miss a vertex by more than ``_facets``' precision check), and
    any set that leaves an atom of a pricing date uncharged, where η is
    undefined.
    """
    model = rs.model
    # the blocks read the vertices first, so later prices take the vertex route
    try:
        rs._refuse_uncharged(range(model.final_stage.index))
    except EmptyKernelError:
        return None
    V = rs.vertices
    if rs.has_constraints:
        return _unit_rows(rs.constraints)
    # more than n measures are affinely dependent, as they share the plane
    # sum(q) = 1; fewer take one SVD, for the rank test and then the facets
    if len(V) > model.n:
        return None
    svd = np.linalg.svd(V - V[0], full_matrices=True)
    if _affine_rank(svd[1]) < len(V) - 1:
        return None
    try:
        return _unit_rows(_facets(V, svd))
    except EngineError:
        return None


def _row_verdict(rs: RiskSet, A: np.ndarray, b: np.ndarray
                 ) -> tuple[bool, Optional[Claim], float]:
    """m-stability from η_0 on the rows of an H-representation of the set.

    η_0 of ``Chain.single(rs)`` is the support function of the m-stable hull,
    which contains the set, so the set is m-stable iff ``η_0(a) <= b`` on
    every row, at the row's scale ``|b|`` (``Config.tol_at``).  The row with
    the largest excess is the witness; its gap is ``η_0(a) - max_v v.a``.
    """
    V = rs.vertices
    if len(A) == 0:
        return True, None, 0.0
    chain = Chain.single(rs)
    eta0 = eta(chain, Claim(A)).claims[0].values[:, 0]
    excess = eta0 - b - rs.model.config.tol_at(b[:, None])
    worst = int(excess.argmax())
    if excess[worst] <= 0:
        return True, None, 0.0
    x = A[worst] + 0.0      # a copy of the row, with -0.0 turned into 0.0
    return False, Claim(x), float(eta0[worst] - (V @ x).max())


def _analytic(rs: RiskSet, equal: Optional[bool] = None
              ) -> tuple[bool, Optional[Claim], float]:
    """The m-stability verdict with its witness and gap: η_0 on the set's
    rows (``_verdict_rows``), else the hull comparison and ``find_witness``.
    Decided once per set and kept on it.  ``equal`` is the hull comparison
    ``set_equal(rs, mstable_hull(rs))`` when the caller has made it."""
    if rs._verdict is None:
        rows = _verdict_rows(rs)
        if rows is not None:
            rs._verdict = _row_verdict(rs, *rows)
        else:
            hull = mstable_hull(rs)
            if set_equal(rs, hull) if equal is None else equal:
                rs._verdict = (True, None, 0.0)
            else:
                rs._verdict = (False, *find_witness(rs, hull))
    return rs._verdict


def is_mstable(rs: RiskSet) -> bool:
    """True when per-node recombination adds nothing to the set: decided on
    the set's rows when it has or cheaply gets them, else by comparing the
    set with its hull.  The verdict is kept on the set."""
    return _analytic(rs)[0]


# -- time-consistency report -------------------------------------------------

@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    """Strong time consistency of one set: ``strong`` holds when the
    m-stability verdict ``mstable`` and the sampled domination test
    ``sampled`` both pass.  ``witness`` is a claim whose backward price
    exceeds its one-shot price, by ``witness_gap`` at time 0."""

    strong: bool
    mstable: bool
    sampled: bool
    max_sampled_gap: float
    witness: Optional[Claim] = None
    witness_gap: float = 0.0
    note: Optional[str] = None


def _stage0_gap(rs: RiskSet, hull: RiskSet, values: np.ndarray) -> float:
    """η_0 - ρ_0 for one claim: hull expectations versus set expectations."""
    return float((hull.vertices @ values).max() - (rs.vertices @ values).max())


def find_witness(rs: RiskSet, hull: RiskSet) -> tuple[Optional[Claim], float]:
    """A claim with positive time-0 domination gap, from the NNLS residual of
    the first hull vertex that ``member`` rejects.

    For that vertex ``h``, NNLS fits ``b = [h; 1]`` by ``A = [V^T; 1]`` and
    leaves the residual ``r = b - A w``.  The fit is a Lawson-Hanson optimum
    (Lawson & Hanson 1974, ch. 23; ``riskset._nnls``), which stops only at
    a point of the KKT conditions ``A^T r <= 0`` and ``(A w).r = 0``.  Each
    column gives ``x.v + r[n] <= 0`` for ``x = r[:n]``, and the second gives
    ``x.h + r[n] = b.r = |r|^2``, so ``x.h - max_v x.v >= |r|^2`` and
    ``x / max|x|`` has a gap of at least ``|r|``, which is above the
    membership threshold.  Returns ``(None, 0.0)`` when no hull vertex
    outside the set leaves a residual.
    """
    V = rs.vertices
    for h in hull.vertices:
        if not member(rs, h):
            x = _hull_nnls(V, h)[0][:-1]
            top = np.abs(x).max()
            if top > 0:
                x = x / top
                return Claim(x), _stage0_gap(rs, hull, x)
    return None, 0.0


def consistency_report(rs: RiskSet, sample: Sequence[Claim]) -> ConsistencyReport:
    """Strong time consistency of the set, from two verdicts that must agree:
    the analytic m-stability test and a sampled domination test of the
    backward recursion against the one-shot price.  Lower and weak time
    consistency hold by definition for one set, so the report has no field
    for them.

    The analytic test is ``_analytic``'s, kept on the set, by one of three
    routes.  A set with rows (an H-set, or a V-set whose facets were
    computed) or with affinely independent vertices is decided by η_0 on its
    rows, and the worst row is the witness.  Any other V-set is compared with
    its hull; when it differs, the witness is the NNLS residual of a hull
    vertex outside the set (``find_witness``), whose gap is proven; the
    sampled witness stands in only when that finds none.  Each sampled gap
    is compared at its claim's scale (``Config.tol_at``); ``max_sampled_gap`` is raw.
    """
    mstable, witness, witness_gap = _analytic(rs)

    chain = Chain.single(rs)
    max_gap = 0.0
    sampled_witness = None
    sampled = True
    if len(sample):
        # one row per claim; a claim's gap is its largest over outcomes (NaN
        # when any is NaN) and dates (NaN skipped), and the witness is the
        # first claim with the largest positive gap
        X = Claim(np.array([x.values for x in sample]))
        process = eta(chain, X)
        gaps = [np.max(eta_s.values - rho(rs, X, eta_s.stage).values, axis=1)
                for eta_s in process.claims[:-1]]
        top = np.fmax.reduce(gaps, axis=0, initial=0.0)
        best = int(top.argmax())
        if top[best] > 0.0:
            max_gap = float(top[best])
            sampled_witness = sample[best]
        sampled = bool(np.all(top <= rs.model.config.tol_at(X.values)))

    if mstable and not sampled:
        raise EngineError(
            "internal disagreement: the analytic test passes but domination fails "
            f"with gap {max_gap}")

    note = None
    if not mstable:
        if sampled:
            note = "inconsistent, sample found no witness; the analytic test supplied one"
        if witness is None and sampled_witness is not None:
            witness = sampled_witness
            witness_gap = _stage0_gap(rs, mstable_hull(rs), sampled_witness.values)
    return ConsistencyReport(mstable and sampled, mstable, sampled, max_gap,
                             witness, witness_gap, note)


@dataclass(frozen=True, slots=True)
class CheckReport:
    passed: bool
    witness: Optional[dict] = None


def check_supermartingale(rs: RiskSet, claim: Claim) -> CheckReport:
    """Vertex one-step conditional expectations of the price process never
    rise, at the claim's scale, on every atom the vertex charges (the atom
    blocks' ``_atom_means``).  The witness is the first failure by stage,
    vertex, then atom.  The claim must be one finite ``(n,)`` vector (SCHEMA)."""
    model = rs.model
    band = model.config.tol_at(_finite_claim(claim, model.n))
    prices = [rho(rs, claim, s).values for s in range(len(model.stages))]
    for s in range(len(model.stages) - 1):
        # one (atom, vertex) per mass, as rho refused an atom no vertex charges
        atom, vertex = np.nonzero(rs._atom_blocks(s)[5])
        cap = prices[s][[outcomes[0] for outcomes in model.atoms(s)]][atom]
        means = _atom_means(rs, prices[s + 1][None], s)[0]
        fail = np.flatnonzero(means > cap + band)
        if len(fail):
            i = fail[vertex[fail].argmin()]     # the lowest vertex, at its first atom
            return CheckReport(False, witness={
                "vertex_index": int(vertex[i]), "stage": model.stages[s].label,
                "atom": model.atom_label(s, int(atom[i])),
                "excess": float(means[i] - cap[i])})
    return CheckReport(True)
