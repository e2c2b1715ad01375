"""Convex sets of probability measures on a finite scenario model.

A RiskSet is a polytope inside the probability simplex, carried in dual
representation: a vertex list (authoritative for evaluation) and/or a list of
extra linear inequalities over the weights (authoritative for intersection).
Conversions are lazy, cached and idempotent.  The core primitive is the
linear-fractional maximization ``sup Q(a;B)/Q(B)``, computed exactly as a
vertex maximum or as a homogenized LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull, QhullError

from .config import DEFAULT, Config
from .errors import (
    EmptyIntersectionError,
    EmptyKernelError,
    EngineError,
    OutOfRangeError,
    SchemaError,
    SizeBoundError,
)
from .scenario import Claim, ScenarioModel, condexp


@dataclass(frozen=True)
class Measure:
    """Probability weights over outcomes (nonnegative, summing to one)."""

    weights: np.ndarray


def measure(weights, n: Optional[int] = None) -> Measure:
    """Validate and normalize a weight vector into a Measure."""
    w = np.asarray(weights, dtype=float).copy()
    if w.ndim != 1 or (n is not None and w.shape != (n,)):
        raise SchemaError("measure weight vector has wrong shape")
    if np.any(w < -1e-9):
        raise SchemaError("measure weights must be nonnegative")
    w = np.maximum(w, 0.0)
    total = w.sum()
    if abs(total - 1.0) > 1e-9:
        raise SchemaError(f"measure weights sum to {total!r}, expected 1")
    return Measure(w / total)


@dataclass(frozen=True)
class LinearConstraint:
    """One inequality ``a . q <= b`` over measure weights."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", float(self.b))


@dataclass(frozen=True)
class Kernel:
    """One-step conditional distribution of an atom over its sub-atoms."""

    stage: int
    atom: int
    target_stage: int
    children: tuple[int, ...]
    probs: np.ndarray


def _weights_of(q) -> np.ndarray:
    return np.asarray(getattr(q, "weights", q), dtype=float)


# elements per block of the row-blocked score and rank arrays
_BLOCK = 1 << 16


def _dedup_rows(rows: np.ndarray, tol: float) -> np.ndarray:
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


def _in_hull(points: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Convex-combination membership via nonnegative least squares."""
    if len(points) == 0:
        return False
    A = np.vstack([points.T, np.ones(len(points))])
    b = np.concatenate([x, [1.0]])
    _, resid = nnls(A, b)
    return resid <= tol * (1.0 + np.abs(b).max())


def _top_scores(c: np.ndarray, rows: np.ndarray, own: np.ndarray):
    """Max and argmax over ``j != own[i]`` of ``c_i . r_j``, in row blocks."""
    top = np.empty(len(c))
    best = np.empty(len(c), dtype=np.intp)
    step = max(1, _BLOCK // len(rows))
    for s in range(0, len(c), step):
        scores = c[s:s + step] @ rows.T
        pos = np.arange(len(scores))
        scores[pos, own[s:s + step]] = -np.inf
        best[s:s + step] = scores.argmax(axis=1)
        top[s:s + step] = scores[pos, best[s:s + step]]
    return top, best


def _certified_extreme(rows: np.ndarray, tol: float) -> np.ndarray:
    """Rows that ``_in_hull`` would certainly find outside the other rows.

    For a direction ``c``, ``g = c.r_i - M`` with ``M = max_{j!=i} c.r_j``:
    every nonnegative combination of the other rows leaves an NNLS residual
    of at least ``g / sqrt(|c|^2 + M^2)``, and row ``i`` is certified when
    that bound is ten times the ``_in_hull`` threshold.  The first direction
    is ``r_i`` minus the centroid of the other rows, which points the same
    way as ``r_i`` minus the centroid.  From 64 rows on, where one NNLS call
    costs more than a round of scores, rows still uncertified get up to 15
    more rounds, each after a Frank-Wolfe step of that centroid towards the
    nearest point of the other rows' hull.
    """
    k = len(rows)
    limit = 10.0 * tol * (1.0 + np.maximum(1.0, np.abs(rows).max(axis=1)))
    certified = np.zeros(k, dtype=bool)
    todo = np.arange(k)
    base = (rows.sum(axis=0) - rows) / (k - 1)
    for _ in range(16 if k >= 64 else 1):
        c = rows[todo] - base
        top, best = _top_scores(c, rows, todo)
        own = np.einsum("ij,ij->i", c, rows[todo])
        ok = own - top > limit[todo] * np.sqrt(np.einsum("ij,ij->i", c, c) + top ** 2)
        certified[todo[ok]] = True
        todo, base, c, best = todo[~ok], base[~ok], c[~ok], best[~ok]
        if len(todo) == 0:
            break
        step = rows[best] - base
        gamma = np.einsum("ij,ij->i", c, step) / np.maximum(
            np.einsum("ij,ij->i", step, step), 1e-300)
        base = base + np.clip(gamma, 0.0, 1.0)[:, None] * step
    return certified


def _extreme_rows(rows: np.ndarray, tol: float) -> np.ndarray:
    """Reduce rows to the extreme points of their convex hull.

    Rows are deduplicated first (``_dedup_rows``).  A row certified extreme
    by a separating direction (``_certified_extreme``) is kept without a
    solver call; every other row is kept iff NNLS finds it outside the hull
    of all remaining rows.  The certificate only admits rows that NNLS would
    keep, so the result is that of the NNLS test alone.
    """
    rows = _dedup_rows(rows, tol)
    if len(rows) <= 2:
        return rows
    certified = _certified_extreme(rows, tol)
    keep = [i for i in range(len(rows)) if certified[i]
            or not _in_hull(np.delete(rows, i, axis=0), rows[i], tol)]
    return rows[keep]


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    if len(rows) <= 1:
        return rows
    order = np.lexsort(rows.T[::-1])
    return rows[order]


# -- H-rep -> V-rep: incremental cutting over the simplex -------------------

def _vertex_mask(cands: np.ndarray, rows: np.ndarray, atol: float) -> np.ndarray:
    """Active-rank test for every candidate at once.

    A feasible point is a vertex iff its active normals (the simplex's sum
    normal, the active nonnegativity normals and the active rows ``[a | b]``)
    span R^n.  Each candidate's active normals are stacked in that order and
    zero-padded to a common height, so one batched rank call decides a block.
    """
    k, n = cands.shape
    A, b = rows[:, :-1], rows[:, -1]
    normals = np.vstack([np.ones(n) / np.sqrt(n), np.eye(n), A])
    active = np.hstack([np.ones((k, 1), dtype=bool), cands <= atol,
                        np.abs(cands @ A.T - b) <= atol])
    out = np.zeros(k, dtype=bool)
    todo = np.flatnonzero(active.sum(axis=1) >= n)
    if len(todo) == 0:
        return out
    height = int(active[todo].sum(axis=1).max())
    step = max(1, _BLOCK // (height * n))
    for s in range(0, len(todo), step):
        idx = todo[s:s + step]
        order = np.argsort(~active[idx], axis=1, kind="stable")[:, :height]
        on = np.take_along_axis(active[idx], order, axis=1)
        stack = np.where(on[..., None], normals[order], 0.0)
        out[idx] = np.linalg.matrix_rank(stack, tol=1e-8) == n
    return out


def _enumerate_vertices(n: int, constraints: Sequence[LinearConstraint],
                        config: Config) -> np.ndarray:
    """Vertices of the simplex cut by the given inequalities.

    Each inequality cuts the current vertex set: surviving vertices stay
    vertices, and new ones appear on the cutting hyperplane as crossings of
    keep/drop vertex pairs (kept vertex outer, dropped inner), filtered by
    the active-rank test.
    """
    if n > config.max_outcomes:
        raise SizeBoundError(f"{n} outcomes exceed the bound of {config.max_outcomes}")
    atol = config.dedup_tol
    pending: list[np.ndarray] = []
    for c in constraints:
        nrm = float(np.linalg.norm(c.a))
        if nrm <= 1e-15:
            if c.b < -1e-12:
                return np.empty((0, n))
            continue
        pending.append(np.concatenate([c.a / nrm, [c.b / nrm]]))
    rows = _dedup_rows(np.array(pending), 1e-12) if pending else np.empty((0, n + 1))

    verts = np.eye(n)
    for t, row in enumerate(rows):
        a, b = row[:-1], float(row[-1])
        vals = verts @ a
        keep_mask = vals <= b + atol
        if keep_mask.all():
            continue
        kept = verts[keep_mask]
        dropped = verts[~keep_mask]
        fu = vals[keep_mask]
        denom = vals[~keep_mask][None, :] - fu[:, None]
        iu, iv = np.nonzero(denom > 1e-13)
        pieces = [kept]
        if len(iu):
            lam = np.clip((b - fu[iu]) / denom[iu, iv], 0.0, 1.0)
            u = kept[iu]
            cand = _dedup_rows(u + lam[:, None] * (dropped[iv] - u), atol)
            good = cand[_vertex_mask(cand, rows[:t + 1], atol)]
            if len(good):
                pieces.append(good)
        verts = _dedup_rows(np.vstack(pieces), atol) if len(kept) or len(iu) else verts[:0]
        if len(verts) > config.work_bound:
            raise SizeBoundError(
                f"vertex enumeration exceeded the work bound of {config.work_bound}")
        if len(verts) == 0:
            break
    return _sorted_rows(verts)


# -- V-rep -> H-rep: affine hull plus facet enumeration ---------------------

def _facets(verts: np.ndarray, tol: float = 1e-9) -> list[LinearConstraint]:
    """Inequalities describing the hull of ``verts`` (equalities as pairs)."""
    v0 = verts[0]
    diffs = verts - v0
    _, svals, vt = np.linalg.svd(diffs, full_matrices=True)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > tol * max(1.0, smax)))
    basis = vt[:rank]
    comp = vt[rank:]

    cons: list[LinearConstraint] = []
    for w in comp:
        c = float(w @ v0)
        cons.append(LinearConstraint(w, c))
        cons.append(LinearConstraint(-w, -c))
    if rank == 1:
        x = diffs @ basis[0]
        base = float(basis[0] @ v0)
        cons.append(LinearConstraint(basis[0], base + float(x.max())))
        cons.append(LinearConstraint(-basis[0], -(base + float(x.min()))))
    elif rank >= 2:
        coords = diffs @ basis.T
        try:
            hull = ConvexHull(coords)
        except QhullError as exc:
            raise EngineError(f"facet enumeration failed: {exc}") from exc
        A = hull.equations[:, :-1] @ basis
        b = -hull.equations[:, -1] + A @ v0
        worst = float((verts @ A.T - b).max())
        if worst > 10 * tol:
            raise EngineError("facet enumeration lost precision")
        # triangulated facets repeat the same hyperplane once per simplex
        rows = _dedup_rows(np.column_stack([A, b]), tol)
        cons.extend(LinearConstraint(r[:-1], r[-1]) for r in rows)
    return cons


class RiskSet:
    """Convex set of test measures with lazy dual representation."""

    def __init__(self, model: ScenarioModel, vertices=None, constraints=None,
                 config: Optional[Config] = None):
        if vertices is None and constraints is None:
            raise SchemaError("a RiskSet needs vertices or constraints")
        self.model = model
        self.config = config or model.config
        self._vertices: Optional[np.ndarray] = None
        self._constraints: Optional[tuple[LinearConstraint, ...]] = None
        if vertices is not None:
            rows = np.array([measure(_weights_of(v), model.n).weights for v in vertices])
            if len(rows) == 0:
                raise SchemaError("vertex list may not be empty")
            self._vertices = rows
        if constraints is not None:
            cons = []
            for c in constraints:
                c = c if isinstance(c, LinearConstraint) else LinearConstraint(*c)
                if c.a.shape != (model.n,):
                    raise SchemaError("constraint row length does not match outcomes")
                cons.append(c)
            self._constraints = tuple(cons)

    @classmethod
    def from_vertices(cls, model, vertices, config=None) -> "RiskSet":
        return cls(model, vertices=vertices, config=config)

    @classmethod
    def from_constraints(cls, model, constraints, config=None) -> "RiskSet":
        return cls(model, constraints=constraints, config=config)

    @property
    def has_vertices(self) -> bool:
        return self._vertices is not None

    @property
    def has_constraints(self) -> bool:
        return self._constraints is not None

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            verts = _enumerate_vertices(self.model.n, self._constraints, self.config)
            if len(verts) == 0:
                raise EmptyIntersectionError("constraint system has no probability solution")
            self._vertices = verts
        return self._vertices

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        if self._constraints is None:
            self._constraints = tuple(_facets(self.vertices))
        return self._constraints

    def __repr__(self):
        rep = []
        if self._vertices is not None:
            rep.append(f"{len(self._vertices)} vertices")
        if self._constraints is not None:
            rep.append(f"{len(self._constraints)} constraints")
        return f"RiskSet({', '.join(rep)}, n={self.model.n})"


def simplex_set(model: ScenarioModel) -> RiskSet:
    """The full probability simplex (all point masses) on the model."""
    return RiskSet.from_vertices(model, np.eye(model.n))


def singleton(model: ScenarioModel, q) -> RiskSet:
    return RiskSet.from_vertices(model, [_weights_of(q)])


# -- densities and kernels ---------------------------------------------------

def density(model: ScenarioModel, q, stage) -> tuple[np.ndarray, np.ndarray]:
    """Density of ``q`` w.r.t. the reference, and its stage restriction.

    Returns the pointwise ratio and its conditional expectation under the
    reference at ``stage`` (the density of the restriction of ``q``).
    """
    w = _weights_of(q)
    lam = w / model.reference
    lam_t = condexp(model.reference, lam, stage, model).values
    return lam, lam_t


def node_kernel(model: ScenarioModel, q, s, t, atom_id: int) -> Kernel:
    """Conditional distribution of ``q`` on a stage-``s`` atom over stage-``t``
    sub-atoms; the reference kernel on atoms of zero mass."""
    st_s, st_t = model.stage(s), model.stage(t)
    if st_t.index <= st_s.index:
        raise OutOfRangeError("kernel target stage must come after the source stage")
    atoms_s = model.atoms(st_s)
    if not 0 <= atom_id < len(atoms_s):
        raise OutOfRangeError(f"atom id {atom_id} out of range at stage {st_s.label}")
    children = model.sub_atoms(st_s, st_t, atom_id)
    w = _weights_of(q)
    idx = list(atoms_s[atom_id])
    src = w if w[idx].sum() > 0 else model.reference
    total = src[idx].sum()
    atoms_t = model.atoms(st_t)
    probs = np.array([src[list(atoms_t[c])].sum() for c in children]) / total
    return Kernel(st_s.index, atom_id, st_t.index, tuple(children), probs)


def kernel_polytope(rs: RiskSet, s, t, atom_id: int) -> list[Kernel]:
    """Extreme one-step kernels of the set at one atom.

    By the perspective identity, the conditional kernels of the whole set are
    exactly the convex hull of the charged vertices' kernels.
    """
    model = rs.model
    st_s, st_t = model.stage(s), model.stage(t)
    if st_t.index <= st_s.index:
        raise OutOfRangeError("kernel target stage must come after the source stage")
    atom = model.atoms(st_s)[atom_id]
    idx = list(atom)
    children = model.sub_atoms(st_s, st_t, atom_id)
    child_idx = [list(model.atoms(st_t)[c]) for c in children]
    V = rs.vertices
    masses = V[:, idx].sum(axis=1)
    charged = masses > 0
    if not charged.any():
        raise EmptyKernelError(
            f"no vertex charges atom {atom_id} at stage {st_s.label}",
            stage=st_s.label, atom=atom_id)
    rows = np.stack([V[charged][:, ci].sum(axis=1) for ci in child_idx], axis=1)
    rows = rows / masses[charged][:, None]
    rows = _extreme_rows(rows, rs.config.dedup_tol)
    rows = _sorted_rows(rows)
    return [Kernel(st_s.index, atom_id, st_t.index, tuple(children), r) for r in rows]


# -- the linear-fractional primitive ----------------------------------------

def maximize_ratio(rs: RiskSet, numerator, atom: Iterable[int],
                   prefer: str = "auto") -> float:
    """``sup { sum_B Q a / Q(B) : Q in rs, Q(B) > 0 }``.

    With vertices the supremum is the maximum over charged vertices (the ratio
    of a mixture is a mass-weighted average of vertex ratios).  With only
    constraints it is solved as a homogenized LP.  ``prefer`` forces a route
    ("vertices" or "lp").
    """
    idx = list(atom)
    if not idx:
        raise OutOfRangeError("empty atom")
    a = np.asarray(numerator, dtype=float)
    if prefer == "lp" or (prefer == "auto" and not rs.has_vertices and rs.has_constraints):
        return _maximize_ratio_lp(rs, a, idx)
    V = rs.vertices
    masses = V[:, idx].sum(axis=1)
    charged = masses > 0
    if not charged.any():
        raise EmptyKernelError(f"no vertex charges atom {tuple(idx)}")
    vals = (V[charged][:, idx] @ a[idx]) / masses[charged]
    return float(vals.max())


def _maximize_ratio_lp(rs: RiskSet, a: np.ndarray, idx: list[int]) -> float:
    """Homogenization: y = Q / Q(B), extra scale variable s = 1 / Q(B)."""
    n = rs.model.n
    cons = rs.constraints
    c = np.zeros(n + 1)
    c[idx] = -a[idx]
    A_ub = None
    b_ub = None
    if cons:
        A_ub = np.array([np.concatenate([co.a, [-co.b]]) for co in cons])
        b_ub = np.zeros(len(cons))
    mass_row = np.zeros(n + 1)
    mass_row[idx] = 1.0
    sum_row = np.concatenate([np.ones(n), [-1.0]])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                  A_eq=np.vstack([sum_row, mass_row]), b_eq=[0.0, 1.0],
                  bounds=[(0, None)] * (n + 1), method="highs")
    if res.status == 2:
        raise EmptyKernelError(f"no measure in the set charges atom {tuple(idx)}")
    if res.status != 0:
        raise EngineError(f"ratio LP failed with status {res.status}")
    return float(-res.fun)


# -- membership, inclusion, intersection -------------------------------------

def member(rs: RiskSet, q, tol: Optional[float] = None) -> bool:
    """Membership at tolerance: constraint evaluation when an H-representation
    exists, otherwise convex-combination feasibility against the vertices."""
    tol = rs.config.tol if tol is None else tol
    w = _weights_of(q)
    if w.shape != (rs.model.n,):
        raise SchemaError("measure length does not match the model")
    if w.min() < -tol or abs(w.sum() - 1.0) > tol:
        return False
    if rs.has_constraints:
        return all(c.a @ w <= c.b + tol * (1 + abs(c.b)) for c in rs.constraints)
    return _in_hull(rs.vertices, w, tol)


def includes(rs1: RiskSet, rs2: RiskSet, tol: Optional[float] = None) -> bool:
    """Every vertex of ``rs2`` is a member of ``rs1``."""
    _check_same_model(rs1, rs2)
    return all(member(rs1, v, tol) for v in rs2.vertices)


def set_equal(rs1: RiskSet, rs2: RiskSet, tol: Optional[float] = None) -> bool:
    return includes(rs1, rs2, tol) and includes(rs2, rs1, tol)


def vertex_enumeration(rs: RiskSet) -> RiskSet:
    """Materialize the V-representation; idempotent when already present."""
    if rs.has_vertices:
        return rs
    return RiskSet.from_vertices(rs.model, rs.vertices, config=rs.config)


def intersect(rs1: RiskSet, rs2: RiskSet) -> RiskSet:
    """Intersection by concatenating H-representations.

    The result carries constraints only; vertices are re-enumerated on demand.
    Raises EMPTY_INTERSECTION when no probability measure satisfies both.
    """
    _check_same_model(rs1, rs2)
    cons = list(rs1.constraints) + list(rs2.constraints)
    n = rs1.model.n
    if cons:
        A_ub = np.array([c.a for c in cons])
        b_ub = np.array([c.b for c in cons])
    else:
        A_ub = b_ub = None
    res = linprog(np.zeros(n), A_ub=A_ub, b_ub=b_ub,
                  A_eq=np.ones((1, n)), b_eq=[1.0],
                  bounds=[(0, None)] * n, method="highs")
    if res.status == 2:
        raise EmptyIntersectionError("the intersection contains no probability measure")
    if res.status != 0:
        raise EngineError(f"feasibility LP failed with status {res.status}")
    return RiskSet.from_constraints(rs1.model, cons, config=rs1.config)


def _check_same_model(rs1: RiskSet, rs2: RiskSet):
    m1, m2 = rs1.model, rs2.model
    if m1 is m2:
        return
    if (m1.outcomes != m2.outcomes or len(m1.stages) != len(m2.stages)
            or any(a.label != b.label for a, b in zip(m1.stages, m2.stages))
            or m1.partitions != m2.partitions):
        raise SchemaError("risk sets live on different models")
