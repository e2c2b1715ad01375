"""Convex sets of probability measures on a finite scenario model.

A RiskSet is a polytope inside the probability simplex, given either as a
vertex list (authoritative for evaluation) or as extra linear inequalities
over the weights (authoritative for intersection): one float array of shape
``(m, n + 1)`` whose row ``[a | b]`` means ``a . q <= b``, kept as given.
The other representation is derived lazily and cached; an intersection
enumerates its vertices at once, which is also its emptiness test.  The core
primitive is the linear-fractional maximization ``sup Q(a;B)/Q(B)``,
computed exactly as a vertex maximum or as a homogenized LP.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .config import DEDUP_TOL, MAX_OUTCOMES, WORK_BOUND
from .errors import (
    EmptyIntersectionError,
    EmptyKernelError,
    EngineError,
    OutOfRangeError,
    SchemaError,
    SizeBoundError,
)
from .scenario import ScenarioModel, _is_index, _outcome_vector, condexp


def _measure_rows(rows, n: int) -> np.ndarray:
    """Validate rows of measure weights (finite, nonnegative, unit sum) and
    normalize each by its sum."""
    w = np.array(rows, dtype=float, order="C")
    if w.ndim != 2 or w.shape[1] != n:
        raise SchemaError("measure weight vector has wrong shape")
    if not np.isfinite(w).all():
        raise SchemaError("measure weights must be finite")
    if np.any(w < -1e-9):
        raise SchemaError("measure weights must be nonnegative")
    w = np.maximum(w, 0.0)
    total = w.sum(axis=1)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise SchemaError(f"measure weights sum to {total[off][0]!r}, expected 1")
    return w / total[:, None]


def _constraint_rows(rows, n: int) -> np.ndarray:
    """Validate inequality rows ``[a | b]`` (``m x (n + 1)`` finite numbers,
    ``m`` may be 0) and return them as a read-only float array."""
    try:
        H = np.array(rows, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise SchemaError("constraint rows must be numbers, all of one length") from exc
    H = H.reshape(0, n + 1) if H.shape == (0,) else H
    if H.ndim != 2 or H.shape[1] != n + 1:
        raise SchemaError(f"constraint rows [a | b] must have shape (m, {n + 1})")
    if not np.isfinite(H).all():
        raise SchemaError("constraint rows must be finite")
    H.flags.writeable = False
    return H


# elements per block of the row-blocked score and count arrays
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


_EPS = np.finfo(float).eps


def _entering(A: np.ndarray, b: np.ndarray, r: np.ndarray, B: np.ndarray,
              P: list[int], noise: float):
    """The column that enters ``_nnls``'s passive set next, with its new row
    of ``Q^T`` and column of ``R``, or None at a KKT point.

    Columns are tried by their dual ``g = A^T r``, largest first, while it is
    positive.  A column is refused when its part outside the span of the
    rows ``B`` is within rounding of zero (a duplicated or collinear point),
    or when ``b``'s component along that part, which gives the column's new
    weight its sign, is not above ``noise``.  That part is Gram-Schmidt's,
    taken twice.
    """
    g = A.T @ r
    if P:
        g[P] = -np.inf
    while True:
        j = int(g.argmax())
        if not g[j] > 0:
            return None
        a = A[:, j]
        if len(B):
            h = B @ a
            e = a - h @ B
            h2 = B @ e
            e -= h2 @ B
            h += h2
        else:
            h, e = np.zeros(0), a.copy()
        sigma = math.sqrt(e @ e)
        if sigma > 100 * _EPS * math.sqrt(a @ a):
            e /= sigma
            t = float(e @ b)
            if t > noise:
                return j, e, t, h, sigma
        g[j] = -np.inf


def _nnls(A: np.ndarray, b: np.ndarray, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """``argmin |A w - b|`` over ``w >= 0`` by the Lawson-Hanson active-set
    method (Lawson & Hanson 1974, *Solving Least Squares Problems*, ch. 23);
    returns ``w`` and the residual ``r = b - A w``.

    The passive columns ``P`` (the positive weights) are kept as a QR,
    ``A_P = Q R`` with ``Qb = Q^T b``, the rows of ``Q^T`` in ``Qt``, and
    ``S = R^{-1}`` beside it: a column enters as one more row
    (``_entering``), and when columns leave, what is left of ``R`` is
    triangularized again.  The residual of the fit on ``P`` is ``b`` less
    its projection on ``Qt``, projected out twice, so it carries no rounding
    along the span of ``A_P`` and its duals are those of the columns' parts
    outside it.  The method stops only at a KKT point: ``A_P^T r = 0``, and
    ``A^T r <= 0`` up to columns ``_entering`` refuses, or every column
    passive, or ``r`` within rounding of zero.  More than ``max_steps``
    entering columns raise EngineError.
    """
    m, k = A.shape
    noise = m * _EPS * max(1.0, math.sqrt(b @ b))
    Qt, R, S, Qb = np.zeros((m, m)), np.zeros((m, m)), np.zeros((m, m)), np.zeros(m)
    W = np.zeros(m)     # the weights on P, in the order of P
    P: list[int] = []
    r = b
    steps = 0
    while len(P) < k and r @ r > noise * noise:
        p = len(P)
        entry = _entering(A, b, r, Qt[:p], P, noise)
        if entry is None:
            break
        steps += 1
        if steps > max_steps:
            raise EngineError(f"NNLS did not converge in {max_steps} steps",
                              layer="riskset.nnls")
        j, Qt[p], Qb[p], h, sigma = entry
        R[:p, p], R[p, p] = h, sigma
        S[:p, p], S[p, p] = (S[:p, :p] @ h) / -sigma, 1.0 / sigma
        P.append(j)
        p += 1
        z = S[:p, :p] @ Qb[:p]
        while p and z.min() <= 0:
            # step from W towards z until the first weight reaches zero
            wp = W[:p]
            neg = z <= 0
            ratio = wp[neg] / (wp[neg] - z[neg])
            i = int(ratio.argmin())
            wp += ratio[i] * (z - wp)
            wp[np.flatnonzero(neg)[i]] = 0.0
            keep = wp > 0
            P = [c for c, kept in zip(P, keep) if kept]
            q = len(P)
            W[:q], W[q:p] = wp[keep], 0.0
            # triangularize what is left of R again
            G, T = np.linalg.qr(R[:p, :p][:, keep], mode="complete")
            Qt[:p], Qb[:p] = G.T @ Qt[:p], G.T @ Qb[:p]
            R[:p, :p] = S[:p, :p] = Qt[q:p] = Qb[q:p] = 0.0
            R[:q, :q] = T[:q]
            S[:q, :q] = np.linalg.inv(T[:q])
            p = q
            z = S[:p, :p] @ Qb[:p]
        W[:p] = z
        B = Qt[:p]
        r = b - Qb[:p] @ B
        r -= (B @ r) @ B
    w = np.zeros(k)
    w[P] = W[:len(P)]
    return w, r


def _hull_nnls(points: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, float]:
    """NNLS fit of ``x`` by a convex combination of ``points``: the residual
    ``r = b - A w`` of ``A = [points^T; 1]``, ``b = [x; 1]``, and its norm.

    ``w`` is a Lawson-Hanson optimum (``_nnls``), so the KKT conditions hold
    up to rounding: ``A^T r <= 0`` and ``(A w) . r = 0``; ``find_witness``
    builds its gap on them.  Non-finite input raises EngineError.
    """
    k = len(points)
    Ab = np.ones((len(x) + 1, k + 1))     # [A | b]
    Ab[:-1, :k], Ab[:-1, k] = points.T, x
    if not np.isfinite(Ab).all():
        raise EngineError("NNLS input is not finite", layer="riskset.nnls")
    r = _nnls(Ab[:, :k], Ab[:, k], 3 * k)[1]
    return r, math.sqrt(r @ r)


def _nnls_threshold(x: np.ndarray, tol: float):
    """``_in_hull``'s bound on the NNLS residual of ``x``, per row of a 2-D
    ``x``; the certificates scale ``tol`` and are proved against it."""
    return tol * (1.0 + np.maximum(1.0, np.abs(x).max(axis=-1)))


def _in_hull(points: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """Convex-combination membership via nonnegative least squares."""
    if len(points) == 0:
        return False
    _, resid = _hull_nnls(points, x)
    return resid <= _nnls_threshold(x, tol)


def _separated(points: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """True when a separating direction proves ``_in_hull(points, x, tol)`` false.

    The direction is ``c = x -`` the centroid of ``points``.  With
    ``M = max_j c.p_j`` and ``g = c.x - M``, every NNLS residual is at least
    ``g / sqrt(|c|^2 + M^2)`` (as in ``_certified_extreme``), and ``x`` is
    separated when that bound is ten times the ``_in_hull`` threshold.
    """
    c = x - points.mean(axis=0)
    top = float((points @ c).max())
    limit = _nnls_threshold(x, 10.0 * tol)
    return bool(c @ x - top > limit * np.sqrt(c @ c + top ** 2))


def _near_vertex(points: np.ndarray, x: np.ndarray, tol: float) -> bool:
    """True when a nearby row proves ``_in_hull(points, x, tol)`` true.

    NNLS's optimal residual is at most the distance from ``x`` to any row
    (the weight vector of that row alone), so ``x`` is a member when that
    distance is a tenth of the ``_in_hull`` threshold.
    """
    limit = _nnls_threshold(x, 0.1 * tol)
    return bool(np.linalg.norm(points - x, axis=1).min() <= limit)


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


def _certified_extreme(rows: np.ndarray) -> np.ndarray:
    """Rows that ``_in_hull`` would certainly find outside the other rows.

    For a direction ``c``, ``g = c.r_i - M`` with ``M = max_{j!=i} c.r_j``:
    every nonnegative combination of the other rows leaves an NNLS residual
    of at least ``g / sqrt(|c|^2 + M^2)``, and row ``i`` is certified when
    that bound is ten times the ``_in_hull`` threshold.  The first direction
    is ``r_i`` minus the centroid of the other rows, which points the same
    way as ``r_i`` minus the centroid.  From 64 rows on, where one NNLS call
    costs more than a round of scores, rows still uncertified get up to 63
    more rounds, each after a Frank-Wolfe step of that centroid towards the
    nearest point of the other rows' hull.
    """
    k = len(rows)
    limit = _nnls_threshold(rows, 10.0 * DEDUP_TOL)
    certified = np.zeros(k, dtype=bool)
    todo = np.arange(k)
    base = (rows.sum(axis=0) - rows) / (k - 1)
    rounds = 64 if k >= 64 else 1
    for r in range(rounds):
        c = rows[todo] - base
        top, best = _top_scores(c, rows, todo)
        own = np.einsum("ij,ij->i", c, rows[todo])
        ok = own - top > limit[todo] * np.sqrt(np.einsum("ij,ij->i", c, c) + top ** 2)
        certified[todo[ok]] = True
        todo, base, c, best = todo[~ok], base[~ok], c[~ok], best[~ok]
        if len(todo) == 0 or r + 1 == rounds:
            break
        step = rows[best] - base
        gamma = np.einsum("ij,ij->i", c, step) / np.maximum(
            np.einsum("ij,ij->i", step, step), 1e-300)
        base = base + np.clip(gamma, 0.0, 1.0)[:, None] * step
    return certified


def _extreme_rows(rows: np.ndarray) -> np.ndarray:
    """Reduce rows to the extreme points of their convex hull.

    Rows are deduplicated first (``_dedup_rows`` at ``DEDUP_TOL``).  A row
    certified extreme by a separating direction (``_certified_extreme``) is
    kept without a solver call; every other row is kept iff NNLS finds it
    outside the hull of all remaining rows.  The certificate only admits rows that NNLS would
    keep, so the result is that of the NNLS test alone.
    """
    rows = _dedup_rows(rows, DEDUP_TOL)
    if len(rows) <= 2:
        return rows
    certified = _certified_extreme(rows)
    keep = [i for i in range(len(rows)) if certified[i]
            or not _in_hull(np.delete(rows, i, axis=0), rows[i], DEDUP_TOL)]
    return rows[keep]


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    if len(rows) <= 1:
        return rows
    order = np.lexsort(rows.T[::-1])
    return rows[order]


# -- H-rep -> V-rep: incremental cutting over the simplex -------------------

def _enumerate_vertices(n: int, H: np.ndarray) -> np.ndarray:
    """Vertices of the simplex cut by the inequality rows ``H = [A | b]``.

    Each row, scaled to a unit normal on its own, cuts the current vertex
    set (``_cut``): surviving vertices stay vertices, and new ones appear on
    the cutting hyperplane, one per edge from a kept vertex to a dropped
    one.  A row whose exact negation comes later (an equality given as a
    pair) takes its partner at its own turn: after the cut, the vertices
    strictly inside the partner's half-space are dropped, and the partner,
    whose crossings would lie on vertices already there, is skipped.  A cut
    that would leave more than ``WORK_BOUND`` vertices raises TOO_LARGE.
    """
    if n > MAX_OUTCOMES:
        raise SizeBoundError(f"{n} outcomes exceed the bound of {MAX_OUTCOMES}",
                             bound=MAX_OUTCOMES, reached=n, layer="riskset.vertices")
    atol = DEDUP_TOL
    pending: list[np.ndarray] = []
    for row in H:
        nrm = float(np.linalg.norm(row[:-1]))
        if nrm <= 1e-15:
            if row[-1] < -1e-12:
                return np.empty((0, n))
            continue
        pending.append(row / nrm)
    rows = _dedup_rows(np.array(pending), 1e-12) if pending else np.empty((0, n + 1))
    partner = _negation_partners(rows)

    verts = np.eye(n)
    for t, p in enumerate(partner):
        if p == -2:
            continue
        verts = _cut(verts, rows, t, atol)
        if p >= 0:
            verts = verts[verts @ rows[p, :-1] <= rows[p, -1] + atol]
        if len(verts) == 0:
            break
    return _sorted_rows(verts)


def _cut(verts: np.ndarray, rows: np.ndarray, t: int, atol: float) -> np.ndarray:
    """The vertices after row ``t`` cuts the polytope of ``verts``: one
    double-description step.

    The new vertices are the crossings of the hyperplane with the edges from
    a kept vertex ``u`` to a dropped vertex ``v``, one per edge.  Over the
    nonnegativity rows and ``rows[:t]``, ``u`` and ``v`` span an edge iff no
    third vertex is active on every constraint active at both.  Sharing at
    least ``n - 2`` active constraints is necessary, so one count product
    screens every pair and only the pairs that pass take the exact test;
    both products are built in row blocks of ``_BLOCK`` elements.  The kept
    vertices plus the edges are the vertex count, checked against
    ``WORK_BOUND`` before any crossing is built.
    """
    a, b = rows[t, :-1], float(rows[t, -1])
    vals = verts @ a
    keep_mask = vals <= b + atol
    if keep_mask.all():
        return verts
    if not keep_mask.any():
        return verts[:0]
    n = verts.shape[1]
    A, c = rows[:t, :-1], rows[:t, -1]
    active = np.hstack([verts <= atol, np.abs(verts @ A.T - c) <= atol]).astype(np.float32)
    kept, dropped = verts[keep_mask], verts[~keep_mask]
    fu, fv = vals[keep_mask], vals[~keep_mask]
    act_u, act_v = active[keep_mask], active[~keep_mask]
    iu, iv = [], []
    step = max(1, _BLOCK // len(dropped))
    for s in range(0, len(kept), step):
        shared = act_u[s:s + step] @ act_v.T
        i, j = np.nonzero((shared >= n - 2) & (fv - fu[s:s + step, None] > 1e-13))
        iu.append(i + s)
        iv.append(j)
    iu, iv = np.concatenate(iu), np.concatenate(iv)
    edge = np.empty(len(iu), dtype=bool)
    step = max(1, _BLOCK // max(len(verts), active.shape[1]))
    for s in range(0, len(iu), step):
        common = act_u[iu[s:s + step]] * act_v[iv[s:s + step]]
        covers = common @ active.T == common.sum(axis=1)[:, None]
        edge[s:s + step] = covers.sum(axis=1) == 2
    iu, iv = iu[edge], iv[edge]
    _within_work_bound(len(kept) + len(iu))
    lam = np.clip((b - fu[iu]) / (fv[iv] - fu[iu]), 0.0, 1.0)
    u = kept[iu]
    return _dedup_rows(np.vstack([kept, u + lam[:, None] * (dropped[iv] - u)]), atol)


def _within_work_bound(reached: int):
    """Raise TOO_LARGE when a cut would leave more than ``WORK_BOUND``
    vertices; ``_cut`` counts them before it builds any crossing."""
    if reached > WORK_BOUND:
        raise SizeBoundError(
            f"vertex enumeration exceeded the work bound of {WORK_BOUND}",
            bound=WORK_BOUND, reached=reached, layer="riskset.vertices")


def _negation_partners(rows: np.ndarray) -> np.ndarray:
    """Per row, the index of the first later row that is its exact negation
    (``-1`` when there is none, ``-2`` for a row that is such a partner)."""
    # the rows are deduplicated, so each key is one row; + 0.0 and 0.0 -
    # turn -0.0 into 0.0
    index = {(row + 0.0).tobytes(): t for t, row in enumerate(rows)}
    partner = np.full(len(rows), -1, dtype=np.intp)
    for t, row in enumerate(rows):
        p = index.get((0.0 - row).tobytes(), -1)
        if p > t:
            partner[t], partner[p] = p, -2
    return partner


# -- V-rep -> H-rep: affine hull plus facet enumeration ---------------------

_FACET_TOL = 1e-9


def _affine_rank(svals: np.ndarray) -> int:
    """Dimension of a point set's affine hull from the singular values of its
    differences to the first point."""
    smax = svals[0] if len(svals) else 0.0
    return int(np.sum(svals > _FACET_TOL * max(1.0, smax)))


def _facets(verts: np.ndarray, svd=None) -> np.ndarray:
    """Rows ``[a | b]`` of inequalities describing the hull of ``verts``
    (equalities as pairs).

    ``verts`` are extreme points.  In the coordinates of their affine hull,
    a polygon (rank 2) gets one row per edge, its vertices taken in angular
    order around their centroid, and a simplex (rank + 1 vertices) one row
    per barycentric coordinate ``lambda_i >= 0``, read off the inverse of
    ``[coords^T; 1]``; only other sets of rank 3 or more call qhull.  Each
    way gives qhull's ``(unit normal, offset)`` rows.  Raises EngineError
    when the set is too thin for its facets: a singular inverse, a qhull
    failure, or rows that miss a vertex by more than ``10 * _FACET_TOL``.

    ``svd`` is the full SVD of ``verts - verts[0]`` when the caller has
    already taken it.
    """
    tol = _FACET_TOL
    v0 = verts[0]
    diffs = verts - v0
    _, svals, vt = np.linalg.svd(diffs, full_matrices=True) if svd is None else svd
    rank = _affine_rank(svals)
    basis = vt[:rank]
    comp = vt[rank:]

    # one dot per row: ``comp @ v0`` rounds differently in the last bit
    eq = np.column_stack([comp, [w @ v0 for w in comp]])
    rows = [np.stack([eq, -eq], axis=1).reshape(-1, eq.shape[1])]   # each row, then its negation
    if rank == 1:
        x = diffs @ basis[0]
        base = basis[0] @ v0
        rows.append(np.array([np.append(basis[0], base + x.max()),
                              np.append(-basis[0], -(base + x.min()))]))
    elif rank >= 2:
        coords = diffs @ basis.T
        if rank == 2:
            rel = coords - coords.mean(axis=0)
            ring = coords[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
            edge = np.roll(ring, -1, axis=0) - ring
            normal = np.column_stack([edge[:, 1], -edge[:, 0]])
            normal /= np.linalg.norm(normal, axis=1)[:, None]
            eqs = np.column_stack([normal, -np.einsum("ij,ij->i", normal, ring)])
        elif len(verts) == rank + 1:
            try:
                inv = np.linalg.inv(np.vstack([coords.T, np.ones(len(verts))]))
            except np.linalg.LinAlgError as exc:
                raise EngineError(f"facet enumeration failed: {exc}") from exc
            eqs = -inv / np.linalg.norm(inv[:, :-1], axis=1)[:, None]
        else:
            from scipy.spatial import ConvexHull, QhullError

            try:
                eqs = ConvexHull(coords).equations
            except QhullError as exc:
                raise EngineError(f"facet enumeration failed: {exc}") from exc
        A = eqs[:, :-1] @ basis
        b = -eqs[:, -1] + A @ v0
        worst = float((verts @ A.T - b).max())
        if worst > 10 * tol:
            raise EngineError("facet enumeration lost precision")
        # qhull's triangulated facets repeat the same hyperplane once per simplex
        rows.append(_dedup_rows(np.column_stack([A, b]), tol))
    return np.vstack(rows)


class RiskSet:
    """Convex set of test measures with lazy dual representation.

    Vertices given by the caller are generators: the first read of
    ``vertices`` reduces them to the extreme points of their hull.
    """

    def __init__(self, model: ScenarioModel, vertices=None, constraints=None):
        if vertices is None and constraints is None:
            raise SchemaError("a RiskSet needs vertices or constraints")
        if vertices is not None and constraints is not None:
            raise SchemaError("a RiskSet takes vertices or constraints, not both")
        self.model = model
        self._generators: Optional[np.ndarray] = None
        self._vertices: Optional[np.ndarray] = None
        self._constraints: Optional[np.ndarray] = None
        self._blocks: dict[int, tuple] = {}
        self._kernels: dict[tuple[int, int, int], np.ndarray] = {}  # by kernel_polytope
        self._verdict: Optional[tuple] = None   # set by consistency._analytic
        self._parts: dict[tuple, "RiskSet"] = {}    # by consistency._part, per model object
        self._charged: set[int] = set()         # outcomes the ratio LP found charged
        self._rows_given = constraints is not None      # member reads the rows
        if vertices is not None:
            if len(vertices) == 0:
                raise SchemaError("vertex list may not be empty")
            try:
                self._generators = _measure_rows(vertices, model.n)
            except ValueError as exc:
                raise SchemaError("vertex rows must be numbers, all of one length") from exc
        if constraints is not None:
            self._constraints = _constraint_rows(constraints, model.n)

    @classmethod
    def from_vertices(cls, model, vertices) -> "RiskSet":
        return cls(model, vertices=vertices)

    @classmethod
    def _of_extreme(cls, model, vertices) -> "RiskSet":
        """A V-set whose rows are extreme points by construction, so the
        reduction of generators is skipped.  The rows are sorted after the
        constructor divides each by its sum, which can move it by an ulp."""
        rs = cls(model, vertices=vertices)
        rs._vertices, rs._generators = _sorted_rows(rs._generators), None
        return rs

    @classmethod
    def from_constraints(cls, model, constraints) -> "RiskSet":
        """The measures with ``a . q <= b`` for every row ``[a | b]`` of an
        ``(m, n + 1)`` array of finite numbers (``m`` may be 0), kept as given."""
        return cls(model, constraints=constraints)

    @property
    def has_vertices(self) -> bool:
        return self._vertices is not None or self._generators is not None

    @property
    def has_constraints(self) -> bool:
        return self._constraints is not None

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            if self._generators is not None:
                self._vertices = _extreme_rows(self._generators)
                self._generators = None
            else:
                verts = _enumerate_vertices(self.model.n, self._constraints)
                if len(verts) == 0:
                    raise EmptyIntersectionError(
                        "constraint system has no probability solution")
                self._vertices = verts
        return self._vertices

    @property
    def constraints(self) -> np.ndarray:
        """Read-only rows ``[a | b]``: as given, or the vertices' facets."""
        if self._constraints is None:
            self._constraints = _facets(self.vertices)
            self._constraints.flags.writeable = False
        return self._constraints

    def _atom_blocks(self, stage: int) -> tuple:
        """The stage's charged-vertex blocks, built on the first call for the
        stage and kept: the one place that works out which vertices charge an
        atom of the model, and with what mass, for ``rho``, ``kernel_polytope``,
        the m-stability verdict and the supermartingale test.

        Returns ``(cols, blocks, masses, starts, ids, charged, empty)``:
        ``cols`` lists the outcomes atom after atom (an ``intp`` array);
        ``blocks`` holds, per atom, its span ``(a, e)`` in ``cols`` and the
        rows ``V[charged][:, idx]`` of the vertices its mask in ``charged``
        marks; ``masses`` holds their masses on their atom, atom after atom,
        and ``starts`` where each atom's run begins; ``ids`` maps every outcome
        to its atom; ``empty`` lists the ids of atoms no vertex charges.  Such
        an atom gets one zero row of mass 1, so it prices to zero if allowed.
        """
        cached = self._blocks.get(stage)
        if cached is None:
            V = self.vertices
            cols, blocks, masses, charges, empty = [], [], [], [], []
            a = 0
            for atom_id, atom in enumerate(self.model.atoms(stage)):
                idx = np.array(atom, dtype=np.intp)
                mass = V[:, idx].sum(axis=1)
                charged = mass > 0
                if charged.any():
                    block, mass = V[charged][:, idx], mass[charged]
                else:
                    empty.append(atom_id)
                    block, mass = np.zeros((1, len(idx))), np.ones(1)
                cols.append(idx)
                blocks.append((a, a + len(idx), block))
                masses.append(mass)
                charges.append(charged)
                a += len(idx)
            starts = np.cumsum([0] + [len(m) for m in masses[:-1]])
            cached = (np.concatenate(cols), blocks, np.concatenate(masses), starts,
                      self.model.atom_ids(stage), tuple(charges), tuple(empty))
            self._blocks[stage] = cached
        return cached

    def _refuse_uncharged(self, stages, atom_id=None):
        """Raise EMPTY_KERNEL for the first atom, in stage order over ``stages``,
        that no vertex charges (only atom ``atom_id`` when given)."""
        for s in stages:
            for a in self._atom_blocks(s)[-1]:
                if atom_id in (None, a):
                    raise _uncharged(self.model.stages[s].label, a)

    def __repr__(self):
        rep = []
        rows = self._vertices if self._vertices is not None else self._generators
        if rows is not None:
            rep.append(f"{len(rows)} vertices")
        if self._constraints is not None:
            rep.append(f"{len(self._constraints)} constraints")
        return f"RiskSet({', '.join(rep)}, n={self.model.n})"


def _uncharged(label: str, a: int) -> EmptyKernelError:
    """EMPTY_KERNEL for atom ``a`` of stage ``label``, named one way on every route."""
    return EmptyKernelError(f"no vertex charges atom {a} at stage {label}", stage=label, atom=a)


def simplex_set(model: ScenarioModel) -> RiskSet:
    """The full probability simplex (all point masses) on the model."""
    return RiskSet.from_vertices(model, np.eye(model.n))


def singleton(model: ScenarioModel, q) -> RiskSet:
    return RiskSet.from_vertices(model, [q])


# -- densities and kernels ---------------------------------------------------

def density(model: ScenarioModel, q, stage) -> tuple[np.ndarray, np.ndarray]:
    """Density of ``q`` w.r.t. the reference, and its stage restriction.

    Returns the pointwise ratio and its conditional expectation under the
    reference at ``stage`` (the density of the restriction of ``q``).
    """
    lam = _outcome_vector(q, model.n, "measure") / model.reference
    lam_t = condexp(model.reference, lam, stage, model).values
    return lam, lam_t


def kernel_polytope(rs: RiskSet, s, t, atom_id: int) -> np.ndarray:
    """Extreme one-step kernels of the set at one atom, one per row.

    The columns follow ``model.sub_atoms(s, t, atom_id)``.  By the
    perspective identity, the conditional kernels of the whole set are
    exactly the convex hull of the charged vertices' kernels: each charged
    vertex's row of the atom's block (``_atom_blocks``), summed over the
    outcomes of each child and divided by the vertex's mass on the atom.
    The rows are reduced to extreme points and sorted on the first call for
    ``(s, t, atom_id)``, and the read-only array is kept on the set and
    returned.
    """
    model = rs.model
    st_s, st_t = model.stage(s), model.stage(t)
    if st_t.index <= st_s.index:
        raise OutOfRangeError("kernel target stage must come after the source stage")
    model.atom(st_s, atom_id)      # refuses an id out of range
    key = (st_s.index, st_t.index, atom_id)
    rows = rs._kernels.get(key)
    if rows is None:
        rs._refuse_uncharged([st_s.index], atom_id)
        cols, blocks, masses, starts = rs._atom_blocks(st_s.index)[:4]
        a, e, block = blocks[atom_id]
        fine = model.atom_ids(st_t)[cols[a:e]]
        rows = np.stack([block[:, fine == c].sum(axis=1)
                         for c in model.sub_atoms(st_s, st_t, atom_id)], axis=1)
        rows = rows / masses[starts[atom_id]:starts[atom_id] + len(block), None]
        rows = _sorted_rows(_extreme_rows(rows))
        rows.flags.writeable = False
        rs._kernels[key] = rows
    return rows


# -- the linear-fractional primitive ----------------------------------------

def maximize_ratio(rs: RiskSet, numerator, atom: Iterable[int]) -> float:
    """``sup { sum_B Q a / Q(B) : Q in rs, Q(B) > 0 }``.

    With vertices the supremum is the maximum over charged vertices (the ratio
    of a mixture is a mass-weighted average of vertex ratios).  With only
    constraints it is solved as a homogenized LP.  On a one-outcome atom
    ``{w}`` every charging measure gives the ratio ``a[w]``, so once an LP
    has found ``w`` charged the set keeps that answer and later calls return
    the LP's value ``-(c . y)`` at ``y_w = 1`` without a solver call: ``a[w]``,
    with a zero as ``-0.0``.  An atom that no measure of the set charges
    raises EMPTY_KERNEL with the same message on either route.
    """
    idx = list(atom)
    n = rs.model.n
    if not idx:
        raise OutOfRangeError("empty atom")
    if (not all(_is_index(i) for i in idx) or min(idx) < 0 or max(idx) >= n
            or len(set(idx)) != len(idx)):
        raise OutOfRangeError(f"atom {tuple(idx)} must hold distinct outcome "
                              f"indices below {n}")
    a = _outcome_vector(numerator, n, "numerator")
    if not rs.has_vertices:
        if len(idx) == 1 and idx[0] in rs._charged:
            return -(0.0 - float(a[idx[0]]))
        value = _maximize_ratio_lp(rs, a, idx)
        if len(idx) == 1:
            rs._charged.add(idx[0])
        return value
    V = rs.vertices
    masses = V[:, idx].sum(axis=1)
    charged = masses > 0
    if not charged.any():
        raise EmptyKernelError(f"no measure in the set charges atom {tuple(idx)}")
    vals = (V[charged][:, idx] @ a[idx]) / masses[charged]
    return float(vals.max())


def _maximize_ratio_lp(rs: RiskSet, a: np.ndarray, idx: list[int]) -> float:
    """Homogenization: y = Q / Q(B), extra scale variable s = 1 / Q(B).

    The objective is scaled by a power of two that brings ``max |a|`` on the
    atom below 1 (claims already below 1 are left as they are), which keeps
    HiGHS inside its numeric range on large claims; the scaling is exact.
    """
    from scipy.optimize import linprog

    n = rs.model.n
    H = rs.constraints
    scale = 2.0 ** -max(0, np.frexp(np.abs(a[idx]).max())[1])
    c = np.zeros(n + 1)
    c[idx] = -a[idx] * scale
    A_ub = None
    b_ub = None
    if len(H):
        A_ub = np.column_stack([H[:, :-1], -H[:, -1]])
        b_ub = np.zeros(len(H))
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
    return float(-res.fun / scale)


# -- membership, inclusion, intersection -------------------------------------

def member(rs: RiskSet, q) -> bool:
    """Membership at tolerance, from the representation the set was built
    from: its rows for a set given rows (an intersection too), else
    convex-combination feasibility against the vertices, facets read or not.

    Constraint rows are scaled to unit normals first, as in vertex
    enumeration, so the verdict does not depend on how a row is scaled.  A
    vertex near the point (``_near_vertex``) answers "a member" and a
    separating direction (``_separated``) answers "not a member" before NNLS
    when they can; the verdict is that of NNLS alone.
    """
    tol = rs.model.config.tol
    w = _outcome_vector(q, rs.model.n, "measure")
    # written so that NaN, which fails every comparison, answers False
    if not (w.min() >= -tol and abs(w.sum() - 1.0) <= tol):
        return False
    if rs._rows_given:
        A, b = _unit_rows(rs.constraints)
        return bool(np.all(A @ w <= b + rs.model.config.tol_at(b[:, None])))
    V = rs.vertices
    if _near_vertex(V, w, tol):
        return True
    return not _separated(V, w, tol) and _in_hull(V, w, tol)


def _unit_rows(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``[A | b]`` as ``(A, b)`` scaled to unit normals; rows with a
    zero normal are left as they are."""
    A, b = H[:, :-1], H[:, -1]
    nrm = np.linalg.norm(A, axis=1)
    nrm[nrm <= 1e-15] = 1.0
    return A / nrm[:, None], b / nrm


def includes(rs1: RiskSet, rs2: RiskSet) -> bool:
    """Every vertex of ``rs2`` is a member of ``rs1``."""
    _check_same_model(rs1.model, rs2.model)
    return all(member(rs1, v) for v in rs2.vertices)


def set_equal(rs1: RiskSet, rs2: RiskSet) -> bool:
    return includes(rs1, rs2) and includes(rs2, rs1)


def intersect(rs1: RiskSet, rs2: RiskSet) -> RiskSet:
    """Intersection by concatenating H-representations.

    The result keeps the joined rows, which stay authoritative, and carries
    their vertices, enumerated at once.  Raises EMPTY_INTERSECTION when no
    probability measure satisfies both.
    """
    _check_same_model(rs1.model, rs2.model)
    rs = RiskSet.from_constraints(rs1.model, np.vstack([rs1.constraints, rs2.constraints]))
    rs.vertices     # raises EmptyIntersectionError on an empty system
    return rs


def _check_same_model(m1: ScenarioModel, m2: ScenarioModel):
    """Refuse models that differ in outcomes, stage labels or partitions."""
    if m1 is m2:
        return
    if (m1.outcomes != m2.outcomes or len(m1.stages) != len(m2.stages)
            or any(a.label != b.label for a, b in zip(m1.stages, m2.stages))
            or m1.partitions != m2.partitions):
        raise SchemaError("inputs live on different models")
