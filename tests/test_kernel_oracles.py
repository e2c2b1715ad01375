"""The array geometry kernels against the loop code they replaced.

The reference functions below are the former implementations, kept as
oracles: pairwise greedy dedup, NNLS-only extreme points, pasting by
``itertools.product`` and the per-pair H->V cut with one rank test per
candidate.  The array kernels must give bit-identical arrays.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riskchain.riskset as riskset
from riskchain import (
    DEFAULT,
    RiskSet,
    ScenarioModel,
    SizeBoundError,
    mstable_hull,
    paste_assembly,
)
from riskchain.riskset import (
    LinearConstraint,
    _dedup_rows,
    _enumerate_vertices,
    _extreme_rows,
    _in_hull,
    _sorted_rows,
    kernel_polytope,
)

from randmodels import random_model, random_riskset, refine_once

TOL = DEFAULT.dedup_tol
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- reference implementations -----------------------------------------------

def dedup_ref(rows, tol):
    kept = []
    for r in rows:
        if not any(np.max(np.abs(r - k)) <= tol for k in kept):
            kept.append(r)
    return np.array(kept) if kept else rows[:0]


def extreme_ref(rows, tol):
    rows = dedup_ref(rows, tol)
    if len(rows) <= 2:
        return rows
    keep = [i for i in range(len(rows))
            if not _in_hull(np.delete(rows, i, axis=0), rows[i], tol)]
    return rows[keep]


def paste_ref(model, sources, config):
    bound = config.work_bound
    final = model.final_stage.index
    cache = {}

    def node_kernels(stage_idx, atom_id):
        src = sources[stage_idx]
        if src is None:
            children = model.sub_atoms(stage_idx, stage_idx + 1, atom_id)
            return children, list(np.eye(len(children)))
        kernels = kernel_polytope(src, stage_idx, stage_idx + 1, atom_id)
        return list(kernels[0].children), [k.probs for k in kernels]

    def assemble(stage_idx, atom_id):
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
        rows = []
        for probs in kernels:
            charged = [i for i, p in enumerate(probs) if p > 0]
            parts = [assemble(stage_idx + 1, children[i]) for i in charged]
            count = 1
            for p in parts:
                count *= len(p)
            if count * len(kernels) > bound or count + len(rows) > bound:
                raise SizeBoundError(f"pasting assembly exceeds the work bound of {bound}")
            for combo in itertools.product(*parts):
                mu = np.zeros(model.n)
                for i, cond in zip(charged, combo):
                    mu += probs[i] * cond
                rows.append(mu)
        out = extreme_ref(np.array(rows), config.dedup_tol)
        cache[key] = out
        return out

    return RiskSet.from_vertices(model, _sorted_rows(assemble(0, 0)), config=config)


def is_vertex_ref(w, rows, atol):
    n = len(w)
    normals = [np.ones(n) / np.sqrt(n)]
    for i in range(n):
        if w[i] <= atol:
            e = np.zeros(n)
            e[i] = 1.0
            normals.append(e)
    for a, b in rows:
        if abs(a @ w - b) <= atol:
            normals.append(a)
    if len(normals) < n:
        return False
    return np.linalg.matrix_rank(np.array(normals), tol=1e-8) == n


def enumerate_ref(n, constraints, config):
    atol = config.dedup_tol
    rows, pending = [], []
    for c in constraints:
        nrm = float(np.linalg.norm(c.a))
        if nrm <= 1e-15:
            if c.b < -1e-12:
                return np.empty((0, n))
            continue
        pending.append((c.a / nrm, c.b / nrm))
    if pending:
        stacked = dedup_ref(np.array([np.concatenate([a, [b]]) for a, b in pending]), 1e-12)
        pending = [(r[:-1], float(r[-1])) for r in stacked]
    verts = np.eye(n)
    for a, b in pending:
        rows.append((a, b))
        vals = verts @ a
        keep_mask = vals <= b + atol
        if keep_mask.all():
            continue
        kept, dropped = verts[keep_mask], verts[~keep_mask]
        crossings = []
        for u, fu in zip(kept, vals[keep_mask]):
            for v, fv in zip(dropped, vals[~keep_mask]):
                denom = fv - fu
                if denom <= 1e-13:
                    continue
                lam = (b - fu) / denom
                crossings.append(u + np.clip(lam, 0.0, 1.0) * (v - u))
        pieces = [kept]
        if crossings:
            cand = dedup_ref(np.array(crossings), atol)
            good = [w for w in cand if is_vertex_ref(w, rows, atol)]
            if good:
                pieces.append(np.array(good))
        verts = dedup_ref(np.vstack(pieces), atol) if len(kept) or crossings else verts[:0]
        if len(verts) == 0:
            break
    return _sorted_rows(verts)


def assert_identical(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def paste_with_ref_kernels(model, sources, config):
    """``paste_ref`` with the reference kernels inside ``kernel_polytope`` too."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(riskset, "_extreme_rows", extreme_ref)
        m.setattr(riskset, "_dedup_rows", dedup_ref)
        return paste_ref(model, sources, config).vertices


# -- row strategies ------------------------------------------------------------

@st.composite
def near_chains(draw):
    """Rows whose consecutive members lie within ``tol`` of each other, so the
    greedy winner depends on order, interleaved with their shuffles."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    tol = draw(st.sampled_from([1e-9, 1e-3]))
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        base = rng.uniform(0.0, 1.0, d)
        steps = rng.choice([-0.7, 0.0, 0.7], size=(draw(st.integers(2, 8)), d)) * tol
        chains.append(base + np.cumsum(steps, axis=0))
    rows = np.vstack(chains)
    if draw(st.booleans()):
        rows = rows[rng.permutation(len(rows))]
    return rows, tol


@st.composite
def point_clouds(draw):
    """Probability rows mixing random points, exact duplicates, interior
    convex combinations and collinear runs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 6))
    pts = rng.dirichlet(np.full(d, draw(st.sampled_from([0.3, 1.0, 3.0]))),
                        size=draw(st.integers(1, 8)))
    pieces = [pts]
    if draw(st.booleans()):
        pieces.append(pts[rng.integers(0, len(pts), draw(st.integers(1, 5)))])
    if draw(st.booleans()):
        w = rng.dirichlet(np.ones(len(pts)), size=draw(st.integers(1, 5)))
        pieces.append(w @ pts)
    if draw(st.booleans()) and len(pts) >= 2:
        t = rng.uniform(0.0, 1.0, draw(st.integers(1, 5)))[:, None]
        pieces.append(pts[0] + t * (pts[1] - pts[0]))
    if draw(st.booleans()):
        pieces.append(np.eye(d)[rng.integers(0, d, draw(st.integers(1, 3)))])
    rows = np.vstack(pieces)
    return rows[rng.permutation(len(rows))]


# -- dedup ---------------------------------------------------------------------

class TestDedup:
    @SETTINGS
    @given(near_chains())
    def test_near_duplicate_chains(self, case):
        rows, tol = case
        assert_identical(_dedup_rows(rows, tol), dedup_ref(rows, tol))

    @SETTINGS
    @given(point_clouds(), st.sampled_from([0.0, 1e-9, 0.05, 0.3]))
    def test_clouds_with_duplicates(self, rows, tol):
        assert_identical(_dedup_rows(rows, tol), dedup_ref(rows, tol))

    def test_chain_keeps_rows_near_only_to_dropped_ones(self):
        rows = np.array([[0.0], [0.6], [1.2], [1.8]])
        assert_identical(_dedup_rows(rows, 1.0), np.array([[0.0], [1.2]]))

    def test_empty_and_single(self):
        assert _dedup_rows(np.empty((0, 3)), TOL).shape == (0, 3)
        assert_identical(_dedup_rows(np.ones((1, 3)), TOL), np.ones((1, 3)))

    def test_many_rows_cross_row_blocks(self):
        rng = np.random.default_rng(5)
        base = rng.dirichlet(np.ones(4), size=200)
        rows = np.vstack([base, base + 4e-10, base[::-1]])[rng.permutation(600)]
        assert riskset._BLOCK // len(rows) < len(rows)
        assert_identical(_dedup_rows(rows, TOL), dedup_ref(rows, TOL))


# -- extreme points ------------------------------------------------------------

class TestExtremeRows:
    @SETTINGS
    @given(point_clouds())
    def test_matches_nnls_only(self, rows):
        assert_identical(_extreme_rows(rows, TOL), extreme_ref(rows, TOL))

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(3, 12))
    def test_collinear_rows(self, seed, d, k):
        rng = np.random.default_rng(seed)
        p, q = rng.dirichlet(np.ones(d), size=2)
        rows = p + rng.uniform(0.0, 1.0, (k, 1)) * (q - p)
        assert_identical(_extreme_rows(rows, TOL), extreme_ref(rows, TOL))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(64, 160))
    def test_refined_certificate_on_large_sets(self, seed, d, k):
        # from 64 rows on the certificate refines its directions
        rng = np.random.default_rng(seed)
        pts = rng.dirichlet(np.full(d, 0.5), size=k - k // 4)
        inner = rng.dirichlet(np.ones(len(pts)), size=k // 4) @ pts
        rows = np.vstack([pts, inner])[rng.permutation(k)]
        assert_identical(_extreme_rows(rows, TOL), extreme_ref(rows, TOL))

    def test_interior_point_is_dropped(self):
        corners = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rows = np.vstack([corners, corners.mean(axis=0)])
        assert_identical(_extreme_rows(rows, TOL), corners)

    def test_certificate_admits_only_nnls_extreme_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = _dedup_rows(rng.dirichlet(np.ones(4), size=12), TOL)
            for i in np.flatnonzero(riskset._certified_extreme(rows, TOL)):
                assert not _in_hull(np.delete(rows, i, axis=0), rows[i], TOL)


# -- pasting and the m-stable hull ---------------------------------------------

class TestPasting:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_random_models(self, seed, free_step):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=3, n_max=6, stages_min=2, stages_max=4)
        rs = random_riskset(rng, model, k_min=1, k_max=3)
        sources = [rs] * (len(model.stages) - 1)
        if free_step:
            sources[0] = None
        assert_identical(paste_assembly(model, sources, rs.config).vertices,
                         paste_with_ref_kernels(model, sources, rs.config))

    # seeded ladder: every atom splits at every stage, so hulls reach
    # 8-1024 vertices (1024 at 16 outcomes x 5 stages)
    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    @pytest.mark.parametrize("stages", [3, 4, 5])
    def test_mstable_hull_ladder(self, n, stages):
        rng = np.random.default_rng([n, stages])
        parts = [[list(range(n))]]
        for _ in range(stages - 2):
            parts.append(refine_once(parts[-1], rng, split_prob=1.0))
        parts.append([[w] for w in range(n)])
        model = ScenarioModel([f"w{i}" for i in range(n)], [str(t) for t in range(stages)],
                              parts, rng.dirichlet(np.full(n, 5.0)))
        k = 3 if n <= 12 else 2
        rs = random_riskset(rng, model, k_min=k, k_max=k)
        assert_identical(mstable_hull(rs).vertices,
                         paste_with_ref_kernels(model, [rs] * (stages - 1), rs.config))


# -- H -> V cut ----------------------------------------------------------------

class TestEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4))
    def test_facets_of_random_sets(self, seed, n, k):
        rng = np.random.default_rng(seed)
        verts = rng.dirichlet(np.ones(n), size=k)
        cons = RiskSet.from_vertices(random_model(rng, n, n, 2, 2), verts).constraints
        assert_identical(_enumerate_vertices(n, cons, DEFAULT),
                         enumerate_ref(n, cons, DEFAULT))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 6))
    def test_random_cuts(self, seed, n, m):
        rng = np.random.default_rng(seed)
        cons = [LinearConstraint(rng.normal(size=n), rng.uniform(-0.3, 0.5))
                for _ in range(m)]
        assert_identical(_enumerate_vertices(n, cons, DEFAULT),
                         enumerate_ref(n, cons, DEFAULT))
