"""The array geometry kernels against the loop code they replaced.

The reference functions below are the former implementations, kept as
oracles: pairwise greedy dedup, NNLS-only extreme points, pasting by
``itertools.product``, the per-pair H->V cut with one rank test per
candidate, the array H->V cut that cuts by both rows of an equality pair,
the per-outcome loops that built the LP rows of the
acceptance-split oracle and ``dual_cone_member``, ``rho`` as a loop of
``maximize_ratio`` calls, ``consistency_report`` with one ``eta`` per row
and per sampled claim, and V-set ``member`` as one NNLS test.  The array
kernels must give bit-identical arrays and the same verdicts.
"""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import riskchain.consistency as consistency
import riskchain.risk as risk
import riskchain.riskset as riskset
from riskchain import (
    Chain,
    Claim,
    EmptyKernelError,
    EngineError,
    InfeasibleError,
    RiskSet,
    ScenarioModel,
    SizeBoundError,
    consistency_report,
    decompose_acceptance,
    eta,
    is_mstable,
    mstable_hull,
    paste_assembly,
    rho,
    set_equal,
)
from riskchain.consistency import ConsistencyReport
from riskchain.riskset import (
    _dedup_rows,
    _enumerate_vertices,
    _extreme_rows,
    _in_hull,
    _sorted_rows,
    _maximize_ratio_lp,
    kernel_polytope,
    maximize_ratio,
    member,
)
from riskchain.config import DEDUP_TOL, WORK_BOUND
from riskchain.twobytwo import market_model

import oracles
from oracles import atom_masses, dedup_pairwise, dual_cone_member
from randmodels import random_model, random_riskset, refine_once

TOL = DEDUP_TOL
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


def paste_ref(model, sources):
    bound = WORK_BOUND
    final = model.final_stage.index
    cache = {}

    def node_kernels(stage_idx, atom_id):
        src = sources[stage_idx]
        children = model.sub_atoms(stage_idx, stage_idx + 1, atom_id)
        if src is None:
            return children, list(np.eye(len(children)))
        return children, list(kernel_polytope(src, stage_idx, stage_idx + 1, atom_id))

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
        out = extreme_ref(np.array(rows), DEDUP_TOL)
        cache[key] = out
        return out

    rs = RiskSet.from_vertices(model, assemble(0, 0))
    # the constructor divides each row by its sum; sort the rows it made
    rs._generators = _sorted_rows(rs._generators)
    return rs


def kernel_choices(model, sources):
    """The number of ways to choose one extreme kernel per reached node,
    ``N(node) = sum_k prod_{i: k_i > 0} N(child_i)`` with ``N = 1`` on a final
    atom, read from ``kernel_polytope``; and the smallest charged kernel
    mass on the way."""
    final = model.final_stage.index
    smallest = 1.0

    @functools.cache
    def count(stage_idx, atom_id):
        nonlocal smallest
        if stage_idx == final:
            return 1
        src = sources[stage_idx]
        children = model.sub_atoms(stage_idx, stage_idx + 1, atom_id)
        kernels = (np.eye(len(children)) if src is None
                   else kernel_polytope(src, stage_idx, stage_idx + 1, atom_id))
        total = 0
        for probs in kernels:
            charged = np.flatnonzero(probs > 0)
            smallest = min(smallest, probs[charged].min())
            total += math.prod(count(stage_idx + 1, children[i]) for i in charged)
        return total

    return count(0, 0), smallest


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


def enumerate_ref(n, H):
    atol = DEDUP_TOL
    rows, pending = [], []
    for row in H:
        nrm = float(np.linalg.norm(row[:-1]))
        if nrm <= 1e-15:
            if row[-1] < -1e-12:
                return np.empty((0, n))
            continue
        pending.append((row[:-1] / nrm, row[-1] / nrm))
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


def enumerate_cut_ref(n, H):
    """``_enumerate_vertices`` with one cut per row, both rows of an
    equality pair included: ``enumerate_ref`` with array crossings, the same
    bytes and the same all-crossings-then-rank filter, fast enough to draw
    facet H-reps up to n = 8."""
    atol = DEDUP_TOL
    pending = []
    for row in H:
        nrm = float(np.linalg.norm(row[:-1]))
        if nrm <= 1e-15:
            if row[-1] < -1e-12:
                return np.empty((0, n))
            continue
        pending.append(row / nrm)
    rows = dedup_pairwise(np.array(pending), 1e-12) if pending else np.empty((0, n + 1))
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
            cand = dedup_pairwise(u + lam[:, None] * (dropped[iv] - u), atol)
            cut_rows = [(r[:-1], r[-1]) for r in rows[:t + 1]]
            good = [w for w in cand if is_vertex_ref(w, cut_rows, atol)]
            if good:
                pieces.append(np.array(good))
        verts = dedup_pairwise(np.vstack(pieces), atol) if len(kept) or len(iu) else verts[:0]
        if len(verts) > WORK_BOUND:
            raise SizeBoundError("work bound", bound=WORK_BOUND, reached=len(verts),
                                 layer="riskset.vertices")
        if len(verts) == 0:
            break
    return _sorted_rows(verts)


def atom_masses_ref(model, V, s, t):
    ids = model.atom_ids(t)
    rows = []
    for atom in model.atoms(s):
        for v in V:
            row = np.zeros(len(model.atoms(t)))
            for w in atom:
                row[ids[w]] += v[w]
            rows.append(row)
    return np.array(rows)


def decompose_lp_ref(model, V):
    """``A_ub`` and ``A_eq`` of the acceptance-decomposition LP."""
    blocks = []
    offsets = [0]
    for s in range(len(model.stages) - 1):
        blocks.append((s, model.atoms(s + 1)))
        offsets.append(offsets[-1] + len(blocks[-1][1]))
    n_var = offsets[-1]
    A_eq = np.zeros((model.n, n_var))
    for (s, atoms), off in zip(blocks, offsets):
        ids = model.atom_ids(s + 1)
        for w in range(model.n):
            A_eq[w, off + ids[w]] += 1.0
    rows = []
    for (s, atoms), off in zip(blocks, offsets):
        ids = model.atom_ids(s + 1)
        for atom in model.atoms(s):
            for v in V:
                row = np.zeros(n_var)
                for w in atom:
                    row[off + ids[w]] += v[w]
                rows.append(row)
    return np.array(rows), A_eq


def dual_cone_lp_ref(model, V, x, s, t):
    """``A_ub`` and ``b_ub`` of the dual-cone feasibility LP."""
    atoms_t = model.atoms(t)
    ids = model.atom_ids(t)
    rows = []
    rhs = []
    for a, atom in enumerate(atoms_t):
        row = np.zeros(len(atoms_t))
        row[a] = -1.0
        rows.append(row)
        rhs.append(-float(x[list(atom)].max()))
    for atom in model.atoms(s):
        for v in V:
            row = np.zeros(len(atoms_t))
            for w in atom:
                row[ids[w]] += v[w]
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def uncharged_ref(st_, atom_id):
    """``rho``'s refusal of an atom that no measure of the set charges, on
    either route: by its id and stage, where ``maximize_ratio`` names it by
    its outcomes."""
    return EmptyKernelError(f"no vertex charges atom {atom_id} at stage {st_.label}",
                            stage=st_.label, atom=atom_id)


def rho_ref(rs, x, s):
    """``rho`` as the per-atom ``maximize_ratio`` loop."""
    model = rs.model
    st_ = model.stage(s)
    if st_.index == model.final_stage.index:
        return x.copy()
    out = np.empty(model.n)
    for atom_id, atom in enumerate(model.atoms(st_)):
        try:
            out[list(atom)] = maximize_ratio(rs, x, atom)
        except EmptyKernelError:
            raise uncharged_ref(st_, atom_id) from None
    return out


def rho_lp_ref(rs, X, s):
    """``rho`` on a constraint-only set as one ``_maximize_ratio_lp`` per
    claim row and atom."""
    model = rs.model
    st_ = model.stage(s)
    if st_.index == model.final_stage.index:
        return X.copy()
    out = np.empty(X.shape)
    for row, x in zip(out.reshape(-1, model.n), X.reshape(-1, model.n)):
        for atom_id, atom in enumerate(model.atoms(st_)):
            try:
                row[list(atom)] = _maximize_ratio_lp(rs, x, list(atom))
            except EmptyKernelError:
                raise uncharged_ref(st_, atom_id) from None
    return out


def row_verdict_ref(rs, A, b):
    """``consistency._row_verdict`` with one ``eta`` call per row."""
    V = rs.vertices
    if len(A) == 0:
        return True, None, 0.0
    chain = Chain.single(rs)
    tol = rs.model.config.tol
    eta0 = np.array([eta(chain, Claim(a)).claims[0].values[0] for a in A])
    excess = eta0 - b - tol * (1.0 + np.abs(b))
    worst = int(excess.argmax())
    if excess[worst] <= 0:
        return True, None, 0.0
    x = A[worst] + 0.0
    return False, Claim(x), float(eta0[worst] - (V @ x).max())


def consistency_report_ref(rs, sample):
    """``consistency_report`` with the per-claim loops: one ``eta`` per row
    of the verdict and one ``eta`` plus one ``rho`` per sampled claim and
    date."""
    tol = rs.model.config.tol
    rows = consistency._verdict_rows(rs)
    hull = None
    witness = None
    witness_gap = 0.0
    if rows is None:
        hull = mstable_hull(rs)
        mstable = set_equal(rs, hull)
    else:
        mstable, witness, witness_gap = row_verdict_ref(rs, *rows)
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
    if mstable and not sampled:
        raise EngineError("internal disagreement")
    note = None
    if not mstable:
        if hull is not None:
            witness, witness_gap = consistency.find_witness(rs, hull)
        if sampled:
            note = "inconsistent, sample found no witness; the analytic test supplied one"
        if witness is None and sampled_witness is not None:
            witness = sampled_witness
            witness_gap = consistency._stage0_gap(rs, hull, sampled_witness.values)
    return ConsistencyReport(mstable and sampled, mstable, sampled, max_gap,
                             witness, witness_gap, note)


def captured_linprog(monkeypatch, module):
    """Record the objective ``c`` and the keyword arguments of every
    ``linprog`` call that reads it from ``module``."""
    calls = []
    real = module.linprog

    def spy(c, **kwargs):
        calls.append(dict(kwargs, c=c))
        return real(c, **kwargs)

    monkeypatch.setattr(module, "linprog", spy)
    return calls


def assert_identical(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def paste_with_ref_kernels(model, sources):
    """``paste_ref`` with the reference kernels inside ``kernel_polytope`` too."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(riskset, "_extreme_rows", lambda rows: extreme_ref(rows, DEDUP_TOL))
        m.setattr(riskset, "_dedup_rows", dedup_ref)
        return paste_ref(model, sources).vertices


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


@st.composite
def screen_cases(draw):
    """Rows on both sides of ``_dedup_rows``' switch from the all-pairs test
    to the projection screen: 2-300 random rows of 1-17 columns at one scale
    from 1e-6 to 1e6, plus exact duplicates, chains whose neighbours are
    within ``tol`` but whose ends are not, rows moved by ``tol`` in every
    column, and rows moved off others along a direction the projection
    does not see, some within ``tol``, some not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 17))
    k = draw(st.integers(2, 300))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.3]))
    scale = 10.0 ** draw(st.integers(-6, 6))
    rows = rng.uniform(-1.0, 1.0, (k, d)) * scale
    pieces = [rows]
    if draw(st.booleans()):
        pieces.append(rows[rng.integers(0, k, int(rng.integers(1, k + 1)))])
    if draw(st.booleans()):
        steps = rng.choice([-0.7, 0.0, 0.7], size=(4, 6, d)) * tol
        starts = rows[rng.integers(0, k, 4)]
        pieces.append((starts[:, None] + np.cumsum(steps, axis=1)).reshape(-1, d))
    if draw(st.booleans()):
        # a shift of tol in every column moves the projection the most
        pieces.append(rows[rng.integers(0, k, 8)] + tol * rng.choice([-1.0, 1.0], size=(8, 1)))
    if d >= 2 and draw(st.booleans()):
        w = riskset._screen_weights(d)
        i, j = rng.choice(d, 2, replace=False)
        tie = np.zeros(d)
        tie[i], tie[j] = w[j], -w[i]    # tie @ w is zero
        tie /= np.abs(tie).max()
        gaps = (tol or 1e-3 * scale) * rng.choice([0.5, 0.999, 1.5, 3.0], size=8)
        pieces.append(rows[rng.integers(0, k, 8)] + gaps[:, None] * tie)
    rows = np.vstack(pieces)
    if draw(st.booleans()):
        rows = rows[rng.permutation(len(rows))]
    return rows, tol


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

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(screen_cases())
    def test_both_paths_match_the_oracles(self, case):
        rows, tol = case
        got = _dedup_rows(rows, tol)
        assert_identical(got, dedup_pairwise(rows, tol))
        assert_identical(got, dedup_ref(rows, tol))

    def test_many_rows_take_the_screened_path(self, monkeypatch):
        """600 rows, a shifted copy of each within ``DEDUP_TOL`` and 30
        copies of one row, in chunks whose windows hold at most 10
        candidates: each copy is a chunk of its own, and rows decided in
        earlier chunks drop later ones; the projection screen decides it."""
        rng = np.random.default_rng(5)
        base = rng.dirichlet(np.ones(4), size=200)
        rows = np.vstack([base, base + 4e-10, base[::-1], np.tile(base[7], (30, 1))])
        rows = rows[rng.permutation(len(rows))]
        assert len(rows) ** 2 * 4 > riskset._SMALL
        screened = []
        real = riskset._screen_weights
        monkeypatch.setattr(riskset, "_screen_weights", lambda d: screened.append(d) or real(d))
        monkeypatch.setattr(riskset, "_BLOCK", 40)
        got = _dedup_rows(rows, TOL)
        assert screened == [4]
        assert_identical(got, dedup_pairwise(rows, TOL))
        assert_identical(got, dedup_ref(rows, TOL))

    def test_rows_an_ulp_apart_at_large_scale(self):
        """Rows near 1e4 and their copies moved by an ulp in every column,
        one way, with ``tol`` one ulp: the rounding of the projections, some
        ulps of their partial sums, takes the computed gap to about four
        times the ``tol * sum(w)`` of the exact one, so only the screen's
        rounding slack keeps these pairs."""
        rng = np.random.default_rng(9)
        x = rng.uniform(1e4, 1.6e4, (300, 17))
        y = x + np.spacing(x) * rng.choice([-1.0, 1.0], size=(300, 1))
        rows = np.vstack([x, y])[rng.permutation(600)]
        tol = float(np.spacing(1e4))
        got = _dedup_rows(rows, tol)
        assert len(got) == 300
        assert_identical(got, dedup_pairwise(rows, tol))

    def test_copies_of_one_row_are_one_row(self):
        """Every pair of 4,096 copies is near; the screen tests a chunk of
        rows at a time, against the rows not yet dropped, so its arrays stay
        far below the k^2 pairs' 128 MB of indices."""
        rows = np.tile([0.25, 0.75], (4096, 1))
        tracemalloc.start()
        try:
            got = _dedup_rows(rows, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_identical(got, rows[:1])
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("k", [4, 300])
    def test_non_finite_rows_are_kept_and_near_no_row(self, k):
        """Rows with a NaN or an infinity, each one twice, among duplicated
        finite rows: all are kept, on both paths, with no warning."""
        rng = np.random.default_rng(k)
        base = rng.dirichlet(np.ones(5), size=k // 2)
        bad = np.tile(base[:1], (4, 1))
        bad[0, 1], bad[1, 2], bad[2] = np.nan, np.inf, -np.inf
        bad[3, [0, 4]] = np.inf, -np.inf
        rows = np.vstack([base, base, bad, bad])[rng.permutation(k // 2 * 2 + 8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _dedup_rows(rows, TOL)
        with np.errstate(invalid="ignore"):
            assert_identical(got, dedup_pairwise(rows, TOL))
        assert (~np.isfinite(got).all(axis=1)).sum() == 8
        assert len(got) == k // 2 + 8


# -- extreme points ------------------------------------------------------------

class TestExtremeRows:
    @SETTINGS
    @given(point_clouds())
    def test_matches_nnls_only(self, rows):
        assert_identical(_extreme_rows(rows), extreme_ref(rows, TOL))

    @SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(3, 12))
    def test_collinear_rows(self, seed, d, k):
        rng = np.random.default_rng(seed)
        p, q = rng.dirichlet(np.ones(d), size=2)
        rows = p + rng.uniform(0.0, 1.0, (k, 1)) * (q - p)
        assert_identical(_extreme_rows(rows), extreme_ref(rows, TOL))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(64, 160))
    def test_refined_certificate_on_large_sets(self, seed, d, k):
        # from 64 rows on the certificate refines its directions
        rng = np.random.default_rng(seed)
        pts = rng.dirichlet(np.full(d, 0.5), size=k - k // 4)
        inner = rng.dirichlet(np.ones(len(pts)), size=k // 4) @ pts
        rows = np.vstack([pts, inner])[rng.permutation(k)]
        assert_identical(_extreme_rows(rows), extreme_ref(rows, TOL))

    def test_interior_point_is_dropped(self):
        corners = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rows = np.vstack([corners, corners.mean(axis=0)])
        assert_identical(_extreme_rows(rows), corners)

    def test_certificate_admits_only_nnls_extreme_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = _dedup_rows(rng.dirichlet(np.ones(4), size=12), TOL)
            for i in np.flatnonzero(riskset._certified_extreme(rows)):
                assert not _in_hull(np.delete(rows, i, axis=0), rows[i], TOL)


# -- pasting and the m-stable hull ---------------------------------------------

def near_midpoint_set(rng):
    """One full-support vertex per outcome, plus a vertex within 1e-10-1e-7
    (max norm) of the midpoint of the first two."""
    model = random_model(rng, n_min=4, n_max=5, stages_min=3, stages_max=3)
    V = rng.dirichlet(np.full(model.n, 2.0), size=model.n)
    d = rng.normal(size=model.n)
    d -= d.mean()
    mid = (V[0] + V[1]) / 2 + 10 ** rng.uniform(-10, -7) * d / np.abs(d).max()
    return RiskSet.from_vertices(model, np.vstack([V, mid]))


def spy_on_dedup(monkeypatch):
    """The ``(rows in, rows out)`` of every ``_dedup_rows`` call in the
    package that drops a row, as the calls are made."""
    dropped = []
    real = riskset._dedup_rows

    def spy(rows, tol):
        out = real(rows, tol)
        if len(out) < len(rows):
            dropped.append((len(rows), len(out)))
        return out

    monkeypatch.setattr(riskset, "_dedup_rows", spy)
    monkeypatch.setattr(consistency, "_dedup_rows", spy)
    return dropped


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
        assert_identical(paste_assembly(model, sources).vertices,
                         paste_with_ref_kernels(model, sources))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(205)
    def test_hull_rows_are_sorted(self, seed):
        """The rows are sorted after the constructor divides each by its
        sum, which can move a row by an ulp, so a hull's ``vertices`` are in
        lexsort order; sorting before the division leaves 8 of the 16 rows
        out of order at seed 205."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=3, n_max=6, stages_min=2, stages_max=4)
        rs = random_riskset(rng, model, k_min=1, k_max=3)
        V = mstable_hull(rs).vertices
        assert_identical(_sorted_rows(V), V)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_pasted_rows_are_vertices(self, seed, sparse, free_step):
        """The full reduction keeps every pasted row, and there is one row
        per kernel choice unless a tiny charged mass lets the dedup merge
        products."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=3, n_max=6, stages_min=2, stages_max=4)
        rs = (sparse_riskset(rng, model) if sparse
              else random_riskset(rng, model, k_min=1, k_max=3))
        sources = [rs] * (len(model.stages) - 1)
        if free_step:
            sources[-1] = None      # reaches only atoms the set charges
        out = paste_assembly(model, sources).vertices
        assert_identical(_extreme_rows(out), out)   # it keeps the row order
        count, smallest = kernel_choices(model, sources)
        if smallest > 1e-6:
            assert len(out) == count

    def test_products_on_a_tiny_mass_child_are_one_vertex(self, monkeypatch):
        """A root kernel that puts 2e-12 on a child makes products that
        differ only on that child fall within ``DEDUP_TOL``: they are one
        vertex, so 8 kernel choices give 6 rows, and ``_dedup_rows`` is
        what drops the two."""
        model = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                              [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                              [0.25] * 4)
        rs = RiskSet.from_vertices(model, [[0.3, 0.2, 0.3, 0.2],
                                           [0.2, 0.3, 0.1, 0.4],
                                           [0.6, 0.4 - 2e-12, 1e-12, 1e-12]])
        sources = [rs] * (len(model.stages) - 1)
        dropped = spy_on_dedup(monkeypatch)
        out = mstable_hull(rs).vertices
        assert (8, 6) in dropped
        assert kernel_choices(model, sources)[0] == 8
        assert len(out) == 6
        assert_identical(_extreme_rows(out), out)
        assert_identical(out, paste_with_ref_kernels(model, sources))

    @pytest.mark.parametrize("seed", [22, 25, 117])
    def test_near_degenerate_set_keeps_exact_extreme_rows(self, seed, monkeypatch):
        """Near-degenerate kernels give pasted rows that NNLS at
        ``DEDUP_TOL`` finds in the hull of the others, yet which are exact
        extreme points.  Pasting keeps them, so the hull has more rows than
        the reduced reference; it holds every reference row, is the same
        set, and gives the same verdicts and time-0 prices.  Some rows on
        the way are within ``DEDUP_TOL`` of others, and ``_dedup_rows``
        drops them."""
        rng = np.random.default_rng(seed)
        dropped = spy_on_dedup(monkeypatch)
        rs = near_midpoint_set(rng)
        model = rs.model
        ref = paste_ref(model, [rs] * (len(model.stages) - 1))
        hull = mstable_hull(rs)
        assert len(hull.vertices) > len(ref.vertices)
        kept = {row.tobytes() for row in hull.vertices}
        assert all(row.tobytes() in kept for row in ref.vertices)
        assert set_equal(hull, ref)
        assert consistency._verdict_rows(rs) is None     # decided by the hull
        assert is_mstable(rs) == set_equal(rs, ref)
        assert is_mstable(hull) and is_mstable(ref)
        X = rng.uniform(-1.0, 1.0, (20, model.n))
        eta0 = eta(Chain.single(rs), Claim(X)).claims[0].values[:, 0]
        for V in (ref.vertices, hull.vertices):
            np.testing.assert_allclose(eta0, (V @ X.T).max(axis=0),
                                       rtol=0.0, atol=model.config.tol)
        assert dropped     # near rows still meet the dedup kernel

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
                         paste_with_ref_kernels(model, [rs] * (stages - 1)))


# -- H -> V cut ----------------------------------------------------------------

def random_rows(rng, n, m):
    """``m`` rows ``[a | b]``, each a normal ``a`` then ``b`` in [-0.3, 0.5]."""
    return np.array([np.r_[rng.normal(size=n), rng.uniform(-0.3, 0.5)] for _ in range(m)])


class TestEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4))
    def test_facets_of_random_sets(self, seed, n, k):
        rng = np.random.default_rng(seed)
        verts = rng.dirichlet(np.ones(n), size=k)
        cons = RiskSet.from_vertices(random_model(rng, n, n, 2, 2), verts).constraints
        assert_identical(_enumerate_vertices(n, cons), enumerate_ref(n, cons))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 6))
    def test_random_cuts(self, seed, n, m):
        rng = np.random.default_rng(seed)
        cons = random_rows(rng, n, m)
        assert_identical(_enumerate_vertices(n, cons), enumerate_ref(n, cons))


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 5),
           st.booleans())
    def test_equality_pairs_match_cutting_both_rows(self, seed, n, k, as_h_set):
        """Facet H-reps (the complement of the affine hull as row pairs), and
        random rows some of which are followed by their negation."""
        rng = np.random.default_rng(seed)
        if as_h_set:
            verts = rng.dirichlet(np.ones(n), size=k)
            cons = RiskSet.from_vertices(random_model(rng, n, n, 2, 2), verts).constraints
        else:
            cons = []
            for _ in range(k + 1):
                c = random_rows(rng, n, 1)[0]
                cons += [c, -c] if rng.random() < 0.6 else [c]
            cons = np.array(cons)
        assert_identical(_enumerate_vertices(n, cons), enumerate_cut_ref(n, cons))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 5))
    def test_equality_pairs_apart(self, seed, n, k):
        """A partner further down the list meets vertices that rows between
        the two made, so those vertices come from other crossings: the same
        vertices, not the same last bits."""
        rng = np.random.default_rng(seed)
        cons = list(random_rows(rng, n, k + 1))
        cons += [-c for c in cons if rng.random() < 0.6]
        cons = np.array(cons)[rng.permutation(len(cons))]
        got, want = _enumerate_vertices(n, cons), enumerate_cut_ref(n, cons)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-12

    def test_crossing_near_another_kept_vertex(self, monkeypatch):
        """A needle tip at ``u``: the edge to ``t`` on one side, and on the
        other a vertex ``w`` 1.7e-9 from ``u``, yet 0.95e-9 (max norm) from
        the point ``x`` 1.2e-9 along the edge, since it lies off the edge
        along a normal of 1-norm above one.  The last row cuts through ``x``
        and ``w``: its crossing on the edge ``(u, t)`` is within
        ``DEDUP_TOL`` of the kept ``w`` but not of its own kept end ``u``.
        The dedup drops it, as the reference does."""
        def side(p, q, inside):
            a = np.cross(p - q, np.ones(3))
            row = np.r_[a, a @ p]
            return row if a @ inside <= row[-1] else -row

        off, along = np.array([1.0, -2.0, 1.0]), np.array([-1.0, 0.0, 1.0])
        u = np.array([0.5, 0.3, 0.2])
        t, x = u + 0.15 * along, u + 1.2e-9 * along
        s, w = t - 0.02 * off, x - 0.475e-9 * off
        H = np.array([side(u, t, s), side(t, s, u), side(u, w, t), side(w, s, u),
                      side(x, w, u)])
        calls = []
        real = riskset._dedup_rows
        monkeypatch.setattr(riskset, "_dedup_rows",
                            lambda rows, tol: calls.append(rows) or real(rows, tol))
        got = _enumerate_vertices(3, H)
        rows = calls[-1]
        out = real(rows, DEDUP_TOL)
        crossing = rows[np.abs(rows - x).max(axis=1) <= 1e-15]
        assert len(crossing) == 1
        assert np.abs(crossing - u).max() > DEDUP_TOL >= np.abs(crossing - w).max()
        assert crossing[0].tobytes() not in {row.tobytes() for row in out}
        assert len(got) == 2
        assert_identical(got, enumerate_cut_ref(3, H))


# -- atom-mass LP rows ---------------------------------------------------------

def wide_atom_model(rng):
    """8-16 outcomes over 3-4 stages whose first split leaves two atoms of at
    least 4 outcomes each, with outcomes relabelled at random so that no atom
    is a run of consecutive outcomes."""
    n = int(rng.integers(8, 17))
    cut = int(rng.integers(4, n - 3))
    parts = [[list(range(n))], [list(range(cut)), list(range(cut, n))]]
    for _ in range(int(rng.integers(0, 2))):
        parts.append(refine_once(parts[-1], rng))
    parts.append([[w] for w in range(n)])
    perm = rng.permutation(n)
    parts = [[[int(perm[w]) for w in atom] for atom in p] for p in parts]
    return ScenarioModel([f"w{i}" for i in range(n)], [str(t) for t in range(len(parts))],
                         parts, rng.dirichlet(np.full(n, 5.0)))


def sparse_riskset(rng, model):
    """Random vertices with some exact zeros, so some atoms go uncharged."""
    verts = rng.dirichlet(np.full(model.n, 0.7), size=int(rng.integers(1, 5)))
    verts[rng.random(verts.shape) < 0.3] = 0.0
    verts[:, 0] += 1e-3
    return RiskSet.from_vertices(model, verts / verts.sum(axis=1, keepdims=True))


class TestAtomMasses:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_rows_match_the_loop(self, seed, sparse):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=2, n_max=12, stages_min=2, stages_max=5)
        rs = sparse_riskset(rng, model) if sparse else random_riskset(rng, model)
        for s in range(len(model.stages)):
            for t in range(s, len(model.stages)):
                assert_identical(atom_masses(model, rs.vertices, s, t),
                                 atom_masses_ref(model, rs.vertices, s, t))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_decompose_acceptance_lp(self, seed, sparse):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=2, n_max=10, stages_min=2, stages_max=5)
        rs = sparse_riskset(rng, model) if sparse else random_riskset(rng, model)
        x = rng.uniform(-1.0, 1.0, model.n)
        with pytest.MonkeyPatch.context() as m:
            calls = captured_linprog(m, oracles)
            try:
                oracles.acceptance_lp(rs, Claim(x))
            except InfeasibleError:
                pass
        A_ub, A_eq = decompose_lp_ref(model, rs.vertices)
        assert_identical(calls[0]["A_ub"], A_ub)
        assert_identical(calls[0]["A_eq"], A_eq)
        assert_identical(calls[0]["b_eq"], x)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_dual_cone_member_lp(self, seed, sparse):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=2, n_max=10, stages_min=2, stages_max=5)
        rs = sparse_riskset(rng, model) if sparse else random_riskset(rng, model)
        x = rng.uniform(-1.0, 1.0, model.n)
        s = int(rng.integers(0, len(model.stages) - 1))
        t = int(rng.integers(s + 1, len(model.stages)))
        with pytest.MonkeyPatch.context() as m:
            calls = captured_linprog(m, oracles)
            dual_cone_member(rs, Claim(x), s, t)
        A_ub, b_ub = dual_cone_lp_ref(model, rs.vertices, x, s, t)
        assert_identical(calls[0]["A_ub"], A_ub)
        assert_identical(calls[0]["b_ub"], b_ub)


# -- kernels from cached atom blocks -------------------------------------------

class TestKernelRows:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_rows_match_the_per_child_formula(self, seed, sparse, wide):
        """Every atom and stage pair, adjacent or not: the rows before
        reduction, in vertex order, then the kept array; an atom no vertex
        charges raises on every call."""
        rng = np.random.default_rng(seed)
        model = wide_atom_model(rng) if wide else random_model(
            rng, n_min=2, n_max=12, stages_min=2, stages_max=6)
        rs = sparse_riskset(rng, model) if sparse else random_riskset(rng, model)
        rs.vertices     # reduced before the reduction is patched out
        nodes = [(s, t, aid) for s in range(len(model.stages))
                 for t in range(s + 1, len(model.stages))
                 for aid in range(len(model.atoms(s)))]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(riskset, "_extreme_rows", lambda rows: rows)
            m.setattr(riskset, "_sorted_rows", lambda rows: rows)
            for s, t, aid in nodes:
                want = oracles.kernel_rows(rs, s, t, aid)
                if len(want) == 0:
                    for _ in range(2):
                        with pytest.raises(EmptyKernelError):
                            kernel_polytope(rs, s, t, aid)
                else:
                    assert_identical(kernel_polytope(rs, s, t, aid), want)
        rs._kernels.clear()
        for s, t, aid in nodes:
            want = oracles.kernel_rows(rs, s, t, aid)
            if len(want):
                got = kernel_polytope(rs, s, t, aid)
                assert_identical(got, _sorted_rows(_extreme_rows(want)))
                assert not got.flags.writeable


# -- the acceptance split from eta -----------------------------------------------

# rho with uncharged atoms priced at zero, as the split prices them
FILLED = functools.partial(risk._rho, fill=True)


def split_verdict(split, rs, claim):
    try:
        return split(rs, claim)
    except InfeasibleError:
        return None


class TestAcceptanceSplit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "hull", "sparse"]),
           st.sampled_from([-1e-3, 0.0, 1e-3]))
    def test_split_is_valid_and_agrees_with_the_lp(self, seed, kind, offset):
        """Claims funded at rho_0 and at eta_0, each moved by ``offset``:
        away from ``|eta_0| <= 1e-6`` the split exists iff the LP oracle
        finds one, and every split is one."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=2, n_max=8, stages_min=2, stages_max=5)
        if kind == "sparse":
            rs = sparse_riskset(rng, model)
        else:
            rs = random_riskset(rng, model)
            if kind == "hull":
                rs = mstable_hull(rs)
        V = rs.vertices
        tol = model.config.tol
        x = rng.uniform(-1.0, 1.0, model.n)
        eta0 = float(risk._eta(rs, Claim(x), FILLED).claims[0].values[0])
        for level in (eta0, float(rho(rs, Claim(x), 0).values[0])):
            claim = Claim(x - level + offset)
            level0 = float(risk._eta(rs, claim, FILLED).claims[0].values[0])
            parts = split_verdict(decompose_acceptance, rs, claim)
            if abs(level0) > 1e-6:
                assert (parts is None) == (split_verdict(oracles.acceptance_lp, rs, claim)
                                           is None)
            if parts is None:
                continue
            assert len(parts) == len(model.stages) - 1
            assert np.abs(sum(p.values for p in parts) - claim.values).max() <= 1e-12
            for s, u in enumerate(parts):
                assert u.stage == s + 1
                assert model.is_measurable(u.values, model.stage(s + 1))
                # every charged vertex expectation on every stage-s atom
                masses = atom_masses(model, V, s, s + 1)
                charged = masses.sum(axis=1) > 0
                values = np.array([u.values[list(a)[0]] for a in model.atoms(s + 1)])
                assert np.all(masses[charged] @ values
                              <= tol * masses[charged].sum(axis=1))


# -- rho from cached atom blocks ---------------------------------------------

class TestRho:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["random", "sparse", "hull"]))
    def test_cached_blocks_match_the_loop(self, seed, kind):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=2, n_max=10, stages_min=2, stages_max=5)
        if kind == "sparse":
            rs = sparse_riskset(rng, model)
        else:
            rs = random_riskset(rng, model)
            if kind == "hull":
                rs = mstable_hull(rs)
        for _ in range(3):      # later claims read the blocks cached by the first
            x = rng.uniform(-1.0, 1.0, model.n)
            for s in range(len(model.stages)):
                try:
                    want = rho_ref(rs, x, s)
                except EmptyKernelError as exc:
                    with pytest.raises(EmptyKernelError) as got:
                        rho(rs, Claim(x), s)
                    assert got.value.to_dict() == exc.to_dict()
                    continue
                assert_identical(rho(rs, Claim(x), s).values, want)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["vertex", "sparse", "lp"]),
           st.integers(2, 6))
    def test_claim_stacks_price_row_by_row(self, seed, route, m):
        rng = np.random.default_rng(seed)
        model = wide_atom_model(rng)
        if route == "sparse":
            rs = sparse_riskset(rng, model)
        else:
            rs = random_riskset(rng, model, k_min=2, k_max=5)
            if route == "lp":
                rs = RiskSet.from_constraints(model, rs.constraints)
                m = 2
        X = rng.uniform(-1.0, 1.0, (m, model.n))
        for s in range(len(model.stages)):
            try:
                want = [rho_ref(rs, x, s) for x in X]
            except EmptyKernelError as exc:
                with pytest.raises(EmptyKernelError) as got:
                    rho(rs, Claim(X), s)
                assert got.value.to_dict() == exc.to_dict()
                continue
            got = rho(rs, Claim(X), s)
            assert got.values.shape == X.shape and got.stage == s
            for row, w in zip(got.values, want):
                assert_identical(row, w)
        chain = Chain.single(rs)
        try:
            process = eta(chain, Claim(X))
        except EmptyKernelError:
            return
        for i, x in enumerate(X):
            single = eta(chain, Claim(x))
            assert process.stage_indices == single.stage_indices
            for a, b in zip(process.claims, single.claims):
                assert a.stage == b.stage
                assert_identical(a.values[i], b.values)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["rows", "hull", "hull_no_search"]))
    def test_check_strong_matches_the_per_claim_loop(self, seed, route):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            if route == "rows":
                model = wide_atom_model(rng)
            else:
                model = random_model(rng, n_min=3, n_max=6, stages_min=3, stages_max=4)
                mp.setattr(consistency, "_verdict_rows", lambda rs: None)
                if route == "hull_no_search":
                    # the sampled witness reaches the report
                    mp.setattr(consistency, "find_witness", lambda rs, hull: (None, 0.0))
            verts = random_riskset(rng, model, k_min=2, k_max=4).vertices
            if rng.random() < 0.25:
                verts = mstable_hull(RiskSet.from_vertices(model, verts)).vertices
            # a large claim whose gaps are NaN where it meets +inf and -inf,
            # a zero claim, an equal copy of every claim (so the largest gap
            # is always tied) and a repeated claim
            nan_claim = rng.uniform(-10.0, 10.0, model.n)
            nan_claim[:2] = [np.inf, -np.inf]
            sample = [Claim(x) for x in rng.uniform(-1.0, 1.0, (6, model.n))]
            sample += [Claim(nan_claim), Claim(np.zeros(model.n))]
            sample += [Claim(x.values.copy()) for x in sample] + [sample[0]]
            rng.shuffle(sample)
            with np.errstate(invalid="ignore"):
                want = consistency_report_ref(RiskSet.from_vertices(model, verts), sample)
                got = consistency_report(RiskSet.from_vertices(model, verts), sample)
        assert (got.strong, got.mstable, got.sampled, got.note) == \
            (want.strong, want.mstable, want.sampled, want.note)
        assert got.max_sampled_gap.hex() == want.max_sampled_gap.hex()
        assert got.witness_gap.hex() == want.witness_gap.hex()
        if any(want.witness is x for x in sample):
            assert got.witness is want.witness
        elif want.witness is None:
            assert got.witness is None
        else:
            assert_identical(got.witness.values, want.witness.values)


def lone_outcomes(model):
    """Outcomes that form an atom on their own at some date before the last."""
    final = model.final_stage.index
    return sorted({atom[0] for s in range(final) for atom in model.atoms(s)
                   if len(atom) == 1})


def box_set(rng, model, uncharged=None):
    """An H-set of upper bounds ``q_w <= u_w``; ``uncharged`` gets ``q_w <= 0``."""
    n = model.n
    u = rng.uniform(1.5 / n, 1.0, n)
    if uncharged is not None:
        u[uncharged] = 0.0
    return RiskSet.from_constraints(model, np.column_stack([np.eye(n), u]))


class TestRhoLP:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_matches_the_per_atom_lp(self, seed, m):
        """Two H-sets on one model, priced in turn: the facets of a V-set,
        and bounds that leave one outcome uncharged.  What the first set
        learns about an outcome must not reach the second."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=3, n_max=7, stages_min=3, stages_max=4)
        lone = lone_outcomes(model)
        omega = int(rng.choice(lone)) if lone else 0
        charged = RiskSet.from_constraints(model, random_riskset(rng, model).constraints)
        uncharged = box_set(rng, model, uncharged=omega)
        for rs in (charged, uncharged, charged, uncharged):
            X = rng.uniform(-1.0, 1.0, (m, model.n) if m else model.n)
            X[rng.random(X.shape) < 0.2] = 0.0
            X[rng.random(X.shape) < 0.1] = -0.0
            for s in range(len(model.stages)):
                try:
                    want = rho_lp_ref(rs, X, s)
                except EmptyKernelError as exc:
                    with pytest.raises(EmptyKernelError) as got:
                        rho(rs, Claim(X), s)
                    assert got.value.to_dict() == exc.to_dict()
                    continue
                assert_identical(rho(rs, Claim(X), s).values, want)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_uncharged_atom_is_refused_as_the_vertex_twin_refuses_it(self, seed):
        """An H-set that leaves an outcome uncharged and its V-twin name the
        same atom, by id and stage, with the same details; ``maximize_ratio``
        on the atom still names it by its outcomes."""
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=3, n_max=7, stages_min=3, stages_max=4)
        lone = lone_outcomes(model)
        omega = int(rng.choice(lone)) if lone else 0
        hset = box_set(rng, model, uncharged=omega)
        # from a copy: reading an H-set's vertices sends it by the vertex route
        twin = RiskSet.from_vertices(
            model, RiskSet.from_constraints(model, hset.constraints).vertices)
        x = Claim(rng.uniform(-1.0, 1.0, (2, model.n)))
        refused = 0
        for s in range(model.final_stage.index):
            try:
                rho(twin, x, s)
            except EmptyKernelError as want:
                with pytest.raises(EmptyKernelError) as got:
                    rho(hset, x, s)
                assert got.value.to_dict() == want.to_dict()
                refused += 1
        assert not hset.has_vertices and (refused > 0) == bool(lone)
        with pytest.raises(EmptyKernelError) as got:
            maximize_ratio(hset, x.values[0], [omega])
        assert str(got.value) == f"no measure in the set charges atom ({omega},)"
        # the vertex route words it the same, on the twin and on the H-set
        # once its vertices are read
        hset.vertices
        for rs in (twin, hset):
            assert rs.has_vertices
            with pytest.raises(EmptyKernelError) as got:
                maximize_ratio(rs, x.values[0], [omega])
            assert str(got.value) == f"no measure in the set charges atom ({omega},)"

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_second_claim_solves_only_multi_outcome_atoms(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=4, n_max=8, stages_min=3, stages_max=4)
        rs = RiskSet.from_constraints(model, random_riskset(rng, model).constraints)
        dates = [model.atoms(s) for s in range(model.final_stage.index)]
        wide = sum(len(atom) > 1 for atoms in dates for atom in atoms)
        with pytest.MonkeyPatch.context() as mp:
            calls = captured_linprog(mp, scipy.optimize)
            eta(Chain.single(rs), Claim(rng.uniform(-1.0, 1.0, model.n)))
            # an outcome alone at several dates is solved at the first only
            assert len(calls) == wide + len(lone_outcomes(model))
            del calls[:]
            eta(Chain.single(rs), Claim(rng.uniform(-1.0, 1.0, model.n)))
            assert len(calls) == wide


    @pytest.mark.parametrize("decade", [1, 5, 11, 12, 13, 14, 15, 16, 20])
    def test_large_claims_match_the_vertex_route(self, decade):
        """The facet H-set of a 2-vertex set prices uniform claims of every
        magnitude as its vertices do; unscaled, HiGHS stopped with status 4
        on some claims from 1e11 on."""
        model = market_model().model
        vset = RiskSet.from_vertices(model, [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]])
        hset = RiskSet.from_constraints(model, vset.constraints)
        X = np.random.default_rng(decade).uniform(-10.0 ** decade, 10.0 ** decade, (40, 4))
        for s in ("0", "0+"):
            for x in X:
                want = rho(vset, Claim(x), s).values
                got = rho(hset, Claim(x), s).values
                assert np.abs(got - want).max() <= 1e-14 * np.abs(x).max()

    def test_claims_below_one_keep_their_objective(self):
        model = market_model().model
        vset = RiskSet.from_vertices(model, [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]])
        hset = RiskSet.from_constraints(model, vset.constraints)
        x = np.array([0.75, -0.5, 0.999, -0.25])
        with pytest.MonkeyPatch.context() as mp:
            calls = captured_linprog(mp, scipy.optimize)
            maximize_ratio(hset, x, [0, 2])
        c = np.zeros(5)
        c[[0, 2]] = -x[[0, 2]]
        assert_identical(calls[0]["c"], c)


# -- V-set membership: separation before NNLS ----------------------------------

class TestMember:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-9, 1e-6]),
           st.sampled_from([1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]))
    def test_verdict_is_that_of_nnls(self, seed, scale, nudge):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_min=2, n_max=8, stages_min=2, stages_max=4)
        rs = random_riskset(rng, model, k_min=1, k_max=5)
        V = rs.vertices
        inside = rng.dirichlet(np.ones(len(V)), size=8) @ V
        # pushed off the set by a few multiples of the NNLS threshold
        off = inside + rng.normal(scale=scale, size=inside.shape)
        off -= off.mean(axis=1, keepdims=True) - inside.mean(axis=1, keepdims=True)
        far = rng.dirichlet(np.ones(model.n), size=8)
        # vertices moved across the near-vertex certificate's radius
        moved = V + rng.normal(scale=nudge, size=V.shape)
        moved -= moved.mean(axis=1, keepdims=True) - V.mean(axis=1, keepdims=True)
        tol = model.config.tol
        for q in np.vstack([V, inside, off, far, moved]):
            assert member(rs, q) == _in_hull(V, q, tol)
