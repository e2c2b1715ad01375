"""Risk-set geometry: representations, kernels and the ratio primitive."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskchain import (
    EmptyIntersectionError,
    EmptyKernelError,
    EngineError,
    OutOfRangeError,
    RiskSet,
    ScenarioModel,
    SchemaError,
    SizeBoundError,
    density,
    includes,
    intersect,
    is_mstable,
    kernel_polytope,
    maximize_ratio,
    member,
    mstable_hull,
    set_equal,
    simplex_set,
    singleton,
)
from riskchain.config import WORK_BOUND
from riskchain.consistency import _row_verdict, _verdict_rows
from riskchain.riskset import (
    _facets,
    _hull_nnls,
    _in_hull,
    _maximize_ratio_lp,
    _nnls,
    _nnls_threshold,
)
from riskchain.twobytwo import extreme_points, market_model, pricing_set

from oracles import hull_nnls, node_kernel, qhull_facets
from randmodels import random_model, random_riskset

EPS = 0.2


@pytest.fixture
def model():
    return market_model().model


@pytest.fixture
def rs(model):
    return pricing_set(model, EPS)


def two_outcome_model():
    return ScenarioModel(["u", "d"], ["0", "1"], [[[0, 1]], [[0], [1]]], [0.5, 0.5])


def three_outcome_model():
    return ScenarioModel(["a", "b", "c"], ["0", "1"], [[[0, 1, 2]], [[0], [1], [2]]],
                         [0.25, 0.25, 0.5])


class TestMeasure:
    """Measures are weight rows, validated where a set takes them."""

    def test_rejects_negative(self):
        with pytest.raises(SchemaError):
            singleton(two_outcome_model(), [-0.2, 1.2])
        with pytest.raises(SchemaError):
            RiskSet.from_vertices(two_outcome_model(), [[0.5, 0.5], [-0.2, 1.2]])

    def test_rejects_bad_sum(self):
        with pytest.raises(SchemaError):
            singleton(two_outcome_model(), [0.4, 0.4])
        with pytest.raises(SchemaError):
            RiskSet.from_vertices(two_outcome_model(), [[0.5, 0.5], [0.4, 0.4]])

    def test_normalizes_exactly(self):
        q = singleton(three_outcome_model(), [1 / 3, 1 / 3, 1 / 3]).vertices[0]
        assert q.sum() == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SchemaError):
            singleton(three_outcome_model(), [bad, 0.5, 0.5])

    @pytest.mark.parametrize("q", [[1.0], [0.25, 0.25, 0.25, 0.25], [[0.5, 0.5]]])
    def test_singleton_rejects_wrong_shape(self, q):
        with pytest.raises(SchemaError):
            singleton(two_outcome_model(), q)

    @pytest.mark.parametrize("rows", [[[np.nan, 1.0]], [[0.5, 0.5], [np.inf, 0.0]]])
    def test_vertex_set_rejects_non_finite(self, rows):
        with pytest.raises(SchemaError):
            RiskSet.from_vertices(two_outcome_model(), rows)

    def test_vertex_set_rejects_ragged_rows(self):
        with pytest.raises(SchemaError):
            RiskSet.from_vertices(two_outcome_model(), [[0.5, 0.5], [1.0]])

    def test_vertex_set_rejects_non_numeric_rows(self):
        with pytest.raises(SchemaError):
            RiskSet.from_vertices(two_outcome_model(), [["x", 0.5]])

    def test_vertex_rows_normalize_like_single_measures(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 9, 16):
            rows = rng.dirichlet(np.ones(n), size=200)
            rows[::3, 0] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
            rows += rng.uniform(-2e-11, 2e-11, rows.shape)
            rows[::3, 0] = -5e-10       # slightly negative, clipped to zero
            model = ScenarioModel([f"w{i}" for i in range(n)], ["0", "1"],
                                  [[list(range(n))], [[w] for w in range(n)]],
                                  np.full(n, 1.0 / n))
            # .vertices keeps the extreme rows only, each normalized as given
            got = RiskSet.from_vertices(model, rows).vertices
            normalized = set()
            for r in rows:
                w = np.maximum(r, 0.0)
                assert (w / w.sum()).tobytes() == singleton(model, r).vertices[0].tobytes()
                normalized.add((w / w.sum()).tobytes())
            assert len(got) >= 2
            assert all(g.tobytes() in normalized for g in got)


class TestRepresentation:
    def test_vertices_and_constraints_together_rejected(self):
        m = two_outcome_model()
        with pytest.raises(SchemaError):
            RiskSet(m, vertices=[[0.9, 0.1], [0.1, 0.9]],
                    constraints=[[1.0, 0.0, 0.5]])

    def test_neither_rejected(self):
        with pytest.raises(SchemaError):
            RiskSet(two_outcome_model())

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0]],                       # no bound
        [[1.0, 0.0, 0.5, 0.1]],             # one number too many
        [1.0, 0.0, 0.5],                    # a row, not a list of rows
        [[[1.0, 0.0, 0.5]]],
        [[1.0, 0.0, 0.5], [1.0, 0.5]],      # ragged
        [([1.0, 0.0], 0.5)],                # an (a, b) pair
        [[1.0, "x", 0.5]],
        [[1.0, None, 0.5]],
        [[np.nan, 0.0, 0.5]],
        [[1.0, 0.0, np.inf]],
        [[-np.inf, 0.0, 0.5]],
        0.5,
    ])
    def test_bad_constraint_rows_are_schema_errors(self, rows):
        with pytest.raises(SchemaError):
            RiskSet.from_constraints(two_outcome_model(), rows)

    def test_constraint_rows_are_read_only(self):
        m = two_outcome_model()
        given = np.array([[1.0, 0.0, 0.5]])
        rs = RiskSet.from_constraints(m, given)
        given[0, 0] = 10.0                  # the set keeps a copy
        assert member(rs, [0.4, 0.6])
        with pytest.raises(ValueError):
            rs.constraints[0, 0] = 10.0
        assert member(rs, [0.4, 0.6])
        assert RiskSet.from_constraints(m, []).constraints.shape == (0, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_constraint_rows_round_trip(self, seed):
        """A V-set's facet rows come back as given, enumerate to the same
        set, and stack in order under ``intersect``; neither array can be
        written."""
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        vset = random_riskset(rng, m, k_min=2, k_max=5)
        H = vset.constraints
        assert H.dtype == float and H.ndim == 2 and H.shape[1] == m.n + 1
        hset = RiskSet.from_constraints(m, H)
        assert hset.constraints.shape == H.shape
        assert hset.constraints.tobytes() == H.tobytes()
        assert set_equal(hset, vset)
        # random half-spaces that hold the set, so the intersection is the set
        D = rng.normal(size=(int(rng.integers(1, 4)), m.n))
        loose = RiskSet.from_constraints(
            m, np.column_stack([D, (vset.vertices @ D.T).max(axis=0) + 0.01]))
        for first, second in ((vset, loose), (loose, hset)):
            both = intersect(first, second).constraints
            want = np.vstack([first.constraints, second.constraints])
            assert both.shape == want.shape and both.tobytes() == want.tobytes()
        for rs in (vset, hset, loose):
            with pytest.raises(ValueError):
                rs.constraints[0, 0] = 10.0


class TestDensity:
    def test_reference_density_is_one(self, model):
        for s in range(3):
            lam, lam_t = density(model, model.reference, s)
            assert np.allclose(lam, 1.0, atol=1e-12)
            assert np.allclose(lam_t, 1.0, atol=1e-12)

    def test_worked_vertex_half_step_restriction_is_one(self, model):
        q = extreme_points(EPS)[0]
        _, lam_half = density(model, q, "0+")
        assert np.allclose(lam_half, 1.0, atol=1e-12)

    def test_pointwise_ratio(self):
        m = two_outcome_model()
        lam, lam_final = density(m, [0.75, 0.25], "1")
        assert np.allclose(lam, [1.5, 0.5], atol=1e-12)
        assert np.allclose(lam_final, lam, atol=1e-12)

    def test_root_restriction_is_one(self):
        rng = np.random.default_rng(1)
        m = random_model(rng)
        q = rng.dirichlet(np.ones(m.n))
        _, lam0 = density(m, q, 0)
        assert np.allclose(lam0, 1.0, atol=1e-12)


class TestNodeKernel:
    def test_root_kernel_is_marginal(self, model):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        assert model.sub_atoms("0", "0+", 0) == [0, 1]
        assert np.allclose(node_kernel(model, q, "0", "0+", 0), [0.4, 0.6], atol=1e-12)

    def test_worked_vertex_column_kernel(self, model):
        # signs (1,-1): column f carries (1+eps)/4 over (1-eps)/4
        q = extreme_points(EPS)[1]
        assert np.allclose(node_kernel(model, q, "0+", "1", 0), [0.6, 0.4], atol=1e-12)

    def test_null_atom_falls_back_to_reference(self, model):
        q = np.array([0.5, 0.0, 0.5, 0.0])
        assert np.allclose(node_kernel(model, q, "0+", "1", 1), [0.5, 0.5], atol=1e-12)


class TestKernelPolytope:
    def test_singleton_set_single_kernel(self, model):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        kers = kernel_polytope(singleton(model, q), "0+", "1", 0)
        assert kers.shape == (1, 2)
        assert np.allclose(kers[0], [0.25, 0.75], atol=1e-12)

    def test_worked_column_collapses_to_two(self, rs):
        # oracle: conditionals of the four closed-form extreme points
        oracle = set()
        for v in extreme_points(EPS):
            cond = v[[0, 2]] / v[[0, 2]].sum()
            oracle.add(tuple(np.round(cond, 12)))
        assert oracle == {(0.6, 0.4), (0.4, 0.6)}
        kers = kernel_polytope(rs, "0+", "1", 0)
        got = {tuple(np.round(k, 12)) for k in kers}
        assert got == oracle

    def test_worked_root_kernel_pinned(self, rs):
        kers = kernel_polytope(rs, "0", "0+", 0)
        assert kers.shape == (1, 2)
        assert np.allclose(kers[0], [0.5, 0.5], atol=1e-12)

    def test_empty_kernel_when_no_vertex_charges(self, model):
        # raised on every call: no error is kept on the set
        rs = RiskSet.from_vertices(model, [[0.5, 0.0, 0.5, 0.0]])
        for _ in range(2):
            with pytest.raises(EmptyKernelError):
                kernel_polytope(rs, "0+", "1", 1)
        assert len(kernel_polytope(rs, "0+", "1", 0)) == 1

    @pytest.mark.parametrize("atom_id", [5, 2, -1, True, 0.0])
    def test_bad_atom_id_is_out_of_range(self, rs, atom_id):
        # refused before the cache is read or written
        kernel_polytope(rs, "0+", "1", 1)
        keys = set(rs._kernels)
        with pytest.raises(OutOfRangeError):
            kernel_polytope(rs, "0+", "1", atom_id)
        assert set(rs._kernels) == keys

    def test_repeated_call_returns_equal_kernels(self, rs):
        first = kernel_polytope(rs, "0+", "1", 0)
        assert kernel_polytope(rs, "0+", "1", 0) is first
        assert kernel_polytope(rs, 1, 2, 0) is first
        assert first.shape[1] == len(rs.model.sub_atoms("0+", "1", 0))

    def test_kept_probs_are_read_only(self, rs):
        # the kept array is returned itself, so no caller can change it
        kers = kernel_polytope(rs, "0+", "1", 0)
        before = kers.copy()
        with pytest.raises(ValueError):
            kers[0, 0] = 0.0
        with pytest.raises(ValueError):
            kers[0] = 0.0
        assert kernel_polytope(rs, "0+", "1", 0).tobytes() == before.tobytes()

    def test_returned_list_is_the_callers(self, rs):
        # a caller's own list or copy of the kernels can be emptied or
        # overwritten without shrinking or changing the kept kernels
        kers = kernel_polytope(rs, "0+", "1", 0)
        count = len(kers)
        mine = list(kers)
        mine.clear()
        edited = kers.copy()
        edited[:] = 0.0
        again = kernel_polytope(rs, "0+", "1", 0)
        assert len(again) == count
        assert np.allclose(again.sum(axis=1), 1.0, atol=1e-12)

    def test_perspective_exactness(self):
        # kernels of random mixtures stay inside the vertex-kernel hull
        rng = np.random.default_rng(7)
        m = random_model(rng)
        rs = random_riskset(rng, m, k_min=3, k_max=4)
        V = rs.vertices
        pairs = [(s, t) for s in range(len(m.stages) - 1)
                 for t in range(s + 1, len(m.stages))]
        for _ in range(200):
            lam = rng.dirichlet(np.ones(len(V)))
            q = lam @ V
            s, t = pairs[int(rng.integers(len(pairs)))]
            aid = int(rng.integers(len(m.atoms(s))))
            if q[list(m.atoms(s)[aid])].sum() <= 0:
                continue
            ker = node_kernel(m, q, s, t, aid)
            assert _in_hull(kernel_polytope(rs, s, t, aid), ker, 1e-9)


class TestMaximizeRatio:
    def test_constant_on_atom(self, rs):
        atom = (0, 2)
        a = np.zeros(4)
        a[list(atom)] = 2.5
        assert maximize_ratio(rs, a, atom) == pytest.approx(2.5, abs=1e-12)

    def test_worked_negative_indicator(self, rs):
        # selling the single-outcome claim on column f: -(1-eps)/2
        a = np.array([-1.0, 0.0, 0.0, 0.0])
        got = maximize_ratio(rs, a, (0, 2))
        assert got == pytest.approx(-0.5 * (1 - EPS), abs=1e-12)

    def test_two_vertex_hand_case(self):
        m = two_outcome_model()
        rs = RiskSet.from_vertices(m, [[0.9, 0.1], [0.3, 0.7]])
        assert maximize_ratio(rs, np.array([1.0, 0.0]), (0, 1)) == pytest.approx(0.9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(None)
    def test_vertex_and_lp_routes_agree(self, seed):
        """The worked set (``seed`` None) and random constraint-only sets: a
        few cuts through the reference, so every atom is charged."""
        if seed is None:
            rng = np.random.default_rng(21)
            model = market_model().model
            rs = pricing_set(model, EPS)
            atoms = [(0, 1, 2, 3), (0, 2), (1, 3)]
        else:
            rng = np.random.default_rng(seed)
            model = random_model(rng, n_max=6)
            cons = []
            for _ in range(int(rng.integers(1, 6))):
                a = rng.normal(size=model.n)
                cons.append(np.r_[a, a @ model.reference + rng.uniform(0.01, 0.3)])
            rs = RiskSet.from_constraints(model, cons)
            atoms = [a for s in model.stages[:-1] for a in model.atoms(s)]
        enum = RiskSet.from_vertices(model, rs.vertices)
        for _ in range(50):
            a = rng.uniform(-1, 1, model.n)
            atom = atoms[int(rng.integers(len(atoms)))]
            v_route = maximize_ratio(enum, a, atom)
            lp_route = _maximize_ratio_lp(rs, a, list(atom))
            assert v_route == pytest.approx(lp_route, abs=1e-8)

    def test_translation_invariance(self):
        rng = np.random.default_rng(22)
        m = random_model(rng)
        rs = random_riskset(rng, m)
        atom = m.atoms(1)[0]
        for _ in range(20):
            a = rng.uniform(-1, 1, m.n)
            c = float(rng.uniform(-3, 3))
            shifted = a.copy()
            shifted[list(atom)] += c
            assert maximize_ratio(rs, shifted, atom) == pytest.approx(
                maximize_ratio(rs, a, atom) + c, abs=1e-9)

    def test_empty_kernel(self, model):
        rs = RiskSet.from_vertices(model, [[0.5, 0.0, 0.5, 0.0]])
        with pytest.raises(EmptyKernelError):
            maximize_ratio(rs, np.ones(4), (1, 3))

    @pytest.mark.parametrize("atom", [(), (0, 9), (0, -1), (4,), (True,), (0.0, 2),
                                      ("0",), (0, 0), (2, 0, 2)])
    @pytest.mark.parametrize("route", ["constraints", "vertices"])
    def test_bad_outcome_indices_are_out_of_range(self, rs, atom, route):
        if route == "vertices":
            rs = RiskSet.from_vertices(rs.model, rs.vertices)
        assert rs.has_vertices == (route == "vertices")
        with pytest.raises(OutOfRangeError):
            maximize_ratio(rs, np.arange(4.0), atom)


class TestMember:
    def test_vertices_are_members(self, rs):
        for v in rs.vertices:
            assert member(rs, v)

    def test_uniform_is_member_of_worked_set(self, rs):
        assert member(rs, np.full(4, 0.25))

    def test_capped_density_violation(self, rs):
        # density 1.5 above the cap 1 + eps = 1.2
        q = np.array([1.5, 1.0, 0.5, 1.0]) / 4
        assert not member(rs, q)
        v_only = RiskSet.from_vertices(rs.model, rs.vertices)
        assert not member(v_only, q)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
    def test_verdict_independent_of_row_scale(self, scale):
        m = two_outcome_model()
        rs = RiskSet.from_constraints(m, [[scale, 0.0, 0.5 * scale]])
        assert member(rs, [0.5 + 1.2e-9, 0.5 - 1.2e-9])
        assert not member(rs, [0.5 + 1e-6, 0.5 - 1e-6])

    @pytest.mark.parametrize("offset", [1.5e-9, 1.9e-9])
    def test_verdict_does_not_depend_on_reading_the_facets(self, offset):
        """A point just outside an edge of a V-set, inside NNLS's band but
        outside the facet rows' band: the V-set answers by NNLS whether or
        not its facets have been read, and a set given those rows by the
        rows."""
        m = ScenarioModel(["a", "b", "c"], ["0", "1"],
                          [[[0, 1, 2]], [[0], [1], [2]]], [1 / 3] * 3)
        V = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.2, 0.4, 0.4]])
        rs = RiskSet.from_vertices(m, V)
        # unit normal of the edge V[0]V[1], pointing away from V[2]
        q = (V[0] + V[1]) / 2 + offset * np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
        assert member(rs, q) and _in_hull(rs.vertices, q, m.config.tol)
        rs.constraints
        assert member(rs, q)
        assert not member(RiskSet.from_constraints(m, rs.constraints), q)

    @pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.25, 0.25],
                                         [np.inf, -np.inf, 0.5, 0.5]])
    @pytest.mark.parametrize("rows_given", [False, True])
    def test_non_finite_weights_are_not_members(self, model, rows_given, weights):
        rs = RiskSet.from_vertices(model, np.eye(4)[:2])
        if rows_given:
            rs = RiskSet.from_constraints(model, rs.constraints)
        assert not member(rs, weights)

    def test_member_agrees_across_representations(self):
        rng = np.random.default_rng(31)
        m = random_model(rng)
        rs = random_riskset(rng, m, k_min=3, k_max=5)
        by_cons = RiskSet.from_constraints(m, rs.constraints)
        for _ in range(50):
            q = rng.dirichlet(np.ones(m.n))
            assert member(rs, q) == member(by_cons, q)


@st.composite
def hull_fits(draw):
    """``(points, x)``: 1-40 points on 4-16 outcomes, drawn at random, with
    duplicates, or on one segment; ``x`` a mixture of them, one of them, a
    mixture moved off by 1e-12-1e-6, a point of the simplex, or far outside."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(4, 16)), draw(st.integers(1, 40))
    points = rng.dirichlet(np.full(n, draw(st.sampled_from([0.2, 1.0, 5.0]))), size=k)
    shape = draw(st.sampled_from(["random", "duplicated", "segment"]))
    if shape == "duplicated":
        points = points[rng.integers(0, max(1, k // 3), size=k)]
    elif shape == "segment":
        points = points[0] + rng.uniform(0.0, 1.0, (k, 1)) * (points[-1] - points[0])
    target = draw(st.sampled_from(["mixture", "point", "near", "simplex", "far"]))
    if target == "point":
        return points, points[rng.integers(k)].copy()
    if target == "simplex":
        return points, rng.dirichlet(np.ones(n))
    if target == "far":
        return points, rng.normal(size=n) * 10.0 ** rng.uniform(1, 6)
    x = rng.dirichlet(np.ones(k)) @ points
    if target == "near":
        x = x + rng.normal(size=n) * 10.0 ** rng.uniform(-12, -6)
    return points, x


class TestHullNnls:
    """The Lawson-Hanson fit against scipy's NNLS (``oracles.hull_nnls``)."""

    @settings(max_examples=300, deadline=None)
    @given(hull_fits())
    def test_matches_scipy_at_a_kkt_point(self, fit):
        points, x = fit
        r, norm = _hull_nnls(points, x)
        A = np.vstack([points.T, np.ones(len(points))])
        b = np.append(x, 1.0)
        scale = np.linalg.norm(b)
        want = hull_nnls(points, x)
        assert norm == pytest.approx(np.linalg.norm(r), rel=1e-12, abs=1e-300)
        assert abs(norm - want) <= 1e-10 * scale
        w, r_w = _nnls(A, b, 3 * len(points))
        assert w.min() >= 0
        assert np.abs(b - A @ w - r_w).max() <= 1e-12 * scale
        # KKT, with A w = b - r: A^T r <= 0 and (A w) . r = 0
        assert (A.T @ r).max() <= 1e-12 * scale
        assert abs((b - r) @ r) <= 1e-12 * scale ** 2
        limit = _nnls_threshold(x, 1e-9)
        if abs(want - limit) > 1e-10 * scale:
            assert _in_hull(points, x, 1e-9) == (want <= limit)

    def test_step_cap_raises(self):
        """The centre of a triangle needs all three points to enter."""
        A = np.vstack([np.eye(3), np.ones(3)])
        b = np.append(np.full(3, 1 / 3), 1.0)
        assert np.linalg.norm(_nnls(A, b, 3)[1]) < 1e-15
        with pytest.raises(EngineError, match="did not converge in 2 steps"):
            _nnls(A, b, 2)

    @pytest.mark.parametrize("bad", ["points", "x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad, value):
        points, x = np.eye(3), np.full(3, 1 / 3)
        (points if bad == "points" else x)[1] = value
        with pytest.raises(EngineError, match="not finite"):
            _hull_nnls(points, x)


def box_of_sixteen(cap: float) -> RiskSet:
    """The H-set ``q_i <= cap`` on 16 outcomes."""
    n = 16
    m = ScenarioModel([f"w{i}" for i in range(n)], ["0", "1"],
                      [[list(range(n))], [[w] for w in range(n)]],
                      [1 / n] * n)
    return RiskSet.from_constraints(m, np.column_stack([np.eye(n), np.full(n, cap)]))


class TestVertexEnumeration:
    def test_plain_simplex(self):
        m = ScenarioModel(["a", "b", "c"], ["0", "1"],
                          [[[0, 1, 2]], [[0], [1], [2]]], [1 / 3] * 3)
        rs = RiskSet.from_constraints(m, [])
        assert set_equal(RiskSet.from_vertices(m, rs.vertices), simplex_set(m))
        assert len(rs.vertices) == 3

    def test_worked_set_has_four_extreme_points(self, rs):
        got = rs.vertices
        want = extreme_points(EPS)
        assert len(got) == 4
        for w in want:
            assert min(np.max(np.abs(w - g)) for g in got) < 1e-9

    def test_one_dimensional_cut(self):
        m = two_outcome_model()
        rs = RiskSet.from_constraints(m, [[1.0, 0.0, 0.6]])
        got = rs.vertices
        want = np.array([[0.0, 1.0], [0.6, 0.4]])
        assert got.shape == (2, 2)
        for w in want:
            assert min(np.max(np.abs(w - g)) for g in got) < 1e-12

    def test_idempotent_on_v_rep(self, model):
        rs = RiskSet.from_vertices(model, extreme_points(EPS))
        assert rs.vertices is rs.vertices
        assert not rs.has_constraints

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_round_trip_fixed_point(self, seed, wide):
        """4-8 outcomes with 3-5 vertices, or 12-16 outcomes with 4-6."""
        rng = np.random.default_rng(seed)
        if wide:
            m = random_model(rng, n_min=12, n_max=16)
            first = random_riskset(rng, m, k_min=4, k_max=6)
        else:
            m = random_model(rng)
            first = random_riskset(rng, m, k_min=3, k_max=5)
        second = RiskSet.from_vertices(
            m, RiskSet.from_constraints(m, first.constraints).vertices)
        assert set_equal(first, second)
        assert all(member(first, v) for v in second.vertices)
        third = RiskSet.from_constraints(m, second.constraints)
        b = sorted(map(tuple, np.round(second.vertices, 9)))
        c = sorted(map(tuple, np.round(third.vertices, 9)))
        assert len(b) == len(c)
        assert np.allclose(np.array(b), np.array(c), atol=1e-9)

    def test_vertices_of_v_set_are_extreme(self):
        # seed 30 draws 5 generators at n = 4, one inside the hull of the others
        rng = np.random.default_rng(30)
        m = random_model(rng)
        first = random_riskset(rng, m, k_min=3, k_max=5)
        second = RiskSet.from_constraints(m, first.constraints)
        assert len(first.vertices) == len(second.vertices)

    def test_too_large_outcome_space(self):
        n = 17
        m = ScenarioModel([f"w{i}" for i in range(n)], ["0", "1"],
                          [[list(range(n))], [[w] for w in range(n)]],
                          [1 / n] * n)
        rs = RiskSet.from_constraints(m, [])
        with pytest.raises(SizeBoundError) as exc:
            _ = rs.vertices
        assert exc.value.details == {"bound": 16, "reached": 17, "layer": "riskset.vertices"}

    def test_box_vertices(self):
        # two weights at 0.34 and one at 0.32; the pinned bytes catch a kernel
        # change that moves, drops or reorders a vertex
        V = box_of_sixteen(0.34).vertices
        assert hashlib.sha256(V.tobytes()).hexdigest() == (
            "b241bf99c30905abdf6f261fe0528256112fe25d43f612fb126169b43cb5b028")
        V = np.sort(V, axis=1)
        assert V.shape == (16 * 15 * 14 // 2, 16)
        assert np.allclose(V[:, -3:], [0.32, 0.34, 0.34], atol=1e-12)
        assert V[:, :-3].max() <= 1e-12

    @pytest.mark.parametrize("cap", [0.3, 0.26])
    def test_box_refusal_is_pinned(self, cap):
        # the cut that reaches 4,944 vertices is refused before its crossings
        with pytest.raises(SizeBoundError) as exc:
            _ = box_of_sixteen(cap).vertices
        assert exc.value.details == {"bound": WORK_BOUND, "reached": 4944,
                                     "layer": "riskset.vertices"}

    def test_too_many_crossings_refused_before_building(self):
        # q_i <= 0.118 on 16 outcomes has ~10^5 vertices
        rs = box_of_sixteen(0.118)
        with pytest.raises(SizeBoundError) as exc:
            _ = rs.vertices
        details = exc.value.details
        assert details["layer"] == "riskset.vertices"
        assert details["bound"] == WORK_BOUND < details["reached"]

    def test_infeasible_system_reports_empty(self):
        m = two_outcome_model()
        rs = RiskSet.from_constraints(m, [[1.0, 1.0, -1.0]])
        with pytest.raises(EmptyIntersectionError):
            _ = rs.vertices


def same_rows(R1: np.ndarray, R2: np.ndarray, tol: float) -> bool:
    """Equal as sets of rows: as many rows, and each row of either within
    ``tol`` (max-norm) of a row of the other."""
    if R1.shape != R2.shape:
        return False
    dist = np.abs(R1[:, None] - R2[None]).max(axis=2)
    return dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


@st.composite
def simplices(draw):
    """rank + 1 measures with full support, rank 2-8, n = 4-16."""
    n = draw(st.integers(4, 16))
    rank = draw(st.integers(2, min(8, n - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.dirichlet(np.full(n, 2.0), size=rank + 1)


@st.composite
def polygons(draw):
    """3-8 measures on a circle in a random plane through a full-support
    center, n = 4-16; the angles keep a gap, so every one is extreme."""
    n = draw(st.integers(4, 16))
    k = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.dirichlet(np.full(n, 5.0))
    # two orthonormal directions in the plane sum(q) = 0
    plane = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, 2))]))[0][:, 1:]
    angles = (np.arange(k) + rng.uniform(0.0, 0.8, k)) * (2 * np.pi / k)
    ring = np.column_stack([np.cos(angles), np.sin(angles)]) @ plane.T
    return center + 0.5 * center.min() * ring


class TestFacets:
    """The closed forms for polygons and simplices against qhull."""

    @settings(max_examples=60, deadline=None)
    @given(simplices())
    def test_simplex_rows_match_qhull(self, verts):
        assert same_rows(_facets(verts), qhull_facets(verts), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(polygons())
    def test_polygon_rows_match_qhull(self, verts):
        assert same_rows(_facets(verts), qhull_facets(verts), 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_simplex_verdict_agrees_with_the_hull(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=8)
        rank = int(rng.integers(2, m.n))
        rs = RiskSet.from_vertices(m, rng.dirichlet(np.full(m.n, 2.0), size=rank + 1))
        rows = _verdict_rows(rs)
        assert rows is not None
        assert _row_verdict(rs, *rows)[0] == set_equal(rs, mstable_hull(rs))

    @pytest.mark.parametrize("height", [1e-10, 5e-10])
    def test_thin_simplex_takes_the_hull_route(self, height):
        """A fourth vertex lifted off the other three's plane by less than the
        rank threshold: the set counts as flat, so its verdict comes from
        the hull."""
        rng = np.random.default_rng(5)
        m = random_model(rng, n_min=6, n_max=6)
        base = rng.dirichlet(np.full(m.n, 5.0), size=3)
        lift = np.zeros(m.n)
        lift[:2] = 1.0, -1.0
        rs = RiskSet._of_extreme(m, np.vstack([base, base.mean(axis=0) + height * lift]))
        assert _verdict_rows(rs) is None
        assert is_mstable(rs) == set_equal(rs, mstable_hull(rs))

    def test_singular_inverse_takes_the_hull_route(self, monkeypatch):
        rng = np.random.default_rng(8)
        m = random_model(rng, n_min=6, n_max=6)
        rs = RiskSet.from_vertices(m, rng.dirichlet(np.full(m.n, 2.0), size=4))

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(EngineError):
            _facets(rs.vertices)
        assert _verdict_rows(rs) is None
        assert is_mstable(rs) == set_equal(rs, mstable_hull(rs))


class TestIntersect:
    def test_self_intersection_is_identity(self, rs):
        assert set_equal(intersect(rs, rs), rs)

    def test_worked_parts_recover_the_set(self, model, rs):
        from riskchain.twobytwo import fin_part_vertices, int_part_vertices
        qf_set = RiskSet.from_vertices(model, fin_part_vertices())
        qi_set = RiskSet.from_vertices(model, int_part_vertices(EPS))
        assert set_equal(intersect(qf_set, qi_set), rs)

    def test_disjoint_intervals_are_empty(self):
        m = two_outcome_model()
        left = RiskSet.from_constraints(m, [[1.0, 0.0, 0.3]])
        right = RiskSet.from_constraints(m, [[-1.0, 0.0, -0.7]])
        with pytest.raises(EmptyIntersectionError):
            intersect(left, right)

    def test_different_models_rejected(self, rs):
        other = two_outcome_model()
        with pytest.raises(SchemaError):
            intersect(rs, simplex_set(other))


class TestSetEqualIncludes:
    def test_reflexive(self, rs):
        assert set_equal(rs, rs)

    def test_duplicated_vertex_is_equal(self, model):
        verts = extreme_points(EPS)
        doubled = np.vstack([verts, verts[:1]])
        assert set_equal(RiskSet.from_vertices(model, verts),
                         RiskSet.from_vertices(model, doubled))

    def test_worked_set_inside_financial_part(self, model, rs):
        from riskchain.twobytwo import fin_part_vertices
        qf_set = RiskSet.from_vertices(model, fin_part_vertices())
        assert includes(qf_set, rs)
        assert not set_equal(qf_set, rs)
