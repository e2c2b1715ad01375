"""Market decomposition, product spaces and the pricing-class builder."""

import gc
import weakref
from dataclasses import astuple
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import riskchain.consistency as consistency
import riskchain.intermarket as intermarket
from riskchain import (
    Chain,
    Claim,
    EmptyKernelError,
    InfeasibleError,
    NotCoarserError,
    ReservePlan,
    RiskSet,
    ScenarioModel,
    SchemaError,
    SizeBoundError,
    build_refined,
    check_fi,
    decompose_acceptance,
    eta,
    extend_pi,
    fin_restriction,
    includes,
    intersect,
    is_acceptable,
    is_mstable,
    is_purely_financial,
    kernel_polytope,
    lift_financial,
    mstable_hull,
    product_reserve,
    product_space,
    psi_build,
    psi_verify,
    qf,
    qi,
    reserve_plan,
    rho,
    set_equal,
    simplex_set,
    singleton,
    split_reserve,
)
from riskchain.config import DEDUP_TOL
from riskchain.consistency import _verdict_rows
from riskchain.riskset import _in_hull
from riskchain.twobytwo import (
    extreme_points,
    fin_part_vertices,
    int_part_vertices,
    market_model,
    pricing_constraints,
)

from oracles import check_fi_by_parts, one_period_premium, project
from randmodels import hulled_set, random_claim, random_market, random_model, random_riskset

EPS = 0.2


def qf_by_projection(rs, mm):
    """Financial part as the intersection of the per-period (t -> t+)
    projections: an independent oracle for the assembly route of ``qf``."""
    parts = [project(rs, str(t), f"{t}+") for t in range(mm.horizon)]
    return RiskSet.from_vertices(mm.model, reduce(intersect, parts).vertices)


def qi_by_projection(rs, mm):
    """Intermediate part as the intersection of the (t+ -> t+1) projections."""
    parts = [project(rs, f"{t}+", str(t + 1)) for t in range(mm.horizon)]
    return RiskSet.from_vertices(mm.model, reduce(intersect, parts).vertices)


@pytest.fixture
def mm():
    return market_model()


@pytest.fixture
def rs(mm):
    return RiskSet.from_constraints(mm.model, pricing_constraints(EPS))


def two_state_factor(labels, weights=(0.5, 0.5)):
    return ScenarioModel(list(labels), ["0", "1"],
                         [[[0, 1]], [[0], [1]]], list(weights))


def scaled_tol(model, x):
    """The tolerance at a claim's own scale, ``tol (1 + max|x|)``: two routes
    to a price of ``x`` round apart in proportion to ``x``."""
    return model.config.tol * (1.0 + np.abs(x).max())


@pytest.fixture
def pm():
    return product_space(two_state_factor(["f", "f'"]),
                         two_state_factor(["i", "i'"]))


class TestBuildRefined:
    def test_financial_equals_model_duplicates_next_stage(self):
        rng = np.random.default_rng(80)
        m = random_model(rng, stages_min=3, stages_max=3)
        fins = {t: m.atoms(str(t)) for t in range(1, 3)}
        refined = build_refined(m, fins)
        T = refined.horizon
        for t in range(T):
            assert refined.model.atoms(f"{t}+") == refined.model.atoms(str(t + 1))

    def test_trivial_financial_duplicates_current_stage(self):
        rng = np.random.default_rng(81)
        m = random_model(rng, stages_min=3, stages_max=3)
        fins = {t: [list(range(m.n))] for t in range(1, 3)}
        refined = build_refined(m, fins)
        for t in range(refined.horizon):
            assert refined.model.atoms(f"{t}+") == refined.model.atoms(str(t))

    def test_worked_half_step(self, mm):
        assert mm.model.atoms("0+") == [(0, 2), (1, 3)]
        assert [s.label for s in mm.model.stages] == ["0", "0+", "1"]

    def test_not_coarser_rejected(self):
        m = ScenarioModel(["a", "b", "c", "d"], ["0", "1"],
                          [[[0, 1, 2, 3]], [[0], [1], [2], [3]]], [0.25] * 4)
        base = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                             [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                              [[0], [1], [2], [3]]], [0.25] * 4)
        # F_1 = {{0,2},{1,3}} crosses G_1 = {{0,1},{2,3}}
        with pytest.raises(NotCoarserError):
            build_refined(base, {1: [[0, 2], [1, 3]], 2: [[0], [1], [2], [3]]})

    @pytest.mark.parametrize("part", [
        [[0, 2], [1, 2, 3]],      # overlapping atoms
        [[0, 2], [1]],            # outcome 3 in no atom
        [[0, 2], [1, 3], []],     # empty atom
    ])
    def test_bad_financial_partition_is_schema_error(self, part):
        base = ScenarioModel(["a", "b", "c", "d"], ["0", "1"],
                             [[[0, 1, 2, 3]], [[0], [1], [2], [3]]], [0.25] * 4)
        with pytest.raises(SchemaError):
            build_refined(base, {1: part})


class TestParts:
    def test_worked_financial_part(self, mm, rs):
        assert set_equal(qf(rs, mm),
                         RiskSet.from_vertices(mm.model, fin_part_vertices()))

    def test_worked_intermediate_part(self, mm, rs):
        assert set_equal(qi(rs, mm),
                         RiskSet.from_vertices(mm.model, int_part_vertices(EPS)))

    def test_reference_singleton_financial_part_contains_it(self, pm):
        p = singleton(pm.model, pm.model.reference)
        part = qf(p, pm.market)
        assert includes(part, p)

    def test_parts_contain_the_set(self):
        rng = np.random.default_rng(82)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model)
        assert includes(qf(rs, mkt), rs)
        assert includes(qi(rs, mkt), rs)

    def test_repeated_parts_run_no_solver(self, no_nnls):
        """Once the set's kernels are cached, pasting ``qf`` and ``qi`` again
        solves nothing."""
        rng = np.random.default_rng(5)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model)
        first = [qf(rs, mkt).vertices, qi(rs, mkt).vertices]
        assert no_nnls      # the first calls reduced the set's kernels
        no_nnls.clear()
        again = [qf(rs, mkt).vertices, qi(rs, mkt).vertices]
        assert no_nnls == []
        assert [v.tobytes() for v in again] == [v.tobytes() for v in first]

    def test_assembly_agrees_with_projection_route(self, mm, rs):
        # two independent constructions of the same parts
        assert set_equal(qf(rs, mm), qf_by_projection(rs, mm))
        assert set_equal(qi(rs, mm), qi_by_projection(rs, mm))
        rng = np.random.default_rng(90)
        for _ in range(3):
            mkt = random_market(rng, n_max=5)
            rand = random_riskset(rng, mkt.model)
            assert set_equal(qf(rand, mkt), qf_by_projection(rand, mkt))
            assert set_equal(qi(rand, mkt), qi_by_projection(rand, mkt))


class TestCheckFi:
    def test_worked_set(self, mm, rs):
        report = check_fi(rs, mm)
        assert report.mstable and report.equals_intersection and report.parts_agree

    def test_full_simplex(self, mm):
        report = check_fi(simplex_set(mm.model), mm)
        assert report.mstable and report.equals_intersection and report.parts_agree

    def test_embedded_nonstable_set_fails_both_sides(self):
        # identity embedding: half-steps equal the next stages
        base = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                             [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                              [[0], [1], [2], [3]]], [0.25] * 4)
        mkt = build_refined(base, {1: [[0, 1], [2, 3]],
                                   2: [[0], [1], [2], [3]]})
        rs = RiskSet.from_vertices(mkt.model,
                                   [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]])
        report = check_fi(rs, mkt)
        assert not report.mstable
        assert not report.equals_intersection
        assert report.parts_agree

    @staticmethod
    def _check_random_reports(rng, **market_args):
        """Random sets (not m-stable) and their hulls (m-stable) get their
        known reports."""
        for k in range(4):
            mkt = random_market(rng, **market_args)
            rand = random_riskset(rng, mkt.model)
            if k % 2:
                rand = mstable_hull(rand)
            stable = bool(k % 2)
            assert astuple(check_fi(rand, mkt)) == (stable, stable, True)

    def test_no_lp_runs(self, no_lp, mm, rs):
        """check_fi solves no LP: the worked set, random sets and their hulls
        get their known reports without one."""
        assert astuple(check_fi(rs, mm)) == (True,) * 3
        self._check_random_reports(np.random.default_rng(7), n_max=5)

    def test_no_vertex_enumeration(self, no_enumeration, mm):
        """On V-sets check_fi converts nothing H→V and calls no qhull: the
        intersection is the pasting hull.  The worked set is given by its
        closed-form extreme points."""
        worked = RiskSet.from_vertices(mm.model, extreme_points(EPS))
        assert astuple(check_fi(worked, mm)) == (True,) * 3
        self._check_random_reports(np.random.default_rng(8))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_intersection_of_parts_is_the_hull(self, seed, hulled):
        """Rectangularity, against the H→V route as oracle: ``qf ∩ qi``
        enumerated from the parts' facets is the pasting hull, and
        ``equals_intersection`` is the verdict that oracle gives."""
        rng = np.random.default_rng(seed)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model)
        if hulled:
            rs = mstable_hull(rs)
        joined = intersect(qf(rs, mkt), qi(rs, mkt))
        assert set_equal(joined, mstable_hull(rs))
        assert check_fi(rs, mkt).equals_intersection == set_equal(rs, joined)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, "whole", "half"]),
           st.booleans())
    def test_agrees_with_the_route_by_parts(self, seed, dropped, hulled):
        """``check_fi`` against ``check_fi_by_parts`` on a twin of the set
        (no cache shared), with no atom dropped, or one atom of a whole stage
        (the final one included) or of a half stage left uncharged: the same
        three verdicts, and EMPTY_KERNEL exactly where the parts refuse.  One
        atom is dropped, so one stage holds the first uncharged atom either
        route meets, and the two refusals are the same."""
        rng = np.random.default_rng(seed)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model)
        if hulled:
            rs = mstable_hull(rs)
        if dropped == "whole":
            rs = drop_atom(rng, rs, str(int(rng.integers(1, mkt.horizon + 1))))
        elif dropped == "half":
            rs = drop_atom(rng, rs, f"{int(rng.integers(mkt.horizon))}+")
        twin = RiskSet.from_vertices(mkt.model, rs.vertices)
        try:
            want = check_fi_by_parts(twin, mkt)
        except EmptyKernelError as exc:
            with pytest.raises(EmptyKernelError) as got:
                check_fi(rs, mkt)
            assert (str(got.value), got.value.details) == (str(exc), exc.details)
            return
        assert want["qf_mstable"] and want["qi_mstable"]
        assert astuple(check_fi(rs, mkt)) == (
            want["mstable"], want["equals_intersection"], want["parts_agree"])

    def test_refusal_names_the_first_uncharged_atom_in_stage_order(self):
        """Uncharged atoms at two stages: the atom ``{2, 3}`` of stage 1,
        inside a charged atom of ``0+``, and the atom ``{4, 5}`` of ``0+``.
        ``check_fi`` names the earlier stage's, and ``rho`` and
        ``kernel_polytope`` at that stage name it alike; the route by parts
        names the atom ``qf`` meets first depth-first."""
        base = ScenarioModel([f"w{i}" for i in range(6)], ["0", "1", "2"],
                             [[list(range(6))], [[0, 1], [2, 3], [4, 5]],
                              [[w] for w in range(6)]], [1 / 6] * 6)
        mkt = build_refined(base, {1: [[0, 1, 2, 3], [4, 5]], 2: [[w] for w in range(6)]})
        verts = [[0.5, 0.5, 0, 0, 0, 0], [0.3, 0.7, 0, 0, 0, 0]]
        rs = RiskSet.from_vertices(mkt.model, verts)
        for refuse in (lambda: check_fi(rs, mkt),
                       lambda: rho(rs, Claim(np.ones(6)), "0+"),
                       lambda: kernel_polytope(rs, "0+", "1", 1)):
            with pytest.raises(EmptyKernelError) as got:
                refuse()
            assert (str(got.value), got.value.details) == (
                "no vertex charges atom 1 at stage 0+", {"stage": "0+", "atom": 1})
        with pytest.raises(EmptyKernelError, match="atom 1 at stage 1$"):
            check_fi_by_parts(RiskSet.from_vertices(mkt.model, verts), mkt)

    def test_hull_that_fits_decides_where_a_part_would_not(self):
        """Sixteen outcomes, one period, ``0+`` atoms of sizes 3, 3, 3, 3, 4,
        and thirteen vertices with distinct extreme root kernels but one
        kernel below ``0+``: the hull has 13 vertices, while ``qf`` pastes
        every root kernel with the free step, 13 x 324 rows past
        ``WORK_BOUND``.  ``check_fi`` pastes only the hull, so it decides."""
        n = 16
        base = ScenarioModel([f"w{i}" for i in range(n)], ["0", "1"],
                             [[list(range(n))], [[w] for w in range(n)]],
                             [1 / n] * n)
        owner = np.repeat(np.arange(5), [3, 3, 3, 3, 4])
        mkt = build_refined(base, {1: [np.flatnonzero(owner == a).tolist()
                                       for a in range(5)]})
        # root kernels on a sphere about the centre, so each one is extreme
        dirs = np.random.default_rng(28).normal(size=(13, 5))
        dirs -= dirs.mean(axis=1, keepdims=True)
        kernels = 0.2 + 0.1 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        within = np.linspace(1.0, 2.0, n)
        verts = kernels[:, owner] * within / np.bincount(owner, within)[owner]
        rs = RiskSet.from_vertices(mkt.model, verts)
        assert len(rs.vertices) == 13
        assert astuple(check_fi(rs, mkt)) == (True,) * 3
        assert len(mstable_hull(rs).vertices) == 13
        with pytest.raises(SizeBoundError):
            qf(rs, mkt)


class TestSplitReserve:
    def test_worked_split(self, mm, rs):
        x = Claim(np.array([1.0, 0.0, -1.0, 0.0]))
        plan = split_reserve(rs, mm, x)
        assert plan.premium == pytest.approx(0.1, abs=1e-12)
        assert plan.time_consistent and plan.warning is None
        assert np.allclose(plan.fin_increments[0].values, [0.1, -0.1, 0.1, -0.1],
                           atol=1e-12)
        assert np.allclose(plan.int_increments[0].values, [0.8, 0.0, -1.2, 0.0],
                           atol=1e-12)
        assert np.allclose(plan.total(mm.model), x.values, atol=1e-9)

    def test_constant_claim(self, mm, rs):
        plan = split_reserve(rs, mm, Claim(np.full(4, -0.75)))
        assert plan.premium == pytest.approx(-0.75, abs=1e-9)
        for inc in list(plan.fin_increments) + list(plan.int_increments):
            assert np.allclose(inc.values, 0.0, atol=1e-9)

    def test_purely_financial_claim_has_no_intermediate_part(self, pm):
        pi = RiskSet.from_vertices(pm.fin, [[0.3, 0.7], [0.6, 0.4]])
        q = psi_build(pi, simplex_set(pm.model), pm)
        x = Claim(lift_financial(pm, np.array([2.0, -1.0])))
        assert is_purely_financial(pm, x)
        plan = split_reserve(q, pm.market, x)
        for inc in plan.int_increments:
            assert np.allclose(inc.values, 0.0, atol=1e-9)

    def test_random_market_split_telescopes(self):
        rng = np.random.default_rng(83)
        mkt = random_market(rng)
        rs = mstable_hull(random_riskset(rng, mkt.model))
        x = random_claim(rng, mkt.model)
        plan = split_reserve(rs, mkt, x)
        assert plan.time_consistent
        assert np.allclose(plan.total(mkt.model), x.values, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_claim_is_a_schema_error(self, mm, rs, bad):
        with pytest.raises(SchemaError, match="claim values must be finite"):
            split_reserve(rs, mm, Claim(np.array([1.0, bad, -1.0, 0.0])))


    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_premium_plus_both_increments_is_the_claim(self, seed):
        rng = np.random.default_rng(seed)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model)
        x = random_claim(rng, mkt.model)
        plan = split_reserve(rs, mkt, x)
        assert len(plan.fin_increments) == len(plan.int_increments) == mkt.horizon
        total = plan.premium + sum(u.values for u in plan.fin_increments) \
            + sum(u.values for u in plan.int_increments)
        assert np.allclose(total, x.values, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.booleans())
    def test_increments_lie_in_their_cones_at_every_scale(self, seed, k, hulled):
        """The oracle for the cone checks the split does not make: at claim
        scale 10^k, time-consistent set or not, each increment is measurable
        at its date and prices to at most ``tol (1 + max|x|)`` on every atom
        of its cone's first date, and the plan telescopes."""
        rng = np.random.default_rng(seed)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model)
        if hulled:
            rs = mstable_hull(rs)
        x = random_claim(rng, mkt.model, lo=-10.0 ** k, hi=10.0 ** k)
        plan = split_reserve(rs, mkt, x)
        bound = scaled_tol(mkt.model, x.values)
        for t, (uf, ui) in enumerate(zip(plan.fin_increments, plan.int_increments)):
            for u, s, s_next in ((uf, mkt.whole(t), mkt.half(t)),
                                 (ui, mkt.half(t), mkt.whole(t + 1))):
                assert u.stage == s_next.index
                assert mkt.model.is_measurable(u.values, s_next)
                assert np.all(rho(rs, u, s).values <= bound)
        assert np.all(np.abs(plan.total(mkt.model) - x.values) <= bound)


class TestModelMismatch:
    ENTRIES = [qf, qi, check_fi,
               lambda rs, mkt: split_reserve(rs, mkt, Claim(np.zeros(rs.model.n)))]

    @pytest.mark.parametrize("entry", ENTRIES, ids=["qf", "qi", "check_fi", "split_reserve"])
    @pytest.mark.parametrize("other", ["plain", "other_market"])
    def test_set_on_another_model_is_schema_error(self, entry, other):
        """A set on the market's plain model, or on another market's refined
        one with other half steps, is refused; a set on an equal model built
        again is not."""
        base = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                             [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                              [[0], [1], [2], [3]]], [0.25] * 4)
        fins = {1: [[0, 1, 2, 3]], 2: [[0, 1], [2, 3]]}
        mkt = build_refined(base, fins)
        verts = [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]]
        entry(RiskSet.from_vertices(build_refined(base, fins).model, verts), mkt)
        if other == "plain":
            model = base
        else:
            model = build_refined(base, {1: [[0, 1], [2, 3]], 2: [[0], [1], [2], [3]]}).model
        with pytest.raises(SchemaError, match="different models"):
            entry(RiskSet.from_vertices(model, verts), mkt)


class TestProductSpace:
    def test_worked_shape(self, pm):
        assert pm.model.n == 4
        assert pm.model.atoms("0+") == [(0, 2), (1, 3)]
        assert np.allclose(pm.model.reference, 0.25)

    def test_full_support_reference(self):
        rng = np.random.default_rng(84)
        fin = two_state_factor(["f", "f'"], (0.3, 0.7))
        inter = two_state_factor(["i", "i'"], (0.6, 0.4))
        pm = product_space(fin, inter)
        assert np.all(pm.model.reference > 0)
        want = np.array([0.6 * 0.3, 0.6 * 0.7, 0.4 * 0.3, 0.4 * 0.7])
        assert np.allclose(pm.model.reference, want, atol=1e-12)

    def test_extend_singleton(self, pm):
        hat = extend_pi(singleton(pm.fin, [0.5, 0.5]), pm)
        assert len(hat.vertices) == 1
        assert np.allclose(hat.vertices[0], 0.25, atol=1e-12)

    def test_extend_keeps_vertex_count(self, pm):
        pi = RiskSet.from_vertices(pm.fin, [[0.2, 0.8], [0.9, 0.1]])
        hat = extend_pi(pi, pm)
        assert hat.vertices.shape == (2, 4)
        assert np.allclose(hat.vertices.sum(axis=1), 1.0, atol=1e-12)


class TestPsiBuild:
    def test_simplex_phi_prices_worst_case_intermediate(self, pm):
        pi = singleton(pm.fin, [0.5, 0.5])
        q = psi_build(pi, simplex_set(pm.model), pm)
        ind = np.zeros(4)
        ind[0] = 1.0    # outcome (i, f) = (0, 0), intermediate-major
        got = float(rho(q, Claim(ind), "0").values[0])
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_worked_set_reconstructed(self, pm, mm, rs):
        pi = singleton(pm.fin, [0.5, 0.5])
        phi = RiskSet.from_vertices(pm.model, rs.vertices)
        q = psi_build(pi, phi, pm)
        assert set_equal(q, RiskSet.from_vertices(pm.model, rs.vertices))

    def test_reference_phi_composes_by_tower(self, pm):
        pi = RiskSet.from_vertices(pm.fin, [[0.3, 0.7], [0.8, 0.2]])
        phi = singleton(pm.model, pm.model.reference)
        q = psi_build(pi, phi, pm)
        x = Claim(lift_financial(pm, np.array([1.0, -2.0])))
        lifted = lift_financial(pm, rho(pi, fin_restriction(pm, x), "0").values)
        assert np.allclose(rho(q, x, "0").values, lifted, atol=1e-9)

    def test_verification_report(self, pm):
        rng = np.random.default_rng(85)
        pi = RiskSet.from_vertices(pm.fin, [[0.4, 0.6], [0.7, 0.3]])
        phi = RiskSet.from_vertices(
            pm.model, [[0.3, 0.3, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4]])
        q = psi_build(pi, phi, pm)
        claims = [random_claim(rng, pm.model) for _ in range(20)]
        claims.append(Claim(lift_financial(pm, np.array([1.0, -1.0]))))
        report = psi_verify(pi, phi, pm, q, claims)
        assert report["qf_recovered"] and report["qi_recovered"]
        assert report["mstable"]
        assert report["composition_ok"]
        assert report["pi_time_consistent"]
        assert report["financial_agreement_ok"]

    def test_large_claims_compare_at_their_own_scale(self, pm):
        """At claim scale 1e8 the composition and the financial prices of a
        correctly built ``q`` round apart by far more than ``tol``, but each
        claim's deviation is within ``tol (1 + max|x|)``; a set that does not
        compose still fails at that scale."""
        rng = np.random.default_rng(29)
        pi = RiskSet.from_vertices(pm.fin, [[0.4, 0.6], [0.7, 0.3]])
        phi = RiskSet.from_vertices(
            pm.model, [[0.3, 0.3, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4]])
        claims = [random_claim(rng, pm.model, lo=-1e8, hi=1e8) for _ in range(20)]
        claims += [Claim(lift_financial(pm, rng.uniform(-1e8, 1e8, 2))) for _ in range(5)]
        tol = pm.model.config.tol
        report = psi_verify(pi, phi, pm, psi_build(pi, phi, pm), claims)
        assert report["composition_ok"] and report["financial_agreement_ok"]
        assert report["composition_max_dev"] > tol
        assert report["financial_agreement_max_dev"] > tol
        assert not psi_verify(pi, phi, pm, phi, claims)["composition_ok"]

    def test_horizon_two_composition_deviation(self):
        """``psi_verify`` prices ``q`` once per date and reuses the next
        date's prices; its deviation is bit-equal to pricing ``q`` again at
        each step, for the built set and for a set that does not compose."""
        rng = np.random.default_rng(86)
        fin, inter = (random_model(rng, n_min=2, n_max=3, stages_min=3, stages_max=3)
                      for _ in range(2))
        pm = product_space(fin, inter)
        pi = random_riskset(rng, pm.fin, k_min=1, k_max=2)
        phi = random_riskset(rng, pm.model, k_min=2, k_max=3)
        claims = [random_claim(rng, pm.model) for _ in range(6)]
        X = Claim(np.array([x.values for x in claims]))
        qf_part, qi_part = qf(extend_pi(pi, pm), pm.market), qi(phi, pm.market)
        for q in (psi_build(pi, phi, pm), phi):
            dev = 0.0
            for t in range(2):
                mid = rho(qi_part, rho(q, X, str(t + 1)), pm.market.half(t))
                lhs = rho(qf_part, mid, str(t)).values
                dev = max(dev, float(np.abs(lhs - rho(q, X, str(t)).values).max()))
            assert psi_verify(pi, phi, pm, q, claims)["composition_max_dev"] == dev
        assert dev > 1e-3      # phi itself does not compose

    def test_phi_with_same_intermediate_part_gives_same_set(self, pm):
        # the construction only sees the intermediate part of phi
        pi = RiskSet.from_vertices(pm.fin, [[0.4, 0.6], [0.7, 0.3]])
        phi1 = RiskSet.from_vertices(
            pm.model, [[0.3, 0.3, 0.2, 0.2], [0.2, 0.2, 0.3, 0.3]])
        phi2 = qi(phi1, pm.market)
        assert not set_equal(phi1, phi2)
        q1 = psi_build(pi, phi1, pm)
        q2 = psi_build(pi, phi2, pm)
        assert set_equal(q1, q2)
        assert set_equal(qf(q1, pm.market), qf(extend_pi(pi, pm), pm.market))


class TestProductInputs:
    """The product-space builders refuse a factor set on another model, as
    ``product_reserve`` does, and ``psi_verify`` a claim that is not one
    finite ``(n,)`` vector, as ``product_reserve`` and ``split_reserve`` do."""

    PHI = [[0.3, 0.3, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4]]

    def test_financial_set_on_another_model_is_schema_error(self, pm):
        """``pi`` on another two-outcome model priced as if it lived on the
        financial factor; a set on an equal model built again passes."""
        phi = RiskSet.from_vertices(pm.model, self.PHI)
        claims = [Claim(np.array([1.0, -2.0, 0.5, 3.0]))]
        for labels, refused in ((["f", "f'"], False), (["u", "d"], True)):
            pi = RiskSet.from_vertices(two_state_factor(labels, (0.3, 0.7)),
                                       [[0.4, 0.6], [0.7, 0.3]])
            for call in (lambda: extend_pi(pi, pm), lambda: psi_build(pi, phi, pm),
                         lambda: psi_verify(pi, phi, pm, phi, claims)):
                if refused:
                    with pytest.raises(SchemaError, match="different models"):
                        call()
                else:
                    call()

    def test_phi_on_the_plain_product_model_is_schema_error(self, pm):
        """``phi`` on the product's outcomes without the half steps."""
        pi = singleton(pm.fin, [0.5, 0.5])
        plain = ScenarioModel(pm.model.outcomes, ["0", "1"],
                              [[[0, 1, 2, 3]], [[0], [1], [2], [3]]], pm.model.reference)
        with pytest.raises(SchemaError, match="different models"):
            psi_build(pi, RiskSet.from_vertices(plain, self.PHI), pm)

    @pytest.mark.parametrize("values", [np.ones(3), np.ones(5), np.ones((2, 4)),
                                        [0.0, np.nan, 1.0, 2.0],
                                        [0.0, np.inf, 1.0, 2.0], [-np.inf, 0.0, 1.0, 2.0]],
                             ids=["short", "long", "stack", "nan", "inf", "-inf"])
    def test_psi_verify_claim_other_than_one_finite_vector_is_schema_error(self, pm, values):
        pi = RiskSet.from_vertices(pm.fin, [[0.4, 0.6], [0.7, 0.3]])
        phi = RiskSet.from_vertices(pm.model, self.PHI)
        q = psi_build(pi, phi, pm)
        with pytest.raises(SchemaError, match="claim"):
            psi_verify(pi, phi, pm, q, [Claim(np.zeros(4)), Claim(np.asarray(values))])


def random_product(rng):
    """Product of two random factors of 2-3 outcomes on a common grid."""
    stages = int(rng.integers(2, 4))
    fin, inter = (random_model(rng, n_min=2, n_max=3, stages_min=stages,
                               stages_max=stages) for _ in range(2))
    return product_space(fin, inter)


def drop_atom(rng, rs, stage):
    """The set with one atom of ``stage`` uncharged by every vertex, or the
    set itself when the stage has one atom."""
    atoms = rs.model.atoms(stage)
    if len(atoms) < 2:
        return rs
    V = rs.vertices.copy()
    V[:, list(atoms[int(rng.integers(len(atoms)))])] = 0.0
    return RiskSet.from_vertices(rs.model, V / V.sum(axis=1, keepdims=True))


def assert_pasting_stable(p):
    """What pasting recorded on ``p``, checked without it: a copy of ``p``'s
    vertices, with no verdict and no kernels, gives a hull equal to ``p``;
    each kept kernel array matches the kernels extracted from the copy, row
    for row both ways within ``DEDUP_TOL``; and every node with no kept
    kernels is charged by no vertex, so ``kernel_polytope`` refuses it."""
    model = p.model
    fresh = RiskSet._of_extreme(model, p.vertices)
    assert set_equal(p, mstable_hull(fresh))
    for s in range(model.final_stage.index):
        for a in range(len(model.atoms(s))):
            kept = p._kernels.get((s, s + 1, a))
            if kept is None:
                with pytest.raises(EmptyKernelError):
                    kernel_polytope(p, s, s + 1, a)
                continue
            assert not kept.flags.writeable
            got = kernel_polytope(fresh, s, s + 1, a)
            near = np.abs(kept[:, None] - got[None]).max(axis=2) <= DEDUP_TOL
            assert near.any(axis=1).all() and near.any(axis=0).all()


@pytest.fixture
def spy(monkeypatch):
    """``spy(name, *modules)`` records every call of the function ``name``
    made through any of the modules, which all import the same one."""
    def install(name, *modules):
        calls = []
        real = getattr(modules[0], name)

        def record(*args):
            calls.append(args)
            return real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, record)
        return calls
    return install


class TestPastedSets:
    """A pasted set is rectangular, so m-stable: pasting records that verdict
    and the kernels it pasted, and ``qf``, ``qi`` and ``extend_pi`` keep
    their results on their input set."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_market_parts_and_hulls(self, seed, dropped):
        """The parts ``qf`` and ``qi``, the hull, and each part's
        complementary part, which is the whole simplex; with an atom of
        ``0+`` left uncharged, where ``qi`` is undefined, the hull and
        ``qf``, which reach no node below that atom."""
        rng = np.random.default_rng(seed)
        mkt = random_market(rng)
        rs = random_riskset(rng, mkt.model, k_min=1, k_max=3)
        if dropped:
            rs = drop_atom(rng, rs, "0+")
            pasted = [mstable_hull(rs), qf(rs, mkt)]
        else:
            qf_set, qi_set = qf(rs, mkt), qi(rs, mkt)
            pasted = [qf_set, qi_set, mstable_hull(rs), qi(qf_set, mkt), qf(qi_set, mkt)]
            full = simplex_set(mkt.model)
            assert set_equal(qi(qf_set, mkt), full) and set_equal(qf(qi_set, mkt), full)
        for p in pasted:
            assert is_mstable(p)
            assert_pasting_stable(p)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_psi_build_output(self, seed):
        rng = np.random.default_rng(seed)
        pm = random_product(rng)
        pi = random_riskset(rng, pm.fin, k_min=1, k_max=2)
        phi = random_riskset(rng, pm.model, k_min=1, k_max=3)
        q = psi_build(pi, phi, pm)
        assert set_equal(qf(q, pm.market), qf(extend_pi(pi, pm), pm.market))
        assert set_equal(qi(q, pm.market), qi(phi, pm.market))
        for p in (q, qf(extend_pi(pi, pm), pm.market), qi(phi, pm.market)):
            assert is_mstable(p)
            assert_pasting_stable(p)

    def test_unreached_node_has_no_kernels(self):
        """The root kernel never charges the second stage-1 atom, so the
        hull has no kernels there and ``kernel_polytope`` refuses it."""
        m = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                          [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                          [0.25] * 4)
        hull = mstable_hull(RiskSet.from_vertices(m, [[0.5, 0.5, 0, 0], [0.2, 0.8, 0, 0]]))
        assert sorted(hull._kernels) == [(0, 1, 0), (1, 2, 0)]
        with pytest.raises(EmptyKernelError):
            kernel_polytope(hull, 1, 2, 1)
        assert_pasting_stable(hull)

    def test_check_fi_builds_only_the_input_sets_hull(self, spy):
        """One paste per call, the input set's hull, and no part: four sets
        whose verdicts take the row route, then one that takes the hull
        route and reads the same hull again."""
        rng = np.random.default_rng(11)
        cases = [(mkt, random_riskset(rng, mkt.model))
                 for mkt in (random_market(rng) for _ in range(4))]
        rng = np.random.default_rng(3)
        mkt = random_market(rng, n_max=4)
        cases.append((mkt, random_riskset(rng, mkt.model, k_min=6, k_max=6)))
        routes = [_verdict_rows(rs) is not None for _, rs in cases]
        assert routes == [True] * 4 + [False]
        hulls = spy("mstable_hull", consistency, intermarket)
        pastes = spy("paste_assembly", consistency, intermarket)
        for (mkt, rs), row_route in zip(cases, routes):
            del hulls[:], pastes[:]
            check_fi(rs, mkt)
            assert len(hulls) == (1 if row_route else 2)
            assert all(args[0] is rs for args in hulls)
            assert len(pastes) == 1 and all(src is rs for src in pastes[0][1])

    def test_check_fi_pastes_a_hull_route_sets_hull_once(self, spy):
        """Six vertices on four outcomes take the hull route: the verdict and
        ``equals_intersection`` share one hull, kept on the set, and one
        ``set_equal(rs, hull)``."""
        rng = np.random.default_rng(3)
        mkt = random_market(rng, n_max=4)
        rs = random_riskset(rng, mkt.model, k_min=6, k_max=6)
        assert len(rs.vertices) > mkt.model.n and _verdict_rows(rs) is None
        pastes = spy("paste_assembly", consistency, intermarket)
        compared = spy("set_equal", consistency, intermarket)
        report = check_fi(rs, mkt)
        assert sum(all(src is rs for src in p[1]) for p in pastes) == 1
        assert report.parts_agree and mstable_hull(rs) is mstable_hull(rs)
        assert [args for args in compared if args[0] is rs] == [(rs, mstable_hull(rs))]

    def test_psi_build_pastes_once(self, spy, pm):
        """``psi_build`` is one paste; ``psi_verify`` pastes the four parts
        it compares, so the pair pastes five times, each part once."""
        rng = np.random.default_rng(13)
        pi = RiskSet.from_vertices(pm.fin, [[0.4, 0.6], [0.7, 0.3]])
        phi = RiskSet.from_vertices(
            pm.model, [[0.3, 0.3, 0.2, 0.2], [0.1, 0.2, 0.3, 0.4]])
        pastes = spy("paste_assembly", consistency, intermarket)
        q = psi_build(pi, phi, pm)
        assert len(pastes) == 1
        report = psi_verify(pi, phi, pm, q, [random_claim(rng, pm.model) for _ in range(5)])
        assert len(pastes) == 5
        assert report["qf_recovered"] and report["qi_recovered"] and report["mstable"]

    def test_parts_are_kept_per_model_object(self):
        rng = np.random.default_rng(14)
        base = random_model(rng, n_min=4, n_max=6, stages_min=2, stages_max=3)
        fins = {t: base.atoms(str(t)) for t in range(1, len(base.stages))}
        mkt, twin = build_refined(base, fins), build_refined(base, fins)
        rs = random_riskset(rng, mkt.model)
        first = qf(rs, mkt)
        assert qf(rs, mkt) is first and qi(rs, mkt) is qi(rs, mkt)
        other = qf(rs, twin)
        assert other is not first and other.model is twin.model
        assert qf(rs, mkt) is first and qf(rs, twin) is other
        assert set_equal(first, RiskSet.from_vertices(mkt.model, other.vertices))

        pm = random_product(rng)
        pi = random_riskset(rng, pm.fin)
        assert extend_pi(pi, pm) is extend_pi(pi, pm)
        pm2 = product_space(pm.fin, pm.inter)
        assert extend_pi(pi, pm2) is not extend_pi(pi, pm)

    def test_parts_die_with_their_set(self):
        """Nothing but the set holds its parts, and pasting leaves no
        reference cycle: with the cyclic collector off, dropping the set
        frees it and every part ``check_fi`` kept on it."""
        rng = np.random.default_rng(15)
        mkt = random_market(rng)
        gc.collect()
        gc.disable()
        try:
            rs = random_riskset(rng, mkt.model)
            check_fi(rs, mkt)
            parts = list(rs._parts.values())
            refs = [weakref.ref(x) for x in [rs] + parts
                    + [y for x in parts for y in x._parts.values()]]
            assert len(refs) == 2       # rs and its hull
            del rs, parts
            assert [r() for r in refs] == [None] * 2
        finally:
            gc.enable()


def lift(p_int, pm):
    """``p_int`` extended to the product by independence: each vertex times
    the financial reference."""
    return RiskSet.from_vertices(
        pm.model, [np.outer(v, pm.fin.reference).ravel() for v in p_int.vertices])


def random_factors(rng, horizon, n_max=3, k_max=4):
    fin, inter = (random_model(rng, n_min=2, n_max=n_max, stages_min=horizon + 1,
                               stages_max=horizon + 1) for _ in range(2))
    pm = product_space(fin, inter)
    return (pm, random_riskset(rng, fin, k_max=k_max),
            random_riskset(rng, inter, k_max=k_max))


def cond_max(V, x, model, t, w):
    """``max_q E_q[x | A]`` over the rows of ``V`` for the stage-``t`` atom
    ``A`` of outcome ``w``, which every row charges."""
    idx = list(model.atom(t, model.atom_ids(t)[w]))
    return max(float(q[idx] @ x[idx]) / float(q[idx].sum()) for q in V)


def band(inter):
    return RiskSet.from_vertices(inter, [[0.6, 0.4], [0.4, 0.6]])


class TestOnePeriodPremium:
    """The two-stage premium of a one-period claim, ``product_reserve`` at
    horizon 1."""

    def test_stock_if_alive_contract(self, pm):
        # oracle: per financial state, maximize over the two band kernels,
        # then average under the pinned financial measure
        s_values = {0: 2.0, 1: 0.5}
        # outcomes are intermediate-major: the alive row pays the share
        h = np.array([[s_values[0], s_values[1]], [0.0, 0.0]]).ravel()
        kernels = [np.array([0.6, 0.4]), np.array([0.4, 0.6])]
        oracle_hf = [max(k[0] * s_values[f] for k in kernels) for f in (0, 1)]
        oracle_premium = 0.5 * oracle_hf[0] + 0.5 * oracle_hf[1]
        assert oracle_premium == pytest.approx(0.75, abs=1e-12)

        pi = singleton(pm.fin, [0.5, 0.5])
        res = product_reserve(pi, band(pm.inter), Claim(h), pm)
        assert res.premium == pytest.approx(oracle_premium, abs=1e-9)
        fin_values = res.premium + fin_restriction(pm, res.fin_increments[0]).values
        assert np.allclose(fin_values, oracle_hf, atol=1e-9)
        assert np.allclose(res.total(pm.model), h, atol=1e-9)
        assert res.time_consistent and res.warning is None

    def test_agrees_with_psi_route(self, pm, rs):
        s_values = {0: 2.0, 1: 0.5}
        # outcomes are intermediate-major: the alive row pays the share
        h = np.array([[s_values[0], s_values[1]], [0.0, 0.0]]).ravel()
        pi = singleton(pm.fin, [0.5, 0.5])
        res = product_reserve(pi, band(pm.inter), Claim(h), pm)
        phi = RiskSet.from_vertices(pm.model, rs.vertices)  # its qi is the band
        q = psi_build(pi, phi, pm)
        assert float(rho(q, Claim(h), "0").values[0]) == pytest.approx(
            res.premium, abs=1e-9)

    def test_intermediate_independent_claim(self, pm):
        h = lift_financial(pm, np.array([1.5, -0.5]))
        pi = RiskSet.from_vertices(pm.fin, [[0.5, 0.5], [0.2, 0.8]])
        res = product_reserve(pi, band(pm.inter), Claim(h), pm)
        assert np.allclose(res.int_increments[0].values, 0.0, atol=1e-9)
        want = float(rho(pi, Claim(np.array([1.5, -0.5])), 0).values[0])
        assert res.premium == pytest.approx(want, abs=1e-9)

    def test_certain_survival_prices_financially(self, pm):
        s = np.array([2.0, 0.5])
        h = lift_financial(pm, s)
        pi = singleton(pm.fin, [0.5, 0.5])
        res = product_reserve(pi, band(pm.inter), Claim(h), pm)
        assert res.premium == pytest.approx(1.25, abs=1e-9)

    @settings(max_examples=90, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.integers(1, 3))
    def test_increments_are_acceptable_at_every_scale(self, seed, k, horizon):
        """The oracle for the acceptability checks the plan does not make: at
        claim scale 10^k and horizons 1-3, each period's financial increment
        prices to at most ``tol (1 + max|x|)`` under the financial set per
        intermediate outcome, and the intermediate one under the
        intermediate set per financial outcome; premium and increments
        telescope to the claim."""
        rng = np.random.default_rng(seed)
        pm, p_fin, p_int = random_factors(rng, horizon)
        h = random_claim(rng, pm.model, lo=-10.0 ** k, hi=10.0 ** k)
        res = product_reserve(p_fin, p_int, h, pm)
        bound = scaled_tol(pm.model, h.values)
        for t, (uf, ui) in enumerate(zip(res.fin_increments, res.int_increments)):
            assert np.all(rho(p_fin, Claim(pm.grid(uf.values)), t).values <= bound)
            assert np.all(rho(p_int, Claim(pm.grid(ui.values).T), t).values <= bound)
        assert np.all(np.abs(res.total(pm.model) - h.values) <= bound)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    def test_horizon_one_is_the_former_premium_bit_for_bit(self, seed, k):
        """At horizon 1 the plan is the former two-stage premium's
        arithmetic: the premium and both increments, values and dates, are
        bit-identical to the oracle's."""
        rng = np.random.default_rng(seed)
        pm, p_fin, p_int = random_factors(rng, 1, n_max=4)
        h = random_claim(rng, pm.model, lo=-10.0 ** k, hi=10.0 ** k)
        got = product_reserve(p_fin, p_int, h, pm)
        want = one_period_premium(p_fin, p_int, h, pm)
        assert got.premium == want.premium
        for inc, ref in ((got.fin_increments, want.fin_increment),
                         (got.int_increments, want.int_increment)):
            assert len(inc) == 1 and inc[0].stage == ref.stage
            assert inc[0].values.tobytes() == ref.values.tobytes()


class TestProductReserve:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(1, 3))
    def test_is_split_reserve_on_the_pasted_set(self, seed, k, horizon):
        """The paste route is the oracle: ``split_reserve`` on the set
        ``psi_build`` pastes from ``p_fin`` and ``p_int`` extended by
        independence gives the same plan, field by field, within
        ``tol_at``."""
        rng = np.random.default_rng(seed)
        pm, p_fin, p_int = random_factors(rng, horizon, k_max=3)
        h = random_claim(rng, pm.model, lo=-10.0 ** k, hi=10.0 ** k)
        got = product_reserve(p_fin, p_int, h, pm)
        want = split_reserve(psi_build(p_fin, lift(p_int, pm), pm), pm.market, h)
        bound = pm.model.config.tol_at(h.values)
        assert abs(got.premium - want.premium) <= bound
        assert (got.time_consistent, got.warning) == (want.time_consistent, want.warning)
        for inc, ref in ((got.fin_increments, want.fin_increments),
                         (got.int_increments, want.int_increments)):
            assert [u.stage for u in inc] == [u.stage for u in ref]
            for u, r in zip(inc, ref):
                assert np.all(np.abs(u.values - r.values) <= bound)

    def test_horizon_two_composes_both_factors_per_period(self):
        """Two binary trees of depth two: each period prices the intermediate
        factor per financial outcome and then the financial factor per
        intermediate outcome, by hand over the factor sets' vertices."""
        tree = [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]]
        fin = ScenarioModel(["uu", "ud", "du", "dd"], ["0", "1", "2"], tree,
                            [0.2, 0.3, 0.1, 0.4])
        inter = ScenarioModel(["aa", "ad", "da", "dd"], ["0", "1", "2"], tree,
                              [0.25, 0.25, 0.3, 0.2])
        pm = product_space(fin, inter)
        p_fin = RiskSet.from_vertices(fin, [[0.1, 0.4, 0.3, 0.2], [0.3, 0.2, 0.1, 0.4]])
        p_int = RiskSet.from_vertices(inter, [[0.4, 0.1, 0.2, 0.3], [0.2, 0.3, 0.4, 0.1],
                                              [0.25, 0.25, 0.25, 0.25]])
        h = np.random.default_rng(32).uniform(-5.0, 5.0, pm.model.n)
        res = product_reserve(p_fin, p_int, Claim(h), pm)

        v = h.reshape(4, 4)         # row i, column f
        for t in (1, 0):
            half = np.array([[cond_max(p_int.vertices, v[:, f], inter, t, i) for f in range(4)]
                             for i in range(4)])
            price = np.array([[cond_max(p_fin.vertices, half[i], fin, t, f) for f in range(4)]
                              for i in range(4)])
            assert np.allclose(res.fin_increments[t].values, (half - price).ravel(), atol=1e-12)
            assert np.allclose(res.int_increments[t].values, (v - half).ravel(), atol=1e-12)
            assert res.fin_increments[t].stage == pm.market.half(t).index
            assert res.int_increments[t].stage == pm.market.whole(t + 1).index
            v = price
        assert np.ptp(v) == 0.0
        assert res.premium == pytest.approx(v[0, 0], abs=1e-12)

    def test_answers_where_the_pasted_set_is_too_large(self):
        """Two four-outcome factors, one period, seven intermediate kernels:
        the pasted set would have 2 * 7^4 = 4,802 vertices, past
        ``WORK_BOUND``, so the paste route refuses; the factor route prices
        it as the horizon-1 oracle does."""
        def factor(n):
            return ScenarioModel([f"w{i}" for i in range(n)], ["0", "1"],
                                 [[list(range(n))], [[w] for w in range(n)]], [1 / n] * n)
        fin, inter = factor(4), factor(4)
        pm = product_space(fin, inter)
        p_fin = RiskSet.from_vertices(fin, [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
        p_int = RiskSet.from_vertices(inter, np.vstack([
            0.55 * np.eye(4) + 0.45 / 4,
            [[0.4, 0.4, 0.1, 0.1], [0.1, 0.4, 0.4, 0.1], [0.1, 0.1, 0.4, 0.4]]]))
        h = Claim(np.arange(16.0) - 7.5)
        with pytest.raises(SizeBoundError) as got:
            psi_build(p_fin, lift(p_int, pm), pm)
        assert got.value.details["reached"] == 4802
        res = product_reserve(p_fin, p_int, h, pm)
        assert res.premium == one_period_premium(p_fin, p_int, h, pm).premium
        assert np.allclose(res.total(pm.model), h.values, atol=1e-12)

    @pytest.mark.parametrize("which", ["fin", "int"])
    def test_factor_set_on_another_model_is_schema_error(self, which):
        """At horizon 2, a set on a factor-sized model with other partitions
        would price without error; it is refused, and a set on an equal
        model built again is not."""
        rng = np.random.default_rng(33)
        pm, p_fin, p_int = random_factors(rng, 2)
        h = random_claim(rng, pm.model)
        sets = {"fin": p_fin, "int": p_int}
        model = sets[which].model
        again = ScenarioModel(model.outcomes, [st_.label for st_ in model.stages],
                              [model.atoms(st_) for st_ in model.stages], model.reference)
        other = ScenarioModel(model.outcomes, [st_.label for st_ in model.stages],
                              [[list(range(model.n))]] * (len(model.stages) - 1)
                              + [[[w] for w in range(model.n)]], model.reference)
        for m, refused in ((again, False), (other, True)):
            sets[which] = RiskSet.from_vertices(m, sets[which].vertices)
            if refused:
                with pytest.raises(SchemaError, match="different models"):
                    product_reserve(sets["fin"], sets["int"], h, pm)
            else:
                product_reserve(sets["fin"], sets["int"], h, pm)

    def test_financial_set_on_the_intermediate_factor_is_schema_error(self, pm):
        with pytest.raises(SchemaError, match="different models"):
            product_reserve(band(pm.inter), band(pm.inter),
                            Claim(np.ones(4)), pm)

    @pytest.mark.parametrize("values", [np.ones(3), np.ones((2, 4)),
                                        [0.0, np.nan, 1.0, 2.0],
                                        [0.0, np.inf, 1.0, 2.0], [-np.inf, 0.0, 1.0, 2.0]],
                             ids=["short", "stack", "nan", "inf", "-inf"])
    def test_claim_other_than_one_finite_vector_is_schema_error(self, pm, values):
        pi = singleton(pm.fin, [0.5, 0.5])
        with pytest.raises(SchemaError):
            product_reserve(pi, band(pm.inter), Claim(np.asarray(values)), pm)


def assert_refined_dates(plan, mkt):
    """One ``ReservePlan`` whose increments are dated one stage apart from
    ``0+`` on, the financial ones at the half steps and the intermediate ones
    at the whole times."""
    assert type(plan) is ReservePlan
    assert [u.stage for u in plan.increments] == list(range(1, mkt.model.final_stage.index + 1))
    assert [u.stage for u in plan.fin_increments] == [mkt.half(t).index
                                                      for t in range(mkt.horizon)]
    assert [u.stage for u in plan.int_increments] == [mkt.whole(t + 1).index
                                                      for t in range(mkt.horizon)]


def assert_same_plan(got, want):
    """Field by field, values and dates byte for byte, warning included."""
    assert np.float64(got.premium).tobytes() == np.float64(want.premium).tobytes()
    assert (got.time_consistent, got.warning) == (want.time_consistent, want.warning)
    assert len(got.increments) == len(want.increments)
    for u, r in zip(got.increments, want.increments):
        assert u.stage == r.stage and u.values.tobytes() == r.values.tobytes()


class TestPlanDates:
    """Every reserve route builds one ``ReservePlan``, and each date is kept
    on its claim: an increment spans ``stage - 1 -> stage``."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_dates_are_on_the_claims(self, seed, horizon):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=6)
        rs = random_riskset(rng, m)
        x = random_claim(rng, m)
        final = m.final_stage.index
        assert [c.stage for c in eta(Chain.single(rs), x).claims] == list(range(final + 1))
        plan = reserve_plan(Chain.single(rs), x)
        assert type(plan) is ReservePlan
        assert [u.stage for u in plan.increments] == list(range(1, final + 1))

        mkt = random_market(rng)
        assert_refined_dates(split_reserve(random_riskset(rng, mkt.model), mkt,
                                           random_claim(rng, mkt.model)), mkt)
        pm, p_fin, p_int = random_factors(rng, horizon)
        assert_refined_dates(product_reserve(p_fin, p_int, random_claim(rng, pm.model), pm),
                             pm.market)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_split_reserve_is_reserve_plan(self, seed, hulled):
        """Each on its own copy of the set, drawn from the same seed, so that
        neither call reads what the other kept on the set."""
        rng = np.random.default_rng(seed)
        mkt = random_market(rng)
        x = random_claim(rng, mkt.model)
        set_seed = int(rng.integers(2**32))
        rs, twin = ((hulled_set if hulled else random_riskset)(
            np.random.default_rng(set_seed), mkt.model) for _ in range(2))
        got = split_reserve(rs, mkt, x)
        assert_same_plan(got, reserve_plan(Chain.single(twin), x))
        if hulled:
            assert got.time_consistent and got.warning is None

    def test_split_on_a_nonstable_set_warns_as_reserve_plan(self, mm):
        rs = random_riskset(np.random.default_rng(37), mm.model)
        x = Claim(np.array([1.0, 0.0, -1.0, 0.0]))
        plan = split_reserve(rs, mm, x)
        assert not plan.time_consistent
        assert plan.warning == reserve_plan(Chain.single(rs), x).warning is not None


def financial_cone_feasible(rs, mkt, x_values):
    """Split into financial-cone increments plus a nonpositive remainder."""
    model = mkt.model
    T = mkt.horizon
    blocks = []
    offsets = [0]
    for t in range(T):
        blocks.append((mkt.whole(t), mkt.half(t), model.atoms(mkt.half(t))))
        offsets.append(offsets[-1] + len(blocks[-1][2]))
    nz = model.n
    n_var = offsets[-1] + nz
    A_eq = np.zeros((model.n, n_var))
    for (st, half, atoms), off in zip(blocks, offsets):
        ids = model.atom_ids(half)
        for w in range(model.n):
            A_eq[w, off + ids[w]] += 1.0
    A_eq[:, offsets[-1]:] = np.eye(nz)
    rows = []
    for (st, half, atoms), off in zip(blocks, offsets):
        ids = model.atom_ids(half)
        for atom in model.atoms(st):
            for v in rs.vertices:
                row = np.zeros(n_var)
                for w in atom:
                    row[off + ids[w]] += v[w]
                rows.append(row)
    bounds = [(None, None)] * offsets[-1] + [(None, 0)] * nz
    res = linprog(np.zeros(n_var), A_ub=np.array(rows), b_ub=np.zeros(len(rows)),
                  A_eq=A_eq, b_eq=np.asarray(x_values, dtype=float),
                  bounds=bounds, method="highs")
    return res.status == 0


class TestConeSumLemmas:
    def test_stable_sets_split_acceptable_claims(self):
        rng = np.random.default_rng(86)
        mkt = random_market(rng)
        rs = mstable_hull(random_riskset(rng, mkt.model))
        for _ in range(10):
            x = random_claim(rng, mkt.model)
            x = Claim(x.values - float(rho(rs, x, 0).values[0]))
            parts = decompose_acceptance(rs, x)
            assert np.allclose(sum(p.values for p in parts), x.values, atol=1e-7)

    def test_embedded_nonstable_witness_does_not_split(self):
        base = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                             [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                              [[0], [1], [2], [3]]], [0.25] * 4)
        mkt = build_refined(base, {1: [[0, 1], [2, 3]],
                                   2: [[0], [1], [2], [3]]})
        rs = RiskSet.from_vertices(mkt.model,
                                   [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]])
        from riskchain import find_witness
        witness, gap = find_witness(rs, mstable_hull(rs))
        assert gap > 1e-6
        shifted = Claim(witness.values - float(rho(rs, witness, 0).values[0]))
        assert is_acceptable(rs, shifted)
        with pytest.raises(InfeasibleError):
            decompose_acceptance(rs, shifted)

    def test_financial_cone_sum_matches_financial_acceptance(self):
        rng = np.random.default_rng(87)
        checked = 0
        while checked < 25:
            mkt = random_market(rng, n_max=5)
            rs = random_riskset(rng, mkt.model)
            qf_set = qf(rs, mkt)
            x = random_claim(rng, mkt.model)
            level = float(rho(qf_set, x, 0).values[0])
            shift = level + float(rng.uniform(-0.4, 0.4))
            y = Claim(x.values - shift)
            acc = float(rho(qf_set, y, 0).values[0])
            if abs(acc) <= 1e-7:
                continue
            assert (acc <= 0) == financial_cone_feasible(rs, mkt, y.values)
            checked += 1


class TestMonotoneDomination:
    def test_nested_sets_dominate_on_half_step_claims(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            mkt = random_market(rng)
            big = random_riskset(rng, mkt.model, k_min=3, k_max=4)
            lam = rng.dirichlet(np.ones(len(big.vertices)), size=2)
            small = RiskSet.from_vertices(mkt.model, lam @ big.vertices)
            assert includes(big, small)
            for _ in range(20):
                t = int(rng.integers(0, mkt.horizon))
                x = random_claim(rng, mkt.model, stage=mkt.half(t))
                lhs = rho(small, x, mkt.whole(t)).values
                rhs = rho(big, x, mkt.whole(t)).values
                assert np.all(lhs <= rhs + 1e-9)

    def test_violated_inclusion_has_half_step_witness(self):
        rng = np.random.default_rng(89)
        found = 0
        while found < 3:
            mkt = random_market(rng, n_max=5)
            rs1 = random_riskset(rng, mkt.model)
            rs2 = random_riskset(rng, mkt.model)
            qf1, qf2 = qf(rs1, mkt), qf(rs2, mkt)
            if includes(qf1, qf2):
                continue
            witness = self._kernel_witness(rs1, rs2, mkt)
            assert witness is not None, "separation must supply a witness"
            x, t = witness
            lhs = rho(rs2, x, mkt.whole(t)).values
            rhs = rho(rs1, x, mkt.whole(t)).values
            assert np.any(lhs > rhs + 1e-9)
            found += 1

    @staticmethod
    def _kernel_witness(rs1, rs2, mkt):
        """Indicators first, then a separating direction on some node kernel."""
        model = mkt.model
        for t in range(mkt.horizon):
            for aid in range(len(model.atoms(mkt.half(t)))):
                atom = model.atoms(mkt.half(t))[aid]
                x = np.zeros(model.n)
                x[list(atom)] = 1.0
                lhs = rho(rs2, Claim(x), mkt.whole(t)).values
                rhs = rho(rs1, Claim(x), mkt.whole(t)).values
                if np.any(lhs > rhs + 1e-9):
                    return Claim(x), t
        for t in range(mkt.horizon):
            s, half = mkt.whole(t), mkt.half(t)
            for aid in range(len(model.atoms(s))):
                k1 = kernel_polytope(rs1, s, half, aid)
                children = model.sub_atoms(s, half, aid)
                for probs in kernel_polytope(rs2, s, half, aid):
                    if _in_hull(k1, probs, 1e-9):
                        continue
                    c = np.concatenate([-probs, [1.0]])
                    A_ub = np.hstack([k1, -np.ones((len(k1), 1))])
                    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(len(k1)),
                                  bounds=[(-1, 1)] * len(probs) + [(None, None)],
                                  method="highs")
                    if res.status != 0 or -res.fun <= 1e-9:
                        continue
                    d = res.x[:len(probs)]
                    x = np.zeros(model.n)
                    atoms_half = model.atoms(half)
                    for ci, child in enumerate(children):
                        x[list(atoms_half[child])] = d[ci]
                    return Claim(x), t
        return None
