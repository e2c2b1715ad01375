"""Projections, m-stable hulls and the time-consistency checks."""

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import riskchain.consistency as consistency
import riskchain.riskset as riskset
from riskchain import (
    Chain,
    Claim,
    InfeasibleError,
    RiskSet,
    ScenarioModel,
    SchemaError,
    SizeBoundError,
    check_supermartingale,
    consistency_report,
    decompose_acceptance,
    eta,
    find_witness,
    includes,
    is_acceptable,
    is_mstable,
    member,
    mstable_hull,
    reserve_plan,
    rho,
    set_equal,
    simplex_set,
    singleton,
)
from riskchain.consistency import _verdict_rows
from riskchain.twobytwo import (
    fin_part_vertices,
    int_part_vertices,
    market_model,
    pricing_set,
)

from oracles import check_supermartingale_by_vertices, dual_cone_member, project
from randmodels import nonstable_set, random_claim, random_model, random_riskset

EPS = 0.2


@pytest.fixture
def model():
    return market_model().model


@pytest.fixture
def rs(model):
    return pricing_set(model, EPS)


def derived_pair():
    """The two-vertex set whose hull adds the cross recombination."""
    m = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                      [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                      [0.25] * 4)
    rs = RiskSet.from_vertices(m, [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]])
    return m, rs


class TestProject:
    def test_singleton_reproduced(self):
        rng = np.random.default_rng(50)
        m = random_model(rng)
        q = rng.dirichlet(np.ones(m.n))
        proj = project(singleton(m, q), 0, len(m.stages) - 1)
        assert set_equal(proj, singleton(m, q))

    def test_worked_financial_projection(self, model, rs):
        proj = project(rs, "0", "0+")
        want = RiskSet.from_vertices(model, fin_part_vertices())
        assert set_equal(proj, want)

    def test_worked_intermediate_projection(self, model, rs):
        proj = project(rs, "0+", "1")
        want = RiskSet.from_vertices(model, int_part_vertices(EPS))
        assert set_equal(proj, want)

    def test_contains_the_set(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            m = random_model(rng, n_max=6)
            rs = random_riskset(rng, m)
            s = int(rng.integers(0, len(m.stages) - 1))
            t = int(rng.integers(s + 1, len(m.stages)))
            assert includes(project(rs, s, t), rs)

    def test_idempotent_composition(self):
        # projecting to the end twice collapses to the later start
        rng = np.random.default_rng(52)
        for _ in range(4):
            m = random_model(rng, n_min=4, n_max=6, stages_min=3, stages_max=4)
            rs = random_riskset(rng, m, k_min=2, k_max=3)
            final = len(m.stages) - 1
            s, t = sorted(rng.choice(final, size=2, replace=False))
            lhs = project(project(rs, int(s), final), int(t), final)
            rhs = project(rs, int(max(s, t)), final)
            assert set_equal(lhs, rhs)
            lhs2 = project(project(rs, int(t), final), int(s), final)
            assert set_equal(lhs2, rhs)


class TestMstableHull:
    def test_singleton_already_stable(self):
        rng = np.random.default_rng(53)
        m = random_model(rng)
        q = rng.dirichlet(np.ones(m.n))
        rs = singleton(m, q)
        assert set_equal(mstable_hull(rs), rs)
        assert is_mstable(rs)

    def test_worked_set_is_stable(self, rs):
        assert set_equal(mstable_hull(rs), rs)
        assert is_mstable(rs)

    def test_derived_cross_recombination(self):
        m, rs = derived_pair()
        hull = mstable_hull(rs)
        cross = np.array([0.4, 0.1, 0.1, 0.4])
        assert member(hull, cross)
        assert not member(rs, cross)
        assert not is_mstable(rs)

    def test_full_simplex_stable(self):
        rng = np.random.default_rng(54)
        m = random_model(rng)
        assert is_mstable(simplex_set(m))

    def test_fixed_point_and_inclusion(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            m = random_model(rng, n_max=6)
            rs = random_riskset(rng, m)
            hull = mstable_hull(rs)
            assert includes(hull, rs)
            assert set_equal(mstable_hull(hull), hull)
            assert is_mstable(hull)

    def test_eta_equals_hull_price(self):
        rng = np.random.default_rng(56)
        for _ in range(3):
            m = random_model(rng, n_max=6)
            rs = random_riskset(rng, m)
            hull = mstable_hull(rs)
            chain = Chain.single(rs)
            for _ in range(20):
                x = random_claim(rng, m)
                process = eta(chain, x)
                for c in process.claims:
                    assert np.allclose(c.values, rho(hull, x, c.stage).values, atol=1e-9)

    def test_second_hull_runs_no_solver(self, no_nnls):
        """Once the set's vertices and kernels are cached, pasting solves
        nothing: every pasted row is a vertex."""
        rng = np.random.default_rng(5)
        m = random_model(rng)
        rs = random_riskset(rng, m)
        first = mstable_hull(rs).vertices
        assert no_nnls      # the first call reduced the set's kernels
        no_nnls.clear()
        again = mstable_hull(rs).vertices
        assert no_nnls == []
        assert again.tobytes() == first.tobytes()

    def test_work_bound(self):
        n = 16
        m = ScenarioModel(
            [f"w{i}" for i in range(n)], ["0", "1", "2"],
            [[list(range(n))],
             [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]],
             [[w] for w in range(n)]],
            [1.0 / n] * n)
        rng = np.random.default_rng(57)
        rs = RiskSet.from_vertices(m, rng.dirichlet(np.full(n, 2.0), size=8))
        with pytest.raises(SizeBoundError) as exc:
            mstable_hull(rs)
        details = exc.value.details
        assert details["layer"] == "consistency.paste_assembly"
        assert details["reached"] > details["bound"] == 4096


class TestCheckStrong:
    def test_full_simplex_passes(self):
        rng = np.random.default_rng(64)
        m = random_model(rng)
        sample = [random_claim(rng, m) for _ in range(30)]
        report = consistency_report(simplex_set(m), sample)
        assert report.strong and report.mstable and report.sampled

    def test_worked_set_passes_both(self, rs):
        rng = np.random.default_rng(65)
        sample = [random_claim(rng, rs.model) for _ in range(30)]
        report = consistency_report(rs, sample)
        assert report.strong and report.mstable and report.sampled

    def test_derived_set_fails_with_witness(self):
        m, rs = derived_pair()
        rng = np.random.default_rng(66)
        sample = [random_claim(rng, m) for _ in range(30)]
        report = consistency_report(rs, sample)
        assert not report.strong
        assert not report.mstable
        assert report.witness is not None
        assert report.witness_gap > 1e-6
        # confirm the witness gap by brute force over hull and set vertices
        hull = mstable_hull(rs)
        x = report.witness.values
        brute = max(hull.vertices @ x) - max(rs.vertices @ x)
        assert brute == pytest.approx(report.witness_gap, abs=1e-9)

    def test_large_claims_compare_at_their_own_scale(self, model):
        """Example 6 at eps = 0.3 is m-stable.  At claim scale 1e8 its
        backward recursion and one-shot price round apart by far more than
        ``tol``, but each claim's gap is within ``tol (1 + max|x|)``, so both
        verdicts pass and the report stays raw; the derived set still fails
        at that scale."""
        rs = pricing_set(model, 0.3)
        rng = np.random.default_rng(29)
        sample = [random_claim(rng, model, lo=-1e8, hi=1e8) for _ in range(20)]
        report = consistency_report(rs, sample)
        assert report.strong and report.mstable and report.sampled
        assert report.max_sampled_gap > model.config.tol
        assert consistency_report(rs, sample).strong
        _, derived = derived_pair()
        big = [Claim(1e8 * x.values) for x in sample]
        assert not consistency_report(derived, big).sampled

    def test_witness_search_is_deterministic(self):
        m, rs = derived_pair()
        hull = mstable_hull(rs)
        w1, g1 = find_witness(rs, hull)
        w2, g2 = find_witness(rs, hull)
        assert g1 == g2
        assert np.array_equal(w1.values, w2.values)


class TestCheckSupermartingale:
    def test_singleton_is_martingale(self):
        rng = np.random.default_rng(67)
        m = random_model(rng)
        q = rng.dirichlet(np.ones(m.n))
        x = random_claim(rng, m)
        assert check_supermartingale(singleton(m, q), x).passed

    def test_worked_set_passes(self, rs):
        assert check_supermartingale(rs, Claim(np.array([1.0, 0, -1, 0]))).passed

    def test_derived_witness_fails(self):
        m, rs = derived_pair()
        hull = mstable_hull(rs)
        witness, _ = find_witness(rs, hull)
        report = check_supermartingale(rs, witness)
        assert not report.passed
        assert report.witness["excess"] > 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 10),
           st.sampled_from(["random", "hull", "witness"]))
    def test_matches_the_vertex_loop(self, seed, k, kind):
        """On random sets, their hulls and non-m-stable sets with their
        witness claims, at claim scale 10^k: the verdict and the witness's
        vertex, stage and atom are the oracle's, and its excess is within
        the band."""
        rng = np.random.default_rng(seed)
        if kind == "witness":
            m, rs, _, witness, _ = nonstable_set(rng)
            x = Claim(witness.values * 10.0 ** k)
        else:
            m = random_model(rng)
            rs = random_riskset(rng, m)
            if kind == "hull":
                rs = mstable_hull(rs)
            x = random_claim(rng, m, lo=-10.0 ** k, hi=10.0 ** k)
        got = check_supermartingale(rs, x)
        want = check_supermartingale_by_vertices(rs, x)
        assert got.passed == want.passed
        if not want.passed:
            for key in ("vertex_index", "stage", "atom"):
                assert got.witness[key] == want.witness[key]
            assert (abs(got.witness["excess"] - want.witness["excess"])
                    <= m.config.tol_at(x.values))

    @pytest.mark.parametrize("values", [[np.nan, 0, 0, 0], [np.inf, 0, 0, 0],
                                        [-np.inf, 1, 0, 0]])
    def test_non_finite_claim_is_a_schema_error(self, values):
        _, rs = derived_pair()
        with pytest.raises(SchemaError, match="finite"):
            check_supermartingale(rs, Claim(np.array(values)))

    def test_stacked_claim_is_a_schema_error(self):
        _, rs = derived_pair()
        with pytest.raises(SchemaError, match=r"shape \(2, 4\), expected \(4,\)"):
            check_supermartingale(rs, Claim(np.zeros((2, 4))))


class TestConsistencyReport:
    def test_strong_pass_implies_weak_and_lower(self, rs):
        rng = np.random.default_rng(68)
        sample = [random_claim(rng, rs.model) for _ in range(20)]
        report = consistency_report(rs, sample)
        assert report.strong
        assert report.mstable
        assert report.witness is None

    def test_failing_report_keeps_weaker_flags(self):
        m, rs = derived_pair()
        rng = np.random.default_rng(69)
        sample = [random_claim(rng, m) for _ in range(20)]
        report = consistency_report(rs, sample)
        assert not report.strong
        assert not report.mstable
        assert report.witness is not None
        assert report.witness_gap > 1e-6


class TestDualCone:
    def test_matches_projection_acceptance(self):
        rng = np.random.default_rng(70)
        checked = 0
        while checked < 60:
            m = random_model(rng, n_max=6)
            rs = random_riskset(rng, m)
            final = len(m.stages) - 1
            s = int(rng.integers(0, final))
            t = int(rng.integers(s + 1, final + 1))
            proj = project(rs, s, t)
            x = random_claim(rng, m, stage=t, lo=-1.0, hi=0.5)
            level = float(rho(proj, x, 0).values[0])
            if abs(level) <= 1e-7:
                continue
            assert is_acceptable(proj, x) == dual_cone_member(rs, x, s, t)
            checked += 1

    def test_shifted_claims_cover_both_directions(self):
        rng = np.random.default_rng(71)
        m = random_model(rng, n_max=6)
        rs = random_riskset(rng, m)
        final = len(m.stages) - 1
        proj = project(rs, 0, final)
        x = random_claim(rng, m, stage=final)
        level = float(rho(proj, x, 0).values[0])
        inside = Claim(x.values - level - 0.1)
        outside = Claim(x.values - level + 0.1)
        assert dual_cone_member(rs, inside, 0, final)
        assert is_acceptable(proj, inside)
        assert not dual_cone_member(rs, outside, 0, final)
        assert not is_acceptable(proj, outside)


class TestNonstableGeneration:
    def test_generator_delivers_gap(self):
        rng = np.random.default_rng(72)
        m, rs, hull, witness, gap = nonstable_set(rng)
        assert gap > 1e-6
        assert not is_mstable(rs)
        assert includes(hull, rs) and not includes(rs, hull)


def hull_verdict(rs):
    """The oracle of every verdict route."""
    return set_equal(rs, mstable_hull(rs))


def check_witness(rs, witness, gap):
    """A row witness: positive gap, equal to the brute force over the hull's
    vertices, carried by its own array without negative zeros."""
    x = witness.values
    assert gap > rs.model.config.tol
    brute = max(mstable_hull(rs).vertices @ x) - max(rs.vertices @ x)
    assert brute == pytest.approx(gap, abs=1e-9)
    assert x.flags.owndata
    assert not np.any((x == 0) & np.signbit(x))


def binary_tree_16():
    """16 outcomes split in halves over 5 stages."""
    parts = [[list(range(16))]]
    for size in (8, 4, 2, 1):
        parts.append([list(range(i, i + size)) for i in range(0, 16, size)])
    return ScenarioModel([f"w{i}" for i in range(16)], [str(t) for t in range(5)],
                         parts, [1.0 / 16] * 16)


class TestVerdictRoutes:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_routes_agree_with_the_hull(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=6)
        verts = random_riskset(rng, m).vertices
        hull_verts = mstable_hull(RiskSet.from_vertices(m, verts)).vertices

        faceted_hull = RiskSet.from_vertices(m, hull_verts)
        faceted_hull.constraints        # a V-set whose facets were computed
        cases = [
            (RiskSet.from_vertices(m, verts), True),      # facets of a simplex
            (RiskSet.from_constraints(m, riskset._facets(verts)), True),
            (faceted_hull, True),
            (RiskSet.from_vertices(m, hull_verts), None),  # any route
        ]
        for rs, has_rows in cases:
            if has_rows:
                assert _verdict_rows(rs) is not None
            report = consistency_report(rs, [random_claim(rng, m) for _ in range(5)])
            verdict = is_mstable(rs)
            assert report.mstable == verdict == hull_verdict(rs)
            if not verdict and has_rows:
                check_witness(rs, report.witness, report.witness_gap)

    def test_uncharged_atom_takes_the_hull_route(self):
        m, _ = derived_pair()
        rs = RiskSet.from_vertices(m, [[0.5, 0.5, 0.0, 0.0], [0.2, 0.8, 0.0, 0.0]])
        for s in (rs, RiskSet.from_constraints(m, riskset._facets(rs.vertices))):
            assert _verdict_rows(s) is None
            assert is_mstable(s) == hull_verdict(s)
            assert consistency_report(s, []).mstable == hull_verdict(s)

    def test_derived_pair_witness_is_a_row(self):
        m, rs = derived_pair()
        assert _verdict_rows(rs) is not None
        report = consistency_report(rs, [])
        assert not report.mstable and report.sampled
        assert report.note == ("inconsistent, sample found no witness; "
                               "the analytic test supplied one")
        check_witness(rs, report.witness, report.witness_gap)
        # the row witness shows the failures the theory predicts
        assert not check_supermartingale(rs, report.witness).passed
        assert check_supermartingale(mstable_hull(rs), report.witness).passed


def refuse_lp(*args, **kwargs):
    raise AssertionError("an LP ran")


class TestResidualWitness:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["many", "patched"]))
    def test_hull_route_failures_get_a_certified_witness(self, seed, route):
        """Non-m-stable sets on the hull route, by having more than n
        vertices or by the row route being switched off:
        ``consistency_report`` with no sample still names a witness, whose
        brute-force gap clears ``tol``, and neither it nor the acceptance
        split solves an LP."""
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            if route == "patched":
                mp.setattr(consistency, "_verdict_rows", lambda rs: None)
            while True:
                m = random_model(rng, n_min=3, n_max=6, stages_min=3, stages_max=4)
                k = m.n + 3 if route == "many" else 3
                rs = random_riskset(rng, m, k_min=k, k_max=k)
                if consistency._verdict_rows(rs) is None and not hull_verdict(rs):
                    break
            mp.setattr(scipy.optimize, "linprog", refuse_lp)
            rs = RiskSet.from_vertices(m, rs.vertices)
            report = consistency_report(rs, [])
            x = random_claim(rng, m)
            x = Claim(x.values - float(rho(rs, x, 0).values[0]))
            for s in (rs, RiskSet.from_constraints(m, rs.constraints)):
                try:
                    decompose_acceptance(s, x)
                except InfeasibleError:
                    pass
        assert not report.mstable and report.witness is not None
        hull = mstable_hull(rs)
        x = report.witness.values
        brute = max(hull.vertices @ x) - max(rs.vertices @ x)
        assert brute > m.config.tol
        assert brute == pytest.approx(report.witness_gap, abs=1e-9)
        # it separates the first hull vertex outside the set from the set
        h = next(h for h in hull.vertices if not member(rs, h))
        assert h @ x - max(rs.vertices @ x) > m.config.tol
        witness, gap = find_witness(rs, hull)
        assert np.array_equal(witness.values, x) and gap == report.witness_gap


class TestVerdictKeptOnTheSet:
    @pytest.fixture
    def route_calls(self, monkeypatch):
        calls = []
        real = consistency._verdict_rows

        def spy(rs):
            calls.append(rs)
            return real(rs)

        monkeypatch.setattr(consistency, "_verdict_rows", spy)
        return calls

    @pytest.mark.parametrize("seed", range(6))
    def test_each_set_is_decided_once(self, route_calls, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=6)
        verts = random_riskset(rng, m).vertices
        fresh = [RiskSet.from_vertices(m, verts) for _ in range(3)]
        verdict = is_mstable(fresh[0])
        assert is_mstable(fresh[0]) == verdict == hull_verdict(fresh[0])
        assert consistency_report(fresh[1], []).mstable == verdict
        assert is_mstable(fresh[1]) == verdict
        zero = Claim(np.zeros(m.n))
        assert reserve_plan(Chain.single(fresh[2]), zero).time_consistent == verdict
        assert is_mstable(fresh[2]) == verdict
        assert [id(rs) for rs in route_calls] == [id(rs) for rs in fresh]


class TestVerdictsWithoutConstructions:
    @pytest.fixture
    def no_constructions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a construction ran on the verdict path")
        monkeypatch.setattr(consistency, "paste_assembly", refuse)
        monkeypatch.setattr(riskset, "_nnls", refuse)

    @pytest.mark.usefixtures("no_constructions")
    def test_simplex_v_sets(self):
        m, rs = derived_pair()
        sample = [random_claim(np.random.default_rng(80), m) for _ in range(10)]
        assert not consistency_report(rs, sample).mstable
        assert not is_mstable(rs)
        tri = RiskSet.from_vertices(m, [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4],
                                        [0.4, 0.4, 0.1, 0.1]])
        assert not consistency_report(tri, sample).mstable
        assert is_mstable(singleton(m, [0.1, 0.2, 0.3, 0.4]))

    @pytest.mark.usefixtures("no_constructions")
    def test_h_set(self, rs):
        sample = [random_claim(np.random.default_rng(81), rs.model) for _ in range(10)]
        report = consistency_report(rs, sample)
        assert report.mstable and report.strong and report.witness is None
        assert is_mstable(rs)

    @pytest.mark.parametrize("k", [2, 3])
    def test_refused_hull_still_gets_a_verdict(self, k):
        m = binary_tree_16()
        rng = np.random.default_rng(82)
        rs = RiskSet.from_vertices(m, rng.dirichlet(np.full(16, 2.0), size=k))
        with pytest.raises(SizeBoundError):
            mstable_hull(rs)
        report = consistency_report(rs, [random_claim(rng, m) for _ in range(10)])
        assert not report.mstable and not report.strong
        assert report.witness is not None
        assert report.witness_gap > m.config.tol
