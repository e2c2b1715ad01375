"""Risk evaluation: rho, eta, acceptance cones, decomposition, reserving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskchain import (
    Chain,
    Claim,
    InfeasibleError,
    NotMeasurableError,
    RiskSet,
    SchemaError,
    cone_member,
    condexp,
    decompose_acceptance,
    density,
    eta,
    is_acceptable,
    maximize_ratio,
    reserve_plan,
    rho,
    singleton,
)
from riskchain.twobytwo import extreme_points, market_model, pricing_set

from randmodels import (
    hulled_set,
    nonstable_set,
    random_claim,
    random_model,
    random_riskset,
)

EPS = 0.2


@pytest.fixture
def model():
    return market_model().model


@pytest.fixture
def rs(model):
    return pricing_set(model, EPS)


@pytest.fixture
def claim_x():
    return Claim(np.array([1.0, 0.0, -1.0, 0.0]))


class TestRho:
    def test_constant_claim(self, rs):
        for s in ("0", "0+", "1"):
            out = rho(rs, Claim(np.full(4, 3.0)), s)
            assert np.allclose(out.values, 3.0, atol=1e-9)

    def test_worked_scaled_indicator(self, rs):
        # payoff 2 on (i,f): half (2 + eps * 2) on the f column
        out = rho(rs, Claim(np.array([2.0, 0, 0, 0])), "0+")
        assert out.values[0] == pytest.approx(0.5 * (2 + EPS * 2), abs=1e-12)
        assert out.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_worked_time0_price(self, rs, claim_x):
        # oracle: brute force over the four closed-form extreme points
        from riskchain.twobytwo import extreme_points
        oracle = max(v @ claim_x.values for v in extreme_points(EPS))
        assert oracle == pytest.approx(EPS / 2, abs=1e-12)
        got = float(rho(rs, claim_x, "0").values[0])
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_final_stage_identity(self, rs, claim_x):
        out = rho(rs, claim_x, "1")
        assert np.array_equal(out.values, claim_x.values)

    def test_output_measurable(self, rs):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = Claim(rng.uniform(-1, 1, 4))
            for s in range(3):
                out = rho(rs, x, s)
                assert all(np.ptp(out.values[list(a)]) <= 1e-12 for a in rs.model.atoms(s))


class TestCoherenceAxioms:
    @pytest.fixture(params=["worked", "random"])
    def setup(self, request, model, rs):
        if request.param == "worked":
            return model, rs, np.random.default_rng(100)
        rng = np.random.default_rng(101)
        m = random_model(rng)
        return m, random_riskset(rng, m, k_min=3, k_max=5), rng

    def test_monotonicity(self, setup):
        m, rs, rng = setup
        for _ in range(200):
            x = rng.uniform(-1, 1, m.n)
            y = x + rng.uniform(0, 1, m.n)
            s = int(rng.integers(0, len(m.stages)))
            assert np.all(rho(rs, Claim(x), s).values
                          <= rho(rs, Claim(y), s).values + 1e-9)

    def test_subadditivity(self, setup):
        m, rs, rng = setup
        for _ in range(200):
            x, y = rng.uniform(-1, 1, m.n), rng.uniform(-1, 1, m.n)
            s = int(rng.integers(0, len(m.stages)))
            lhs = rho(rs, Claim(x + y), s).values
            rhs = rho(rs, Claim(x), s).values + rho(rs, Claim(y), s).values
            assert np.all(lhs <= rhs + 1e-9)

    def test_translation_invariance(self, setup):
        m, rs, rng = setup
        for _ in range(200):
            x = rng.uniform(-1, 1, m.n)
            s = int(rng.integers(0, len(m.stages)))
            y = random_claim(rng, m, stage=s).values
            lhs = rho(rs, Claim(x + y), s).values
            rhs = rho(rs, Claim(x), s).values + y
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_positive_homogeneity(self, setup):
        m, rs, rng = setup
        for _ in range(200):
            x = rng.uniform(-1, 1, m.n)
            s = int(rng.integers(0, len(m.stages)))
            a = np.abs(random_claim(rng, m, stage=s).values) * 2
            lhs = rho(rs, Claim(a * x), s).values
            rhs = a * rho(rs, Claim(x), s).values
            assert np.allclose(lhs, rhs, atol=1e-9)


class TestStackedCoherence:
    """The coherence axioms on claim stacks, one claim per row, on random sets
    priced by the vertex route and by the LP route."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["vertex", "lp"]))
    def test_axioms_hold_row_by_row(self, seed, route):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=6)
        rs = random_riskset(rng, m)
        if route == "lp":
            rs = RiskSet.from_constraints(m, rs.constraints)
        s = int(rng.integers(0, len(m.stages)))
        X = rng.uniform(-1.0, 1.0, (3, m.n))
        Y = rng.uniform(-1.0, 1.0, (3, m.n))
        # stage-s measurable cash and scales, one per row
        cash = np.array([random_claim(rng, m, stage=s).values for _ in range(3)])
        scale = np.abs(np.array([random_claim(rng, m, stage=s).values
                                 for _ in range(3)])) * 2

        def price(Z):
            return rho(rs, Claim(Z), s).values

        px = price(X)
        assert np.all(px <= price(X + np.abs(Y)) + 1e-9)              # monotone
        assert np.allclose(price(X + cash), px + cash, atol=1e-9)     # cash-additive
        assert np.allclose(price(scale * X), scale * px, atol=1e-9)   # homogeneous
        assert np.all(price(X + Y) <= px + price(Y) + 1e-9)           # subadditive


class TestEta:
    def test_singleton_chain_is_conditional_expectation(self):
        rng = np.random.default_rng(9)
        m = random_model(rng)
        q = rng.dirichlet(np.ones(m.n))
        x = random_claim(rng, m)
        process = eta(Chain.single(singleton(m, q)), x)
        for c in process.claims:
            assert np.allclose(c.values, condexp(q, x, c.stage, m).values, atol=1e-9)

    def test_worked_market_recursion(self, rs, claim_x):
        process = eta(Chain.single(rs), claim_x)
        half = process.claims[rs.model.stage("0+").index]
        assert half.values[0] == pytest.approx(EPS, abs=1e-12)   # f column
        assert half.values[1] == pytest.approx(0.0, abs=1e-12)   # f' column
        root = process.claims[0]
        assert root.values[0] == pytest.approx(EPS / 2, abs=1e-12)
        # time-consistency of the worked set: eta_0 equals rho_0
        assert root.values[0] == pytest.approx(
            float(rho(rs, claim_x, 0).values[0]), abs=1e-9)

    def test_root_measurable_claim_is_fixed(self, rs):
        x = Claim(np.full(4, -1.75))
        process = eta(Chain.single(rs), x)
        for c in process.claims:
            assert np.allclose(c.values, -1.75, atol=1e-9)

    def test_lower_consistency_of_single_set_chains(self):
        # rho_s(X) <= rho_s(rho_t(X)) for every sampled claim and stage pair
        rng = np.random.default_rng(10)
        for _ in range(5):
            m = random_model(rng)
            rs = random_riskset(rng, m)
            for _ in range(20):
                x = random_claim(rng, m)
                for s in range(len(m.stages) - 1):
                    for t in range(s + 1, len(m.stages) - 1):
                        lhs = rho(rs, x, s).values
                        rhs = rho(rs, rho(rs, x, t), s).values
                        assert np.all(lhs <= rhs + 1e-9)

    def test_domination(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = random_model(rng)
            rs = random_riskset(rng, m)
            chain = Chain.single(rs)
            for _ in range(20):
                x = random_claim(rng, m)
                process = eta(chain, x)
                for c in process.claims[:-1]:
                    assert np.all(c.values >= rho(rs, x, c.stage).values - 1e-9)

    def test_optimizer_propagation(self):
        # on hulls of full-support sets, a unique time-0 attainer attains
        # every later stage price as well
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 5:
            m = random_model(rng, n_min=4, n_max=6)
            rs = hulled_set(rng, m)
            V = rs.vertices
            if np.any(V <= 0):
                continue
            x = random_claim(rng, m)
            vals = V @ x.values
            order = np.argsort(vals)
            if vals[order[-1]] - vals[order[-2]] < 1e-6:
                continue
            q = V[order[-1]]
            for s in range(len(m.stages)):
                assert np.allclose(condexp(q, x, s, m).values,
                                   rho(rs, x, s).values, atol=1e-9)
            checked += 1


class TestAcceptance:
    def test_nonpositive_claims_accepted(self, rs):
        rng = np.random.default_rng(14)
        for _ in range(20):
            assert is_acceptable(rs, Claim(-np.abs(rng.uniform(0, 1, 4))))

    def test_worked_claim_needs_its_premium(self, rs, claim_x):
        assert not is_acceptable(rs, claim_x)
        assert is_acceptable(rs, Claim(claim_x.values - EPS / 2))

    def test_zero_claim_boundary(self, rs):
        assert is_acceptable(rs, Claim(np.zeros(4)))


class TestConeMember:
    def test_zero_always_in_cone(self, rs):
        assert cone_member(rs, Claim(np.zeros(4)), "0", "0+")
        assert cone_member(rs, Claim(np.zeros(4)), "0+", "1")

    def test_worked_residual_increment(self, rs, claim_x):
        u = Claim(claim_x.values - np.array([EPS, 0.0, EPS, 0.0]))
        assert np.allclose(u.values, [0.8, 0.0, -1.2, 0.0])
        assert cone_member(rs, u, "0+", "1")

    def test_positive_indicator_rejected_by_relevance(self, rs):
        one_atom = Claim(np.array([1.0, 0.0, 1.0, 0.0]))
        assert not cone_member(rs, one_atom, "0", "0+")

    def test_not_measurable_is_distinct(self, rs):
        lopsided = Claim(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NotMeasurableError):
            cone_member(rs, lopsided, "0", "0+")


class TestDecomposeAcceptance:
    def test_zero_claim(self, rs):
        parts = decompose_acceptance(rs, Claim(np.zeros(4)))
        assert len(parts) == 2
        for p in parts:
            assert np.allclose(p.values, 0.0, atol=1e-9)

    def test_worked_shifted_claim_feasible(self, rs, claim_x):
        x2 = Claim(claim_x.values - EPS / 2)
        parts = decompose_acceptance(rs, x2)
        total = sum(p.values for p in parts)
        assert np.allclose(total, x2.values, atol=1e-7)
        for s, p in enumerate(parts):
            assert all(np.ptp(p.values[list(a)]) <= 1e-7 for a in rs.model.atoms(s + 1))
            assert np.all(rho(rs, p, s).values <= 1e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_claim_is_a_schema_error(self, rs, bad):
        with pytest.raises(SchemaError, match="claim values must be finite"):
            decompose_acceptance(rs, Claim(np.array([bad, 0.0, -1.0, 0.0])))

    def test_nonstable_witness_infeasible(self):
        rng = np.random.default_rng(15)
        m, rs, hull, witness, gap = nonstable_set(rng)
        shifted = Claim(witness.values - float(rho(rs, witness, 0).values[0]))
        assert is_acceptable(rs, shifted)
        with pytest.raises(InfeasibleError):
            decompose_acceptance(rs, shifted)

    def test_hulled_sets_decompose_random_acceptable_claims(self):
        rng = np.random.default_rng(16)
        m = random_model(rng)
        rs = hulled_set(rng, m)
        for _ in range(10):
            x = random_claim(rng, m)
            x = Claim(x.values - float(rho(rs, x, 0).values[0]))
            parts = decompose_acceptance(rs, x)
            assert np.allclose(sum(p.values for p in parts), x.values, atol=1e-7)


class TestReservePlan:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_telescopes_and_increments_price_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=6)
        rs = random_riskset(rng, m)
        x = random_claim(rng, m)
        plan = reserve_plan(Chain.single(rs), x)
        assert np.allclose(plan.total(m), x.values, atol=1e-9)
        for inc in plan.increments:
            assert np.all(rho(rs, inc, inc.stage - 1).values <= m.config.tol)

    def test_constant_claim(self, rs):
        plan = reserve_plan(Chain.single(rs), Claim(np.full(4, 2.5)))
        assert plan.premium == pytest.approx(2.5, abs=1e-9)
        for inc in plan.increments:
            assert np.allclose(inc.values, 0.0, atol=1e-9)

    def test_worked_plan(self, rs, claim_x, model):
        plan = reserve_plan(Chain.single(rs), claim_x)
        assert plan.premium == pytest.approx(0.1, abs=1e-12)
        assert plan.time_consistent
        assert plan.warning is None
        assert np.allclose(plan.increments[0].values, [0.1, -0.1, 0.1, -0.1],
                           atol=1e-12)
        assert np.allclose(plan.increments[1].values, [0.8, 0.0, -1.2, 0.0],
                           atol=1e-12)
        assert np.allclose(plan.total(model), claim_x.values, atol=1e-9)
        for inc in plan.increments:
            assert cone_member(rs, inc, inc.stage - 1, inc.stage)

    def test_singleton_chain_gives_martingale_differences(self):
        rng = np.random.default_rng(17)
        m = random_model(rng)
        q = rng.dirichlet(np.ones(m.n))
        x = random_claim(rng, m)
        plan = reserve_plan(Chain.single(singleton(m, q)), x)
        assert plan.premium == pytest.approx(float(q @ x.values), abs=1e-9)
        for inc in plan.increments:
            lhs = (condexp(q, x, inc.stage, m).values
                   - condexp(q, x, inc.stage - 1, m).values)
            assert np.allclose(inc.values, lhs, atol=1e-9)

    def test_nonstable_chain_warns_and_still_telescopes(self):
        rng = np.random.default_rng(18)
        m, rs, hull, witness, gap = nonstable_set(rng)
        plan = reserve_plan(Chain.single(rs), witness)
        assert not plan.time_consistent
        assert plan.warning is not None
        assert np.allclose(plan.total(m), witness.values, atol=1e-9)
        # conservative: premium dominates the quoted one-shot price
        assert plan.premium >= float(rho(rs, witness, 0).values[0]) - 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_claim_is_a_schema_error(self, model, bad):
        """Refused, where it priced to a non-finite premium; ``rho`` and
        ``eta`` still price it."""
        x = Claim(np.array([bad, 0.0, -1.0, 0.0]))
        rs = singleton(model, np.full(4, 0.25))
        assert not np.isfinite(eta(Chain.single(rs), x).claims[0].values).all()
        with pytest.raises(SchemaError, match="claim values must be finite"):
            reserve_plan(Chain.single(rs), x)


# values of the wrong shape for the 4-outcome model: n - 1, 2n, and 3-D
BAD_SHAPES = [np.ones(3), np.arange(8.0), np.ones((2, 2, 4))]
BAD_IDS = ["n-1", "2n", "3-D"]

PRICING_ENTRIES = {
    "rho": lambda rs, x: rho(rs, Claim(x), "0+"),
    "rho_final": lambda rs, x: rho(rs, Claim(x), "1"),
    "eta": lambda rs, x: eta(Chain.single(rs), Claim(x)),
    "is_acceptable": lambda rs, x: is_acceptable(rs, Claim(x)),
    "cone_member": lambda rs, x: cone_member(rs, Claim(x), "0", "0+"),
    "decompose_acceptance": lambda rs, x: decompose_acceptance(rs, Claim(x)),
    "reserve_plan": lambda rs, x: reserve_plan(Chain.single(rs), Claim(x)),
    "maximize_ratio": lambda rs, x: maximize_ratio(rs, x, (0, 2)),
    "condexp_claim": lambda rs, x: condexp(np.full(4, 0.25), x, "0+", rs.model),
    "condexp_measure": lambda rs, x: condexp(x / x.sum(), np.zeros(4), "0+", rs.model),
    "density": lambda rs, x: density(rs.model, x / x.sum(), "0+"),
}


class TestShapes:
    """A claim or measure with other than one value per outcome is a SCHEMA
    error on either route; ``rho`` and ``eta`` also price a stack
    ``(m, n)``."""

    @pytest.mark.parametrize("given_by", ["rows", "vertices"])
    @pytest.mark.parametrize("entry", list(PRICING_ENTRIES))
    @pytest.mark.parametrize("x", BAD_SHAPES, ids=BAD_IDS)
    def test_wrong_shape_is_schema_error(self, model, given_by, entry, x):
        rs = (pricing_set(model, EPS) if given_by == "rows"
              else RiskSet.from_vertices(model, extreme_points(EPS)))
        with pytest.raises(SchemaError):
            PRICING_ENTRIES[entry](rs, x)

    @pytest.mark.parametrize("entry", ["is_acceptable", "cone_member",
                                       "decompose_acceptance", "reserve_plan",
                                       "maximize_ratio", "condexp_claim"])
    def test_one_claim_entries_refuse_a_stack(self, rs, entry):
        with pytest.raises(SchemaError):
            PRICING_ENTRIES[entry](rs, np.ones((2, 4)))

    def test_stack_of_claims_still_prices(self, rs, claim_x):
        X = Claim(np.stack([claim_x.values, -claim_x.values]))
        assert rho(rs, X, "0+").values.shape == (2, 4)
        assert eta(Chain.single(rs), X).claims[0].values.shape == (2, 4)
