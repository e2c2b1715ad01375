"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to calibration.  Random
draws are seeded, so the suite is deterministic.
"""

import numpy as np
import pytest

from riskchain import (
    Chain,
    Claim,
    InfeasibleError,
    RiskSet,
    check_supermartingale,
    decompose_acceptance,
    eta,
    extend_pi,
    intersect,
    is_acceptable,
    is_mstable,
    lift_financial,
    mstable_hull,
    product_reserve,
    product_space,
    psi_build,
    qf,
    qi,
    rho,
    set_equal,
    simplex_set,
    singleton,
)
from riskchain.scenario import ScenarioModel
from riskchain.twobytwo import (
    extreme_points,
    fin_part_vertices,
    int_part_vertices,
    market_model,
    pricing_constraints,
    pricing_set,
)

from oracles import (
    dual_cone_member,
    int_band_constraints,
    one_period_premium,
    project,
    supermartingale_terms,
)
from randmodels import (
    nonstable_set,
    random_claim,
    random_market,
    random_model,
    random_riskset,
)

TOL = 1e-9


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def safe_raw_and_hull(rng, model_kwargs, set_kwargs):
    """Random set and its hull, retrying draws that blow the work bound."""
    from riskchain import SizeBoundError
    while True:
        m = random_model(rng, **model_kwargs)
        rs = random_riskset(rng, m, **set_kwargs)
        try:
            hull = mstable_hull(rs)
        except SizeBoundError:
            continue
        return m, rs, hull


class TestCriterion1:
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
    def test_worked_closed_forms(self, eps):
        model = market_model().model
        rs = pricing_set(model, eps)
        worst = 0.0

        verts = rs.vertices
        formula = extreme_points(eps)
        ok = len(verts) == 4
        if ok:
            worst = max(min(float(np.max(np.abs(v - f))) for v in verts)
                        for f in formula)
            ok = worst <= TOL
        report(f"C1.vertices eps={eps}", ok, f"max diff {worst:.2e}")

        worst = 0.0
        for x in (-2.0, -1.0, 0.0, 1.0, 2.5):
            got = rho(rs, Claim(np.array([x, 0.0, 0.0, 0.0])), "0+").values
            want = 0.5 * (x + eps * abs(x))
            worst = max(worst, abs(got[0] - want), abs(got[1]))
        report(f"C1.scaled_indicators eps={eps}", worst <= TOL,
               f"max diff {worst:.2e}")

        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-2, 2, 4)
            got = rho(rs, Claim(x), "0+").values
            for g, (top, bot) in enumerate(([0, 2], [1, 3])):
                alpha = 0.5 * (x[top] + x[bot] + eps * abs(x[top] - x[bot]))
                worst = max(worst, abs(got[top] - alpha))
        report(f"C1.half_step_closed_form eps={eps}", worst <= TOL,
               f"max diff {worst:.2e}")

        worst = 0.0
        for _ in range(100):
            col = rng.uniform(-2, 2, 2)
            x = np.array([col[0], col[1], col[0], col[1]])
            got = float(rho(rs, Claim(x), "0").values[0])
            worst = max(worst, abs(got - x @ model.reference))
        report(f"C1.time0_expectation eps={eps}", worst <= TOL,
               f"max diff {worst:.2e}")


class TestCriterion2:
    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
    def test_worked_split(self, eps):
        mm = market_model()
        rs = RiskSet.from_constraints(mm.model, pricing_constraints(eps))
        qf_set = qf(rs, mm)
        qi_set = qi(rs, mm)
        report(f"C2.financial_part eps={eps}", set_equal(
            qf_set, RiskSet.from_vertices(mm.model, fin_part_vertices())))
        band_v = RiskSet.from_vertices(mm.model, int_part_vertices(eps))
        band_h = int_band_constraints(eps, mm.model)
        report(f"C2.intermediate_part eps={eps}",
               set_equal(qi_set, band_v) and set_equal(qi_set, band_h))
        report(f"C2.intersection eps={eps}", set_equal(
            intersect(qf_set, qi_set), rs))
        report(f"C2.mstable eps={eps}", is_mstable(rs))


class TestCriterion3:
    def test_domination_and_hull_identity(self):
        rng = np.random.default_rng(3001)
        worst_dom = 0.0
        worst_hull = 0.0
        for _ in range(20):
            m, rs, hull = safe_raw_and_hull(
                rng, dict(n_min=4, n_max=10, stages_min=3, stages_max=5),
                dict(k_min=2, k_max=6))
            chain = Chain.single(rs)
            for _ in range(100):
                x = random_claim(rng, m)
                process = eta(chain, x)
                for c in process.claims:
                    worst_dom = max(worst_dom, float(
                        np.max(rho(rs, x, c.stage).values - c.values)))
                    worst_hull = max(worst_hull, float(
                        np.max(np.abs(c.values - rho(hull, x, c.stage).values))))
        report("C3.domination", worst_dom <= TOL, f"max excess {worst_dom:.2e}")
        report("C3.hull_identity", worst_hull <= TOL, f"max diff {worst_hull:.2e}")


class TestCriterion4:
    def test_stable_sets_decompose(self):
        rng = np.random.default_rng(4001)
        failures = 0
        for _ in range(10):
            m, _, rs = safe_raw_and_hull(
                rng, dict(n_min=4, n_max=7, stages_min=3, stages_max=4),
                dict(k_min=2, k_max=4))
            for _ in range(50):
                x = random_claim(rng, m)
                x = Claim(x.values - float(rho(rs, x, 0).values[0]))
                try:
                    parts = decompose_acceptance(rs, x)
                except InfeasibleError:
                    failures += 1
                    continue
                if not np.allclose(sum(p.values for p in parts), x.values,
                                   atol=1e-7):
                    failures += 1
        report("C4.stable_decompose", failures == 0, f"{failures} failures")

    def test_nonstable_witnesses_infeasible(self):
        rng = np.random.default_rng(4002)
        bad = 0
        for _ in range(10):
            m, rs, hull, witness, gap = nonstable_set(rng)
            if gap <= 1e-6:
                bad += 1
                continue
            shifted = Claim(witness.values - float(rho(rs, witness, 0).values[0]))
            if not is_acceptable(rs, shifted):
                bad += 1
                continue
            try:
                decompose_acceptance(rs, shifted)
                bad += 1
            except InfeasibleError:
                pass
        report("C4.witness_infeasible", bad == 0, f"{bad} failures")


class TestCriterion5:
    def test_supermartingale_for_hulled_sets(self):
        rng = np.random.default_rng(5001)
        worst = 0.0
        for _ in range(4):
            m, _, rs = safe_raw_and_hull(
                rng, dict(n_min=4, n_max=7, stages_min=3, stages_max=4),
                dict(k_min=2, k_max=4))
            for _ in range(25):
                x = random_claim(rng, m)
                for *_, ce, cap in supermartingale_terms(rs, x):
                    worst = max(worst, float(ce - cap))
        report("C5.supermartingale", worst <= TOL, f"max excess {worst:.2e}")

    def test_witness_violates_for_some_vertex(self):
        rng = np.random.default_rng(5002)
        bad = 0
        for _ in range(10):
            m, rs, hull, witness, gap = nonstable_set(rng)
            if check_supermartingale(rs, witness).passed:
                bad += 1
        report("C5.witness_violation", bad == 0, f"{bad} failures")


class TestCriterion6:
    def test_split_characterizes_stability(self):
        rng = np.random.default_rng(6001)
        full_ok = True
        agree_ok = True
        both = {True: 0, False: 0}
        for k in range(10):
            mkt = random_market(rng, n_min=4, n_max=6)
            rs = random_riskset(rng, mkt.model, k_min=2, k_max=3)
            if k % 2 == 0:
                rs = mstable_hull(rs)
            qf_set = qf(rs, mkt)
            qi_set = qi(rs, mkt)
            eq = set_equal(rs, intersect(qf_set, qi_set))
            mst = is_mstable(rs)
            both[mst] += 1
            agree_ok = agree_ok and (eq == mst)
            full = simplex_set(mkt.model)
            full_ok = full_ok and set_equal(qi(qf_set, mkt), full)
            full_ok = full_ok and set_equal(qf(qi_set, mkt), full)
        report("C6.iff_agreement", agree_ok and both[True] > 0 and both[False] > 0,
               f"stable {both[True]}, unstable {both[False]}")
        report("C6.parts_densify", full_ok)


class TestCriterion7:
    def fin_factor(self, size, horizon):
        if size == 2:
            if horizon == 1:
                return ScenarioModel(["f0", "f1"], ["0", "1"],
                                     [[[0, 1]], [[0], [1]]], [0.5, 0.5])
            return ScenarioModel(["f0", "f1"], ["0", "1", "2"],
                                 [[[0, 1]], [[0], [1]], [[0], [1]]], [0.5, 0.5])
        return ScenarioModel(
            ["f0", "f1", "f2", "f3"], ["0", "1", "2"],
            [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
            [0.25] * 4)

    def inter_factor(self, horizon):
        if horizon == 1:
            return ScenarioModel(["i0", "i1"], ["0", "1"],
                                 [[[0, 1]], [[0], [1]]], [0.4, 0.6])
        return ScenarioModel(["i0", "i1"], ["0", "1", "2"],
                             [[[0, 1]], [[0, 1]], [[0], [1]]], [0.4, 0.6])

    @pytest.mark.parametrize("fin_size,horizon", [(2, 1), (2, 2), (4, 2)])
    def test_construction_identities(self, fin_size, horizon):
        rng = np.random.default_rng(7000 + fin_size + horizon)
        fin = self.fin_factor(fin_size, horizon)
        inter = self.inter_factor(horizon)
        pm = product_space(fin, inter)
        pi = mstable_hull(random_riskset(rng, fin, k_min=2, k_max=2))
        phi = random_riskset(rng, pm.model, k_min=2, k_max=3)
        q = psi_build(pi, phi, pm)

        hat = extend_pi(pi, pm)
        ok = set_equal(qf(q, pm.market), qf(hat, pm.market))
        ok = ok and set_equal(qi(q, pm.market), qi(phi, pm.market))
        ok = ok and is_mstable(q)
        report(f"C7.postconditions F{fin_size} T{horizon}", ok)

        qi_part = qi(phi, pm.market)
        qf_part = qf(hat, pm.market)
        worst = 0.0
        for _ in range(50):
            x = random_claim(rng, pm.model)
            for t in range(pm.market.horizon):
                inner = rho(q, x, str(t + 1))
                mid = rho(qi_part, inner, f"{t}+")
                lhs = rho(qf_part, mid, str(t)).values
                worst = max(worst, float(
                    np.max(np.abs(lhs - rho(q, x, str(t)).values))))
        report(f"C7.composition F{fin_size} T{horizon}", worst <= TOL,
               f"max diff {worst:.2e}")

        worst = 0.0
        for _ in range(20):
            xf = rng.uniform(-1, 1, fin.n)
            x = Claim(lift_financial(pm, xf))
            for t in range(pm.market.horizon):
                lifted = lift_financial(pm, rho(pi, Claim(xf), str(t)).values)
                worst = max(worst, float(
                    np.max(np.abs(rho(q, x, str(t)).values - lifted))))
        report(f"C7.financial_agreement F{fin_size} T{horizon}", worst <= TOL,
               f"max diff {worst:.2e}")


class TestCriterion8:
    def test_one_period_premium_matches_oracles(self):
        fin = ScenarioModel(["f", "f'"], ["0", "1"],
                            [[[0, 1]], [[0], [1]]], [0.5, 0.5])
        inter = ScenarioModel(["i", "i'"], ["0", "1"],
                              [[[0, 1]], [[0], [1]]], [0.5, 0.5])
        pm = product_space(fin, inter)
        eps = 0.2
        band = RiskSet.from_vertices(
            inter, [[(1 + eps) / 2, (1 - eps) / 2], [(1 - eps) / 2, (1 + eps) / 2]])
        pi = singleton(fin, [0.5, 0.5])
        s_values = {0: 2.0, 1: 0.5}
        # outcomes are intermediate-major: the alive row pays the share
        h = np.array([[s_values[0], s_values[1]], [0.0, 0.0]]).ravel()

        kernels = [np.array([(1 + eps) / 2, (1 - eps) / 2]),
                   np.array([(1 - eps) / 2, (1 + eps) / 2])]
        oracle_hf = np.array([
            max(k @ np.array([s_values[f], 0.0]) for k in kernels) for f in (0, 1)])
        oracle = float(np.array([0.5, 0.5]) @ oracle_hf)

        res = product_reserve(pi, band, Claim(h), pm)
        d1 = abs(res.premium - oracle)
        report("C8.oracle", d1 <= TOL, f"diff {d1:.2e}")
        d3 = abs(res.premium - one_period_premium(pi, band, Claim(h), pm).premium)
        report("C8.horizon1_oracle", d3 == 0.0, f"diff {d3:.2e}")

        phi = RiskSet.from_constraints(pm.model, pricing_constraints(eps))
        q = psi_build(pi, RiskSet.from_vertices(pm.model, phi.vertices), pm)
        d2 = abs(float(rho(q, Claim(h), "0").values[0]) - res.premium)
        report("C8.psi_route", d2 <= TOL, f"diff {d2:.2e}")


class TestCriterion9:
    def test_coherence_axioms(self):
        rng = np.random.default_rng(9001)
        setups = [(market_model().model, pricing_set(market_model().model, 0.2))]
        for _ in range(2):
            m = random_model(rng)
            setups.append((m, random_riskset(rng, m, k_min=3, k_max=5)))
        worst = 0.0
        for m, rs in setups:
            for _ in range(200):
                s = int(rng.integers(0, len(m.stages)))
                x = rng.uniform(-1, 1, m.n)
                y = rng.uniform(-1, 1, m.n)
                rx = rho(rs, Claim(x), s).values
                ry = rho(rs, Claim(y), s).values
                # monotonicity
                z = x + np.abs(y)
                worst = max(worst, float(np.max(rx - rho(rs, Claim(z), s).values)))
                # subadditivity
                worst = max(worst, float(
                    np.max(rho(rs, Claim(x + y), s).values - rx - ry)))
                # translation invariance
                shift = random_claim(rng, m, stage=s).values
                worst = max(worst, float(np.max(np.abs(
                    rho(rs, Claim(x + shift), s).values - rx - shift))))
                # positive homogeneity
                scale = np.abs(random_claim(rng, m, stage=s).values) * 2
                worst = max(worst, float(np.max(np.abs(
                    rho(rs, Claim(scale * x), s).values - scale * rx))))
        report("C9.coherence", worst <= TOL, f"max violation {worst:.2e}")

    def test_dual_cone_property(self):
        rng = np.random.default_rng(9002)
        checked = 0
        bad = 0
        while checked < 200:
            m = random_model(rng, n_max=6)
            rs = random_riskset(rng, m)
            final = len(m.stages) - 1
            s = int(rng.integers(0, final))
            t = int(rng.integers(s + 1, final + 1))
            proj = project(rs, s, t)
            x = random_claim(rng, m, stage=t)
            level = float(rho(proj, x, 0).values[0])
            off = float(rng.uniform(-0.3, 0.3))
            y = Claim(x.values - level - off)
            acc = float(rho(proj, y, 0).values[0])
            if abs(acc) <= 1e-7:
                continue
            if is_acceptable(proj, y) != dual_cone_member(rs, y, s, t):
                bad += 1
            checked += 1
        report("C9.dual_cone", bad == 0, f"{bad} of {checked} disagreed")
