"""The one tolerance rule: every verdict on a computed price, spread or row
excess compares with ``tol (1 + max|x|)`` at its input's scale.

The property draws claims at scales 1 to 1e10 and checks the identities
that hold there by cash invariance; the pins put one O(1) case of each
predicate at half the band and one at twice the band.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskchain import (
    Chain,
    Claim,
    InfeasibleError,
    RiskSet,
    ScenarioModel,
    check_supermartingale,
    claim,
    cone_member,
    consistency_report,
    decompose_acceptance,
    eta,
    is_acceptable,
    is_purely_financial,
    lift_financial,
    member,
    product_space,
    psi_verify,
    reserve_plan,
    rho,
    singleton,
)
from riskchain.consistency import _row_verdict

from randmodels import hulled_set, random_claim, random_model, random_riskset

TOL = 1e-9
FACTORS = pytest.mark.parametrize("factor", [0.5, 2.0])


def band(x):
    """``tol (1 + max|x|)``, written out here as the oracle of the rule."""
    return TOL * (1.0 + np.abs(x).max())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.booleans())
# an increment that is the constant 5.96e-8, half an ulp of its 9.8e8 claim
@example(seed=883, k=9, hulled=False)
def test_identities_hold_at_every_scale(seed, k, hulled):
    """At claim scale 10^k: a claim less its η premium is acceptable and
    has an acceptance decomposition that telescopes to it; every increment
    of its reserve plan is a claim measurable at its later date whose price
    at its earlier date is at most the band of the claim and the increment
    together (``cone_member`` judges an increment alone, at its own scale,
    and an increment can be the rounding of a large claim); on an m-stable
    set (a hull) the prices are a supermartingale under every vertex."""
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    rs = hulled_set(rng, model) if hulled else random_riskset(rng, model)
    x = random_claim(rng, model, lo=-10.0 ** k, hi=10.0 ** k)
    chain = Chain.single(rs)
    y = Claim(x.values - eta(chain, x).claims[0].values[0])
    assert is_acceptable(rs, y)
    parts = decompose_acceptance(rs, y)
    assert np.all(np.abs(sum(u.values for u in parts) - y.values) <= band(y.values))
    plan = reserve_plan(chain, x)
    for u in plan.increments:
        claim(model, u.values, u.stage)
        assert np.all(rho(rs, u, u.stage - 1).values <= band(np.r_[x.values, u.values]))
    if hulled:
        assert check_supermartingale(rs, x).passed


# -- the band, pinned per predicate ------------------------------------------

@pytest.fixture
def two():
    """One period, two outcomes, priced by the uniform measure."""
    model = ScenarioModel(["u", "d"], ["0", "1"], [[[0, 1]], [[0], [1]]], [0.5, 0.5])
    return model, singleton(model, [0.5, 0.5])


def priced_at(factor):
    """A claim of scale 4 whose uniform price is ``factor`` times its band."""
    d = factor * TOL * 5.0
    return Claim([4.0 + d, -4.0 + d])


@FACTORS
def test_is_acceptable(two, factor):
    _, rs = two
    assert is_acceptable(rs, priced_at(factor)) == (factor < 1)


@FACTORS
def test_cone_member(two, factor):
    _, rs = two
    assert cone_member(rs, priced_at(factor), 0, 1) == (factor < 1)


@FACTORS
def test_decompose_acceptance(two, factor):
    _, rs = two
    x = priced_at(factor)
    if factor < 1:
        assert len(decompose_acceptance(rs, x)) == 1
    else:
        with pytest.raises(InfeasibleError):
            decompose_acceptance(rs, x)


@FACTORS
def test_is_measurable(two, factor):
    model, _ = two
    assert model.is_measurable([4.0, 4.0 + factor * TOL * 5.0], 0) == (factor < 1)


def derived_claim(factor):
    """The derived set, whose hull adds the cross recombination, and a claim
    ``3 + λ y`` of scale 4: under either vertex the expected stage-1 price
    of ``y = 1_a + 1_d`` is 0.8 and its stage-0 price 0.5, so the price
    rises, and η_0 exceeds ρ_0, by ``0.3 λ``, which is ``factor`` times the
    band."""
    m = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                      [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]],
                      [0.25] * 4)
    rs = RiskSet.from_vertices(m, [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4]])
    lam = factor * TOL * 4.0 / 0.3
    return rs, Claim(3.0 + lam * np.array([1.0, 0.0, 0.0, 1.0]))


@FACTORS
def test_check_supermartingale(factor):
    rs, x = derived_claim(factor)
    assert check_supermartingale(rs, x).passed == (factor < 1)


@FACTORS
def test_check_strong_sampled(factor):
    rs, x = derived_claim(factor)
    report = consistency_report(rs, [x])
    assert not report.mstable
    assert report.sampled == (factor < 1)


def product_claim(factor):
    """Two two-state factors, ``pi`` and ``phi`` uniform, ``q`` putting 0.6
    on the first financial outcome, and the financial claim ``3 + λ 1_f``:
    ``q`` prices it ``0.1 λ`` above the composition and above ``pi``, which
    is ``factor`` times the band."""
    fin = ScenarioModel(["f", "f'"], ["0", "1"], [[[0, 1]], [[0], [1]]], [0.5, 0.5])
    inter = ScenarioModel(["i", "i'"], ["0", "1"], [[[0, 1]], [[0], [1]]], [0.5, 0.5])
    pm = product_space(fin, inter)
    pi = singleton(fin, [0.5, 0.5])
    phi = singleton(pm.model, [0.25] * 4)
    q = singleton(pm.model, np.outer([0.5, 0.5], [0.6, 0.4]).ravel())
    lam = factor * TOL * 4.0 / 0.1
    return pm, pi, phi, q, Claim(lift_financial(pm, [3.0 + lam, 3.0]))


@FACTORS
def test_psi_verify_flags(factor):
    pm, pi, phi, q, x = product_claim(factor)
    report = psi_verify(pi, phi, pm, q, [x])
    assert report["composition_ok"] == report["financial_agreement_ok"] == (factor < 1)


@FACTORS
def test_is_purely_financial(factor):
    pm, *_ = product_claim(1.0)
    v = lift_financial(pm, [4.0, -4.0])
    v[0] += factor * TOL * 5.0
    assert is_purely_financial(pm, Claim(v)) == (factor < 1)


def test_nan_claim_is_neither_purely_financial_nor_measurable():
    """Both predicates compare ``ptp <= band``, so a NaN answers False."""
    pm, *_ = product_claim(1.0)
    v = lift_financial(pm, [4.0, np.nan])
    assert not is_purely_financial(pm, Claim(v))
    assert not pm.model.is_measurable(v, pm.model.final_stage)
    assert is_purely_financial(pm, Claim(lift_financial(pm, [4.0, -4.0])))


@FACTORS
def test_row_verdict_at_the_rows_scale(two, factor):
    """A row ``[a | b]`` with η_0(a) = 3 and ``b`` below it by ``factor``
    times the band at ``|b|``."""
    _, rs = two
    b = 3.0 - factor * TOL * 4.0
    assert _row_verdict(rs, np.array([[4.0, 2.0]]), np.array([b]))[0] == (factor < 1)


@FACTORS
def test_member_row_at_the_rows_scale(two, factor):
    """The unit row ``q_u <= 0.6`` and a point past it by ``factor`` times
    the band at ``|b|``."""
    model, _ = two
    rs = RiskSet.from_constraints(model, [[1.0, 0.0, 0.6]])
    d = factor * TOL * 1.6
    assert member(rs, [0.6 + d, 0.4 - d]) == (factor < 1)
