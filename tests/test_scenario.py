"""Scenario model construction, validation and conditional expectation."""

import numpy as np
import pytest

from riskchain import (
    Claim,
    ModelError,
    NotMeasurableError,
    ScenarioModel,
    SchemaError,
    claim,
    condexp,
    validate_model,
)
from riskchain.config import MIN_TOL, Config
from riskchain.twobytwo import build_model

from randmodels import random_claim, random_model


@pytest.fixture
def model():
    return build_model()


class TestValidateModel:
    def test_worked_market_is_valid(self, model):
        assert validate_model(model).ok

    def test_discrete_root_is_bad_terminals(self):
        m = ScenarioModel(["a", "b"], ["0", "1"],
                          [[[0], [1]], [[0], [1]]], [0.5, 0.5])
        report = validate_model(m)
        assert not report.ok
        assert report.code == "BAD_TERMINALS"
        assert report.stage_index == 0

    def test_coarse_final_stage_is_bad_terminals(self):
        m = ScenarioModel(["a", "b"], ["0", "1"],
                          [[[0, 1]], [[0, 1]]], [0.5, 0.5])
        report = validate_model(m)
        assert report.code == "BAD_TERMINALS"
        assert report.stage_index == 1

    def test_crossing_split_is_non_refining(self):
        # half-step atoms {0,2},{1,3} cross the later stage-1 atoms {0,1},{2,3}
        m = ScenarioModel(
            ["a", "b", "c", "d"], ["0", "0+", "1", "2"],
            [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0, 1], [2, 3]],
             [[0], [1], [2], [3]]],
            [0.25] * 4)
        report = validate_model(m)
        assert report.code == "NON_REFINING"
        assert report.stage_index == 2

    def test_zero_reference_weight_is_no_full_support(self):
        m = ScenarioModel(["a", "b"], ["0", "1"],
                          [[[0, 1]], [[0], [1]]], [1.0, 0.0])
        assert validate_model(m).code == "NO_FULL_SUPPORT"

    def test_raise_if_invalid(self):
        m = ScenarioModel(["a", "b"], ["0", "1"],
                          [[[0, 1]], [[0, 1]]], [0.5, 0.5])
        with pytest.raises(ModelError):
            validate_model(m).raise_if_invalid()

    def test_random_models_are_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            assert validate_model(random_model(rng)).ok


class TestConstruction:
    def test_overlapping_atoms_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioModel(["a", "b"], ["0", "1"],
                          [[[0, 1]], [[0, 1], [1]]], [0.5, 0.5])

    def test_unsorted_grid_rejected(self):
        with pytest.raises(SchemaError):
            ScenarioModel(["a", "b"], ["1", "0"],
                          [[[0, 1]], [[0], [1]]], [0.5, 0.5])

    def test_grid_must_start_at_zero(self):
        with pytest.raises(SchemaError):
            ScenarioModel(["a", "b"], ["1", "2"],
                          [[[0, 1]], [[0], [1]]], [0.5, 0.5])

    def test_half_step_ordering(self, model):
        labels = [s.label for s in model.stages]
        assert labels == ["0", "0+", "1"]
        assert model.stage("0+").index == 1

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1e-16, float("nan"), float("inf")])
    def test_tolerance_below_floor_rejected(self, tol):
        with pytest.raises(SchemaError):
            Config(tol=tol)

    def test_tolerance_at_floor_accepted(self):
        model = ScenarioModel(["a", "b"], ["0", "1"], [[[0, 1]], [[0], [1]]],
                              [0.5, 0.5], config=Config(tol=MIN_TOL))
        assert model.config.tol == MIN_TOL

    def test_claim_measurability_enforced(self, model):
        claim(model, [1.0, 2.0, 1.0, 2.0], stage="0+")
        with pytest.raises(NotMeasurableError):
            claim(model, [1.0, 2.0, 3.0, 2.0], stage="0+")


class TestAtomOf:
    def test_worked_market_half_step(self, model):
        # outcome (i,f) sits in the financial-f column together with (i',f)
        aid = model.atom_of("0+", 0)
        assert model.atoms("0+")[aid] == (0, 2)

    def test_root_is_single_atom(self, model):
        assert all(model.atom_of("0", w) == 0 for w in range(model.n))

    def test_final_stage_is_singletons(self, model):
        for w in range(model.n):
            aid = model.atom_of("1", w)
            assert model.atoms("1")[aid] == (w,)


class TestCondexp:
    def test_constant_claim_stays_constant(self, model):
        rng = np.random.default_rng(5)
        q = rng.dirichlet(np.ones(4))
        out = condexp(q, Claim(np.full(4, 3.25)), "0+", model)
        assert np.allclose(out.values, 3.25, atol=1e-12)

    def test_worked_market_indicator(self, model):
        # extreme point with signs (1,1), eps = 0.2: indicator of (i,f)
        eps = 0.2
        q = np.array([1 + eps, 1 + eps, 1 - eps, 1 - eps]) / 4
        out = condexp(q, Claim(np.array([1.0, 0, 0, 0])), "0+", model)
        assert out.values[0] == pytest.approx((1 + eps) / 2, abs=1e-12)
        assert out.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_two_block_average(self):
        # frozen from the direct weighted average of (1,2,3,4) on {0,1},{2,3}
        m = ScenarioModel(["a", "b", "c", "d"], ["0", "1", "2"],
                          [[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                           [[0], [1], [2], [3]]], [0.25] * 4)
        out = condexp([0.25] * 4, Claim(np.array([1.0, 2, 3, 4])), "1", m)
        assert np.allclose(out.values, [1.5, 1.5, 3.5, 3.5], atol=1e-12)

    def test_null_atom_uses_reference(self, model):
        # no mass on the f' column: values there come from the reference
        q = np.array([0.5, 0.0, 0.5, 0.0])
        x = Claim(np.array([1.0, 2.0, 3.0, 4.0]))
        out = condexp(q, x, "0+", model)
        assert out.values[1] == pytest.approx(3.0)  # uniform average of 2 and 4
        assert out.values[0] == pytest.approx(2.0)

    def test_tower_property(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = random_model(rng)
            q = rng.dirichlet(np.ones(m.n))
            x = random_claim(rng, m)
            stages = sorted(rng.choice(len(m.stages), size=2, replace=False))
            inner = condexp(q, x, stages[1], m)
            lhs = condexp(q, inner, stages[0], m)
            rhs = condexp(q, x, stages[0], m)
            assert np.allclose(lhs.values, rhs.values, atol=1e-12)

    def test_output_is_measurable(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            m = random_model(rng)
            q = rng.dirichlet(np.ones(m.n))
            x = random_claim(rng, m)
            s = int(rng.integers(0, len(m.stages)))
            out = condexp(q, x, s, m)
            assert all(np.ptp(out.values[list(a)]) <= 1e-12 for a in m.atoms(s))

    def test_linearity(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            m = random_model(rng)
            q = rng.dirichlet(np.ones(m.n))
            x, y = random_claim(rng, m), random_claim(rng, m)
            a, b = rng.uniform(-2, 2, 2)
            s = int(rng.integers(0, len(m.stages)))
            lhs = condexp(q, a * x.values + b * y.values, s, m).values
            rhs = a * condexp(q, x, s, m).values + b * condexp(q, y, s, m).values
            assert np.allclose(lhs, rhs, atol=1e-12)
