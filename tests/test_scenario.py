"""Scenario model construction, validation and conditional expectation."""

import numpy as np
import pytest

from riskchain import (
    Claim,
    ModelError,
    NotMeasurableError,
    OutOfRangeError,
    ScenarioModel,
    SchemaError,
    claim,
    condexp,
)
from riskchain.config import MIN_TOL, Config
from riskchain.scenario import crossing_atom
from riskchain.twobytwo import market_model

from randmodels import random_claim, random_model


@pytest.fixture
def model():
    return market_model().model


def model_error(outcomes, grid, partitions, reference) -> ModelError:
    with pytest.raises(ModelError) as info:
        ScenarioModel(outcomes, grid, partitions, reference)
    return info.value


class TestValidateModel:
    """The constructor's checks: a built model is a filtration with a
    full-support reference, or a ``ModelError`` says which check failed."""

    def test_worked_market_is_valid(self, model):
        assert len(model.atoms("0")) == 1
        assert len(model.atoms(model.final_stage)) == model.n

    def test_discrete_root_is_bad_terminals(self):
        err = model_error(["a", "b"], ["0", "1"], [[[0], [1]], [[0], [1]]], [0.5, 0.5])
        assert err.code == "BAD_TERMINALS"
        assert str(err) == "stage-0 partition must be the single atom of all outcomes"
        assert err.details == {"stage_index": 0, "atom_index": None}

    def test_coarse_final_stage_is_bad_terminals(self):
        err = model_error(["a", "b"], ["0", "1"], [[[0, 1]], [[0, 1]]], [0.5, 0.5])
        assert err.code == "BAD_TERMINALS"
        assert str(err) == "final-stage partition must be discrete"
        assert err.details == {"stage_index": 1, "atom_index": None}

    def test_crossing_split_is_non_refining(self):
        # half-step atoms {0,2},{1,3} cross the later stage-1 atoms {0,1},{2,3}
        err = model_error(
            ["a", "b", "c", "d"], ["0", "0+", "1", "2"],
            [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0, 1], [2, 3]],
             [[0], [1], [2], [3]]],
            [0.25] * 4)
        assert err.code == "NON_REFINING"
        assert str(err) == "stage 1 atom 0 crosses stage 0+ atoms"
        assert err.details == {"stage_index": 2, "atom_index": 0}

    def test_crossing_whole_stages_are_non_refining(self):
        err = model_error(
            ["a", "b", "c", "d"], ["0", "1", "2", "3"],
            [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[0, 1], [2, 3]],
             [[0], [1], [2], [3]]],
            [0.25] * 4)
        assert err.code == "NON_REFINING"
        assert err.details == {"stage_index": 2, "atom_index": 0}

    def test_later_crossing_atom_is_named(self):
        # stage-2 atom 1 = {1,2} meets both stage-1 atoms {0,1} and {2,3}
        err = model_error(
            ["a", "b", "c", "d"], ["0", "1", "2", "3"],
            [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2], [3]],
             [[0], [1], [2], [3]]],
            [0.25] * 4)
        assert err.code == "NON_REFINING"
        assert err.details == {"stage_index": 2, "atom_index": 1}

    def test_zero_reference_weight_is_no_full_support(self):
        err = model_error(["a", "b"], ["0", "1"], [[[0, 1]], [[0], [1]]], [1.0, 0.0])
        assert err.code == "NO_FULL_SUPPORT"
        assert str(err) == "reference weight of outcome 'b' is not strictly positive"
        assert err.details == {"stage_index": None, "atom_index": 1}

    @pytest.mark.parametrize("reference, bad", [
        ([float("nan"), 0.25, 0.25, 0.25], 0),
        ([0.25, 0.25, float("nan"), 0.5], 2),
        ([0.5, -0.25, 0.5, 0.25], 1),
    ])
    def test_nan_or_negative_weight_is_no_full_support(self, reference, bad):
        err = model_error(["a", "b", "c", "d"], ["0", "1"],
                          [[[0, 1, 2, 3]], [[0], [1], [2], [3]]], reference)
        assert err.code == "NO_FULL_SUPPORT"
        assert err.details == {"stage_index": None, "atom_index": bad}

    @pytest.mark.parametrize("reference", [[0.5, 0.6], [0.5, float("inf")]])
    def test_weights_off_one_are_no_full_support(self, reference):
        err = model_error(["a", "b"], ["0", "1"], [[[0, 1]], [[0], [1]]], reference)
        assert err.code == "NO_FULL_SUPPORT"
        assert str(err) == "reference weights must sum to one"
        assert err.details == {"stage_index": None, "atom_index": None}

    def test_raise_if_invalid(self):
        err = model_error(["a", "b"], ["0", "1"], [[[0, 1]], [[0, 1]]], [0.5, 0.5])
        assert err.to_dict() == {"code": "BAD_TERMINALS",
                                 "message": "final-stage partition must be discrete",
                                 "details": {"stage_index": 1, "atom_index": None}}

    def test_checks_run_in_order(self):
        # coarse final stage, crossing stages and a zero weight at once:
        # the terminal check answers first, then refinement
        err = model_error(["a", "b", "c"], ["0", "1", "2"],
                          [[[0, 1, 2]], [[0, 1], [2]], [[0], [1, 2]]], [1.0, 0.0, 0.0])
        assert err.code == "BAD_TERMINALS"
        err = model_error(["a", "b", "c"], ["0", "1", "2", "3"],
                          [[[0, 1, 2]], [[0, 1], [2]], [[0], [1, 2]],
                           [[0], [1], [2]]], [1.0, 0.0, 0.0])
        assert err.code == "NON_REFINING"

    def test_random_models_are_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_model(rng)
            assert isinstance(m, ScenarioModel)
            assert len(m.atoms(0)) == 1 and len(m.atoms(m.final_stage)) == m.n

    def test_crossing_atom_matches_atomwise_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            fine = rng.integers(0, n, n)
            fine = np.unique(fine, return_inverse=True)[1]
            coarse = rng.integers(0, 3, n)
            crossing = [a for a in range(fine.max() + 1)
                        if len(set(coarse[fine == a])) > 1]
            assert crossing_atom(fine, coarse) == (crossing[0] if crossing else None)

    def test_first_crossing_over_stages_is_named(self):
        # the constructor tests every adjacent pair at once; the loop over
        # pairs and atoms is the reference for which one it names
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            ids = [np.zeros(n, int)]
            for _ in range(int(rng.integers(1, 4))):
                # atom ids in order of smallest member, as the model numbers them
                labels = rng.integers(0, n, n).tolist()
                first = {}
                ids.append(np.array([first.setdefault(x, len(first)) for x in labels]))
            ids.append(np.arange(n))
            parts = [[np.flatnonzero(row == a).tolist() for a in range(row.max() + 1)]
                     for row in ids]
            expected = next(((s, a) for s in range(1, len(ids))
                             for a in range(ids[s].max() + 1)
                             if len(set(ids[s - 1][ids[s] == a])) > 1), None)
            try:
                ScenarioModel([f"w{i}" for i in range(n)], [str(t) for t in range(len(ids))],
                              parts, np.full(n, 1.0 / n))
                got = None
            except ModelError as err:
                assert err.code == "NON_REFINING"
                got = (err.details["stage_index"], err.details["atom_index"])
            assert got == expected


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

    def test_repeated_outcome_in_atom_rejected(self):
        # a repeated index would count its outcome twice in every atom sum
        with pytest.raises(SchemaError, match="repeated outcome index"):
            ScenarioModel(["a", "b", "c"], ["0", "1", "2"],
                          [[[0, 1, 2]], [[0, 0, 1], [2]], [[0], [1], [2]]],
                          [0.25, 0.25, 0.5])

    @pytest.mark.parametrize("shape", [(2, 4), (3,), (5, 4), (4, 1), ()])
    def test_measurability_needs_one_value_per_outcome(self, model, shape):
        with pytest.raises(SchemaError):
            model.is_measurable(np.zeros(shape), "0+")

    @pytest.mark.parametrize("atom_id", [2, -1, True, 1.0])
    def test_bad_atom_id_is_out_of_range(self, model, atom_id):
        for call in (model.atom, model.atom_label):
            with pytest.raises(OutOfRangeError):
                call("0+", atom_id)
        with pytest.raises(OutOfRangeError):
            model.sub_atoms("0+", "1", atom_id)
        assert model.atom("0+", np.int64(1)) == (1, 3)

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

    @pytest.mark.parametrize("outcome", [4, -1, True, 1.0])
    def test_bad_outcome_is_out_of_range(self, model, outcome):
        with pytest.raises(OutOfRangeError):
            model.atom_of("0+", outcome)

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
