"""CLI surface: commands, exit codes, golden output and byte stability."""

import json
from pathlib import Path

import numpy as np
import pytest

from riskchain.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TWOBYTWO = str(SPEC_DIR / "twobytwo.json")
PRODUCT = str(SPEC_DIR / "product_pricing.json")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def make_spec(tmp_path, name="spec.json", **overrides):
    doc = {
        "version": "1",
        "outcomes": ["a", "b", "c", "d"],
        "grid": ["0", "1", "2"],
        "partitions": {"0": [[0, 1, 2, 3]], "1": [[0, 1], [2, 3]],
                       "2": [[0], [1], [2], [3]]},
        "reference": [0.25, 0.25, 0.25, 0.25],
        "risk_sets": {"Q": {"vertices": [[0.4, 0.1, 0.4, 0.1],
                                         [0.1, 0.4, 0.1, 0.4]]}},
        "claims": {"X": [1.0, 0.0, -1.0, 0.0]},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestPrice:
    def test_golden_bytes(self, capsys):
        code, out = run(capsys, ["price", "--spec", TWOBYTWO,
                                 "--claim", "unit_if", "--stage", "0+"])
        assert code == 0
        golden = (GOLDEN_DIR / "price_unit_if.json").read_text(encoding="utf-8")
        assert out == golden

    def test_byte_stable_across_runs(self, capsys):
        _, first = run(capsys, ["price", "--spec", TWOBYTWO,
                                "--claim", "X", "--stage", "0"])
        _, second = run(capsys, ["price", "--spec", TWOBYTWO,
                                 "--claim", "X", "--stage", "0"])
        assert first == second

    def test_time0_value(self, capsys):
        code, out = run(capsys, ["price", "--spec", TWOBYTWO,
                                 "--claim", "X", "--stage", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == [0.1]

    def test_constant_claim(self, capsys):
        code, out = run(capsys, ["price", "--spec", TWOBYTWO,
                                 "--claim", "flat5", "--stage", "0+"])
        doc = json.loads(out)
        assert doc["values"] == [5.0, 5.0]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run(capsys, ["price", "--spec", TWOBYTWO, "--claim", "X",
                                 "--stage", "0", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["values"] == [0.1]

    def test_unknown_stage_is_schema_error(self, capsys):
        code, out = run(capsys, ["price", "--spec", TWOBYTWO,
                                 "--claim", "X", "--stage", "7"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA"

    def test_unknown_claim_is_schema_error(self, capsys):
        code, out = run(capsys, ["price", "--spec", TWOBYTWO,
                                 "--claim", "nope", "--stage", "0"])
        assert code == 2


class TestCheck:
    def test_worked_spec_consistent(self, capsys):
        code, out = run(capsys, ["check", "--spec", TWOBYTWO])
        assert code == 0
        doc = json.loads(out)
        assert doc["strong"] and doc["mstable"] and doc["lower"] and doc["weak"]
        assert doc["witness"] is None

    def test_nonstable_spec_reports_but_exits_zero(self, capsys, tmp_path):
        spec = make_spec(tmp_path)
        code, out = run(capsys, ["check", "--spec", spec])
        assert code == 0
        doc = json.loads(out)
        assert not doc["strong"]
        assert not doc["mstable"]
        assert doc["witness"] is not None
        assert doc["gap"] > 1e-6


class TestHull:
    def test_hull_of_nonstable_set_adds_recombinations(self, capsys, tmp_path):
        spec = make_spec(tmp_path)
        code, out = run(capsys, ["hull", "--spec", spec])
        assert code == 0
        doc = json.loads(out)
        assert not doc["is_fixed_point"]
        got = {tuple(v) for v in doc["vertices"]}
        assert (0.4, 0.1, 0.1, 0.4) in got
        assert len(got) == 4


class TestReserveAndSplit:
    def test_reserve_premium_and_telescoping(self, capsys):
        code, out = run(capsys, ["reserve", "--spec", TWOBYTWO, "--claim", "X"])
        assert code == 0
        doc = json.loads(out)
        assert doc["premium"] == 0.1
        assert doc["time_consistent"] is True
        total = np.full(4, doc["premium"])
        for inc in doc["increments"]:
            total = total + np.array(inc["values"])
        assert np.allclose(total, [1.0, 0.0, -1.0, 0.0], atol=1e-9)

    def test_split_streams(self, capsys):
        code, out = run(capsys, ["split", "--spec", TWOBYTWO, "--claim", "X"])
        assert code == 0
        doc = json.loads(out)
        assert doc["premium"] == 0.1
        assert doc["financial"][0]["values"] == [0.1, -0.1, 0.1, -0.1]
        assert doc["intermediate"][0]["values"] == [0.8, 0.0, -1.2, 0.0]

    def test_split_without_financial_partitions_is_schema_error(self, capsys, tmp_path):
        spec = make_spec(tmp_path)
        code, out = run(capsys, ["split", "--spec", spec, "--claim", "X"])
        assert code == 2


class TestPsi:
    def test_product_spec(self, capsys):
        code, out = run(capsys, ["psi", "--spec", PRODUCT])
        assert code == 0
        doc = json.loads(out)
        ver = doc["verification"]
        assert ver["qf_recovered"] and ver["qi_recovered"] and ver["mstable"]
        assert ver["composition_ok"]
        assert ver["financial_agreement_ok"]
        got = {tuple(v) for v in doc["vertices"]}
        assert got == {(0.2, 0.2, 0.3, 0.3), (0.2, 0.3, 0.3, 0.2),
                       (0.3, 0.2, 0.2, 0.3), (0.3, 0.3, 0.2, 0.2)}


class TestExample6:
    @pytest.mark.parametrize("eps", ["0.1", "0.2", "0.5"])
    def test_diffs_pass(self, capsys, eps):
        code, out = run(capsys, ["example6", "--epsilon", eps])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"]
        assert all(c["pass"] for c in doc["checks"])

    def test_bad_epsilon_is_schema_error(self, capsys):
        code, out = run(capsys, ["example6", "--epsilon", "1.5"])
        assert code == 2


class TestExitCodes:
    def test_missing_file_is_2(self, capsys, tmp_path):
        code, out = run(capsys, ["check", "--spec", str(tmp_path / "none.json")])
        assert code == 2

    def test_bad_json_is_2(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        code, out = run(capsys, ["check", "--spec", str(p)])
        assert code == 2

    def test_invalid_model_is_3(self, capsys, tmp_path):
        spec = make_spec(tmp_path, partitions={
            "0": [[0], [1], [2], [3]], "1": [[0, 1], [2, 3]],
            "2": [[0], [1], [2], [3]]})
        code, out = run(capsys, ["check", "--spec", spec])
        assert code == 3
        assert json.loads(out)["error"]["code"] == "BAD_TERMINALS"

    def test_evaluation_error_is_4(self, capsys, tmp_path):
        # the single vertex never charges the interior atoms {1} and {3}
        spec = make_spec(
            tmp_path,
            partitions={"0": [[0, 1, 2, 3]], "1": [[0], [1], [2], [3]],
                        "2": [[0], [1], [2], [3]]},
            risk_sets={"Q": {"vertices": [[0.5, 0.0, 0.5, 0.0]]}})
        code, out = run(capsys, ["price", "--spec", spec,
                                 "--claim", "X", "--stage", "1"])
        assert code == 4
        assert json.loads(out)["error"]["code"] == "EMPTY_KERNEL"

    def test_size_bound_is_5(self, capsys, tmp_path):
        n = 4
        grid = ["0", "0+", "1", "1+", "2", "2+", "3", "3+", "4", "5"]
        parts = {g: [[0, 1, 2, 3]] for g in grid}
        parts["5"] = [[0], [1], [2], [3]]
        spec = make_spec(tmp_path, grid=grid, partitions=parts)
        code, out = run(capsys, ["check", "--spec", spec])
        assert code == 5
        assert json.loads(out)["error"]["code"] == "TOO_LARGE"


class TestRoundTrip:
    def test_every_report_reparses(self, capsys, tmp_path):
        spec = make_spec(tmp_path)
        for argv in (["price", "--spec", TWOBYTWO, "--claim", "X", "--stage", "0+"],
                     ["check", "--spec", spec],
                     ["hull", "--spec", spec],
                     ["reserve", "--spec", spec, "--claim", "X"],
                     ["split", "--spec", TWOBYTWO, "--claim", "X"],
                     ["psi", "--spec", PRODUCT],
                     ["example6", "--epsilon", "0.3"]):
            code, out = run(capsys, argv)
            doc = json.loads(out)
            assert isinstance(doc, dict)


class TestNonFinite:
    """Non-finite spec numbers are schema errors; reports are strict JSON."""

    def twobytwo_with(self, tmp_path, edit):
        doc = json.loads(Path(TWOBYTWO).read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("stage", ["0", "1"])
    def test_nan_claim_is_2(self, capsys, tmp_path, stage):
        spec = self.twobytwo_with(
            tmp_path, lambda d: d["claims"]["X"].__setitem__(0, float("nan")))
        code, out = run(capsys, ["price", "--spec", spec, "--claim", "X", "--stage", stage])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA"

    @pytest.mark.parametrize("field", ["reference", "vertex", "a", "b", "tolerance"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_spec_number_is_2(self, capsys, tmp_path, field, bad):
        def edit(doc):
            if field == "reference":
                doc["reference"][1] = bad
            elif field == "vertex":
                doc["risk_sets"]["Q"]["vertices"] = [[bad, 0.5, 0.25, 0.25]]
            elif field == "tolerance":
                doc["tolerance"] = bad
            else:
                doc["risk_sets"]["Q"]["constraints"][0][field] = (
                    bad if field == "b" else [bad, 0, 0, 0])
        spec = self.twobytwo_with(tmp_path, edit)
        code, out = run(capsys, ["price", "--spec", spec, "--claim", "X", "--stage", "0"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA"

    @pytest.mark.parametrize("argv", [
        ["price", "--spec", TWOBYTWO, "--claim", "X", "--stage", "0", "--tolerance", "nan"],
        ["psi", "--spec", PRODUCT, "--tolerance", "inf"],
        ["example6", "--epsilon", "0.3", "--tolerance", "nan"],
    ])
    def test_nonfinite_tolerance_flag_is_2(self, capsys, argv):
        code, out = run(capsys, argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_report_is_4(self, capsys, tmp_path):
        spec = make_spec(tmp_path, claims={"X": [1.7e308, -1.7e308, 1.7e308, -1.7e308]})
        code, out = run(capsys, ["reserve", "--spec", spec, "--claim", "X"])
        assert code == 4
        assert json.loads(out)["error"]["message"] == "report contains a non-finite number"
