"""CLI surface: commands, exit codes, golden output and byte stability."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskchain import cli, consistency_report
from riskchain.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "demos" / "specs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TWOBYTWO = str(SPEC_DIR / "twobytwo.json")
PRODUCT = str(SPEC_DIR / "product_pricing.json")
BENCH_DIR = ROOT / "perfbench"


def _bench_argvs():
    """The benchmark's CLI calls, read from ``perfbench/cliwork.py`` (which
    imports only the standard library); their paths are relative to ROOT."""
    spec = importlib.util.spec_from_file_location("cliwork", BENCH_DIR / "cliwork.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ARGVS


BENCH_ARGVS = _bench_argvs()


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


def twobytwo_with(tmp_path, edit):
    """A copy of the worked spec after ``edit(doc)`` changed it in place."""
    doc = json.loads(Path(TWOBYTWO).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def setting(*path_and_value):
    """A spec edit that sets ``doc[k1]...[kn] = value``."""
    *parents, key, value = path_and_value

    def edit(doc):
        for k in parents:
            doc = doc[k]
        doc[key] = value
    return edit


def seventeen_outcomes(doc):
    """One outcome past ``MAX_OUTCOMES``, with a constraint-given set."""
    n = 17
    doc.update(outcomes=[f"w{i}" for i in range(n)],
               partitions={"0": [list(range(n))], "1": [[w] for w in range(n)]},
               reference=[1.0 / n] * n,
               financial_partitions={"1": [list(range(n))]},
               risk_sets={"Q": {"constraints": [{"a": [1.0] + [0.0] * (n - 1), "b": 0.5}]}},
               claims={"X": [0.0] * n})


def box_of_sixteen(doc):
    """A 16-outcome H-set ``q_i <= 0.118``: ~10^5 vertices, far past
    ``WORK_BOUND``."""
    n = 16
    doc.update(outcomes=[f"w{i}" for i in range(n)],
               partitions={"0": [list(range(n))], "1": [[w] for w in range(n)]},
               reference=[1.0 / n] * n,
               financial_partitions={"1": [list(range(n))]},
               risk_sets={"Q": {"constraints": [{"a": np.eye(n)[i].tolist(), "b": 0.118}
                                                for i in range(n)]}},
               claims={"X": [float(w) for w in range(n)]})


def crossing_financial_partition(doc):
    """A horizon-2 model whose time-1 financial partition cuts across its own."""
    doc.update(grid=["0", "1", "2"],
               partitions={"0": [[0, 1, 2, 3]], "1": [[0, 1], [2, 3]],
                           "2": [[0], [1], [2], [3]]},
               financial_partitions={"1": [[0, 2], [1, 3]], "2": [[0], [1], [2], [3]]})


# Q asks for total mass 2, which no probability measure has
no_measure_in_q = setting("risk_sets", "Q", "constraints",
                          [{"a": [1, 1, 1, 1], "op": ">=", "b": 2}])

PRICE = ["price", "--claim", "X", "--stage", "0"]
SPLIT = ["split", "--claim", "X"]

# (edit of the worked spec, command, exit code, error code or None on success)
EXIT_CODES = [
    pytest.param(setting("partitions", "1", [[0.5], [1], [2], [3]]), PRICE, 2, "SCHEMA",
                 id="float_index"),
    pytest.param(setting("partitions", "1", [["a"], [1], [2], [3]]), PRICE, 2, "SCHEMA",
                 id="string_index"),
    pytest.param(setting("partitions", "1", [[False], [1], [2], [3]]), PRICE, 2, "SCHEMA",
                 id="bool_index"),
    pytest.param(setting("financial_partitions", "1", [[0.0, 2], [1, 3]]), SPLIT, 2,
                 "SCHEMA", id="financial_float_index"),
    pytest.param(setting("financial_partitions", [1, 2]), SPLIT, 2, "SCHEMA",
                 id="financial_not_object"),
    pytest.param(setting("financial_partitions", {"x": [[0, 2], [1, 3]]}), SPLIT, 2,
                 "SCHEMA", id="financial_key_not_time"),
    pytest.param(setting("financial_partitions", "1", 5), SPLIT, 2, "SCHEMA",
                 id="financial_partition_not_list"),
    pytest.param(setting("financial_partitions", "1+", [[0, 1, 2, 3]]), SPLIT, 2,
                 "SCHEMA", id="financial_time_twice"),
    pytest.param(setting("financial_partitions", "7", [[0, 1, 2, 3]]), SPLIT, 2,
                 "SCHEMA", id="financial_time_past_horizon"),
    pytest.param(setting("partitions", "1", [[0, 1], [2], [3]]), ["check"], 3,
                 "BAD_TERMINALS", id="final_not_discrete"),
    pytest.param(crossing_financial_partition, SPLIT, 3, "NOT_COARSER",
                 id="financial_not_coarser"),
    pytest.param(setting("reference", [0.5, 0.5, 0.0, 0.0]), PRICE, 3, "NO_FULL_SUPPORT",
                 id="reference_not_positive"),
    pytest.param(no_measure_in_q, ["check"], 4, "EMPTY_INTERSECTION", id="no_measure_in_set"),
    pytest.param(no_measure_in_q, PRICE, 4, "EMPTY_INTERSECTION",
                 id="no_measure_in_set_price"),
    pytest.param(no_measure_in_q, ["reserve", "--claim", "nope"], 2, "SCHEMA",
                 id="unknown_claim_before_empty_set"),
    pytest.param(seventeen_outcomes, ["hull"], 5, "TOO_LARGE", id="too_many_outcomes"),
    pytest.param(box_of_sixteen, PRICE, 5, "TOO_LARGE", id="too_many_vertices_price"),
    pytest.param(box_of_sixteen, ["check"], 5, "TOO_LARGE", id="too_many_vertices_check"),
    pytest.param(setting("tolerance", 0), ["check"], 2, "SCHEMA", id="tolerance_zero"),
    pytest.param(lambda doc: None, ["reserve", "--claim", "X", "--tolerance=-1e-9"], 2,
                 "SCHEMA", id="tolerance_flag_negative"),
    pytest.param(setting("tolerance", 1e-16), ["check"], 2, "SCHEMA",
                 id="tolerance_below_floor"),
    pytest.param(setting("tolerance", True), ["check"], 2, "SCHEMA",
                 id="tolerance_boolean"),
    pytest.param(setting("claims", "X", [True, 0, -1, 0]), PRICE, 2, "SCHEMA",
                 id="claim_boolean"),
    # increments round apart from zero in proportion to the claim; they lie
    # in their cones by construction, so a large claim gets its plan
    pytest.param(setting("claims", "X", [3e7, -7e7, 9e7, -2e7]), SPLIT, 0, None,
                 id="split_large_claim"),
    pytest.param(setting("risk_sets", "Q", {"vertices": [[True, 0, 0, 0], [0, 1, 0, 0]]}),
                 ["check"], 2, "SCHEMA", id="vertex_boolean"),
    pytest.param(setting("risk_sets", "Q", "constraints", [{"a": [True, 0, 0, 0], "b": 0.3}]),
                 PRICE, 2, "SCHEMA", id="constraint_boolean"),
]


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


class TestBenchmarkGoldens:
    """Every benchmark CLI call prints exactly its stored golden bytes."""

    @pytest.mark.parametrize("label", sorted(BENCH_ARGVS))
    def test_golden_bytes(self, capsys, monkeypatch, label):
        monkeypatch.chdir(ROOT)
        code, out = run(capsys, BENCH_ARGVS[label])
        assert code == 0
        assert out.encode("utf-8") == (BENCH_DIR / "golden" / f"{label}.json").read_bytes()


# benchmark calls that run no scipy solver, so the CLI must not import scipy
SCIPY_FREE = ["price_X_0", "price_unit_if_0p", "price_flat5_1", "check", "reserve_X",
              "split_unit_if", "hull", "psi", "example6_0.1", "example6_0.2", "example6_0.5"]

# runs ``main`` on argv[1:] and prints to stderr the scipy modules loaded by then
MAIN_THEN_SCIPY_MODULES = (
    "import sys\n"
    "from riskchain.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    "sys.exit(code)\n")


# six extreme points on four outcomes, not m-stable: the verdict compares the
# set with its pasting hull, and the witness is an NNLS residual
HULL_ROUTE_VERTICES = [[0.4, 0.1, 0.4, 0.1], [0.1, 0.4, 0.1, 0.4], [0.4, 0.4, 0.1, 0.1],
                       [0.1, 0.1, 0.4, 0.4], [0.55, 0.15, 0.15, 0.15],
                       [0.15, 0.15, 0.15, 0.55]]


def fresh_run(*args):
    """``python *args`` from ROOT in a fresh interpreter, with ``src`` on the
    path."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path))


class TestStartsWithoutScipy:
    """Commands that solve nothing with scipy never import it; each runs in a
    fresh interpreter, as a user's call does.  NNLS is the package's own, so
    membership, hull and witness work needs no scipy either."""

    @pytest.mark.parametrize("label", SCIPY_FREE)
    def test_golden_bytes_without_scipy(self, label):
        run = fresh_run("-c", MAIN_THEN_SCIPY_MODULES, *BENCH_ARGVS[label])
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout == (BENCH_DIR / "golden" / f"{label}.json").read_bytes()
        assert run.stderr.decode().strip() == "[]"

    @pytest.mark.parametrize("command", ["check", "hull"])
    def test_hull_route_set_without_scipy(self, tmp_path, command):
        spec = make_spec(tmp_path, risk_sets={"Q": {"vertices": HULL_ROUTE_VERTICES}})
        run = fresh_run("-c", MAIN_THEN_SCIPY_MODULES, command, "--spec", spec)
        assert run.returncode == 0, run.stderr.decode()
        doc = json.loads(run.stdout)
        assert not doc["mstable" if command == "check" else "is_fixed_point"]
        assert run.stderr.decode().strip() == "[]"

    def test_library_membership_path_without_scipy(self):
        run = fresh_run(str(Path(__file__).resolve().parent / "library_without_scipy.py"))
        assert run.returncode == 0, run.stderr.decode()
        assert run.stdout.decode().splitlines()[-1] == "[]"


class TestCheck:
    def test_worked_spec_consistent(self, capsys):
        code, out = run(capsys, ["check", "--spec", TWOBYTWO])
        assert code == 0
        doc = json.loads(out)
        assert doc["strong"] and doc["mstable"] and doc["lower"] and doc["weak"]
        assert doc["witness"] is None
        # with no witness, gap is the largest sampled gap
        bundle = cli.load_spec(TWOBYTWO)
        report = consistency_report(bundle.risk_sets["Q"],
                                    cli._sample_claims(bundle.model, 100))
        assert doc["gap"] == pytest.approx(report.max_sampled_gap, rel=1e-11)

    def test_nonstable_spec_reports_but_exits_zero(self, capsys, tmp_path, monkeypatch):
        spec = make_spec(tmp_path)
        code, out = run(capsys, ["check", "--spec", spec])
        assert code == 0
        doc = json.loads(out)
        assert not doc["strong"]
        assert not doc["mstable"]
        assert doc["witness"] is not None
        assert doc["gap"] > 1e-6
        # the report has no field for lower and weak consistency, which hold
        # by definition for one set; gap is the witness gap when there is a
        # witness, and notes carry the report's note
        assert doc["lower"] is True and doc["weak"] is True
        bundle = cli.load_spec(spec)
        report = consistency_report(bundle.risk_sets["Q"],
                                    cli._sample_claims(bundle.model, 100))
        assert doc["gap"] == pytest.approx(report.witness_gap, rel=1e-11)
        assert report.note is None and doc["notes"] == {}
        # with no sample the analytic test supplies the witness, with a note
        monkeypatch.setattr(cli, "_sample_claims", lambda model, count: [])
        code, out = run(capsys, ["check", "--spec", spec])
        doc = json.loads(out)
        report = consistency_report(cli.load_spec(spec).risk_sets["Q"], [])
        assert doc["lower"] is True and doc["weak"] is True
        assert doc["gap"] == pytest.approx(report.witness_gap, rel=1e-11)
        assert doc["notes"] == {"strong": report.note} and report.note


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

    @pytest.mark.parametrize("horizon", [1, 2])
    def test_uncharged_financial_outcome_is_4(self, capsys, tmp_path, horizon):
        """A ``Pi`` that never charges outcome ``f'`` pastes, but the
        product's parts are undefined there, so ``psi_verify`` refuses and
        names the atom: ``qi`` meets it at ``0+``, ``rho`` at time 1."""
        doc = json.loads(Path(PRODUCT).read_text(encoding="utf-8"))
        doc["risk_sets"]["Pi"] = {"vertices": [[1.0, 0.0]]}
        if horizon == 2:    # financial news at time 1, intermediate at time 2
            for key, mid in (("financial_factor", [[0], [1]]),
                             ("intermediate_factor", [[0, 1]])):
                doc[key].update(grid=["0", "1", "2"], partitions={
                    "0": [[0, 1]], "1": mid, "2": [[0], [1]]})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, ["psi", "--spec", str(spec)])
        error = json.loads(out)["error"]
        assert (code, error["code"]) == (4, "EMPTY_KERNEL")
        assert error["details"] == {"stage": "0+" if horizon == 1 else "1", "atom": 1}

    @pytest.mark.parametrize("edit", [
        {"version": "2"},
        {"claims": {"short": [1.0, 2.0]}},
        {"claims": [1, 2]},
    ], ids=["version", "claim_length", "claims_not_object"])
    def test_malformed_spec_is_2(self, capsys, tmp_path, edit):
        doc = json.loads(Path(PRODUCT).read_text(encoding="utf-8"))
        doc.update(edit)
        spec = tmp_path / "psi.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, ["psi", "--spec", str(spec)])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA"


class TestExample6:
    @pytest.mark.parametrize("eps", ["0.1", "0.2", "0.5"])
    def test_diffs_pass(self, capsys, eps):
        code, out = run(capsys, ["example6", "--epsilon", eps])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"]
        assert all(c["pass"] for c in doc["checks"])

    def test_golden_bytes_without_an_lp(self, capsys, no_lp):
        code, out = run(capsys, ["example6", "--epsilon", "0.2"])
        assert code == 0
        assert out.encode("utf-8") == (BENCH_DIR / "golden" / "example6_0.2.json").read_bytes()

    def test_bad_epsilon_is_schema_error(self, capsys):
        code, out = run(capsys, ["example6", "--epsilon", "1.5"])
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize("edit, argv, code, error", EXIT_CODES)
    def test_matrix(self, capsys, tmp_path, edit, argv, code, error):
        spec = twobytwo_with(tmp_path, edit)
        got, out = run(capsys, [argv[0], "--spec", spec, *argv[1:]])
        err = json.loads(out).get("error", {})
        assert (got, err.get("code")) == (code, error)
        if code == 5:   # every size refusal here is vertex enumeration's
            assert err["details"]["layer"] == "riskset.vertices"

    @pytest.mark.parametrize("tol", ["0", "1e-16"])
    def test_example6_tolerance_below_floor_is_2(self, capsys, tol):
        code, out = run(capsys, ["example6", "--epsilon", "0.3", "--tolerance", tol])
        assert (code, json.loads(out)["error"]["code"]) == (2, "SCHEMA")

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
        err = json.loads(out)["error"]
        assert err["code"] == "TOO_LARGE"
        assert err["details"] == {"bound": 9, "reached": 10, "layer": "scenario.grid"}


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

    @pytest.mark.parametrize("stage", ["0", "1"])
    def test_nan_claim_is_2(self, capsys, tmp_path, stage):
        spec = twobytwo_with(
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
                doc["risk_sets"]["Q"] = {"vertices": [[bad, 0.5, 0.25, 0.25]]}
            elif field == "tolerance":
                doc["tolerance"] = bad
            else:
                doc["risk_sets"]["Q"]["constraints"][0][field] = (
                    bad if field == "b" else [bad, 0, 0, 0])
        spec = twobytwo_with(tmp_path, edit)
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


class TestSpecIntegrity:
    """Contradictory or malformed spec structure is a schema error, exit 2."""

    def test_vertices_and_constraints_together_is_2(self, capsys, tmp_path):
        spec = make_spec(tmp_path, risk_sets={"Q": {
            "vertices": [[0.9, 0.1, 0.0, 0.0], [0.1, 0.9, 0.0, 0.0]],
            "constraints": [{"a": [1, 0, 0, 0], "b": 0.5}]}})
        code, out = run(capsys, ["price", "--spec", spec, "--claim", "X", "--stage", "0"])
        assert code == 2
        assert json.loads(out)["error"]["code"] == "SCHEMA"

    def test_neither_vertices_nor_constraints_is_2(self, capsys, tmp_path):
        spec = make_spec(tmp_path, risk_sets={"Q": {}})
        code, out = run(capsys, ["price", "--spec", spec, "--claim", "X", "--stage", "0"])
        assert code == 2

    @pytest.mark.parametrize("part", [
        [[0, 2], [1, 2, 3]],      # overlapping atoms
        [[0, 2], [1]],            # outcome 3 in no atom
        [[0, 2], [1, 3], []],     # empty atom
        [[0, 2], [1, 4]],         # outcome out of range
    ])
    def test_bad_financial_partition_is_2(self, capsys, tmp_path, part):
        spec = twobytwo_with(
            tmp_path, lambda d: d["financial_partitions"].__setitem__("1", part))
        code, out = run(capsys, ["split", "--spec", spec, "--claim", "X"])
        assert code == 2
        err = json.loads(out)["error"]
        assert err["code"] == "SCHEMA"
        assert err["message"].startswith("financial partition at time 1: ")
        assert err["details"] == {"time": 1}
