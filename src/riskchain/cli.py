"""Command-line front end: JSON market specs in, JSON reports out.

Exit codes: 0 report produced, 1 golden diffs failed, 2 schema error,
3 model validation error, 4 evaluation error, 5 size bound exceeded.
All numeric output is serialized with 12 significant digits and deterministic
key and atom ordering, so reports are byte-stable for a fixed spec.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import twobytwo
from .config import Config
from .consistency import consistency_report, is_mstable, mstable_hull
from .errors import (
    EngineError,
    ModelError,
    OutOfRangeError,
    SchemaError,
    SizeBoundError,
)
from .intermarket import (
    MarketModel,
    build_refined,
    product_space,
    psi_build,
    psi_verify,
    qf,
    qi,
    split_reserve,
)
from .risk import Chain, reserve_plan, rho
from .riskset import LinearConstraint, RiskSet, intersect, set_equal, vertex_enumeration
from .scenario import Claim, ScenarioModel, validate_model

SPEC_VERSION = "1"


def _fmt(obj):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(obj, dict):
        return {k: _fmt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_fmt(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(f"{float(obj):.12g}")
        return 0.0 if x == 0 else x
    return obj


def _render(payload: dict) -> str:
    try:
        return json.dumps(_fmt(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EngineError("report contains a non-finite number") from exc


def _write(text: str, out: Optional[str]):
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(payload: dict, out: Optional[str]):
    _write(_render(payload), out)


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _numbers(values, what: str) -> np.ndarray:
    """Spec numbers as a float array; non-numeric or non-finite ones are schema errors."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must hold numbers") from exc
    _require(np.isfinite(arr).all(), f"{what} must hold finite numbers")
    return arr


def _tolerance(override: Optional[float], doc: dict) -> float:
    tol = override if override is not None else doc.get("tolerance", 1e-9)
    arr = _numbers(tol, "'tolerance'")
    _require(arr.shape == (), "'tolerance' must be a number")
    return float(arr)


@dataclass
class SpecBundle:
    model: ScenarioModel
    market: Optional[MarketModel]
    risk_sets: dict
    claims: dict
    config: Config


def _parse_model(doc: dict, config: Config) -> ScenarioModel:
    for key in ("outcomes", "grid", "partitions", "reference"):
        _require(key in doc, f"spec is missing {key!r}")
    for key in ("outcomes", "grid", "reference"):
        _require(isinstance(doc[key], list), f"{key!r} must be a list")
    _require(all(isinstance(v, (int, float)) for v in doc["reference"]),
             "'reference' must be a list of numbers")
    _numbers(doc["reference"], "'reference'")
    _require(isinstance(doc["partitions"], dict), "partitions must map stage labels to atom lists")
    grid = [str(g) for g in doc["grid"]]
    parts = []
    for label in grid:
        _require(label in doc["partitions"], f"partitions is missing stage {label!r}")
        part = doc["partitions"][label]
        _require(isinstance(part, list) and all(isinstance(a, list) for a in part),
                 f"partition at stage {label!r} must be a list of atoms")
        parts.append(part)
    model = ScenarioModel(doc["outcomes"], grid, parts, doc["reference"], config=config)
    validate_model(model).raise_if_invalid()
    return model


def _parse_risk_set(fragment: dict, model: ScenarioModel) -> RiskSet:
    _require(isinstance(fragment, dict), "risk set fragment must be an object")
    vertices = fragment.get("vertices")
    raw_cons = fragment.get("constraints")
    _require(vertices is not None or raw_cons is not None,
             "risk set needs vertices and/or constraints")
    _require(vertices is None or (isinstance(vertices, list)
             and all(isinstance(v, list) for v in vertices)),
             "vertices must be a list of weight lists")
    for v in vertices or []:
        _numbers(v, "vertex weights")
    _require(raw_cons is None or isinstance(raw_cons, list),
             "constraints must be a list")
    cons = None
    if raw_cons is not None:
        cons = []
        for c in raw_cons:
            _require(isinstance(c, dict) and "a" in c and "b" in c,
                     "constraint needs fields 'a' and 'b'")
            a = _numbers(c["a"], "constraint row 'a'")
            _require(a.shape == (model.n,), "constraint row length must match outcomes")
            b = _numbers(c["b"], "constraint bound 'b'")
            _require(b.shape == (), "constraint bound 'b' must be a number")
            op = c.get("op", "<=")
            if op == "<=":
                cons.append(LinearConstraint(a, float(b)))
            elif op == ">=":
                cons.append(LinearConstraint(-a, -float(b)))
            else:
                raise SchemaError(f"unsupported constraint op {op!r}; "
                                  "express equalities as two inequalities")
    return RiskSet(model, vertices=vertices, constraints=cons, config=model.config)


def load_spec(path: str, tolerance: Optional[float] = None) -> SpecBundle:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    if "version" in doc:
        _require(str(doc["version"]) == SPEC_VERSION,
                 f"unsupported spec version {doc['version']!r}")
    config = Config(tol=_tolerance(tolerance, doc))
    model = _parse_model(doc, config)
    market = None
    if "financial_partitions" in doc:
        fins = {int(str(k).rstrip("+")): v for k, v in doc["financial_partitions"].items()}
        market = build_refined(model, fins)
        model = market.model
    _require(isinstance(doc.get("risk_sets", {}), dict), "risk_sets must be an object")
    _require(isinstance(doc.get("claims", {}), dict), "claims must be an object")
    risk_sets = {str(name): _parse_risk_set(frag, model)
                 for name, frag in doc.get("risk_sets", {}).items()}
    claims = {}
    for name, values in doc.get("claims", {}).items():
        _require(isinstance(values, list), f"claim {name!r} must be a list")
        v = _numbers(values, f"claim {name!r}")
        _require(v.shape == (model.n,), f"claim {name!r} length must match outcomes")
        claims[str(name)] = Claim(v)
    return SpecBundle(model, market, risk_sets, claims, config)


def _named_set(bundle: SpecBundle, name: str = "Q") -> RiskSet:
    _require(name in bundle.risk_sets, f"spec must define a risk set named {name!r}")
    return bundle.risk_sets[name]


def _named_claim(bundle: SpecBundle, name: str) -> Claim:
    _require(name in bundle.claims, f"spec has no claim named {name!r}")
    return bundle.claims[name]


def _sample_claims(model: ScenarioModel, count: int = 100, seed: int = 7) -> list[Claim]:
    rng = np.random.default_rng(seed)
    return [Claim(rng.uniform(-1.0, 1.0, model.n)) for _ in range(count)]


# -- commands -----------------------------------------------------------------

def cmd_price(args) -> dict:
    bundle = load_spec(args.spec, args.tolerance)
    rs = _named_set(bundle)
    x = _named_claim(bundle, args.claim)
    try:
        stage = bundle.model.stage(args.stage)
    except OutOfRangeError as exc:
        raise SchemaError(str(exc)) from exc
    priced = rho(rs, x, stage)
    atoms = bundle.model.atoms(stage)
    return {
        "command": "price",
        "claim": args.claim,
        "stage": stage.label,
        "atoms": [bundle.model.atom_label(stage, a) for a in range(len(atoms))],
        "values": [float(priced.values[atom[0]]) for atom in atoms],
    }


def cmd_check(args) -> dict:
    bundle = load_spec(args.spec, args.tolerance)
    rs = _named_set(bundle)
    report = consistency_report(rs, _sample_claims(bundle.model))
    return {
        "command": "check",
        "stages": [s.label for s in bundle.model.stages],
        "lower": report.lower,
        "weak": report.weak,
        "strong": report.strong,
        "mstable": report.mstable,
        "gap": report.gap,
        "witness": None if report.witness is None else list(report.witness.values),
        "witness_stage": None if report.witness is None else "0",
        "notes": report.notes,
    }


def cmd_hull(args) -> dict:
    bundle = load_spec(args.spec, args.tolerance)
    rs = _named_set(bundle)
    hull = mstable_hull(rs)
    return {
        "command": "hull",
        "is_fixed_point": set_equal(rs, hull),
        "vertices": [list(v) for v in hull.vertices],
    }


def cmd_reserve(args) -> dict:
    bundle = load_spec(args.spec, args.tolerance)
    rs = _named_set(bundle)
    x = _named_claim(bundle, args.claim)
    plan = reserve_plan(Chain.single(rs), x)
    model = bundle.model
    incs = []
    for s, inc in zip(plan.stage_indices, plan.increments):
        incs.append({
            "stage": model.stages[s].label,
            "next_stage": model.stages[inc.stage].label,
            "values": list(inc.values),
        })
    return {
        "command": "reserve",
        "claim": args.claim,
        "premium": plan.premium,
        "time_consistent": plan.time_consistent,
        "warning": plan.warning,
        "increments": incs,
    }


def cmd_split(args) -> dict:
    bundle = load_spec(args.spec, args.tolerance)
    _require(bundle.market is not None,
             "split needs 'financial_partitions' in the spec")
    rs = _named_set(bundle)
    x = _named_claim(bundle, args.claim)
    plan = split_reserve(rs, bundle.market, x)
    fin = [{"time": t, "stage": f"{t}+", "values": list(inc.values)}
           for t, inc in enumerate(plan.fin_increments)]
    inter = [{"time": t, "stage": str(t + 1), "values": list(inc.values)}
             for t, inc in enumerate(plan.int_increments)]
    return {
        "command": "split",
        "claim": args.claim,
        "premium": plan.premium,
        "time_consistent": plan.time_consistent,
        "warning": plan.warning,
        "financial": fin,
        "intermediate": inter,
    }


def cmd_psi(args) -> dict:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    config = Config(tol=_tolerance(args.tolerance, doc))
    for key in ("financial_factor", "intermediate_factor"):
        _require(key in doc, f"psi spec is missing {key!r}")
    fin = _parse_model(doc["financial_factor"], config)
    inter = _parse_model(doc["intermediate_factor"], config)
    pm = product_space(fin, inter)
    sets = doc.get("risk_sets", {})
    _require("Pi" in sets, "psi spec must define risk set 'Pi' on the financial factor")
    _require("Phi" in sets, "psi spec must define risk set 'Phi' on the product space")
    pi = _parse_risk_set(sets["Pi"], fin)
    phi = _parse_risk_set(sets["Phi"], pm.model)
    q = psi_build(pi, phi, pm)
    claims = [Claim(_numbers(v, f"claim {name!r}")) for name, v in doc.get("claims", {}).items()]
    claims += _sample_claims(pm.model, count=20)
    report = psi_verify(pi, phi, pm, q, claims)
    return {
        "command": "psi",
        "outcomes": pm.model.outcomes,
        "vertices": [list(v) for v in q.vertices],
        "verification": report,
    }


def cmd_example6(args) -> dict:
    eps = args.epsilon
    _require(0 < eps < 1, "--epsilon must lie strictly between 0 and 1")
    tol = _tolerance(args.tolerance, {})
    model = twobytwo.build_model()
    rs = twobytwo.pricing_set(model, eps)
    checks = []

    def diff_check(name, value):
        checks.append({"name": name, "max_diff": float(value), "pass": bool(value <= tol)})

    def bool_check(name, ok):
        checks.append({"name": name, "max_diff": 0.0 if ok else 1.0, "pass": bool(ok)})

    verts = vertex_enumeration(rs).vertices
    formula = twobytwo.extreme_points(eps)
    if len(verts) == len(formula):
        d = max(min(float(np.max(np.abs(v - f))) for v in verts) for f in formula)
    else:
        d = 1.0
    diff_check("extreme_points", d)

    worst = 0.0
    for x in (-2.0, -1.0, 0.0, 1.0, 2.5):
        payoff = Claim(np.array([x, 0.0, 0.0, 0.0]))
        got = rho(rs, payoff, "0+").values
        want = twobytwo.indicator_price(x, eps)
        worst = max(worst, abs(got[0] - want), abs(got[1] - 0.0))
    diff_check("single_outcome_half_step_price", worst)

    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, 4)
        got = rho(rs, Claim(x), "0+").values
        want = twobytwo.half_step_price(x, eps)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    diff_check("half_step_price", worst)

    worst = 0.0
    for _ in range(100):
        col = rng.uniform(-2.0, 2.0, 2)
        x = np.array([col[0], col[1], col[0], col[1]])
        got = float(rho(rs, Claim(x), "0").values[0])
        want = 0.5 * (col[0] + col[1])
        worst = max(worst, abs(got - want))
    diff_check("time0_price_is_expectation", worst)

    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, 4)
        got = float(rho(rs, Claim(x), "0").values[0])
        worst = max(worst, abs(got - twobytwo.time0_price(x, eps)))
    diff_check("time0_price", worst)

    mm = twobytwo.market_model()
    rs_mm = RiskSet.from_constraints(mm.model, twobytwo.pricing_constraints(eps))
    qf_set = qf(rs_mm, mm)
    qi_set = qi(rs_mm, mm)
    bool_check("financial_part", set_equal(
        qf_set, RiskSet.from_vertices(mm.model, twobytwo.fin_part_vertices())))
    bool_check("intermediate_part", set_equal(
        qi_set, RiskSet.from_vertices(mm.model, twobytwo.int_part_vertices(eps))))
    bool_check("intersection_recovers_set", set_equal(
        vertex_enumeration(intersect(qf_set, qi_set)), rs_mm))
    bool_check("pasting_stable", is_mstable(rs_mm))

    ok = all(c["pass"] for c in checks)
    return {
        "command": "example6",
        "epsilon": eps,
        "tolerance": tol,
        "checks": checks,
        "pass": ok,
        "_exit": 0 if ok else 1,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskchain",
        description="Scenario-tree engine for multi-period coherent risk measures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_claim=False, needs_stage=False, needs_spec=True):
        p = sub.add_parser(name, help=help_text)
        if needs_spec:
            p.add_argument("--spec", required=True, help="path to the JSON market spec")
        if needs_claim:
            p.add_argument("--claim", required=True, help="name of a claim in the spec")
        if needs_stage:
            p.add_argument("--stage", required=True, help="stage label, e.g. 0, 0+ or 1")
        p.add_argument("--tolerance", type=float, default=None,
                       help="comparison tolerance override")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.set_defaults(func=func)
        return p

    add("price", cmd_price, "atomwise worst-case price of a claim at a stage",
        needs_claim=True, needs_stage=True)
    add("check", cmd_check, "time-consistency report for the set named Q")
    add("hull", cmd_hull, "pasting hull vertices of the set named Q")
    add("split", cmd_split, "financial/intermediate reserve plan for a claim",
        needs_claim=True)
    add("reserve", cmd_reserve, "reserve plan for a claim", needs_claim=True)
    add("psi", cmd_psi, "build a product-space pricing set from Pi and Phi")
    p6 = add("example6", cmd_example6,
             "regenerate the bundled 2x2 worked market and diff the closed forms",
             needs_spec=False)
    p6.add_argument("--epsilon", type=float, required=True, help="spread parameter in (0,1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", "-")
    try:
        payload = args.func(args)
        code = payload.pop("_exit", 0)
        text = _render(payload)
    except (json.JSONDecodeError, OSError) as exc:
        _emit({"error": {"code": "SCHEMA", "message": str(exc), "details": {}}}, out)
        return 2
    except SchemaError as exc:
        _emit({"error": exc.to_dict()}, out)
        return 2
    except ModelError as exc:
        _emit({"error": exc.to_dict()}, out)
        return 3
    except SizeBoundError as exc:
        _emit({"error": exc.to_dict()}, out)
        return 5
    except EngineError as exc:
        _emit({"error": exc.to_dict()}, out)
        return 4
    _write(text, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
