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
    NotCoarserError,
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
from .riskset import RiskSet, intersect, set_equal
from .scenario import Claim, ScenarioModel

SPEC_VERSION = "1"
# the exit code of an engine error: that of the first class here it belongs to
_EXIT_CODES = ((SchemaError, 2), ((ModelError, NotCoarserError), 3), (SizeBoundError, 5),
               (EngineError, 4))


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


def _require(cond, message):
    if not cond:
        raise SchemaError(message)


def _no_booleans(values) -> bool:
    """True when no JSON boolean sits anywhere in ``values``."""
    if isinstance(values, list):
        return all(_no_booleans(v) for v in values)
    return not isinstance(values, bool)


def _numbers(values, what: str) -> np.ndarray:
    """Spec numbers as a float array; booleans (which numpy would read as 0
    and 1) and non-numeric or non-finite values are schema errors."""
    _require(_no_booleans(values), f"{what} must hold numbers, not booleans")
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must hold numbers") from exc
    _require(np.isfinite(arr).all(), f"{what} must hold finite numbers")
    return arr


def _config(override: Optional[float], doc: dict) -> Config:
    """The configuration the tolerance override, or else the spec's
    ``tolerance``, sets; ``Config`` refuses a tolerance below ``MIN_TOL``."""
    tol = override if override is not None else doc.get("tolerance", 1e-9)
    arr = _numbers(tol, "'tolerance'")
    _require(arr.shape == (), "'tolerance' must be a number")
    return Config(tol=float(arr))


@dataclass
class SpecBundle:
    model: ScenarioModel
    market: Optional[MarketModel]
    risk_sets: dict
    claims: dict


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
    return ScenarioModel(doc["outcomes"], grid, parts, doc["reference"], config=config)


def _parse_risk_set(fragment: dict, model: ScenarioModel) -> RiskSet:
    _require(isinstance(fragment, dict), "risk set fragment must be an object")
    vertices = fragment.get("vertices")
    raw_cons = fragment.get("constraints")
    _require((vertices is None) != (raw_cons is None),
             "risk set needs exactly one of vertices and constraints")
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
                cons.append(np.r_[a, b])
            elif op == ">=":
                cons.append(np.r_[-a, -b])
            else:
                raise SchemaError(f"unsupported constraint op {op!r}; "
                                  "express equalities as two inequalities")
    return RiskSet(model, vertices=vertices, constraints=cons)


def _read_spec(path: str, tolerance: Optional[float]) -> tuple[dict, Config]:
    """The spec document, checked to be a JSON object of a supported version,
    and the model configuration its tolerance (or the override) sets."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    if "version" in doc:
        _require(str(doc["version"]) == SPEC_VERSION,
                 f"unsupported spec version {doc['version']!r}")
    return doc, _config(tolerance, doc)


def _parse_claims(doc: dict, n: int) -> dict:
    """The spec's named claims, each a list of ``n`` finite numbers."""
    _require(isinstance(doc.get("claims", {}), dict), "claims must be an object")
    claims = {}
    for name, values in doc.get("claims", {}).items():
        _require(isinstance(values, list), f"claim {name!r} must be a list")
        v = _numbers(values, f"claim {name!r}")
        _require(v.shape == (n,), f"claim {name!r} length must match outcomes")
        claims[str(name)] = Claim(v)
    return claims


def load_spec(path: str, tolerance: Optional[float] = None) -> SpecBundle:
    doc, config = _read_spec(path, tolerance)
    model = _parse_model(doc, config)
    market = None
    if "financial_partitions" in doc:
        raw = doc["financial_partitions"]
        _require(isinstance(raw, dict),
                 "financial_partitions must map whole times to partitions")
        market = build_refined(model, raw)
        model = market.model
    _require(isinstance(doc.get("risk_sets", {}), dict), "risk_sets must be an object")
    risk_sets = {str(name): _parse_risk_set(frag, model)
                 for name, frag in doc.get("risk_sets", {}).items()}
    return SpecBundle(model, market, risk_sets, _parse_claims(doc, model.n))


def _named_set(bundle: SpecBundle) -> RiskSet:
    """The spec set ``Q``, its vertices read first, so every command prices
    it by its vertices (an empty or too large H-set is refused here)."""
    _require("Q" in bundle.risk_sets, "spec must define a risk set named 'Q'")
    rs = bundle.risk_sets["Q"]
    rs.vertices
    return rs


def _named_claim(bundle: SpecBundle, name: str) -> Claim:
    _require(name in bundle.claims, f"spec has no claim named {name!r}")
    return bundle.claims[name]


def _sample_claims(model: ScenarioModel, count: int) -> list[Claim]:
    rng = np.random.default_rng(7)
    return [Claim(rng.uniform(-1.0, 1.0, model.n)) for _ in range(count)]


# -- commands -----------------------------------------------------------------

def cmd_price(args) -> dict:
    """The claim's worst-case price on each atom of the stage: the maximum
    over the vertices of ``Q``, which ``_named_set`` enumerates first for a
    constraint-given ``Q``, so no LP runs."""
    bundle = load_spec(args.spec, args.tolerance)
    x = _named_claim(bundle, args.claim)
    try:
        stage = bundle.model.stage(args.stage)
    except OutOfRangeError as exc:
        raise SchemaError(str(exc)) from exc
    rs = _named_set(bundle)
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
    report = consistency_report(rs, _sample_claims(bundle.model, 100))
    gap = report.witness_gap if report.witness is not None else report.max_sampled_gap
    return {
        "command": "check",
        "stages": [s.label for s in bundle.model.stages],
        # lower and weak time consistency hold by definition for one set
        "lower": True,
        "weak": True,
        "strong": report.strong,
        "mstable": report.mstable,
        "gap": gap,
        "witness": None if report.witness is None else list(report.witness.values),
        "witness_stage": None if report.witness is None else "0",
        "notes": {"strong": report.note} if report.note else {},
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
    x = _named_claim(bundle, args.claim)
    rs = _named_set(bundle)
    plan = reserve_plan(Chain.single(rs), x)
    model = bundle.model
    incs = []
    for inc in plan.increments:
        incs.append({
            "stage": model.stages[inc.stage - 1].label,
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
    x = _named_claim(bundle, args.claim)
    rs = _named_set(bundle)
    plan = split_reserve(rs, bundle.market, x)
    model = bundle.model
    fin = [{"time": t, "stage": model.stages[inc.stage].label, "values": list(inc.values)}
           for t, inc in enumerate(plan.fin_increments)]
    inter = [{"time": t, "stage": model.stages[inc.stage].label, "values": list(inc.values)}
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
    doc, config = _read_spec(args.spec, args.tolerance)
    for key in ("financial_factor", "intermediate_factor"):
        _require(key in doc, f"psi spec is missing {key!r}")
    fin = _parse_model(doc["financial_factor"], config)
    inter = _parse_model(doc["intermediate_factor"], config)
    pm = product_space(fin, inter)
    claims = list(_parse_claims(doc, pm.model.n).values())
    sets = doc.get("risk_sets", {})
    _require("Pi" in sets, "psi spec must define risk set 'Pi' on the financial factor")
    _require("Phi" in sets, "psi spec must define risk set 'Phi' on the product space")
    pi = _parse_risk_set(sets["Pi"], fin)
    phi = _parse_risk_set(sets["Phi"], pm.model)
    q = psi_build(pi, phi, pm)
    claims += _sample_claims(pm.model, 20)
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
    tol = _config(args.tolerance, {}).tol
    mm = twobytwo.market_model()
    rs = twobytwo.pricing_set(mm.model, eps)
    checks = []

    def diff_check(name, value):
        checks.append({"name": name, "max_diff": float(value), "pass": bool(value <= tol)})

    def bool_check(name, ok):
        checks.append({"name": name, "max_diff": 0.0 if ok else 1.0, "pass": bool(ok)})

    verts = rs.vertices
    formula = twobytwo.extreme_points(eps)
    if len(verts) == len(formula):
        d = max(min(float(np.max(np.abs(v - f))) for v in verts) for f in formula)
    else:
        d = 1.0
    diff_check("extreme_points", d)

    # each check prices its samples in one stacked call, which prices every
    # row as it would alone
    xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.5])
    payoffs = np.zeros((len(xs), 4))
    payoffs[:, 0] = xs
    got = rho(rs, Claim(payoffs), "0+").values
    diff_check("single_outcome_half_step_price",
               max(np.abs(got[:, 0] - twobytwo.indicator_price(xs, eps)).max(),
                   np.abs(got[:, 1]).max()))

    rng = np.random.default_rng(1000)
    x = rng.uniform(-2.0, 2.0, (100, 4))
    got = rho(rs, Claim(x), "0+").values
    diff_check("half_step_price", np.abs(got[:, :2] - twobytwo.half_step_price(x, eps)).max())

    col = rng.uniform(-2.0, 2.0, (100, 2))
    got = rho(rs, Claim(np.tile(col, 2)), "0").values[:, 0]
    diff_check("time0_price_is_expectation", np.abs(got - 0.5 * (col[:, 0] + col[:, 1])).max())

    x = rng.uniform(-2.0, 2.0, (100, 4))
    got = rho(rs, Claim(x), "0").values[:, 0]
    diff_check("time0_price", np.abs(got - twobytwo.time0_price(x, eps)).max())

    qf_set = qf(rs, mm)
    qi_set = qi(rs, mm)
    bool_check("financial_part", set_equal(
        qf_set, RiskSet.from_vertices(mm.model, twobytwo.fin_part_vertices())))
    bool_check("intermediate_part", set_equal(
        qi_set, RiskSet.from_vertices(mm.model, twobytwo.int_part_vertices(eps))))
    bool_check("intersection_recovers_set", set_equal(
        intersect(qf_set, qi_set), rs))
    bool_check("pasting_stable", is_mstable(rs))

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
        _write(_render({"error": {"code": "SCHEMA", "message": str(exc), "details": {}}}), out)
        return 2
    except EngineError as exc:
        _write(_render({"error": exc.to_dict()}), out)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    _write(text, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
