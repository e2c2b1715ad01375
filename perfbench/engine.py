"""In-process workloads: seeded inputs, the timed operation, output checks.

Each workload is a pool of items.  ``op(item)`` is one closed-loop request
and is the only code inside the timed region.  ``check(item, result)`` runs
after the timed phase and returns a list of problems; an empty list means
the output is right.  Classes are ``(n outcomes, stages, shape variant,
vertex count)``; why each mix looks the way it does is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import riskchain as rc

import gen

TOL = rc.DEFAULT.tol

# (n, stages, shape variant, vertices, copies).  Percentiles are taken at a
# fixed rank of the pool, so each one sits inside a cluster of items of one
# cost: p50 among the 12x4 sets (32 hull vertices), p90 among the 16-outcome
# sets with 144 hull vertices.  Hull vertex counts repeat exactly across
# seeds for a shape; they run from 2 to 216.
HULL_CLASSES = [
    (4, 3, 0, 2, 4), (8, 3, 0, 2, 4), (12, 3, 0, 3, 4), (16, 3, 0, 2, 4),
    (16, 4, 1, 2, 4), (4, 4, 0, 3, 4),
    (12, 4, 0, 2, 12),
    (12, 5, 4, 3, 4), (8, 5, 0, 3, 4), (12, 4, 3, 3, 3),
    (16, 5, 5, 3, 5), (16, 4, 4, 3, 5),
    (16, 5, 1, 3, 3),
]
HULL_SAMPLE = 20

# (n, stages, shape variant, vertices, constraint-only, claims).  A third of
# the ops price a constraint-only set (the facet H-rep of a V-set, LP route),
# so p50 falls among the 12x6 vertex-route ops and p90 among the 12x9 LP ops.
PRICE_SETS = [
    (4, 3, 0, 2, False, 10), (8, 3, 0, 3, False, 10), (12, 3, 0, 2, False, 10),
    (16, 3, 0, 3, False, 6), (4, 6, 0, 3, False, 6), (12, 6, 0, 3, False, 12),
    (8, 9, 0, 3, False, 10),
    (8, 6, 0, 2, True, 9), (4, 9, 0, 3, True, 8), (12, 9, 0, 2, True, 10),
    (16, 9, 0, 3, True, 5),
]

# (n, horizon, shape variant, vertices, copies) on refined market grids.
# Op cost varies with the drawn vertices here, so the percentile clusters use
# the classes whose cost varies least: p50 among the 5-outcome one-period
# markets, p90 among the 7-outcome ones with two vertices.
MARKET_CLASSES = [
    (4, 1, 0, 2, 6), (4, 2, 0, 3, 8),
    (5, 1, 0, 3, 12),
    (6, 1, 0, 3, 3), (7, 1, 3, 3, 2), (8, 2, 0, 2, 3),
    (7, 1, 0, 2, 12),
]
# (financial outcomes, intermediate outcomes, Phi vertices, copies).
PSI_CLASSES = [(2, 2, 2, 6), (2, 3, 2, 4), (3, 2, 3, 2), (3, 3, 2, 2)]
PSI_CLAIMS = 4


@dataclass
class Item:
    kind: str
    label: str
    data: dict
    ref: dict = field(default_factory=dict)   # lazily built check reference


def _model(rng, n, n_stages, variant):
    parts, fins = gen.relabel(rng, *gen.shape(n, n_stages, variant))
    grid = [str(t) for t in range(n_stages)]
    return parts, fins, grid, gen.reference(rng, n)


def _build_model(d) -> rc.ScenarioModel:
    return rc.ScenarioModel([f"w{i}" for i in range(len(d["reference"]))], d["grid"],
                            d["partitions"], d["reference"])


class Workload:
    name = ""
    rss_scope = "self"      # the engine runs in this process

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.items: list[Item] = []

    def warm_up(self):
        """One op per item kind, on its first item, so first-call costs
        (lazy imports inside scipy) are paid before timing."""
        seen = set()
        for item in self.items:
            if item.kind not in seen:
                seen.add(item.kind)
                self.op(item)

    def trace_begin(self, tracer):
        tracer.install()

    def trace_end(self, tracer):
        tracer.uninstall()

    def op(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result) -> list[str]:
        raise NotImplementedError


class Hull(Workload):
    """consistency_report on random V-sets: pasting, kernels, NNLS."""

    name = "hull"

    def __init__(self, seed: int):
        super().__init__(seed)
        for n, st, var, k, copies in HULL_CLASSES:
            for c in range(copies):
                parts, _, grid, ref = _model(self.rng, n, st, var)
                self.items.append(Item("report", f"{n}x{st}.{var}k{k}#{c}", {
                    "partitions": parts, "grid": grid, "reference": ref,
                    "vertices": gen.vertices(self.rng, n, k),
                    "sample": gen.claim_values(self.rng, n, HULL_SAMPLE)}))

    def _set(self, d) -> rc.RiskSet:
        return rc.RiskSet.from_vertices(_build_model(d), d["vertices"])

    def op(self, item):
        d = item.data
        return rc.consistency_report(self._set(d), [rc.Claim(v) for v in d["sample"]])

    def check(self, item, report):
        if not item.ref:
            rs = self._set(item.data)
            hull = rc.mstable_hull(rs)
            item.ref.update(includes=rc.includes(hull, rs), mstable=rc.set_equal(rs, hull))
        problems = []
        if not item.ref["includes"]:
            problems.append("hull does not include the input set")
        if report.mstable != item.ref["mstable"]:
            problems.append("mstable verdict differs from set_equal(rs, hull)")
        return problems


class Price(Workload):
    """eta + is_acceptable (+ decompose_acceptance on V-sets) on persistent
    sets; constraint-only sets take the LP route."""

    name = "price"

    def __init__(self, seed: int):
        super().__init__(seed)
        for n, st, var, k, h_only, n_claims in PRICE_SETS:
            parts, _, grid, ref = _model(self.rng, n, st, var)
            d = {"partitions": parts, "grid": grid, "reference": ref}
            vset = rc.RiskSet.from_vertices(_build_model(d), gen.vertices(self.rng, n, k))
            if h_only:
                # a fresh model object, so the H-set shares no cached state
                rs = rc.RiskSet.from_constraints(_build_model(d), vset.constraints)
            else:
                rs = vset
            kind = "lp" if h_only else "vertex"
            for ci, values in enumerate(gen.claim_values(self.rng, n, n_claims)):
                self.items.append(Item(kind, f"{n}x{st}k{k}{kind}#{ci}", {
                    "set": rs, "vset": vset, "claim": values}))

    def warm_up(self):
        """Touch every set once, so per-set lazy state is built before timing."""
        seen = set()
        for item in self.items:
            if id(item.data["set"]) not in seen:
                seen.add(id(item.data["set"]))
                self.op(item)

    def op(self, item):
        rs = item.data["set"]
        x = rc.Claim(item.data["claim"])
        process = rc.eta(rc.Chain.single(rs), x)
        premium = float(process.claims[0].values[0])
        shifted = rc.Claim(x.values - premium)
        acceptable = rc.is_acceptable(rs, shifted)
        parts = rc.decompose_acceptance(rs, shifted) if item.kind == "vertex" else None
        return process, premium, acceptable, parts

    def check(self, item, result):
        process, premium, acceptable, parts = result
        problems = []
        if item.kind == "lp":
            if not item.ref:
                vproc = rc.eta(rc.Chain.single(item.data["vset"]), rc.Claim(item.data["claim"]))
                item.ref["eta"] = [c.values for c in vproc.claims]
            dev = max(float(np.max(np.abs(a.values - b)))
                      for a, b in zip(process.claims, item.ref["eta"]))
            if dev > TOL:
                problems.append(f"eta on the H-set differs from the V-set by {dev:.3g}")
        if not acceptable:
            problems.append("claim minus its premium is not acceptable")
        if parts is not None:
            total = sum(p.values for p in parts)
            want = np.asarray(item.data["claim"]) - premium
            if float(np.max(np.abs(total - want))) > TOL:
                problems.append("decomposition does not sum to the claim")
        return problems


class Market(Workload):
    """check_fi + split_reserve on refined markets, psi_build + psi_verify on
    product spaces: H<->V conversion rather than pasting."""

    name = "market"

    def __init__(self, seed: int):
        super().__init__(seed)
        for n, horizon, var, k, copies in MARKET_CLASSES:
            for c in range(copies):
                parts, fins, grid, ref = _model(self.rng, n, horizon + 1, var)
                self.items.append(Item("fi", f"{n}h{horizon}.{var}k{k}#{c}", {
                    "partitions": parts, "fins": fins, "grid": grid, "reference": ref,
                    "vertices": gen.vertices(self.rng, n, k),
                    "claim": gen.claim_values(self.rng, n, 1)[0]}))
        for nf, ni, k, copies in PSI_CLASSES:
            for c in range(copies):
                n = nf * ni
                self.items.append(Item("psi", f"psi{nf}x{ni}k{k}#{c}", {
                    "fin": gen.reference(self.rng, nf), "inter": gen.reference(self.rng, ni),
                    "pi": gen.vertices(self.rng, nf, 2),
                    "phi": gen.vertices(self.rng, n, k),
                    "claims": gen.claim_values(self.rng, n, PSI_CLAIMS)}))

    @staticmethod
    def _factor(prefix, ref):
        n = len(ref)
        return rc.ScenarioModel([f"{prefix}{i}" for i in range(n)], ["0", "1"],
                             [[list(range(n))], [[w] for w in range(n)]], ref)

    def op(self, item):
        d = item.data
        if item.kind == "fi":
            mm = rc.build_refined(_build_model(d), d["fins"])
            rs = rc.RiskSet.from_vertices(mm.model, d["vertices"])
            return mm, rc.check_fi(rs, mm), rc.split_reserve(rs, mm, rc.Claim(d["claim"]))
        pm = rc.product_space(self._factor("f", d["fin"]), self._factor("i", d["inter"]))
        pi = rc.RiskSet.from_vertices(pm.fin, d["pi"])
        phi = rc.RiskSet.from_vertices(pm.model, d["phi"])
        q = rc.psi_build(pi, phi, pm)
        return rc.psi_verify(pi, phi, pm, q, [rc.Claim(v) for v in d["claims"]])

    def check(self, item, result):
        if item.kind == "fi":
            mm, report, plan = result
            problems = [] if report.parts_agree else ["FiReport.parts_agree is false"]
            dev = float(np.max(np.abs(plan.total(mm.model) - item.data["claim"])))
            if dev > TOL:
                problems.append(f"split plan misses the claim by {dev:.3g}")
            return problems
        return [f"psi_verify flag {k} is false"
                for k, v in result.items() if isinstance(v, bool) and not v]


WORKLOADS = {w.name: w for w in (Hull, Price, Market)}
