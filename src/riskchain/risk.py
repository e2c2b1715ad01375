"""Conditional coherent risk evaluation and reserving.

``rho`` evaluates the worst-case conditional price per atom, ``eta`` composes
one set's ``rho`` backward over every date into the minimal dominating
time-consistent chain, and reserve plans telescope a claim into a premium
plus per-period acceptable increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EngineError, InfeasibleError, NotMeasurableError, SchemaError
from .riskset import RiskSet, maximize_ratio
from .scenario import Claim, ScenarioModel, atom_masses


def rho(rs: RiskSet, claim: Claim, stage) -> Claim:
    """Worst-case conditional price of a claim at a stage, atom by atom.

    ``claim.values`` is one claim ``(n,)`` or a stack of claims ``(m, n)``,
    one per row; each row is priced exactly as it would be alone.  At the
    final stage this is the identity.  A set with vertices prices from its
    cached per-stage blocks (``maximize_ratio``'s vertex route, with the same
    arithmetic): each row's values on an atom are copied next to each other,
    so every row and atom is one matrix-vector product of the atom's block;
    the ratios are divided by the masses and maximized per atom for all rows
    at once.  A constraint-only set takes the LP route, row by row, which
    needs no solver call on a one-outcome atom once the set is known to
    charge it (``maximize_ratio``).
    """
    model = rs.model
    st = model.stage(stage)
    x = np.asarray(claim.values, dtype=float)
    if st.index == model.final_stage.index:
        return Claim(x.copy(), st.index)
    X = x.reshape(-1, model.n)
    if rs.has_vertices:
        cols, blocks, masses, starts, ids = rs._atom_blocks(st.index)
        Xc = X.take(cols, axis=1)[:, :, None]
        vals = np.concatenate([block @ Xc[:, a:e] for a, e, block in blocks], axis=1)
        out = np.maximum.reduceat(vals[..., 0] / masses, starts, axis=1).take(ids, axis=1)
    else:
        out = np.empty(X.shape)
        for row, xr in zip(out, X):
            for atom in model.atoms(st):
                row[list(atom)] = maximize_ratio(rs, xr, atom)
    return Claim(out.reshape(x.shape), st.index)


@dataclass(frozen=True)
class Chain:
    """One pricing set, used at every date before the final stage (which
    always prices by identity)."""

    rs: RiskSet

    @classmethod
    def single(cls, rs: RiskSet) -> "Chain":
        """``rs`` at every date before the final stage."""
        return cls(rs)


@dataclass(frozen=True, slots=True)
class AdaptedProcess:
    """One claim per date (each measurable there), e.g. the eta recursion."""

    stage_indices: tuple[int, ...]
    claims: tuple[Claim, ...]

    def at(self, stage_index: int) -> Claim:
        return self.claims[self.stage_indices.index(stage_index)]


def eta(chain: Chain, claim: Claim) -> AdaptedProcess:
    """Backward composition of the chain, the minimal dominating
    time-consistent price process: identity at the end, then one ``rho`` per
    earlier date."""
    rs = chain.rs
    final = rs.model.final_stage.index
    current = Claim(np.asarray(claim.values, dtype=float).copy(), final)
    claims = [current]
    for s in range(final - 1, -1, -1):
        current = rho(rs, current, s)
        claims.append(current)
    return AdaptedProcess(tuple(range(final + 1)), tuple(reversed(claims)))


def is_acceptable(rs: RiskSet, claim: Claim) -> bool:
    """True when the time-0 price of the claim is at most zero (one-sided)."""
    return float(rho(rs, claim, 0).values[0]) <= rs.model.config.tol


def cone_member(rs: RiskSet, claim: Claim, s, s_next) -> bool:
    """Membership of the one-period trading cone at (s, s_next).

    Requires measurability at ``s_next`` (violations raise NOT_MEASURABLE,
    distinct from a mere risk violation) and nonpositive stage-``s`` price on
    every atom.
    """
    model = rs.model
    st_s, st_n = model.stage(s), model.stage(s_next)
    if st_n.index <= st_s.index:
        raise SchemaError("cone stages must be ordered")
    if not model.is_measurable(claim.values, st_n):
        raise NotMeasurableError(
            f"claim is not measurable at stage {st_n.label}", stage=st_n.label)
    return bool(np.all(rho(rs, claim, st_s).values <= model.config.tol))


def decompose_acceptance(rs: RiskSet, claim: Claim) -> list[Claim]:
    """Split a claim into per-period cone increments summing to it.

    Solves the feasibility LP: one increment per adjacent stage pair,
    measurable at the later stage, with every vertex expectation nonpositive
    on every earlier-stage atom (which linearizes the vertex-max price
    exactly).  Raises INFEASIBLE when no split exists; with an acceptable
    input that is the witness that the chain is not time-consistent.
    """
    from scipy.optimize import linprog

    model = rs.model
    x = np.asarray(claim.values, dtype=float)
    V = rs.vertices
    n_stages = len(model.stages)
    if n_stages < 2:
        raise SchemaError("need at least two stages to decompose")

    # increment s has one variable per stage-(s+1) atom, in block s
    steps = range(n_stages - 1)
    ids = [model.atom_ids(s + 1) for s in steps]
    sizes = [len(model.atoms(s + 1)) for s in steps]
    offsets = np.cumsum([0] + sizes)
    n_var = int(offsets[-1])

    # sum of increments reproduces the claim outcome by outcome
    A_eq = np.hstack([np.eye(k)[i] for k, i in zip(sizes, ids)])
    b_eq = x

    # every vertex expectation of increment s is nonpositive on every stage-s atom
    blocks = [atom_masses(model, V, s, s + 1) for s in steps]
    A_ub = np.zeros((sum(len(b) for b in blocks), n_var))
    r = 0
    for s, b in enumerate(blocks):
        A_ub[r:r + len(b), offsets[s]:offsets[s + 1]] = b
        r += len(b)
    b_ub = np.zeros(len(A_ub))

    res = linprog(np.zeros(n_var), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * n_var, method="highs")
    if res.status == 2:
        raise InfeasibleError("claim admits no acceptance decomposition")
    if res.status != 0:
        raise EngineError(f"decomposition LP failed with status {res.status}")

    return [Claim(res.x[offsets[s] + ids[s]], s + 1) for s in steps]


@dataclass(frozen=True, slots=True)
class ReservePlan:
    """Premium plus adapted acceptable increments telescoping to the claim."""

    premium: float
    stage_indices: tuple[int, ...]  # increment u_s is measurable at the next stage
    increments: tuple[Claim, ...]
    time_consistent: bool
    warning: Optional[str] = None

    def total(self, model: ScenarioModel) -> np.ndarray:
        out = np.full(model.n, self.premium)
        for inc in self.increments:
            out = out + inc.values
        return out


def reserve_plan(chain: Chain, claim: Claim,
                 time_consistent: Optional[bool] = None) -> ReservePlan:
    """Mark-to-market reserve schedule built from the eta recursion.

    The premium is the time-0 eta price and each increment is one eta
    difference, so the plan telescopes exactly and every increment prices to
    zero at its own date.  For chains that are not time-consistent the eta
    prices dominate the chain's own, and a warning records that the plan is
    the conservative repair.  ``time_consistent`` defaults to ``is_mstable``
    of the chain's set.
    """
    if time_consistent is None:
        from .consistency import is_mstable
        time_consistent = is_mstable(chain.rs)
    process = eta(chain, claim)
    premium = float(process.claims[0].values[0])
    stages = []
    incs = []
    for pos in range(len(process.stage_indices) - 1):
        diff = process.claims[pos + 1].values - process.claims[pos].values
        stages.append(process.stage_indices[pos])
        incs.append(Claim(diff, process.stage_indices[pos + 1]))
    warning = None
    if not time_consistent:
        warning = ("chain is not time-consistent; plan uses the minimal "
                   "dominating prices, premium may exceed the quoted price")
    return ReservePlan(premium, tuple(stages), tuple(incs), time_consistent, warning)
