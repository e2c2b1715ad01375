"""Conditional coherent risk evaluation and reserving.

``rho`` evaluates the worst-case conditional price per atom, ``eta`` composes
one set's ``rho`` backward over every date into the minimal dominating
time-consistent chain, and reserve plans telescope a claim into a premium
plus per-period acceptable increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import EmptyKernelError, InfeasibleError, NotMeasurableError, SchemaError
from .riskset import RiskSet, _uncharged, maximize_ratio
from .scenario import Claim, ScenarioModel, _outcome_vector


def rho(rs: RiskSet, claim: Claim, stage) -> Claim:
    """Worst-case conditional price of a claim at a stage, atom by atom.

    ``claim.values`` is one claim ``(n,)`` or a stack of claims ``(m, n)``,
    one per row, and any other shape is a SCHEMA error; each row is priced
    exactly as it would be alone.  At the final stage this is the identity.
    A set with vertices maximizes, on each atom and for all rows at once, its
    charged vertices' expectations from the cached blocks (``_atom_means``;
    ``maximize_ratio``'s vertex route, with the same arithmetic).  A
    constraint-only set takes the LP route, row by row, which needs no solver
    call on a one-outcome atom once the set is known to charge it
    (``maximize_ratio``).  An atom that no measure of the set charges raises
    EMPTY_KERNEL, named by its id and stage on either route.
    """
    return _rho(rs, claim, stage, fill=False)


def _claim_values(claim: Claim, n: int) -> np.ndarray:
    """The claim's values as floats: one claim ``(n,)`` or a stack ``(m, n)``;
    any other shape is a SCHEMA error."""
    x = np.asarray(claim.values, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise SchemaError(f"claim values have shape {x.shape}, expected ({n},) or (m, {n})")
    return x


def _finite_claim(claim: Claim, n: int) -> np.ndarray:
    """One ``(n,)`` claim of finite values as floats, else a SCHEMA error."""
    x = _outcome_vector(claim.values, n, "claim")
    if not np.isfinite(x).all():
        raise SchemaError("claim values must be finite")
    return x


def _atom_means(rs: RiskSet, X: np.ndarray, stage: int) -> np.ndarray:
    """Per row of ``X`` ``(m, n)``, each charged vertex's expectation on its atom
    of the stage, ``block @ x[cols[a:e]] / mass``, by ``_atom_blocks``' masses."""
    cols, blocks, masses = rs._atom_blocks(stage)[:3]
    Xc = X.take(cols, axis=1)[:, :, None]
    vals = np.concatenate([block @ Xc[:, a:e] for a, e, block in blocks], axis=1)
    return vals[..., 0] / masses


def _rho(rs: RiskSet, claim: Claim, stage, fill: bool) -> Claim:
    """``rho``; with ``fill`` a vertex-route atom that no vertex charges
    prices to zero instead of raising."""
    model = rs.model
    st = model.stage(stage)
    x = _claim_values(claim, model.n)
    if st.index == model.final_stage.index:
        return Claim(x.copy(), st.index)
    X = x.reshape(-1, model.n)
    if rs.has_vertices:
        if not fill:
            rs._refuse_uncharged([st.index])
        starts, ids = rs._atom_blocks(st.index)[3:5]
        out = np.maximum.reduceat(_atom_means(rs, X, st.index), starts, axis=1).take(ids, axis=1)
    else:
        out = np.empty(X.shape)
        for row, xr in zip(out, X):
            for a, atom in enumerate(model.atoms(st)):
                try:
                    row[list(atom)] = maximize_ratio(rs, xr, atom)
                except EmptyKernelError:
                    raise _uncharged(st.label, a) from None
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
    """One claim per date, in date order, each measurable at its ``stage``,
    e.g. the eta recursion."""

    claims: tuple[Claim, ...]


def eta(chain: Chain, claim: Claim) -> AdaptedProcess:
    """Backward composition of the chain, the minimal dominating
    time-consistent price process: identity at the end, then one ``rho`` per
    earlier date."""
    return _eta(chain.rs, claim, rho)


def _eta(rs: RiskSet, claim: Claim, price) -> AdaptedProcess:
    """``eta`` of ``Chain.single(rs)``, each date priced by ``price``, which
    is ``rho`` or a variant of it."""
    final = rs.model.final_stage.index
    current = Claim(_claim_values(claim, rs.model.n).copy(), final)
    claims = [current]
    for s in range(final - 1, -1, -1):
        current = price(rs, current, s)
        claims.append(current)
    return AdaptedProcess(tuple(reversed(claims)))


def _increments(process: AdaptedProcess) -> list[Claim]:
    """The differences of consecutive prices, each measurable at its later
    date."""
    c = process.claims
    return [Claim(b.values - a.values, b.stage) for a, b in zip(c, c[1:])]


def is_acceptable(rs: RiskSet, claim: Claim) -> bool:
    """True when the claim's time-0 price is at most zero (one-sided) at its scale."""
    x = _outcome_vector(claim.values, rs.model.n, "claim")
    return bool(float(rho(rs, claim, 0).values[0]) <= rs.model.config.tol_at(x))


def cone_member(rs: RiskSet, claim: Claim, s, s_next) -> bool:
    """Membership of the one-period trading cone at (s, s_next).

    Requires one claim ``(n,)``, measurable at ``s_next`` (violations raise
    NOT_MEASURABLE, distinct from a mere risk violation), and nonpositive
    stage-``s`` price on every atom, at the claim's scale.
    """
    model = rs.model
    st_s, st_n = model.stage(s), model.stage(s_next)
    if st_n.index <= st_s.index:
        raise SchemaError("cone stages must be ordered")
    x = _outcome_vector(claim.values, model.n, "claim")
    if not model.is_measurable(x, st_n):
        raise NotMeasurableError(
            f"claim is not measurable at stage {st_n.label}", stage=st_n.label)
    return bool(np.all(rho(rs, claim, st_s).values <= model.config.tol_at(x)))


def decompose_acceptance(rs: RiskSet, claim: Claim) -> list[Claim]:
    """Split a claim into per-period cone increments summing to it.

    The split is the mark-to-market one, from the eta recursion of
    ``Chain.single(rs)``: ``u_0 = eta_1`` and ``u_s = eta_{s+1} - eta_s``.
    Each ``u_s`` is measurable at stage ``s+1``, and on every stage-``s``
    atom every vertex expectation of it is at most 0 (at most ``eta_0`` for
    ``u_0``).  Any split with nonpositive prices forces ``eta_0 <= 0`` by
    subadditivity and monotonicity, so ``eta_0 > 0`` at the claim's scale
    raises INFEASIBLE; with an acceptable input that is the witness that the
    chain is not time-consistent.  Atoms that no vertex charges carry no
    condition and price to zero here, where ``eta`` raises EMPTY_KERNEL.  A
    claim other than one ``(n,)`` vector of finite values is a SCHEMA error.
    """
    model = rs.model
    rs.vertices     # read first, so an H-set prices by its vertices
    if len(model.stages) < 2:
        raise SchemaError("need at least two stages to decompose")
    x = _finite_claim(claim, model.n)
    process = _eta(rs, claim, partial(_rho, fill=True))
    if process.claims[0].values[0] > model.config.tol_at(x):
        raise InfeasibleError("claim admits no acceptance decomposition")
    parts = _increments(process)
    parts[0] = process.claims[1]
    return parts


@dataclass(frozen=True, slots=True)
class ReservePlan:
    """Premium plus adapted acceptable increments telescoping to the claim.

    Increment ``u`` spans ``u.stage - 1 -> u.stage`` and is measurable at
    ``u.stage``.  On a ``build_refined`` grid ``0, 0+, 1, ...`` the even
    increments are the financial (hedgeable) stream and the odd ones the
    intermediate (residual) stream.
    """

    premium: float
    increments: tuple[Claim, ...]
    time_consistent: bool
    warning: Optional[str] = None

    @property
    def fin_increments(self) -> tuple[Claim, ...]:
        """``u^F_t`` on a refined grid, measurable at ``t+``."""
        return self.increments[0::2]

    @property
    def int_increments(self) -> tuple[Claim, ...]:
        """``u^I_t`` on a refined grid, measurable at ``t+1``."""
        return self.increments[1::2]

    def total(self, model: ScenarioModel) -> np.ndarray:
        out = np.full(model.n, self.premium)
        for inc in self.increments:
            out = out + inc.values
        return out


def _plan(process: AdaptedProcess, time_consistent: bool) -> ReservePlan:
    """The plan of a price process: the time-0 price as premium, one
    increment per step, and a warning where the prices are only the minimal
    dominating ones."""
    warning = None
    if not time_consistent:
        warning = ("chain is not time-consistent; plan uses the minimal "
                   "dominating prices, premium may exceed the quoted price")
    return ReservePlan(float(process.claims[0].values[0]), tuple(_increments(process)),
                       time_consistent, warning)


def reserve_plan(chain: Chain, claim: Claim) -> ReservePlan:
    """Mark-to-market reserve schedule built from the eta recursion.

    The premium is the time-0 eta price and each increment is one eta
    difference, so the plan telescopes exactly and every increment prices to
    zero at its own date.  For chains that are not time-consistent the eta
    prices dominate the chain's own, and a warning records that the plan is
    the conservative repair.  ``time_consistent`` is ``is_mstable`` of the
    chain's set.  The claim is one finite ``(n,)`` vector, else SCHEMA.
    """
    from .consistency import is_mstable

    _finite_claim(claim, chain.rs.model.n)
    time_consistent = is_mstable(chain.rs)
    return _plan(eta(chain, claim), time_consistent)
