"""Finite filtered scenario models.

A model is an ordered outcome space, a stage grid (whole times with optional
half-steps, ``0 < 0+ < 1 < ... < T``), one refining partition per stage and a
full-support reference measure.  Claims are bounded payoff vectors over the
outcomes; the only probabilistic primitive is the per-atom conditional
expectation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT, MAX_GRID, Config
from .errors import (
    ModelError,
    NotMeasurableError,
    OutOfRangeError,
    SchemaError,
    SizeBoundError,
)

_LABEL_RE = re.compile(r"^(\d+)(\+?)$")


@dataclass(frozen=True)
class Stage:
    """One date on the grid: ``label`` is ``"t"`` or ``"t+"``."""

    index: int
    label: str
    time: int
    half: bool

    @property
    def key(self) -> tuple[int, int]:
        return (self.time, 1 if self.half else 0)


def parse_stage_label(label: str) -> tuple[int, bool]:
    m = _LABEL_RE.match(str(label).strip())
    if not m:
        raise SchemaError(f"bad stage label {label!r}, expected 't' or 't+'")
    return int(m.group(1)), m.group(2) == "+"


def _is_index(i) -> bool:
    """An integer usable as an outcome or atom index (a bool is not one)."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool)


def _canonical_atoms(atoms: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Sort outcomes inside atoms and atoms by smallest member; check that
    every index is an integer (not a bool) and that the atoms partition the
    outcomes."""
    try:
        atoms = [list(atom) for atom in atoms]
    except TypeError as exc:
        raise SchemaError("partition must be a list of atoms, each a list of "
                          "outcome indices") from exc
    out = []
    seen: set[int] = set()
    for atom in atoms:
        if not all(_is_index(i) for i in atom):
            raise SchemaError(f"outcome indices must be integers, got atom {atom!r}")
        tup = tuple(sorted(int(i) for i in atom))
        if not tup:
            raise SchemaError("empty atom in partition")
        if tup[0] < 0 or tup[-1] >= n:
            raise SchemaError(f"outcome index out of range in atom {tup}")
        k = len(seen)
        seen.update(tup)
        if len(seen) != k + len(tup):
            if len(set(tup)) != len(tup):
                raise SchemaError(f"repeated outcome index in atom {tup}")
            raise SchemaError(f"overlapping atoms at {tup}")
        out.append(tup)
    if len(seen) != n:
        raise SchemaError("partition does not cover every outcome")
    return sorted(out, key=lambda a: a[0])


def atom_index(partition: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Vector mapping every outcome to the id of its atom in ``partition``."""
    ids = np.empty(n, dtype=int)
    for a, atom in enumerate(partition):
        ids[list(atom)] = a
    return ids


def crossing_atom(fine_ids: np.ndarray, coarse_ids: np.ndarray) -> Optional[int]:
    """Id of the first fine atom that meets more than one coarse atom, or
    None when the fine partition refines the coarse one; both partitions are
    given as atom-id vectors over the outcomes, each id below their length."""
    rep = np.empty(len(fine_ids), dtype=coarse_ids.dtype)
    rep[fine_ids] = coarse_ids
    crossing = fine_ids[rep[fine_ids] != coarse_ids]
    return int(crossing.min()) if crossing.size else None


class ScenarioModel:
    """Outcomes, stage grid, refining partitions and reference measure.

    The constructor checks well-formed labels and partitions (``SchemaError``)
    and then that the model is a filtration with a full-support reference
    (``ModelError``), in this order: a trivial root and a discrete final
    stage (``BAD_TERMINALS``), each partition refining the one before
    (``NON_REFINING``), and a strictly positive reference summing to one
    (``NO_FULL_SUPPORT``).  A built model is valid.
    """

    def __init__(self, outcomes, grid, partitions, reference, config: Config = DEFAULT):
        self.outcomes = [str(o) for o in outcomes]
        self.n = len(self.outcomes)
        if self.n == 0:
            raise SchemaError("model needs at least one outcome")
        if len(set(self.outcomes)) != self.n:
            raise SchemaError("outcome labels must be unique")
        if len(grid) > MAX_GRID:
            raise SizeBoundError(f"grid length {len(grid)} exceeds bound {MAX_GRID}",
                                 bound=MAX_GRID, reached=len(grid), layer="scenario.grid")

        self.stages: list[Stage] = []
        for idx, label in enumerate(grid):
            t, half = parse_stage_label(label)
            self.stages.append(Stage(idx, f"{t}+" if half else str(t), t, half))
        keys = [st.key for st in self.stages]
        if not keys:
            raise SchemaError("empty stage grid")
        if any(k2 <= k1 for k1, k2 in zip(keys, keys[1:])):
            raise SchemaError("stage grid must be strictly increasing")
        if keys[0] != (0, 0):
            raise SchemaError("stage grid must start at 0")
        if self.stages[-1].half:
            raise SchemaError("stage grid must end at a whole time")

        if len(partitions) != len(self.stages):
            raise SchemaError("need exactly one partition per stage")
        self.partitions = [_canonical_atoms(p, self.n) for p in partitions]

        self.reference = ref = _outcome_vector(reference, self.n, "reference measure")
        self.config = config
        # outcome -> atom id, one row per stage
        self._atom_index = np.array([atom_index(p, self.n) for p in self.partitions])

        if len(self.partitions[0]) != 1:
            raise ModelError("BAD_TERMINALS",
                             "stage-0 partition must be the single atom of all outcomes",
                             stage_index=0)
        if len(self.partitions[-1]) != self.n:
            raise ModelError("BAD_TERMINALS", "final-stage partition must be discrete",
                             stage_index=len(self.stages) - 1)
        # one test for every adjacent pair: stage s's atom ids are offset by
        # (s - 1) * n, so the first crossing is at the first failing stage
        ids = self._atom_index
        crossing = crossing_atom((ids[1:] + self.n * np.arange(len(ids) - 1)[:, None]).ravel(),
                                 ids[:-1].ravel())
        if crossing is not None:
            s, a = divmod(crossing, self.n)
            raise ModelError(
                "NON_REFINING",
                f"stage {self.stages[s + 1].label} atom {a} crosses "
                f"stage {self.stages[s].label} atoms",
                stage_index=s + 1, atom_index=a)
        # written so that NaN weights fail both tests
        if not (ref > 0).all():
            bad = int(np.argmin(ref))
            raise ModelError("NO_FULL_SUPPORT",
                             f"reference weight of outcome {self.outcomes[bad]!r} "
                             "is not strictly positive",
                             atom_index=bad)
        if not abs(ref.sum() - 1.0) <= 1e-12:
            raise ModelError("NO_FULL_SUPPORT", "reference weights must sum to one")

    # -- lookups ---------------------------------------------------------

    def stage(self, key) -> Stage:
        """Resolve a Stage from an index, a label or a Stage."""
        if isinstance(key, Stage):
            return self.stages[key.index]
        if isinstance(key, (int, np.integer)):
            if not 0 <= key < len(self.stages):
                raise OutOfRangeError(f"stage index {key} out of range")
            return self.stages[key]
        t, half = parse_stage_label(key)
        for st in self.stages:
            if st.time == t and st.half == half:
                return st
        raise OutOfRangeError(f"stage {key!r} not on the grid")

    @property
    def final_stage(self) -> Stage:
        return self.stages[-1]

    def atoms(self, stage) -> list[tuple[int, ...]]:
        return self.partitions[self.stage(stage).index]

    def atom_of(self, stage, outcome: int) -> int:
        """Id of the unique atom of ``stage`` containing ``outcome``."""
        if not _is_index(outcome) or not 0 <= outcome < self.n:
            raise OutOfRangeError(f"outcome index {outcome} out of range")
        return int(self._atom_index[self.stage(stage).index, outcome])

    def atom_ids(self, stage) -> np.ndarray:
        """Vector mapping every outcome to its atom id at ``stage``."""
        return self._atom_index[self.stage(stage).index]

    def atom(self, stage, atom_id: int) -> tuple[int, ...]:
        """Outcomes of atom ``atom_id`` of ``stage``; refuses an id that is
        not an integer in ``range(len(atoms(stage)))``."""
        atoms = self.atoms(stage)
        if not _is_index(atom_id) or not 0 <= atom_id < len(atoms):
            raise OutOfRangeError(f"atom id {atom_id} out of range")
        return atoms[atom_id]

    def atom_label(self, stage, atom_id: int) -> str:
        return "|".join(sorted(self.outcomes[i] for i in self.atom(stage, atom_id)))

    def sub_atoms(self, coarse_stage, fine_stage, atom_id: int) -> list[int]:
        """Ids of the ``fine_stage`` atoms contained in a ``coarse_stage`` atom."""
        atom = self.atom(coarse_stage, atom_id)
        fine = self.atom_ids(fine_stage)
        return sorted({int(fine[i]) for i in atom})

    def is_measurable(self, values, stage) -> bool:
        """True when ``values``, one per outcome, is constant on every atom
        of ``stage``, at their scale."""
        v = _outcome_vector(values, self.n, "values")
        band = self.config.tol_at(v)
        return all(np.ptp(v[list(atom)]) <= band for atom in self.atoms(stage))


@dataclass(frozen=True, slots=True)
class Claim:
    """Payoff vector over outcomes, optionally declared measurable at a stage."""

    values: np.ndarray
    stage: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self):
        return len(self.values)


def _outcome_vector(values, n: int, what: str) -> np.ndarray:
    """``values`` as floats, checked to be one value per outcome."""
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise SchemaError(f"{what} has shape {v.shape}, expected ({n},)")
    return v


def claim(model: ScenarioModel, values, stage=None) -> Claim:
    """Build a claim, checking length and (when declared) measurability."""
    v = _outcome_vector(values, model.n, "claim")
    if stage is None:
        return Claim(v)
    st = model.stage(stage)
    if not model.is_measurable(v, st):
        raise NotMeasurableError(
            f"claim is not constant on the atoms of stage {st.label}", stage=st.label)
    return Claim(v, st.index)


def condexp(measure, claim_like, stage, model: ScenarioModel) -> Claim:
    """Conditional expectation of a claim given the stage partition.

    On atoms the measure does not charge, the reference measure is used
    instead, so the result is total and deterministic.  The measure and the
    claim each hold one value per outcome.
    """
    w = _outcome_vector(measure, model.n, "measure")
    x = _outcome_vector(getattr(claim_like, "values", claim_like), model.n, "claim")
    st = model.stage(stage)
    out = np.empty(model.n)
    for atom in model.atoms(st):
        idx = list(atom)
        mass = w[idx].sum()
        if mass > 0:
            val = float(w[idx] @ x[idx]) / mass
        else:
            ref = model.reference[idx]
            val = float(ref @ x[idx]) / ref.sum()
        out[idx] = val
    return Claim(out, st.index)
