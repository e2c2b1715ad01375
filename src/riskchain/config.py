"""Numeric settings: the model's comparison tolerance and fixed desk-scale bounds."""

from dataclasses import dataclass

from .errors import SchemaError

MIN_TOL = 1e-12     # smallest comparison tolerance; below it rounding decides verdicts
DEDUP_TOL = 1e-9    # max-norm distance below which two measure vectors are one vertex
MAX_OUTCOMES = 16   # largest outcome space vertex enumeration accepts
MAX_GRID = 9        # largest number of stages a model may declare
WORK_BOUND = 4096   # cap on vertex and combination counts in H->V and pasting


@dataclass(frozen=True)
class Config:
    """Per-model numeric policy: ``tol`` is the comparison tolerance for
    memberships, set equality, risk inequalities and golden diffs, finite
    and at least ``MIN_TOL``."""

    tol: float = 1e-9

    def __post_init__(self):
        if not MIN_TOL <= self.tol < float("inf"):
            raise SchemaError(f"tolerance {self.tol!r} must be finite and at least {MIN_TOL}")


DEFAULT = Config()
