"""Numeric settings: the comparison tolerance, its rule, and desk-scale bounds."""

from dataclasses import dataclass

import numpy as np

from .errors import SchemaError

MIN_TOL = 1e-12     # smallest comparison tolerance; below it rounding decides verdicts
DEDUP_TOL = 1e-9    # max-norm distance below which two measure vectors are one vertex
MAX_OUTCOMES = 16   # largest outcome space vertex enumeration accepts
MAX_GRID = 9        # largest number of stages a model may declare
WORK_BOUND = 4096   # cap on vertex and combination counts in H->V and pasting


@dataclass(frozen=True)
class Config:
    """Per-model numeric policy: ``tol``, finite and at least ``MIN_TOL``, and
    ``tol_at``, the one rule for every verdict on a computed price, spread or
    row excess, which rounds in proportion to its input.  The measure side
    keeps its own rules: ``member``'s probability pre-check, the NNLS
    threshold and the certificates proved against it, ``DEDUP_TOL``,
    ``riskset._FACET_TOL`` and the golden diffs of ``example6``."""

    tol: float = 1e-9

    def __post_init__(self):
        if not MIN_TOL <= self.tol < float("inf"):
            raise SchemaError(f"tolerance {self.tol!r} must be finite and at least {MIN_TOL}")

    def tol_at(self, x) -> np.ndarray:
        """``tol (1 + max|x|)`` over the last axis of ``x``, NaN left out of the max."""
        return self.tol * (1.0 + np.fmax.reduce(np.abs(x), axis=-1, initial=0.0))


DEFAULT = Config()
