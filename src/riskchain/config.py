"""Central numeric configuration: one record holds every tolerance and size bound."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """Tolerances and desk-scale bounds shared by all modules.

    tol            comparison tolerance for memberships, set equality, risk
                   inequalities and golden diffs
    dedup_tol      max-norm threshold below which two measure vectors are the
                   same vertex
    max_outcomes   largest outcome space vertex enumeration will accept
    max_grid       largest number of stages a model may declare
    work_bound     cap on per-node combination counts in projections and
                   m-stable hull assembly (and on enumeration intermediates)
    """

    tol: float = 1e-9
    dedup_tol: float = 1e-9
    max_outcomes: int = 16
    max_grid: int = 9
    work_bound: int = 4096


DEFAULT = Config()
