"""Hypothesis profiles: ``ci`` (loaded when the ``CI`` environment variable is
set, as GitHub Actions does) draws the same examples on every run, so a
tolerance-based property cannot fail on one runner and pass on the next."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def no_lp(monkeypatch):
    """Make every ``scipy.optimize.linprog`` call fail the test."""
    import scipy.optimize

    def refuse_lp(*args, **kwargs):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse_lp)
