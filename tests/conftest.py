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


@pytest.fixture
def no_nnls(monkeypatch):
    """Record every NNLS solve (``riskset._nnls``).  The fixture is the list
    of calls: a test empties it before the code that must solve nothing and
    checks that it stays empty."""
    import riskchain.riskset

    calls = []
    real = riskchain.riskset._nnls

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(riskchain.riskset, "_nnls", spy)
    return calls


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make every H→V enumeration (``riskset._enumerate_vertices``) and every
    qhull call (``scipy.spatial.ConvexHull``) fail the test."""
    import scipy.spatial

    import riskchain.riskset

    def refuse(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} ran")
        return fail

    monkeypatch.setattr(riskchain.riskset, "_enumerate_vertices",
                        refuse("_enumerate_vertices"))
    monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse("ConvexHull"))
