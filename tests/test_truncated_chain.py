"""The solver against an independent reference for random g: the chain cut
at a level L and solved as one banded system (conftest's truncated_chain),
on levels 0-7, to 1e-12 (1 + max |u|) with u the reference."""

import numpy as np
import pytest
from conftest import (balanced_h, balanced_rhs, random_rhs, truncated_chain,
                      with_drift)

from qbdpoisson import Classification, drift, random_model, solve_poisson

PR, TR = Classification.POSITIVE_RECURRENT, Classification.TRANSIENT
TOL = 1e-12


def _distance(model, u, ref) -> float:
    """max |u - ref| / (1 + max |ref|); modulo a constant unless transient."""
    diff = u[:len(ref)] - ref
    if drift(model) <= 0:
        diff -= diff.mean()
    return float(np.abs(diff).max() / (1.0 + np.abs(ref).max()))


def _solver_distance(model, g) -> float:
    g_cut, ref = truncated_chain(model, g)
    return _distance(model, solve_poisson(model, g_cut).u, ref)


@pytest.mark.parametrize("cls", [PR, TR])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_reference_reproduces_the_exact_balanced_solution(cls, m):
    # g = (I - P) h has the exact solution h, continued by zeros
    model = random_model(m, m, cls)
    _, ref = truncated_chain(model, balanced_rhs(model, 3))
    assert _distance(model, balanced_h(m, 3), ref) <= 1e-13


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [1, 3, 8, 32])
def test_positive_recurrent_random_g_matches_the_cut_chain(m, seed):
    model = random_model(seed, m, PR)
    assert _solver_distance(model, random_rhs(seed, m, 4)) <= TOL


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [1, 3, 8])
def test_transient_random_g_matches_the_cut_chain(m, seed):
    model = random_model(seed, m, TR)
    assert _solver_distance(model, random_rhs(seed, m, 4)) <= TOL


_NEAR_TR = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 19: transient draws at drift +1e-3 are 1.7e-11 to "
    "2.2e-11 (1 + max |u|) from the cut chain"))


@pytest.mark.parametrize("d, m", [
    (-1e-2, 2), (-1e-2, 3), (-1e-2, 8), (-1e-3, 2), (-1e-3, 3),
    (1e-2, 2), (1e-2, 3), (1e-2, 8),
    pytest.param(1e-3, 2, marks=_NEAR_TR), pytest.param(1e-3, 3, marks=_NEAR_TR)])
def test_near_critical_random_g_matches_the_cut_chain(d, m):
    model = with_drift(random_model(0, m, PR), d)
    assert _solver_distance(model, random_rhs(0, m, 4)) <= TOL
