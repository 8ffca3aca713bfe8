import numpy as np
import pytest

from qbdpoisson import (Classification, InfeasibleConstraintError,
                        SolveOptions, compare_constant_shift, omega_solution,
                        pi_dot_g, random_model, residuals, solve_model,
                        solve_poisson, stationary)

from conftest import balanced_rhs, random_rhs, rhs, with_drift


def test_omega_scalar_walkthrough(pr1, pr1_rhs):
    # sum R^k g_k = 1 - 1 = 0 so gamma = 0; y_1 = (1/0.6)(-3) = -5 and the
    # sequence plateaus there
    prob = omega_solution(pr1, pr1_rhs)
    assert prob.gamma[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(prob.omega[:4, 0], [0.0, -5.0, -5.0, -5.0],
                               atol=1e-10)
    assert prob.c == 0.0


def test_omega_transient(tr1, tr1_rhs):
    prob = omega_solution(tr1, tr1_rhs)
    assert prob.gamma[0] == pytest.approx(2.5, abs=1e-12)
    rep = residuals(tr1, tr1_rhs, prob.omega)
    assert rep.passed


def test_omega_zero_forcing(pr1):
    zeros = rhs([0.0], [0.0])
    prob = omega_solution(pr1, zeros)
    np.testing.assert_allclose(prob.omega, 0.0, atol=1e-15)


def test_omega_rejects_incompatible_recurrent_rhs(pr1):
    with pytest.raises(InfeasibleConstraintError):
        omega_solution(pr1, rhs([1.0]))


def test_compatibility_tolerance_sits_inside_its_tenfold_band(pr1):
    # sum R^k g_k = g_0 - 1 with R = 1/3: a mismatch of 2e-8 is past the
    # limit 1e-9 (1 + ||g||) = 4e-9 by less than 10x, and 2e-9 is inside it
    with pytest.raises(InfeasibleConstraintError):
        omega_solution(pr1, rhs([1.0 + 2e-8], [-3.0]))
    omega_solution(pr1, rhs([1.0 + 2e-9], [-3.0]))


def test_omega_solves_equation_for_all_classes(pr1, tr1, nr1):
    # transient: unconditional; recurrent: compatibility enforced
    for model, g in [
        (pr1, rhs([1.0], [-3.0])),       # pi*^T (g_0 + R g_1) = 0
        (tr1, rhs([1.0])),
        (nr1, rhs([1.0], [-1.0])),       # R = 1: g_0 + g_1 = 0
    ]:
        prob = omega_solution(model, g)
        rep = residuals(model, g, prob.omega, tol=1e-7)
        assert rep.passed, (model, rep.max_residual)


def test_omega_matches_analytic_solution_up_to_constant(pr1, pr1_rhs):
    sol = solve_poisson(pr1, pr1_rhs, SolveOptions(y_perp_mode="zero"))
    prob = omega_solution(pr1, pr1_rhs, R_max=sol.R_max)
    is_match, offset, max_dev = compare_constant_shift(sol.u, prob.omega)
    assert is_match
    # the two hand walkthroughs sit exactly 2.5 apart
    assert offset == pytest.approx(2.5, abs=1e-10)
    assert max_dev < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_omega_random_positive_recurrent(seed):
    m = seed % 4 + 1
    model = random_model(seed, m, Classification.POSITIVE_RECURRENT)
    s = solve_model(model)
    st = stationary(model, s)
    g_raw = random_rhs(seed, m)
    # project g_0 so that pi^T g = 0 (the compatibility direction)
    blocks = np.array(g_raw.blocks)
    blocks[0] -= pi_dot_g(st.pi0, s.R, g_raw) / st.pi0.sum()
    g = rhs(*blocks)
    assert abs(pi_dot_g(st.pi0, s.R, g)) < 1e-12

    sol = solve_poisson(model, g, SolveOptions(y_perp_mode="zero"))
    prob = omega_solution(model, g, R_max=sol.R_max)
    is_match, _, max_dev = compare_constant_shift(sol.u, prob.omega)
    assert is_match, max_dev
    rep = residuals(model, g, prob.omega, tol=1e-7)
    assert rep.passed


def test_compare_constant_shift_edges():
    u = np.arange(8.0).reshape(4, 2)
    ok, offset, dev = compare_constant_shift(u, u)
    assert ok and offset == 0.0 and dev == 0.0
    bumped = u.copy()
    bumped[2, 1] += 1e-3
    ok, offset, dev = compare_constant_shift(u, bumped)
    assert not ok
    assert dev == pytest.approx(1e-3, rel=0.2)
    with pytest.raises(ValueError):
        compare_constant_shift(u, u[:2])


@pytest.mark.parametrize("d", [1e-10, 5e-10, -1e-10, -5e-10])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_oracle_matches_in_band_drift_above_zero(m, d):
    # in the null band both take the stochastic G, so P* = B + A1 G is
    # stochastic to rounding and the oracle agrees to rounding, not to O(d)
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, key=m)
    sol = solve_poisson(model, g, SolveOptions(y_perp_mode="zero"))
    assert sol.classification is Classification.NULL_RECURRENT
    prob = omega_solution(model, g, R_max=sol.R_max)
    is_match, _, max_dev = compare_constant_shift(sol.u, prob.omega)
    assert is_match and max_dev <= 1e-12, max_dev
