import numpy as np
import pytest

from qbdpoisson import (Classification, ClassificationError, NumericalError,
                        SolveOptions, compute_w, pi_dot_g, random_model,
                        residuals, right_shift, shift_identity_report,
                        solve_model, solve_null_recurrent, solve_poisson,
                        split, stationary)
from qbdpoisson.qme import Normalization

import qbdpoisson._linalg as linalg
import qbdpoisson.shift as shift_module
from qbdpoisson._linalg import unit_eigenvector

from conftest import (balanced_h, balanced_rhs, random_rhs, rhs,
                      scaled_interior_residual, with_drift)


def null_rhs(seed: int, m: int, n_blocks: int = 3):
    return random_rhs(seed, m, n_blocks)


def test_shift_data_scalar(nr1):
    s = solve_model(nr1)
    sd = right_shift(nr1, s)
    assert sd.Q[0, 0] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose([sd.At_neg[0, 0], sd.At0[0, 0], sd.At1[0, 0]],
                               [0.0, 0.6, 0.4], atol=1e-10)
    assert sd.Gt[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert sd.Gddot[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert compute_w(sd.Gt, s.U, s.R, sd.Gddot).W[0, 0] == pytest.approx(
        -2.5, abs=1e-10)
    # shifted residual: 0 + (0.6 - 1) * 0 + 0.4 * 0 = 0
    report = shift_identity_report(nr1, s, sd)
    assert report["shifted_down_equation"] < 1e-12


@pytest.mark.parametrize("m", [1, 2, 5])
def test_unit_eigenvector_bordered_solve(m):
    model = random_model(m, m, Classification.POSITIVE_RECURRENT)
    P = model.repeating_sum()
    right = unit_eigenvector(P)
    left = unit_eigenvector(P, left=True)
    np.testing.assert_allclose(right, np.full(m, 1.0 / m), atol=1e-15)
    assert left.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(left @ P - left).max() <= 1e-15
    assert left.min() > 0.0


@pytest.mark.parametrize("m", [1, 3])
def test_unit_eigenvector_refuses_matrix_without_unit_eigenvalue(m):
    P = random_model(m, m, Classification.POSITIVE_RECURRENT).repeating_sum()
    with pytest.raises(NumericalError, match="not an eigenvalue"):
        unit_eigenvector(0.99 * P)


@pytest.mark.parametrize("d", [-1e-10, -1e-12, 1e-12, 1e-10])
@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_in_band_drift_solves_on_shift_path(m, d):
    # drift inside the null band but not zero: one of G, Ghat (and so P*) is
    # stochastic only to O(d), and the null recurrent solution is O(d) exact
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, key=m)
    sol = solve_poisson(model, g)
    u = np.asarray(sol.u)
    assert sol.classification is Classification.NULL_RECURRENT
    assert sol.diagnostics.passed
    assert sol.diagnostics.boundary_residual <= (1e-12 + abs(d)) * (
        1.0 + np.abs(u[:2]).max())
    assert scaled_interior_residual(model, g, u) <= 1e-12 + abs(d)
    # the exact solution h, continued by zeros, up to a constant
    h = np.zeros_like(u)
    h[:8] = balanced_h(m, key=m)
    c = (u - h).mean()
    assert np.abs(u - h - c).max() <= 1e-11 + 10.0 * abs(d) * (1.0 + np.abs(h).max())


def test_right_shift_rejects_wrong_class(pr1):
    s = solve_model(pr1)
    with pytest.raises(ClassificationError):
        right_shift(pr1, s)


@pytest.mark.parametrize("seed", range(8))
def test_shift_invariants_random(seed):
    m = seed % 3 + 1
    model = random_model(seed, m, Classification.NULL_RECURRENT)
    s = solve_model(model)
    sd = right_shift(model, s)
    report = shift_identity_report(model, s, sd)
    assert report["shifted_down_equation"] <= 1e-12
    assert report["shifted_up_equation"] <= 1e-12
    assert report["shifted_w_inverse"] <= 1e-12
    assert report["sp_Gt"] < 1 - 1e-6
    assert report["sp_Gddot"] == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.det(np.eye(m) - sd.Gt @ sd.Gddot) != 0.0


def test_null_recurrent_scalar_solution(nr1, nr1_rhs):
    sol = solve_poisson(nr1, nr1_rhs)      # dispatches to the shift path
    assert sol.classification is Classification.NULL_RECURRENT
    d = np.diff(sol.u[:, 0])
    # forced by the boundary and the forward recurrence
    assert d[0] == pytest.approx(-2.5, abs=1e-9)
    assert d[1] == pytest.approx(2.5, abs=1e-9)
    assert d[2] == pytest.approx(2.5, abs=1e-9)
    assert sol.diagnostics.passed


def test_null_recurrent_homogeneous_case(nr1):
    zero = rhs([0.0])
    sol = solve_null_recurrent(nr1, zero)
    assert max(sol.diagnostics.interior_residuals) < 1e-10
    assert sol.diagnostics.boundary_residual < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_null_recurrent_random_residuals(seed):
    m = seed % 3 + 1
    model = random_model(seed, m, Classification.NULL_RECURRENT)
    g = null_rhs(seed, m)
    sol = solve_poisson(model, g)
    rep = sol.diagnostics
    assert rep.passed
    assert rep.max_residual <= 1e-7 * rep.scale


def test_recovered_vs_shifted_residuals(nr1, nr1_rhs):
    # the intermediate shifted sequence solves the shifted difference
    # equation; the recovered sequence solves the original one
    s = solve_model(nr1)
    sd = right_shift(nr1, s)
    sol = solve_null_recurrent(nr1, nr1_rhs)
    # invert the cumulative correction: ut_0 = u_0, ut_k = u_k - Q sum_{i<k} ut_i
    ut = sol.u.copy()
    acc = np.zeros(nr1.m)
    for k in range(1, sol.R_max + 1):
        acc = acc + ut[k - 1]
        ut[k] = sol.u[k] - sd.Q @ acc
    eye = np.eye(nr1.m)
    for r in range(sol.R_max - 1):
        res = sd.At_neg @ ut[r] + (sd.At0 - eye) @ ut[r + 1] \
            + sd.At1 @ ut[r + 2] + nr1_rhs.block(r + 1)
        assert np.max(np.abs(res)) < 1e-8


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_shifted_sequence_solves_shifted_equation(seed):
    m = seed % 3 + 1
    model = random_model(seed, m, Classification.NULL_RECURRENT)
    g = null_rhs(seed, m)
    s = solve_model(model)
    sd = right_shift(model, s)
    sol = solve_null_recurrent(model, g)
    ut = sol.u.copy()
    acc = np.zeros(m)
    for k in range(1, sol.R_max + 1):
        acc = acc + ut[k - 1]
        ut[k] = sol.u[k] - sd.Q @ acc
    eye = np.eye(m)
    scale = 1 + np.max(np.abs(ut))
    for r in range(sol.R_max - 1):
        res = sd.At_neg @ ut[r] + (sd.At0 - eye) @ ut[r + 1] \
            + sd.At1 @ ut[r + 2] + g.block(r + 1)
        assert np.max(np.abs(res)) <= 1e-8 * scale


def test_constraint_scale_invariance(nr1, nr1_rhs):
    # multiplying pi_0 by c > 0 leaves the constraint solution set unchanged
    s = solve_model(nr1)
    sd = right_shift(nr1, s)
    st = stationary(nr1, s, Normalization.UNIT_SUM)
    for c in (1.0, 3.7):
        pi0 = c * st.pi0
        lhs_dir = split(sd.Gddot).L.T @ (
            compute_w(sd.Gt, s.U, s.R, sd.Gddot).W_inv.T @ pi0)
        target = pi_dot_g(pi0, s.R, nr1_rhs)
        y_perp = target / float(lhs_dir @ lhs_dir) * lhs_dir
        if c == 1.0:
            reference = y_perp
        else:
            np.testing.assert_allclose(y_perp, reference, atol=1e-12)


@pytest.mark.parametrize("d", [-1e-6, -1e-7])
@pytest.mark.parametrize("m", [3, 8])
def test_widened_null_band_solves_on_shift_path(m, d):
    # a band wider than the drift routes a recurrent chain through the shift;
    # Ghat's eigenvalue is then 1 - O(d), which the kernel's Gddot does not
    # need to be exactly 1
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, key=m)
    sol = solve_poisson(model, g, SolveOptions(null_band=1e-5))
    assert sol.classification is Classification.NULL_RECURRENT
    assert sol.diagnostics.passed
    u = np.asarray(sol.u)
    h = np.zeros_like(u)
    h[:8] = balanced_h(m, key=m)
    c = (u - h).mean()
    assert np.abs(u - h - c).max() <= 1e-12 * (1.0 + np.abs(h).max())


def test_shift_path_needs_no_unit_eigenvector_of_its_own(nr1, nr1_rhs, pr1,
                                                         pr1_rhs, monkeypatch):
    # Gddot comes from the QME kernel: a cold null-recurrent solve makes the
    # same stationary-vector calls as a positive recurrent one, no more
    calls = []
    original = linalg.unit_eigenvector

    def counted(*args, **kwargs):
        calls.append(kwargs.get("left", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "unit_eigenvector", counted)
    monkeypatch.setattr(shift_module, "unit_eigenvector", counted)
    solve_poisson(pr1, pr1_rhs)
    pr_calls = list(calls)
    calls.clear()
    solve_poisson(nr1, nr1_rhs)
    assert calls == pr_calls
