import dataclasses

import numpy as np
import pytest

from qbdpoisson import (Classification, ClassificationError, NumericalError,
                        QbdModel, check_identities, compute_w,
                        pi_dot_g, poisson, qme, random_model, residuals,
                        right_shift, solve_model, solve_null_recurrent,
                        solve_poisson, split, stationary, triple)
from qbdpoisson.qme import Normalization, qme_residual

import qbdpoisson._linalg as linalg
import qbdpoisson.shift as shift_module
from qbdpoisson._linalg import unit_eigenvector

from conftest import (balanced_h, balanced_rhs, random_rhs, rhs,
                      scaled_interior_residual, with_drift)


def null_rhs(seed: int, m: int, n_blocks: int = 3):
    return random_rhs(seed, m, n_blocks)


def shift_arrays(sd):
    """Q, the shifted equation's blocks and solvents, and Wt of a ShiftData."""
    eq, eq_sols = sd.equation
    return {"Q": sd.Q, **{n: getattr(eq, n) for n in ("B", "A_neg", "A0", "A1")},
            "Gt": eq_sols.G, "Gddot": eq_sols.Ghat, "W": sd.wdata.W,
            "W_inv": sd.wdata.W_inv}


def plan_identities(model):
    """check_identities on the difference equation the model's plan solves."""
    plan = poisson._plan(model)
    return check_identities(*plan.equation, plan.split, plan.wdata)


def test_shift_data_scalar(nr1):
    s = solve_model(nr1)
    sd = right_shift(nr1, s)
    assert [f.name for f in dataclasses.fields(sd)] == ["Q", "equation", "wdata"]
    eq, eq_sols = sd.equation
    assert sd.Q[0, 0] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose([eq.A_neg[0, 0], eq.A0[0, 0], eq.A1[0, 0]],
                               [0.0, 0.6, 0.4], atol=1e-10)
    assert eq_sols.G[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert eq_sols.Ghat[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert compute_w(eq_sols.G, s.U, s.R, eq_sols.Ghat).W[0, 0] == pytest.approx(
        -2.5, abs=1e-10)
    # shifted residual: 0 + (0.6 - 1) * 0 + 0.4 * 0 = 0
    report = plan_identities(nr1)
    assert report.pop("pair_condition_number") < 1e12
    assert max(report.values()) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 5])
def test_unit_eigenvector_bordered_solve(m):
    model = random_model(m, m, Classification.POSITIVE_RECURRENT)
    P = model.repeating_sum()
    left = unit_eigenvector(P)
    assert left.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(left @ P - left).max() <= 1e-15
    assert left.min() > 0.0


@pytest.mark.parametrize("m", [1, 3])
def test_unit_eigenvector_refuses_matrix_without_unit_eigenvalue(m):
    P = random_model(m, m, Classification.POSITIVE_RECURRENT).repeating_sum()
    with pytest.raises(NumericalError, match="not an eigenvalue"):
        unit_eigenvector(0.99 * P)


@pytest.mark.parametrize("d", [-9e-10, -1e-10, -1e-12, -1e-15,
                               1e-15, 1e-12, 1e-10, 9e-10])
@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_in_band_drift_solves_on_shift_path(m, d):
    # drift inside the null band but not zero: the minimal G or Ghat is
    # stochastic only to O(d), but the shift takes the chain's stochastic
    # solvent, so the solution is exact to rounding for either sign
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, key=m)
    sol = solve_poisson(model, g)
    u = np.asarray(sol.u)
    assert sol.classification is Classification.NULL_RECURRENT
    assert sol.diagnostics.passed
    assert sol.diagnostics.boundary_residual <= 1e-12 * (1.0 + np.abs(u[:2]).max())
    assert scaled_interior_residual(model, g, u) <= 1e-13
    # the exact solution h, continued by zeros, up to a constant
    h = np.zeros_like(u)
    h[:8] = balanced_h(m, key=m)
    c = (u - h).mean()
    assert np.abs(u - h - c).max() <= 1e-12 * (1.0 + np.abs(h).max())
    # the identities of the shifted equation the plan solves
    report = plan_identities(model)
    assert report.pop("pair_condition_number") < 1e12
    assert max(report.values()) <= 1e-11


def _bench_style_null(seed: int, m: int) -> QbdModel:
    """A null recurrent chain drawn like the benchmark's: dense random rows,
    down mass in [0.2, 0.45] per row, A1 = A_neg, B + A1 stochastic."""
    rng = np.random.Generator(np.random.Philox(key=seed))

    def rows(mass):
        raw = rng.uniform(0.05, 1.0, size=(m, m))
        return raw * (mass / raw.sum(axis=1))[:, None]

    down = rng.uniform(0.2, 0.45, size=m)
    A_neg = rows(down)
    return QbdModel(B=rows(1.0 - down), A_neg=A_neg, A0=rows(1.0 - 2.0 * down),
                    A1=A_neg.copy())


DUAL_CASES = {
    **{f"nr-s{s}-m{m}": (lambda s=s, m=m: random_model(
        s, m, Classification.NULL_RECURRENT))
       for s in (0, 1, 2) for m in (1, 2, 3, 8, 32, 64)},
    **{f"bench-m{m}": (lambda m=m: _bench_style_null(m, m)) for m in (4, 16, 64)},
    **{f"drift{d:g}-m{m}": (lambda d=d, m=m: with_drift(random_model(
        1, m, Classification.POSITIVE_RECURRENT), d))
       for d in (-1e-10, -1e-12, -1e-15, 1e-15, 1e-12, 1e-10) for m in (2, 3, 8)},
}


@pytest.mark.parametrize("case", DUAL_CASES)
def test_gddot_from_the_dual_matches_its_own_reduction(case):
    # at every drift in the band Gddot, the solvent of the dual
    # (level-reversed shifted) equation, is Wt R Wt^{-1}: a reduction of its
    # own on those blocks agrees, and so does the closed-form Wt, both with
    # the U and R of the stochastic G that solve_model gives and the plan
    # keeps; the plan's shift is the one right_shift builds from them
    model = DUAL_CASES[case]()
    plan = poisson._plan(model)
    sd = plan.shift
    eq, eq_sols = sd.equation
    reference = qme._left_shifted(eq.A1, eq.A0, eq.A_neg, None)[0]
    assert np.abs(eq_sols.Ghat - reference).max() <= 1e-15
    s = plan.sols
    W = compute_w(eq_sols.G, s.U, s.R, eq_sols.Ghat).W
    assert np.abs(sd.wdata.W - W).max() <= 1e-14 * np.abs(W).max()
    assert plan.equation is sd.equation and plan.wdata is sd.wdata
    # rebuilt from solutions of its own: the same shifted equation, boundary
    # block B + A1 Q included, bit for bit
    anew, old = shift_arrays(right_shift(model, solve_model(model))), shift_arrays(sd)
    for name in old:
        assert np.array_equal(anew[name], old[name]), name


@pytest.mark.parametrize("seed", [0, 1])
def test_right_shift_reads_only_the_solutions_fields(seed, reduction_calls):
    # a QmeSolutions built anew gives the same shift, bit for bit, and
    # neither runs a reduction; building it reads Ghat, which solves it once
    model = random_model(seed, 8, Classification.NULL_RECURRENT)
    s = solve_model(model)
    reduction_calls.clear()
    copy = dataclasses.replace(s)
    assert len(reduction_calls) == 1
    reduction_calls.clear()
    sd, anew = shift_arrays(right_shift(model, s)), shift_arrays(right_shift(model, copy))
    assert reduction_calls == []
    for name in sd:
        assert np.array_equal(sd[name], anew[name]), name


def _slow_mixing_null(eps: float) -> QbdModel:
    """A null recurrent chain on two phases that swap with probability eps
    per step: A_neg = A1 = [[0.3 - eps, eps], [eps, 0.3 - eps]], A0 = 0.4 I,
    B = A_neg + A0.  The smaller eps, the more doublings the shifted W
    takes."""
    A_neg = np.array([[0.3 - eps, eps], [eps, 0.3 - eps]])
    return QbdModel(B=A_neg + 0.4 * np.eye(2), A_neg=A_neg, A0=0.4 * np.eye(2),
                    A1=A_neg.copy())


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5])
def test_slow_mixing_null_chain_solves(eps):
    model = _slow_mixing_null(eps)
    g = balanced_rhs(model, key=2)
    sol = solve_poisson(model, g)
    assert sol.classification is Classification.NULL_RECURRENT
    assert sol.diagnostics.passed
    u = np.asarray(sol.u)
    h = np.zeros_like(u)
    h[:8] = balanced_h(2, key=2)
    c = (u - h).mean()
    assert np.abs(u - h - c).max() <= 1e-12 * (1.0 + np.abs(h).max())


def test_slow_mixing_null_chain_needs_more_than_eight_doublings(monkeypatch):
    # the first 2^8 = 256 terms of the series do not sum it
    monkeypatch.setattr(triple, "W_SERIES_MAX_STEPS", 8)
    with pytest.raises(NumericalError, match="within 8 doubling steps"):
        poisson._plan(_slow_mixing_null(1e-4))


def test_right_shift_rejects_wrong_class(pr1):
    s = solve_model(pr1)
    with pytest.raises(ClassificationError):
        right_shift(pr1, s)


@pytest.mark.parametrize("seed", range(8))
def test_shift_invariants_random(seed):
    m = seed % 3 + 1
    model = random_model(seed, m, Classification.NULL_RECURRENT)
    eq, eq_sols = poisson._plan(model).shift.equation
    # the plan's equation includes the shifted down equation (pair_down) and
    # the inverse of the shifted W (w_inverse)
    report = plan_identities(model)
    assert report.pop("pair_condition_number") < 1e12
    assert max(report.values()) <= 1e-12
    Gt, Gddot = eq_sols.G, eq_sols.Ghat
    assert qme_residual(eq.A_neg, eq.A0, eq.A1, Gt) <= 1e-12
    assert qme_residual(eq.A1, eq.A0, eq.A_neg, Gddot) <= 1e-12
    assert linalg.spectral_radius(Gt) < 1 - 1e-6
    assert linalg.spectral_radius(Gddot) == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.det(np.eye(m) - Gt @ Gddot) != 0.0


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
    eq = sd.equation[0]
    sol = solve_null_recurrent(nr1, nr1_rhs)
    # invert the cumulative correction: ut_0 = u_0, ut_k = u_k - Q sum_{i<k} ut_i
    ut = sol.u.copy()
    acc = np.zeros(nr1.m)
    for k in range(1, sol.R_max + 1):
        acc = acc + ut[k - 1]
        ut[k] = sol.u[k] - sd.Q @ acc
    eye = np.eye(nr1.m)
    for r in range(sol.R_max - 1):
        res = eq.A_neg @ ut[r] + (eq.A0 - eye) @ ut[r + 1] \
            + eq.A1 @ ut[r + 2] + nr1_rhs.block(r + 1)
        assert np.max(np.abs(res)) < 1e-8


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_shifted_sequence_solves_shifted_equation(seed):
    m = seed % 3 + 1
    model = random_model(seed, m, Classification.NULL_RECURRENT)
    g = null_rhs(seed, m)
    s = solve_model(model)
    sd = right_shift(model, s)
    eq = sd.equation[0]
    sol = solve_null_recurrent(model, g)
    ut = sol.u.copy()
    acc = np.zeros(m)
    for k in range(1, sol.R_max + 1):
        acc = acc + ut[k - 1]
        ut[k] = sol.u[k] - sd.Q @ acc
    eye = np.eye(m)
    scale = 1 + np.max(np.abs(ut))
    for r in range(sol.R_max - 1):
        res = eq.A_neg @ ut[r] + (eq.A0 - eye) @ ut[r + 1] \
            + eq.A1 @ ut[r + 2] + g.block(r + 1)
        assert np.max(np.abs(res)) <= 1e-8 * scale


def test_constraint_scale_invariance(nr1, nr1_rhs):
    # multiplying pi_0 by c > 0 leaves the constraint solution set unchanged
    s = solve_model(nr1)
    eq_sols = right_shift(nr1, s).equation[1]
    st = stationary(nr1, s, Normalization.UNIT_SUM)
    for c in (1.0, 3.7):
        pi0 = c * st.pi0
        lhs_dir = split(eq_sols.Ghat).L.T @ (
            compute_w(eq_sols.G, s.U, s.R, eq_sols.Ghat).W_inv.T @ pi0)
        target = pi_dot_g(pi0, s.R, nr1_rhs)
        y_perp = target / float(lhs_dir @ lhs_dir) * lhs_dir
        if c == 1.0:
            reference = y_perp
        else:
            np.testing.assert_allclose(y_perp, reference, atol=1e-12)


@pytest.mark.parametrize("d", [-1e-6, -1e-7, 1e-7, 1e-6])
@pytest.mark.parametrize("m", [3, 8])
def test_widened_null_band_solves_on_shift_path(m, d, monkeypatch):
    # a band wider than the drift routes a recurrent or transient chain
    # through the shift; the eigenvalue of Gddot next to 1 is then 1 + O(d),
    # which the kernel does not need to be exactly 1
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, key=m)
    monkeypatch.setattr(qme, "NULL_BAND", 1e-5)
    sol = solve_poisson(model, g)
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
    # same stationary-vector calls as a positive recurrent one, no more; the
    # calls are counted at the bindings the library looks them up by
    calls = []

    def counted(where, original):
        def call(*args):
            calls.append(where)
            return original(*args)
        return call

    for module, name in ((qme, "stationary_vector"), (poisson, "stationary_vector"),
                         (shift_module, "unit_eigenvector")):
        monkeypatch.setattr(module, name, counted(f"{module.__name__}.{name}",
                                                  getattr(module, name)))
    solve_poisson(pr1, pr1_rhs)
    pr_calls = list(calls)
    calls.clear()
    solve_poisson(nr1, nr1_rhs)
    assert pr_calls and calls == pr_calls
