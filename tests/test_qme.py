import warnings

import numpy as np
import pytest

from qbdpoisson import (Classification, ClassificationError, Normalization,
                        NumericalError, QbdModel, char_roots, classify,
                        drift, random_model, solve_model, solve_poisson,
                        solve_qme, stationary)
from qbdpoisson._linalg import spectral_radius
from qbdpoisson.qme import _cross_checked, qme_residual

from conftest import (balanced_rhs, minimal_nonneg_root, scalar_model,
                      scaled_interior_residual, with_drift)

SWEEP_DRIFTS = [sign * mag for mag in (1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 2e-9, 1e-10, 1e-12)
                for sign in (-1.0, 1.0)]


def mp_minimal_solution(A_low, A_mid, A_high) -> np.ndarray:
    """Oracle: logarithmic reduction in 40-digit arithmetic.

    Each row's rounding residue 1 - sum_j (A_low + A_mid + A_high)_ij is first
    added to the diagonal of A_mid in extended precision.  Without that
    projection the 1e-16 row-sum error of the double-precision blocks moves a
    near-double unit root by about 1e-8.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        low, mid, high = (mpmath.matrix(np.asarray(a).tolist())
                          for a in (A_low, A_mid, A_high))
        m = low.rows
        for i in range(m):
            mid[i, i] += 1 - mpmath.fsum(low[i, j] + mid[i, j] + high[i, j]
                                         for j in range(m))
        eye = mpmath.eye(m)
        local = (eye - mid) ** -1
        H, L = local * high, local * low
        X, T = L, H
        for _ in range(200):
            step = (eye - H * L - L * H) ** -1
            H, L = step * H * H, step * L * L
            increment = T * L
            X, T = X + increment, T * H
            if mpmath.mnorm(increment, 1) < mpmath.mpf(10) ** -38:
                break
        else:
            raise AssertionError("oracle did not converge")
        return np.array(X.tolist(), dtype=float)


def solve_quietly(model: QbdModel):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return solve_model(model)


def test_scalar_g_matrices_match_quadratic_formula(pr1, tr1, nr1):
    # oracle: quadratic formula, minimal nonnegative root
    assert minimal_nonneg_root(0.6, 0.2, 0.2) == pytest.approx(1.0, abs=1e-14)
    assert minimal_nonneg_root(0.2, 0.2, 0.6) == pytest.approx(1.0 / 3.0, abs=1e-14)

    G = solve_qme(pr1.A_neg, pr1.A0, pr1.A1)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-13)
    G = solve_qme(tr1.A_neg, tr1.A0, tr1.A1)
    assert G[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-13)
    # double unit root at zero drift
    G = solve_qme(nr1.A_neg, nr1.A0, nr1.A1)
    assert G[0, 0] == pytest.approx(1.0, abs=1e-13)


def test_zero_down_block_gives_zero_solution():
    X = solve_qme(np.zeros((2, 2)), 0.5 * np.eye(2), 0.5 * np.eye(2))
    np.testing.assert_allclose(X, 0.0, atol=1e-15)


def test_solve_qme_rejects_bad_blocks():
    with pytest.raises(ValueError, match="row-stochastic"):
        solve_qme([[0.5]], [[0.5]], [[0.5]])
    # the unit-root shift needs the row sums exact to rounding
    with pytest.raises(ValueError, match="row-stochastic"):
        solve_qme([[0.3]], [[0.4]], [[0.3 + 1e-10]])
    with pytest.raises(ValueError, match="nonnegative"):
        solve_qme([[-0.1]], [[0.6]], [[0.5]])


@pytest.mark.parametrize("block", ["A_low", "A_mid", "A_high"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_solve_qme_refuses_non_finite_blocks(block, value):
    blocks = {"A_low": [[0.5]], "A_mid": [[0.3]], "A_high": [[0.2]]}
    blocks[block] = [[value]]
    with pytest.raises(ValueError, match=f"{block} must be finite"):
        solve_qme(**blocks)


def test_solve_qme_reports_non_convergence():
    # the shifted reduction needs 5 steps on this chain
    model = random_model(0, 4, Classification.POSITIVE_RECURRENT)
    with pytest.raises(NumericalError, match="last residual"):
        solve_qme(model.A_neg, model.A0, model.A1, max_iter=3)
    solve_qme(model.A_neg, model.A0, model.A1, max_iter=5)


def test_r_u_relations(pr1, tr1, nr1):
    for model, expect in [
        (pr1, {"U": 0.4, "R": 1.0 / 3.0}),
        (tr1, {"U": 0.4, "R": 1.0}),
        (nr1, {"U": 0.6, "R": 1.0}),
    ]:
        s = solve_model(model)
        assert s.U[0, 0] == pytest.approx(expect["U"], abs=1e-10)
        assert s.R[0, 0] == pytest.approx(expect["R"], abs=1e-10)


def test_classification_by_drift(pr1, tr1, nr1):
    assert drift(pr1) == pytest.approx(-0.4, abs=1e-14)
    assert drift(tr1) == pytest.approx(0.4, abs=1e-14)
    assert drift(nr1) == 0.0
    assert solve_model(pr1).classification is Classification.POSITIVE_RECURRENT
    assert solve_model(tr1).classification is Classification.TRANSIENT
    assert solve_model(nr1).classification is Classification.NULL_RECURRENT


def test_classify_agrees_with_solve_model(pr1):
    s = solve_model(pr1)
    assert classify(pr1, s) is Classification.POSITIVE_RECURRENT


def test_char_roots_scalar(pr1, tr1, nr1):
    np.testing.assert_allclose(char_roots(solve_model(pr1)), [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(char_roots(solve_model(tr1)), [1.0 / 3.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(char_roots(solve_model(nr1)), [1.0, 1.0], atol=1e-13)


def test_char_roots_deficient_degree():
    # a zero up block drops the degree of the characteristic polynomial;
    # the missing roots appear as infinities
    from qbdpoisson import QbdModel
    model = QbdModel(B=[[1.0]], A_neg=[[0.5]], A0=[[0.5]], A1=[[0.0]])
    roots = char_roots(solve_model(model))
    assert roots[0] == pytest.approx(1.0, abs=1e-12)
    assert np.isinf(roots[1])


def test_stationary_probability_mode(pr1):
    s = solve_model(pr1)
    st = stationary(pr1, s, Normalization.PROBABILITY)
    # scalar: pi0 / (1 - 1/3) = 1  =>  pi0 = 2/3
    assert st.pi0[0] == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert st.level(1)[0] == pytest.approx(2.0 / 9.0, abs=1e-13)


def test_stationary_unit_sum_and_errors(nr1, tr1):
    s = solve_model(nr1)
    st = stationary(nr1, s, Normalization.UNIT_SUM)
    assert st.pi0[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ClassificationError):
        stationary(nr1, s, Normalization.PROBABILITY)
    s_tr = solve_model(tr1)
    with pytest.raises(ClassificationError):
        stationary(tr1, s_tr, Normalization.UNIT_SUM)


@pytest.mark.parametrize("seed", range(12))
def test_qme_invariants_on_random_models(seed):
    m = seed % 6 + 1
    cls = [Classification.POSITIVE_RECURRENT, Classification.TRANSIENT,
           Classification.NULL_RECURRENT][seed % 3]
    model = random_model(seed, m, cls)
    s = solve_model(model)
    eye = np.eye(m)
    assert qme_residual(model.A_neg, model.A0, model.A1, s.G) <= 1e-8
    assert qme_residual(model.A1, model.A0, model.A_neg, s.Ghat) <= 1e-8
    for X in (s.G, s.Ghat, s.R):
        assert X.min() >= -1e-10
    assert np.max((s.G @ np.ones(m))) <= 1 + 1e-10
    assert np.max((s.Ghat @ np.ones(m))) <= 1 + 1e-10
    np.testing.assert_allclose(s.U, model.A0 + model.A1 @ s.G, atol=1e-10)
    np.testing.assert_allclose(s.R @ (eye - s.U), model.A1, atol=1e-10)
    # classification-dependent spectral radii
    sp_G, sp_Ghat = spectral_radius(s.G), spectral_radius(s.Ghat)
    if s.classification is Classification.POSITIVE_RECURRENT:
        assert abs(sp_G - 1) <= 1e-8 and sp_Ghat < 1 - 1e-8
    elif s.classification is Classification.TRANSIENT:
        assert abs(sp_Ghat - 1) <= 1e-8 and sp_G < 1 - 1e-8
    else:
        assert abs(sp_G - 1) <= 1e-8 and abs(sp_Ghat - 1) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_minimality_against_fixed_point_iteration(seed):
    # the natural fixed-point iteration from 0 climbs monotonically to the
    # minimal nonnegative solution; it must land on the same matrix
    cls = Classification.POSITIVE_RECURRENT if seed % 2 == 0 else Classification.TRANSIENT
    model = random_model(seed, seed % 3 + 1, cls)
    m = model.m
    eye = np.eye(m)
    X = np.zeros((m, m))
    for _ in range(20000):
        X_new = np.linalg.solve(eye - model.A0, model.A_neg + model.A1 @ X @ X)
        if np.max(np.abs(X_new - X)) < 1e-12:
            X = X_new
            break
        X = X_new
    G = solve_qme(model.A_neg, model.A0, model.A1)
    np.testing.assert_allclose(G, X, atol=1e-6)
    # dominated entrywise (up to rounding) by the independently found solution
    assert np.all(G <= X + 1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_root_interlacing_on_random_models(seed):
    m = seed % 6 + 1
    cls = [Classification.POSITIVE_RECURRENT, Classification.TRANSIENT,
           Classification.NULL_RECURRENT][seed % 3]
    model = random_model(seed, m, cls)
    roots = char_roots(solve_model(model))
    mods = np.abs(roots)
    xi_m, xi_m1 = roots[m - 1], roots[m]
    assert abs(xi_m.imag) <= 1e-8 and abs(xi_m1.imag) <= 1e-8
    if m > 1:
        assert mods[m - 2] < xi_m.real + 1e-8
    assert xi_m.real <= 1 + 1e-8
    assert xi_m1.real >= 1 - 1e-8
    if np.isfinite(mods[m + 1] if m + 1 < 2 * m else np.inf) and m + 1 < 2 * m:
        assert xi_m1.real <= mods[m + 1] + 1e-8


@pytest.mark.parametrize("d", SWEEP_DRIFTS)
def test_scalar_drift_sweep_matches_exact_roots(d):
    p = 0.3
    q = p - d
    s = solve_quietly(scalar_model(q, 1.0 - p - q, p, 1.0 - p))
    assert abs(s.G[0, 0] - min(1.0, q / p)) <= 1e-13
    assert abs(s.Ghat[0, 0] - min(1.0, p / q)) <= 1e-13


def test_with_drift_refuses_invalid_models():
    # |d| = 1e-1 mixes A_neg and A1 with t outside [0, 1]: negative entries
    base = random_model(1, 2, Classification.POSITIVE_RECURRENT)
    with pytest.raises(ValueError, match="outside"):
        with_drift(base, 1e-1)


@pytest.mark.parametrize("d", SWEEP_DRIFTS)
def test_random_drift_sweep_matches_extended_precision(d):
    model = with_drift(random_model(1, 4, Classification.POSITIVE_RECURRENT), d)
    s = solve_quietly(model)
    G = mp_minimal_solution(model.A_neg, model.A0, model.A1)
    Ghat = mp_minimal_solution(model.A1, model.A0, model.A_neg)
    assert np.abs(s.G - G).max() <= 1e-13
    assert np.abs(s.Ghat - Ghat).max() <= 1e-13


@pytest.mark.parametrize("d", [-2e-9, -1e-8])
@pytest.mark.parametrize("m", [3, 4, 8])
def test_poisson_just_outside_null_band(m, d):
    # g = (I - P) h: the level equations have an exact bounded solution
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, key=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u = np.asarray(solve_poisson(model, g).u)
    assert scaled_interior_residual(model, g, u) <= 1e-11


def test_cross_check_warns_on_flipped_drift(pr1):
    s = solve_model(pr1)
    _cross_checked(s.drift, s.G, s.Ghat, 1e-9)
    with pytest.warns(RuntimeWarning, match="disagrees"):
        _cross_checked(-s.drift, s.G, s.Ghat, 1e-9)
    model = random_model(2, 5, Classification.POSITIVE_RECURRENT)
    s = solve_model(model)
    with pytest.warns(RuntimeWarning, match="disagrees"):
        _cross_checked(-s.drift, s.G, s.Ghat, 1e-9)


def test_cross_check_reads_row_sums():
    s = solve_model(random_model(2, 5, Classification.POSITIVE_RECURRENT))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _cross_checked(s.drift, s.G, s.Ghat, 1e-9)
    Ghat_over = s.Ghat.copy()
    Ghat_over[0] *= (1.0 + 1e-10) / Ghat_over[0].sum()
    G_nan = s.G.copy()
    G_nan[1] = np.nan
    # owner substochastic, other superstochastic in one row, owner not finite
    for G, Ghat in ((s.G * (1.0 - 1e-10), s.Ghat), (s.G, Ghat_over),
                    (G_nan, s.Ghat)):
        with pytest.warns(RuntimeWarning, match="disagrees"):
            _cross_checked(s.drift, G, Ghat, 1e-9)


@pytest.mark.parametrize("drift_, band", [(2e-10, 1e-12), (5e-9, 1e-9)],
                         ids=["narrowed_band", "default_band"])
def test_stationary_refuses_transient_by_class(drift_, band):
    # P*'s row sums are within 1e-8 of 1 here; the class decides, not they
    model = with_drift(random_model(1, 3, Classification.POSITIVE_RECURRENT),
                       drift_)
    s = solve_model(model, null_band=band)
    assert s.classification is Classification.TRANSIENT
    Pstar = model.B + model.A1 @ s.G
    assert np.abs(Pstar.sum(axis=1) - 1.0).max() < 1e-8
    for mode in Normalization:
        with pytest.raises(ClassificationError, match="transient"):
            stationary(model, s, mode)
