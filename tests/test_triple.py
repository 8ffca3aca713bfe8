import numpy as np
import pytest

from qbdpoisson import (Classification, NumericalError, QbdModel, build_triple,
                        check_identities, compute_w, eta, random_model,
                        solve_model, split, w_series)

from conftest import with_drift


def geometric_series_w(G, U, R, terms=400):
    """Oracle: truncated defining series, plain summation."""
    m = G.shape[0]
    core = np.linalg.solve(U - np.eye(m), np.eye(m))
    total = np.zeros((m, m))
    term = core.copy()
    for _ in range(terms):
        total += term
        term = G @ term @ R
    return total


def test_w_scalar_values(pr1, tr1):
    # scalar oracle: sum G^j (U-1)^{-1} R^j = (1/(U-1)) / (1 - G R)
    for model, g_val, r_val in [(pr1, 1.0, 1.0 / 3.0), (tr1, 1.0 / 3.0, 1.0)]:
        s = solve_model(model)
        expected = (1.0 / (0.4 - 1.0)) / (1.0 - g_val * r_val)
        assert expected == pytest.approx(-2.5, abs=1e-14)
        w = compute_w(s.G, s.U, s.R, s.Ghat)
        assert w.W[0, 0] == pytest.approx(-2.5, abs=1e-12)
        # closed-form inverse: (1-U)(G Ghat - 1) = 0.6 * (1/3 - 1) = -0.4
        assert w.W_inv[0, 0] == pytest.approx(-0.4, abs=1e-12)


def test_w_closed_form_matches_series(pr1):
    s = solve_model(pr1)
    w = compute_w(s.G, s.U, s.R, s.Ghat)
    np.testing.assert_allclose(w.W, geometric_series_w(s.G, s.U, s.R),
                               atol=1e-10)
    np.testing.assert_allclose(w.W, w_series(s.G, s.U, s.R), atol=1e-10)


def test_w_rejects_null_recurrent_input(nr1):
    s = solve_model(nr1)
    with pytest.raises(NumericalError, match="null recurrent"):
        compute_w(s.G, s.U, s.R, s.Ghat)
    with pytest.raises(NumericalError):
        w_series(s.G, s.U, s.R)


def test_w_check_catches_corrupted_ghat():
    # near-critical: the series converges too slowly to sum, yet the
    # similarity W R = Ghat W still exposes a Ghat that is off by 1e-6
    model = with_drift(random_model(1, 4, Classification.POSITIVE_RECURRENT), -1e-5)
    s = solve_model(model)
    compute_w(s.G, s.U, s.R, s.Ghat)
    with pytest.raises(NumericalError, match="W R = Ghat W"):
        compute_w(s.G, s.U, s.R, s.Ghat + 1e-6)


def test_w_check_refuses_nan_in_r():
    # a NaN residual must not pass the similarity check
    s = solve_model(random_model(0, 3, Classification.POSITIVE_RECURRENT))
    R = s.R.copy()
    R[1, 2] = np.nan
    with pytest.raises(NumericalError, match="W R = Ghat W by nan"):
        compute_w(s.G, s.U, R, s.Ghat)


def test_w_check_sees_corruption_in_null_space_of_g():
    # a zero column of A_neg is a zero column of G; a corruption of Ghat
    # with range in null(G) leaves G Ghat, hence W and its series, unchanged
    base = random_model(1, 4, Classification.TRANSIENT)
    A_neg, A0 = base.A_neg.copy(), base.A0.copy()
    A0[:, 0] += A_neg[:, 0]
    A_neg[:, 0] = 0.0
    model = QbdModel(B=A_neg + A0, A_neg=A_neg, A0=A0, A1=base.A1)
    s = solve_model(model)
    corruption = np.zeros((4, 4))
    corruption[0] = 1e-6
    assert np.abs(s.G @ corruption).max() == 0.0
    compute_w(s.G, s.U, s.R, s.Ghat)
    with pytest.raises(NumericalError, match="W R = Ghat W"):
        compute_w(s.G, s.U, s.R, s.Ghat + corruption)


def test_triple_assembly_scalar(pr1):
    s = solve_model(pr1)
    sp = split(s.Ghat)
    w = compute_w(s.G, s.U, s.R, s.Ghat)
    t = build_triple(s.G, sp, w.W)
    np.testing.assert_allclose(t.X1, [[1.0, 1.0]], atol=1e-12)
    assert t.X2.shape == (1, 0)
    np.testing.assert_allclose(t.T1, np.diag([1.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(t.Z1.ravel(), [-2.5, 2.5], atol=1e-12)


def test_resolvent_identity_scalar(pr1):
    # eta(2) = 0.6 - 1.6 + 0.8 = -0.2; the triple must reproduce 1/eta(2) = -5
    s = solve_model(pr1)
    sp = split(s.Ghat)
    w = compute_w(s.G, s.U, s.R, s.Ghat)
    t = build_triple(s.G, sp, w.W)
    assert eta(pr1, 2.0)[0, 0] == pytest.approx(-0.2, abs=1e-15)
    assert t.resolvent(2.0)[0, 0] == pytest.approx(-5.0, abs=1e-12)


def test_identity_suite_scalar(pr1, tr1):
    for model in (pr1, tr1):
        s = solve_model(model)
        sp = split(s.Ghat)
        w = compute_w(s.G, s.U, s.R, s.Ghat)
        report = check_identities(model, s, sp, w)
        for name, value in report.items():
            if name == "pair_condition_number":
                assert value < 1e12
            else:
                assert value < 1e-12, f"{name} = {value}"


@pytest.mark.parametrize("seed", range(10))
def test_identity_suite_random(seed):
    m = seed % 6 + 1
    cls = Classification.POSITIVE_RECURRENT if seed % 2 == 0 else Classification.TRANSIENT
    model = random_model(seed, m, cls)
    s = solve_model(model)
    sp = split(s.Ghat)
    w = compute_w(s.G, s.U, s.R, s.Ghat)
    np.testing.assert_allclose(w.W, geometric_series_w(s.G, s.U, s.R, terms=2000),
                               atol=1e-8 * (1 + np.max(np.abs(w.W))))
    report = check_identities(model, s, sp, w)
    for name, value in report.items():
        if name == "pair_condition_number":
            assert value < 1e12
        else:
            assert value < 1e-8, f"{name} = {value}"
