import dataclasses
import warnings

import numpy as np
import pytest

from qbdpoisson import (Classification, ClassificationError, Normalization,
                        NumericalError, QbdModel, char_roots, classify,
                        drift, qme, random_model, solve_model, solve_poisson,
                        solve_qme, stationary)
from qbdpoisson._linalg import spectral_radius
from qbdpoisson.qme import (NULL_BAND, _cross_checked, _cyclic_reduction,
                            qme_residual)

from conftest import (balanced_rhs, minimal_nonneg_root, near_singular_model,
                      nilpotent_model, scalar_model, scaled_interior_residual,
                      with_drift)

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


def test_solve_qme_reports_non_convergence(monkeypatch):
    # the shifted reduction needs 5 steps on this chain
    model = random_model(0, 4, Classification.POSITIVE_RECURRENT)
    monkeypatch.setattr(qme, "QME_MAX_ITER", 3)
    with pytest.raises(NumericalError, match="after 3 iterations.*last residual"):
        solve_qme(model.A_neg, model.A0, model.A1)
    monkeypatch.setattr(qme, "QME_MAX_ITER", 5)
    solve_qme(model.A_neg, model.A0, model.A1)


def test_cyclic_reduction_refuses_singular_i_minus_a0():
    # A_mid = I leaves I - A_mid exactly singular at the first step
    zero = np.zeros((2, 2))
    with pytest.raises(NumericalError, match="I - A0 became singular"):
        _cyclic_reduction(zero, np.eye(2), zero)


class _Reduced(Exception):
    pass


@pytest.mark.parametrize("theta", ["given", "none"])
@pytest.mark.parametrize("m", [1, 3, 64])
def test_shifted_blocks_equal_the_explicit_products(m, theta, monkeypatch):
    # both shifts form their blocks as rank-one updates; they must agree
    # with the products by Q (1 theta^T, 0 without theta, or 1 u^T) to
    # rounding, 8 m eps times the block's largest entry
    rng = np.random.default_rng(m)
    A_low, A_mid, A_high = rng.uniform(size=(3, m, m))
    eye, t = np.eye(m), rng.uniform(size=m)
    t = t / t.sum() if theta == "given" else None
    Q = np.zeros((m, m)) if t is None else np.outer(np.ones(m), t)
    blocks = []

    def reduction(low, mid, high):
        blocks.extend([mid, high])
        raise _Reduced

    monkeypatch.setattr(qme, "_cyclic_reduction", reduction)
    with pytest.raises(_Reduced):
        qme._left_shifted(A_low, A_mid, A_high, t)
    Qu, low_u, mid_u = qme._right_shifted_blocks(A_low, A_mid, A_high)
    np.testing.assert_array_equal(Qu, np.full((m, m), 1.0 / m))
    expected = [A_mid + Q @ A_low, (eye - Q) @ A_high,
                A_low @ (eye - Qu), A_mid + A_high @ Qu]
    for got, want in zip(blocks + [low_u, mid_u], expected):
        assert np.abs(got - want).max() <= 8 * m * np.finfo(float).eps * np.abs(want).max()


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
    assert classify(s) is Classification.POSITIVE_RECURRENT


@pytest.mark.parametrize("d", [-1e-6, 1e-6])
def test_classify_reads_the_class_solve_model_decided(d, monkeypatch):
    # inside a null band of 1e-5 the chain is null recurrent whatever the
    # sign of its drift; classify must not decide again at another band
    model = with_drift(random_model(1, 3, Classification.POSITIVE_RECURRENT), d)
    monkeypatch.setattr(qme, "NULL_BAND", 1e-5)
    sols = solve_model(model)
    assert sols.classification is Classification.NULL_RECURRENT
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(sols) is sols.classification


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


def _pair_cases():
    """(id, model, null band): random chains of every class, near-critical
    drifts under a zero band (so that one reduction runs), singular and
    nearly singular A1, and m = 64."""
    cases = [(f"{cls.value}-s{s}-m{m}", random_model(s, m, cls), NULL_BAND)
             for cls in Classification for s in (0, 1, 2)
             for m in (1, 2, 3, 8, 32)]
    cases += [(f"drift{sign * mag:g}-m{m}", with_drift(random_model(
        1, m, Classification.POSITIVE_RECURRENT), sign * mag), 0.0)
        for mag in (1e-3, 1e-7, 2e-9, 1e-12) for sign in (-1.0, 1.0)
        for m in (3, 8)]
    cases += [(f"nilpotent-s{s}", nilpotent_model(s, 4), NULL_BAND)
              for s in (0, 1, 2)]
    cases += [(f"near_singular-s{s}", near_singular_model(s, 8, 1e-7), NULL_BAND)
              for s in (0, 1, 2)]
    cases += [(f"{cls.value}-m64", random_model(3, 64, cls), NULL_BAND)
              for cls in (Classification.POSITIVE_RECURRENT,
                          Classification.TRANSIENT)]
    return cases


PAIR_CASES = _pair_cases()


@pytest.mark.parametrize("model, band", [c[1:] for c in PAIR_CASES],
                         ids=[c[0] for c in PAIR_CASES])
def test_solve_model_agrees_with_one_run_per_orientation(model, band, monkeypatch):
    # outside the band G and Ghat come from one reduction; solve_qme runs
    # one shifted reduction per orientation
    monkeypatch.setattr(qme, "NULL_BAND", band)
    s = solve_model(model)
    two_runs = (solve_qme(model.A_neg, model.A0, model.A1),
                solve_qme(model.A1, model.A0, model.A_neg))
    for X, X_ref, blocks in ((s.G, two_runs[0], (model.A_neg, model.A0, model.A1)),
                             (s.Ghat, two_runs[1], (model.A1, model.A0, model.A_neg))):
        assert np.abs(X - X_ref).max() <= 1e-15
        assert qme_residual(*blocks, X) <= 1e-15


def _drift_over_1000_levels(G) -> float:
    """max |G^1000 1 - 1|, by 1000 products with a vector."""
    v = np.ones(len(G))
    for _ in range(1000):
        v = G @ v
    return np.abs(v - 1.0).max()


@pytest.mark.parametrize("m", [3, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_owner_keeps_unit_row_sums_over_many_levels(seed, m):
    # G^1000 1 = 1 needs G 1 = 1 to rounding, which the restored dual solvent
    # gets from its fixed-point step
    G = solve_model(random_model(seed, m, Classification.POSITIVE_RECURRENT)).G
    assert _drift_over_1000_levels(G) <= 1e-14


@pytest.mark.parametrize("cls, seed", [
    (Classification.POSITIVE_RECURRENT, 3), (Classification.POSITIVE_RECURRENT, 43),
    (Classification.POSITIVE_RECURRENT, 45), (Classification.NULL_RECURRENT, 6),
    (Classification.NULL_RECURRENT, 42), (Classification.NULL_RECURRENT, 51),
], ids=lambda v: getattr(v, "value", v))
def test_unit_row_sums_hold_where_one_over_m_is_inexact(cls, seed):
    # Q = 1 u^T with u = fl(1/3) has row sums 1 - e, e = 2^-54; the right
    # shift's A_low (I - Q) must have row sums e A_low 1 to rounding, or G 1
    # falls below 1 and G^1000 1 drifts, by up to 2e-13 when they are 0
    assert _drift_over_1000_levels(solve_model(random_model(seed, 3, cls)).G) <= 1e-14


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
    # solve_qme gives the minimal roots at every drift; solve_model gives
    # them outside the null band and the stochastic root 1 inside it
    p = 0.3
    q = p - d
    model = scalar_model(q, 1.0 - p - q, p, 1.0 - p)
    s = solve_quietly(model)
    in_band = abs(d) <= NULL_BAND
    for X, blocks, minimal in (
            (s.G, (model.A_neg, model.A0, model.A1), min(1.0, q / p)),
            (s.Ghat, (model.A1, model.A0, model.A_neg), min(1.0, p / q))):
        assert abs(solve_qme(*blocks)[0, 0] - minimal) <= 1e-13
        assert abs(X[0, 0] - (1.0 if in_band else minimal)) <= 1e-13


def test_with_drift_refuses_invalid_models():
    # |d| = 1e-1 mixes A_neg and A1 with t outside [0, 1]: negative entries
    base = random_model(1, 2, Classification.POSITIVE_RECURRENT)
    with pytest.raises(ValueError, match="outside"):
        with_drift(base, 1e-1)


def _non_unit_eigenvalues(X):
    """The eigenvalues of X but the one nearest 1."""
    eig = np.linalg.eigvals(X)
    return np.delete(eig, np.argmin(np.abs(eig - 1.0)))


@pytest.mark.parametrize("d", SWEEP_DRIFTS)
def test_random_drift_sweep_matches_extended_precision(d):
    # solve_qme gives the minimal solvents at every drift; solve_model gives
    # them outside the null band, and inside it the stochastic solvents: unit
    # row sums, and the minimal solvent's eigenvalues but the one near 1
    model = with_drift(random_model(1, 4, Classification.POSITIVE_RECURRENT), d)
    s = solve_quietly(model)
    for X, blocks in ((s.G, (model.A_neg, model.A0, model.A1)),
                      (s.Ghat, (model.A1, model.A0, model.A_neg))):
        minimal = mp_minimal_solution(*blocks)
        assert np.abs(solve_qme(*blocks) - minimal).max() <= 1e-13
        if abs(d) > NULL_BAND:
            assert np.abs(X - minimal).max() <= 1e-13
            continue
        assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-13
        assert qme_residual(*blocks, X) <= 1e-13
        got, want = _non_unit_eigenvalues(X), _non_unit_eigenvalues(minimal)
        assert np.abs(got[:, None] - want[None, :]).min(axis=0).max() <= 1e-13
        assert np.abs(got[:, None] - want[None, :]).min(axis=1).max() <= 1e-13


@pytest.mark.parametrize("d", [sign * mag for mag in (1e-15, 1e-12, 1e-10, 9e-10)
                               for sign in (-1.0, 1.0)])
@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_in_band_solvents_hold_both_unit_roots(m, d):
    # null recurrent: xi_m = xi_{m+1} = 1, and pi_0 of P* = B + A1 G solves
    # pi_0^T (I - P*) = 0, to rounding at every drift in the band
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    s = solve_quietly(model)
    assert s.classification is Classification.NULL_RECURRENT
    roots = char_roots(s)
    assert np.abs(roots[m - 1:m + 1] - 1.0).max() <= 1e-12
    pi0 = stationary(model, s, Normalization.UNIT_SUM).pi0
    assert np.abs(pi0 @ (np.eye(m) - model.B - model.A1 @ s.G)).max() <= 1e-14


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
    _cross_checked(s.classification, s.drift, s.G, s.Ghat)
    with pytest.warns(RuntimeWarning, match="disagrees"):
        _cross_checked(Classification.TRANSIENT, -s.drift, s.G, s.Ghat)
    model = random_model(2, 5, Classification.POSITIVE_RECURRENT)
    s = solve_model(model)
    with pytest.warns(RuntimeWarning, match="disagrees"):
        _cross_checked(Classification.TRANSIENT, -s.drift, s.G, s.Ghat)


def test_cross_check_reads_row_sums():
    s = solve_model(random_model(2, 5, Classification.POSITIVE_RECURRENT))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _cross_checked(s.classification, s.drift, s.G, s.Ghat)
    Ghat_over = s.Ghat.copy()
    Ghat_over[0] *= (1.0 + 1e-10) / Ghat_over[0].sum()
    G_nan = s.G.copy()
    G_nan[1] = np.nan
    # owner substochastic, other superstochastic in one row, owner not finite
    for G, Ghat in ((s.G * (1.0 - 1e-10), s.Ghat), (s.G, Ghat_over),
                    (G_nan, s.Ghat)):
        with pytest.warns(RuntimeWarning, match="disagrees"):
            _cross_checked(s.classification, s.drift, G, Ghat)
    # in the null band G owns the unit root at d > 0 too: the minimal G,
    # stochastic only to O(d), contradicts the class
    model = with_drift(random_model(2, 5, Classification.POSITIVE_RECURRENT), 1e-10)
    s = solve_model(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _cross_checked(s.classification, s.drift, s.G, s.Ghat)
    with pytest.warns(RuntimeWarning, match="disagrees"):
        _cross_checked(s.classification, s.drift,
                       solve_qme(model.A_neg, model.A0, model.A1), s.Ghat)


@pytest.mark.parametrize("d", [-1e-10, 0.0, 1e-10, None],
                         ids=["minus", "zero", "plus", "nr1"])
def test_in_band_ghat_is_solved_on_first_read(d, nr1, reduction_calls):
    # solve_model reduces for G alone; the first read of Ghat runs the one
    # reduction of the reversed equation, later reads none, and the value
    # is the eager one bit for bit, so classify and char_roots are too
    model = nr1 if d is None else with_drift(
        random_model(1, 4, Classification.POSITIVE_RECURRENT), d)
    s = solve_quietly(model)
    assert s.classification is Classification.NULL_RECURRENT
    assert len(reduction_calls) == 1
    reduction_calls.clear()
    Ghat = s.Ghat
    assert len(reduction_calls) == 1
    assert s.Ghat is Ghat and len(reduction_calls) == 1
    assert not Ghat.flags.writeable
    eager = qme._stochastic_solvent(model.A1, model.A0, model.A_neg)
    assert Ghat.dtype == eager.dtype and np.array_equal(Ghat, eager)
    built = dataclasses.replace(solve_quietly(model), Ghat=eager)
    reduction_calls.clear()
    assert np.array_equal(char_roots(solve_quietly(model)), char_roots(built))
    assert classify(solve_quietly(model)) is classify(built)
    assert len(reduction_calls) == 4    # per fresh record: G, then Ghat's read


def test_in_band_ghat_row_sums_are_checked_on_first_read(monkeypatch):
    # the cross-check of Ghat's row sums runs where Ghat is solved: a Ghat
    # off by 1e-10 passes solve_model quietly and warns when first read
    model = with_drift(random_model(2, 5, Classification.POSITIVE_RECURRENT), 1e-10)
    solvent = qme._stochastic_solvent

    def off(A_low, A_mid, A_high):
        X = solvent(A_low, A_mid, A_high)
        return X * (1.0 - 1e-10) if A_low is model.A1 else X

    monkeypatch.setattr(qme, "_stochastic_solvent", off)
    s = solve_quietly(model)
    with pytest.warns(RuntimeWarning, match="disagrees.*Ghat 0.99999"):
        assert s.Ghat.shape == (5, 5)


@pytest.mark.parametrize("entry", ["Ghat", "classify", "char_roots",
                                   "solve_poisson"])
def test_cross_check_warning_names_the_callers_line(entry, monkeypatch):
    # no row sum is within a negative tolerance of 1, so every cross-check
    # contradicts its class; the warning names the first frame outside the
    # package, here, whatever qbdpoisson frames lie in between
    pr = random_model(2, 5, Classification.POSITIVE_RECURRENT)
    in_band = with_drift(pr, 1e-10)
    s_pr, s_band = solve_quietly(pr), solve_quietly(in_band)
    monkeypatch.setattr(qme, "_UNIT_TOL", -1.0)
    calls = {"Ghat": lambda: s_band.Ghat,
             "classify": lambda: classify(s_pr),
             "char_roots": lambda: char_roots(s_band),
             "solve_poisson": lambda: solve_poisson(pr, balanced_rhs(pr, 3))}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        calls[entry]()
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "disagrees" in str(caught[0].message)
    assert caught[0].filename == __file__


@pytest.mark.parametrize("cls", [Classification.POSITIVE_RECURRENT,
                                 Classification.TRANSIENT],
                         ids=lambda cls: cls.value)
@pytest.mark.parametrize("m", [1, 2, 3, 8, 32])
def test_in_band_solvents_are_stochastic_to_rounding(m, cls):
    # the right-shifted low block annihilates 1, so both in-band solvents
    # have unit row sums to rounding, far inside the cross-check's 1e-12:
    # Ghat's check can wait for its first read without missing a solve
    for seed in (0, 1):
        for d in (-9e-10, -1e-10, 0.0, 1e-10, 9e-10):
            model = with_drift(random_model(seed, m, cls), d)
            s = solve_quietly(model)
            assert s.classification is Classification.NULL_RECURRENT
            for X in (s.G, s.Ghat):
                assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-14, (seed, d)


@pytest.mark.parametrize("drift_, band", [(2e-10, 1e-12), (5e-9, 1e-9)],
                         ids=["narrowed_band", "default_band"])
def test_stationary_refuses_transient_by_class(drift_, band, monkeypatch):
    # P*'s row sums are within 1e-8 of 1 here; the class decides, not they
    model = with_drift(random_model(1, 3, Classification.POSITIVE_RECURRENT),
                       drift_)
    monkeypatch.setattr(qme, "NULL_BAND", band)
    s = solve_model(model)
    assert s.classification is Classification.TRANSIENT
    Pstar = model.B + model.A1 @ s.G
    assert np.abs(Pstar.sum(axis=1) - 1.0).max() < 1e-8
    for mode in Normalization:
        with pytest.raises(ClassificationError, match="transient"):
            stationary(model, s, mode)
