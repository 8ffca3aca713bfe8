import numpy as np
import pytest
import scipy.linalg

from qbdpoisson import (Classification, NumericalError, random_model,
                        solve_model, split)
from conftest import near_singular_model, nilpotent_model, with_drift


def test_scalar_nonzero_target():
    sp = split(np.array([[1.0 / 3.0]]))
    assert sp.p == 1
    assert sp.nu == 1
    np.testing.assert_allclose(sp.M, [[1.0]])
    np.testing.assert_allclose(sp.V1, [[1.0 / 3.0]])
    assert sp.K.shape == (1, 0)
    assert sp.V0.shape == (0, 0)
    np.testing.assert_allclose(sp.L @ sp.E, [[1.0]])


def test_zero_matrix_is_its_own_nilpotent_part():
    sp = split(np.zeros((1, 1)))
    assert sp.p == 0
    assert sp.nu == 1
    np.testing.assert_array_equal(sp.V0, [[0.0]])
    assert sp.L.shape == (1, 0)


def test_canonical_nilpotent_block():
    target = np.array([[0.0, 1.0], [0.0, 0.0]])
    sp = split(target)
    assert sp.p == 0
    assert sp.nu == 2
    np.testing.assert_array_equal(sp.V0 @ sp.V0, np.zeros((2, 2)))
    # V0 is similar to the target
    np.testing.assert_allclose(sp.power(1), target, atol=1e-14)


def test_split_partition_identities(pr1):
    s = solve_model(pr1)
    sp = split(s.Ghat)
    m, p = sp.m, sp.p
    np.testing.assert_allclose(sp.E @ sp.L, np.eye(p), atol=1e-12)
    np.testing.assert_allclose(sp.F @ sp.K, np.eye(m - p), atol=1e-12)
    np.testing.assert_allclose(sp.E @ sp.K, np.zeros((p, m - p)), atol=1e-12)
    np.testing.assert_allclose(sp.F @ sp.L, np.zeros((m - p, p)), atol=1e-12)
    np.testing.assert_allclose(sp.L @ sp.E + sp.K @ sp.F, np.eye(m), atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_split_invariants_on_random_targets(seed):
    m = seed % 6 + 1
    cls = [Classification.POSITIVE_RECURRENT, Classification.TRANSIENT,
           Classification.NULL_RECURRENT][seed % 3]
    model = random_model(seed, m, cls)
    s = solve_model(model)
    target = np.asarray(s.Ghat)
    sp = split(target)
    scale = max(1.0, np.max(np.abs(target)))

    assert np.max(np.abs(target @ sp.M - sp.M @ sp.j_matrix())) <= 1e-10 * scale
    np.testing.assert_allclose(sp.M @ sp.m_inv(), np.eye(m), atol=1e-10)
    np.testing.assert_allclose(target @ sp.L, sp.L @ sp.V1, atol=1e-10 * scale)
    np.testing.assert_allclose(target @ sp.K, sp.K @ sp.V0, atol=1e-10 * scale)
    assert sp.nu <= max(1, m - sp.p)
    v0_nu = np.linalg.matrix_power(sp.V0, sp.nu) if sp.p < m else sp.V0
    assert not np.any(v0_nu) if sp.p < m else True
    if sp.p:
        assert np.min(np.abs(np.linalg.eigvals(sp.V1))) > sp.eps_zero
    np.testing.assert_allclose(sp.power(1), target, atol=1e-10 * scale)


@pytest.mark.parametrize("seed", range(6))
def test_power_identity(seed):
    # the k-th power splits as L V1^k E + K V0^k F
    m = seed % 6 + 1
    model = random_model(seed, m, Classification.POSITIVE_RECURRENT)
    s = solve_model(model)
    target = np.asarray(s.Ghat)
    sp = split(target)
    for k in range(m + 3):
        np.testing.assert_allclose(sp.power(k),
                                   np.linalg.matrix_power(target, k),
                                   atol=1e-8)


def test_split_rejects_straddling_eigenvalues():
    # an eigenvalue of 1e-13, above the cutoff 2 eps, makes the decoupling
    # transform blow up (||S|| 1e13); the refusal names the cutoff eps_zero
    from qbdpoisson import NumericalError
    target = np.array([[1e-13, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="eps_zero"):
        split(target)


def test_structurally_singular_up_block():
    # a rank-deficient up block forces zero eigenvalues in the reversed
    # first-passage matrix, exercising a nontrivial nilpotent part
    A1 = np.array([[0.2, 0.2], [0.0, 0.0]])
    A0 = np.array([[0.2, 0.1], [0.1, 0.3]])
    A_neg = np.array([[0.2, 0.1], [0.3, 0.3]])
    B = A_neg + A0
    from qbdpoisson import QbdModel
    model = QbdModel(B=B, A_neg=A_neg, A0=A0, A1=A1)
    s = solve_model(model)
    sp = split(s.Ghat)
    assert sp.p < 2
    np.testing.assert_allclose(sp.power(1), s.Ghat, atol=1e-10)


def _invertible_target(kind, m, seed):
    if kind == "near-singular":
        model = with_drift(near_singular_model(seed, m, 1e-7), -1e-4)
    else:
        model = random_model(seed, m, Classification(kind))
    return np.asarray(solve_model(model).Ghat)


def _no_schur(*args, **kwargs):
    raise AssertionError("an invertible target needs no Schur form")


def _no_refactor(*args, **kwargs):
    raise AssertionError("the shortcut keeps the factors its test took")


@pytest.mark.parametrize("kind, m", [("PositiveRecurrent", 3),
                                     ("Transient", 8),
                                     ("PositiveRecurrent", 32),
                                     ("near-singular", 8)])
@pytest.mark.parametrize("seed", range(2))
def test_invertible_target_is_split_by_identity(kind, m, seed, monkeypatch):
    # 1 / ||C^{-1}||_F above the cutoff bounds every eigenvalue away from it:
    # C is its own invertible part, p = m, and no Schur form is computed
    target = _invertible_target(kind, m, seed)
    cond = np.linalg.norm(target) * np.linalg.norm(np.linalg.inv(target))
    monkeypatch.setattr(scipy.linalg, "schur", _no_schur)
    monkeypatch.setattr(scipy.linalg, "lu_factor", _no_refactor)
    monkeypatch.setattr(np.linalg, "inv", _no_refactor)
    sp = split(target)
    assert (sp.p, sp.nu) == (m, 1)
    assert sp.K.shape == (m, 0) and sp.V0.shape == (0, 0)
    np.testing.assert_array_equal(sp.M, np.eye(m))
    np.testing.assert_array_equal(sp.V1, target)
    np.testing.assert_array_equal(sp.power(1), target)
    # V1^{-1} by LU solves: backward stable also at cond_F 1e8 (near-singular),
    # where the dense inverse leaves a relative residual of 1e-9
    z = np.random.default_rng(seed).normal(size=m)
    b = target @ z
    x = sp.v1_solve(b)
    scale = np.abs(target).max() * np.abs(x).max()
    assert np.abs(target @ x - b).max() <= m * 1e-15 * scale
    assert np.abs(x - z).max() <= 1e-14 * cond * np.abs(z).max()
    assert np.abs(sp.v1_inv @ b - z).max() <= 1e-14 * cond * np.abs(z).max()


@pytest.mark.parametrize("m", [3, 4, 6])
def test_singular_target_keeps_the_schur_route(m):
    # rank Ghat = rank A1 = m - 2: the Schur route, with p = m - 2 and nu = 2
    target = solve_model(nilpotent_model(m, m)).Ghat
    sp = split(target)
    assert (sp.p, sp.nu) == (m - 2, 2)
    assert not np.array_equal(sp.M, np.eye(m))
    np.testing.assert_allclose(sp.power(1), target, atol=1e-12)
    z = np.random.default_rng(m).normal(size=m - 2)
    np.testing.assert_allclose(sp.v1_solve(sp.V1 @ z), z, rtol=1e-10)


def test_v1_solve_without_invertible_part():
    sp = split(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert sp.p == 0
    assert sp.v1_solve(np.zeros(0)).shape == (0,)


def test_empty_target_splits_without_a_lapack_message(capfd):
    # LAPACK's getrf refuses n = 0 with a message its xerbla writes straight
    # to a file descriptor (fd 1 with scipy's LAPACK); the empty split is
    # p = 0, nu = 1 without asking it
    sp = split(np.zeros((0, 0)))
    assert (sp.p, sp.nu, sp.m) == (0, 1, 0)
    for block in (sp.M, sp.V1, sp.V0, sp.L, sp.K, sp.E, sp.F):
        assert block.shape == (0, 0)
    assert sp.v1_solve(np.zeros(0)).shape == (0,)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_huge_targets_split_without_overflow(scale):
    # the Schur sort compares |lambda| with eps_zero; squaring both sides
    # would overflow at these scales
    with pytest.raises(NumericalError, match="nilpotent block failed to annihilate"):
        split(np.triu(np.full((4, 4), scale), 1))
    target = np.full((3, 3), scale)
    sp = split(target)
    assert sp.p == 1
    assert np.abs(sp.power(1) - target).max() <= 1e-14 * scale
