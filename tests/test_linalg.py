"""The real dense kernel of _linalg: inverse (LAPACK getrf + getri) and
solve (gesv on a vector, the inverse and a product on a matrix), their edge
inputs, and the errors their callers raise; and the edge inputs of the other
small helpers of _linalg, spectral.split and verify.random_model."""

import numpy as np
import pytest

from qbdpoisson import (Classification, NumericalError, _linalg, qme, random_model,
                        spectral, verify)
from qbdpoisson._linalg import inverse, solve

SIZES = [1, 8, 64]


def _well_conditioned(m: int, seed: int = 0) -> np.ndarray:
    # eigenvalues within about sqrt(m) of 3 sqrt(m): condition number O(1)
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, m)) + 3.0 * np.sqrt(m) * np.eye(m)


def _rel(x, ref) -> float:
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("m", SIZES)
def test_kernel_agrees_with_numpy(m, capfd):
    rng = np.random.default_rng(m)
    for seed in range(5):
        a = _well_conditioned(m, seed)
        assert _rel(inverse(a), np.linalg.inv(a)) <= 1e-13
        for b in (rng.standard_normal(m), rng.standard_normal((m, 3))):
            x = solve(a, b)
            assert x.shape == b.shape
            assert _rel(x, np.linalg.solve(a, b)) <= 1e-13
    assert capfd.readouterr() == ("", "")


def test_empty_matrix_skips_lapack(monkeypatch, capfd):
    # LAPACK's getrf refuses n = 0 with a message on stdout
    nilpotent = spectral.split(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert nilpotent.p == 0

    def refused(*args, **kwargs):
        raise AssertionError("LAPACK called on an empty matrix")

    for name in ("dgetrf", "dgetri", "dgesv"):
        monkeypatch.setattr(_linalg.lapack, name, refused)
    empty = np.zeros((0, 0))
    assert inverse(empty).shape == (0, 0)
    assert solve(empty, np.zeros(0)).shape == (0,)
    assert solve(empty, np.zeros((0, 3))).shape == (0, 3)
    assert nilpotent.v1_inv.shape == (0, 0)
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("m", SIZES)
def test_exactly_singular_raises_linalg_error(m, capfd):
    a = _well_conditioned(m)
    a[m - 1] = a[0] if m > 1 else 0.0      # two equal rows: a zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        inverse(a)
    with pytest.raises(np.linalg.LinAlgError):
        solve(a, np.ones(m))
    with pytest.raises(np.linalg.LinAlgError):
        solve(a, np.ones((m, 2)))
    assert capfd.readouterr() == ("", "")


SINGULAR_CALLERS = {
    # I - A_mid = 0 on the first step
    "cyclic_reduction": (lambda: qme._cyclic_reduction(
        np.full((2, 2), 0.25), np.eye(2), np.full((2, 2), 0.25)),
        "cyclic reduction: I - A0 became singular"),
    "reduction_solve": (lambda: qme._solve(np.zeros((2, 2)), np.eye(2)),
                        "cyclic reduction: I - U is singular"),
    # I - A + u 1^T = 0
    "bordered": (lambda: _linalg.unit_eigenvector(
        np.array([[1.5, 0.5], [0.5, 1.5]])),
        "unit eigenvector: bordered system is singular"),
    "checked_inverse": (lambda: _linalg.checked_inverse(
        np.zeros((3, 3)), 1e14, "zero"),
        "zero (Frobenius condition number inf, limit 1e+14)"),
}


@pytest.mark.parametrize("case", sorted(SINGULAR_CALLERS))
def test_singular_maps_to_the_callers_error(case):
    call, message = SINGULAR_CALLERS[case]
    with pytest.raises(NumericalError) as info:
        call()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("m", SIZES)
def test_nan_is_refused_by_the_gate(m):
    a = _well_conditioned(m)
    a[m // 2, 0] = np.nan
    with pytest.raises(NumericalError, match="Frobenius condition number"):
        _linalg.checked_inverse(a, 1e14, "a")


def _stationary_overflow():
    # the bordered system I - P^T + u 1^T is, to rounding, M = 2^-52 I minus
    # ones above the diagonal: its solution doubles per row and overflows
    n = 20
    M = 2.0 ** -52 * np.eye(n) - np.triu(np.ones((n, n)), 1)
    return _linalg.stationary_vector((np.eye(n) + np.full((n, n), 1.0 / n) - M).T)


EDGE_INPUTS = {
    "spectral_radius_empty": (lambda mp: _linalg.spectral_radius(np.zeros((0, 0))), 0.0),
    "condition_number_empty": (lambda mp: _linalg.condition_number(np.zeros((0, 0))), 1.0),
    "condition_number_nan": (lambda mp: _linalg.condition_number(
        np.array([[np.nan, 1.0], [0.0, 1.0]])), np.inf),
    "stationary_overflow": (lambda mp: _stationary_overflow(), (
        NumericalError, "unit eigenvector: normalization failed")),
    "split_not_square": (lambda mp: spectral.split(np.zeros((2, 3))), (
        ValueError, r"target must be square, got shape \(2, 3\)")),
    # V0^3 overflows to inf, then inf * 0 gives NaN: no numpy warning, the
    # named refusal only
    "split_nilpotent_overflow": (lambda mp: spectral.split(
        np.triu(np.full((4, 4), 1e120), 1)), (
        NumericalError, "nilpotent block failed to annihilate within 4 powers")),
    "random_model_no_phase": (lambda mp: random_model(
        0, 0, Classification.POSITIVE_RECURRENT), (
        ValueError, "phase count must be positive, got 0")),
    # no draw has |drift| >= 10, so every one of the 50 is thrown away
    "random_model_retries": (lambda mp: (
        mp.setattr(verify, "_DRIFT_MARGIN", 10.0),
        random_model(0, 3, Classification.POSITIVE_RECURRENT)), (
        NumericalError, "after 50 attempts")),
}


@pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
def test_edge_inputs_get_their_value_or_named_refusal(case, monkeypatch):
    # each reaches a branch no other test runs; a refusal is the named error
    # alone, which the suite's error::RuntimeWarning filter would preempt
    call, want = EDGE_INPUTS[case]
    if isinstance(want, tuple):
        with pytest.raises(want[0], match=want[1]):
            call(monkeypatch)
    else:
        assert call(monkeypatch) == want
