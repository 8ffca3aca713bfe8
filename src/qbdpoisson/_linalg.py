"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

from .exceptions import NumericalError

Array = np.ndarray

# an eigenvalue within 1e-8 of 1 counts as the unit one (null-band chains
# with nonzero drift are off by O(drift))
_UNIT_EIGEN_TOL = 1e-8


def as_readonly(a, *, dtype=float) -> Array:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def norm_inf(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def spectral_radius(a: Array) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def stationary_vector(P: Array) -> Array:
    """Left Perron vector of a row-stochastic irreducible matrix, unit sum."""
    return unit_eigenvector(P, left=True)


def unit_eigenvector(X: Array, *, left: bool = False) -> Array:
    """Eigenvector of X for its eigenvalue at or next to 1, unit sum.

    With A = X^T when ``left`` (else X) and u uniform, solves the bordered
    system (I - A + u 1^T) z = u and rescales z to 1^T z = 1.  For a
    nonnegative irreducible A with spectral radius 1 the system is
    nonsingular and z is the Perron vector.  When the Perron root is just
    below 1, the same solve is one step of inverse iteration with a shift
    next to it, so z is accurate to within the distance of the root from 1.
    A residual ||A z - z|| above ``_UNIT_EIGEN_TOL`` ||z|| raises
    :class:`NumericalError`: 1 is then not (close to) an eigenvalue.
    """
    A = X.T if left else X
    n = A.shape[0]
    z = np.ones(1)
    if n > 1:
        u = np.full(n, 1.0 / n)
        M = np.eye(n) - A + np.outer(u, np.ones(n))
        try:
            z = np.linalg.solve(M, u)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("unit eigenvector: bordered system is singular "
                                 "(matrix appears reducible)") from exc
        s = z.sum()
        if s == 0.0 or not np.isfinite(s):
            raise NumericalError("unit eigenvector: normalization failed "
                                 "(matrix appears reducible)")
        z = z / s
    residual = norm_inf(A @ z - z)
    if not residual <= _UNIT_EIGEN_TOL * norm_inf(z):
        raise NumericalError(f"unit eigenvector: ||A z - z|| = {residual:.3e}; "
                             "1 is not an eigenvalue of the matrix")
    return z


def checked_inverse(a: Array, limit: float, what: str) -> Array:
    """a^{-1}, refused with :class:`NumericalError` (``what``, value, limit)
    unless cond_F(a) = ||a||_F ||a^{-1}||_F <= ``limit``; NaN and a singular
    ``a`` fail.  cond_2 <= cond_F <= m cond_2: no gate is looser than cond_2's."""
    try:
        inv = np.linalg.inv(a)
        cond = float(np.linalg.norm(a)) * float(np.linalg.norm(inv))
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= limit:
        raise NumericalError(f"{what} (Frobenius condition number {cond:.3e}, "
                             f"limit {limit:.0e})")
    return inv


def condition_number(a: Array) -> float:
    if a.size == 0:
        return 1.0
    try:
        return float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        return np.inf
