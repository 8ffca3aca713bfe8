"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .exceptions import NumericalError

Array = np.ndarray

# an eigenvalue within 1e-8 of 1 counts as the unit one (inputs are validated
# only to STOCHASTIC_TOL, so a valid chain's unit eigenvalue is not exact)
_UNIT_EIGEN_TOL = 1e-8


def as_readonly(a) -> Array:
    """``a`` itself, adopted, not copied, when it is a read-only float64 ndarray
    that owns its memory, else a read-only copy; a holder that turns an adopted
    array's writes back on (``a.setflags(write=True)``) changes its records."""
    if (type(a) is np.ndarray and a.dtype == float and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def frozen(a: Array) -> Array:
    """``a`` marked read-only in place, so that a record adopts it uncopied;
    for an array the caller has just computed, never for one it was passed."""
    a.setflags(write=False)
    return a


class FrozenRecord:
    """Base of the frozen result dataclasses: every field that holds an
    ndarray is replaced by :func:`as_readonly` of it, adopted or copied."""

    def __post_init__(self):
        # the instance dict holds exactly the fields until __init__ returns
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, as_readonly(value))


def gate(value: float, limit: float, what: str, measure: str) -> None:
    """The one comparison of every numerical gate: :class:`NumericalError`
    "<what> (<measure> <value>, limit <limit>)" unless value <= limit; NaN fails."""
    if not value <= limit:
        limit_text = np.format_float_scientific(limit, precision=3, trim="-")
        raise NumericalError(f"{what} ({measure} {value:.3e}, limit {limit_text})")


def norm_inf(a) -> float:
    """Largest |entry| of ``a``: for a matrix the max norm, not the max row sum."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def spectral_radius(a: Array) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def stationary_vector(P: Array) -> Array:
    """Left eigenvector of P for its eigenvalue at or next to 1, unit sum.

    With A = P^T and u uniform, solves the bordered system
    (I - A + u 1^T) z = u and rescales z to 1^T z = 1.  For a nonnegative
    irreducible A with spectral radius 1 the system is nonsingular and z is
    the Perron vector.  When the Perron root is just below 1, the same solve
    is one step of inverse iteration with a shift next to it, so z is
    accurate to within the distance of the root from 1.  A residual
    ||A z - z|| above ``_UNIT_EIGEN_TOL`` ||z|| fails the :func:`gate`: 1 is
    then not (close to) an eigenvalue.
    """
    A = P.T
    n = A.shape[0]
    u = np.full(n, 1.0 / n)
    M = np.eye(n) - A + np.outer(u, np.ones(n))
    try:
        z = solve(M, u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("unit eigenvector: bordered system is singular "
                             "(matrix appears reducible)") from exc
    s = z.sum()
    if s == 0.0 or not np.isfinite(s):
        raise NumericalError("unit eigenvector: normalization failed "
                             "(matrix appears reducible)")
    z = z / s
    gate(norm_inf(A @ z - z), _UNIT_EIGEN_TOL * norm_inf(z),
         "unit eigenvector: 1 is not an eigenvalue of the matrix", "||A z - z||")
    return z


# a second name for it, which bench/spans.py wraps in shift
unit_eigenvector = stationary_vector


def checked_inverse(a: Array, limit: float, what: str) -> Array:
    """a^{-1}, refused by :func:`gate` unless cond_F(a) = ||a||_F ||a^{-1}||_F
    <= ``limit``; NaN and a singular ``a`` fail.  cond_2 <= cond_F <= m cond_2:
    no gate is looser than cond_2's."""
    try:
        inv = inverse(a)
        cond = float(np.linalg.norm(a)) * float(np.linalg.norm(inv))
    except np.linalg.LinAlgError:
        cond = np.inf
    gate(cond, limit, what, "Frobenius condition number")
    return inv


def inverse(a: Array) -> Array:
    """a^{-1} by LAPACK getrf + getri: about twice as fast at m = 64 as
    np.linalg.inv, gesv on m identity columns.  LinAlgError when ``a`` is
    exactly singular; a 0 x 0 ``a`` skips LAPACK, which refuses it on stdout."""
    if a.size == 0:
        return np.zeros(a.shape)
    lu, piv, info = lapack.dgetrf(a)
    inv, info = lapack.dgetri(lu, piv) if info == 0 else (lu, info)
    if info != 0:
        raise np.linalg.LinAlgError(f"getrf/getri: singular matrix (info {info})")
    return inv


def solve(a: Array, b: Array) -> Array:
    """a^{-1} b: LAPACK gesv for a vector b; for a matrix, :func:`inverse` and one
    product, as at m = 64 getri and the product take 0.6x the time of getrs on
    64 columns.  LinAlgError on a singular ``a``; an empty one skips LAPACK."""
    if a.size == 0:
        return np.zeros(np.shape(b))
    if np.ndim(b) > 1:
        return inverse(a).dot(b)
    x, info = lapack.dgesv(a, b)[2:]
    if info != 0:
        raise np.linalg.LinAlgError(f"gesv: singular matrix (info {info})")
    return x


def condition_number(a: Array) -> float:
    if a.size == 0:
        return 1.0
    try:
        return float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        return np.inf
