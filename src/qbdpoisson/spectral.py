"""Splitting of a square matrix into invertible and nilpotent parts.

For a target matrix C this produces a nonsingular M with C M = M J,
J = diag(V1, V0), where V1 (p x p) carries the eigenvalues of modulus above
a cutoff and V0 is exactly nilpotent.  Columnwise M = [L | K] and rowwise
M^{-1} = [E; F], so that C L = L V1, C K = K V0 and
C^k = L V1^k E + K V0^k F for every k >= 0.

A Jordan form would give the same structure but is not computable stably;
instead an ordered real Schur decomposition moves the small-modulus
eigenvalues to the trailing block, the trailing block is made exactly
nilpotent by zeroing its diagonal and subdiagonal entries (a perturbation
of the order of the cutoff), and a Sylvester solve removes the off-diagonal
coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from ._linalg import Array, as_readonly, norm_inf
from .exceptions import NumericalError

# decoupling transforms with entries beyond this magnitude signal eigenvalues
# straddling the cutoff
_MAX_COUPLING = 1e12


@dataclass(frozen=True)
class SpectralSplit:
    """Invertible/nilpotent splitting C M = M diag(V1, V0).

    ``p`` counts the eigenvalues of modulus above ``eps_zero``; ``nu`` is the
    nilpotency index of V0 (smallest nu with V0^nu = 0, and nu = 1 when V0 is
    empty or zero).
    """

    M: Array
    V1: Array
    V0: Array
    L: Array
    K: Array
    E: Array
    F: Array
    p: int
    nu: int
    eps_zero: float

    def __post_init__(self):
        for name in ("M", "V1", "V0", "L", "K", "E", "F"):
            object.__setattr__(self, name, as_readonly(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.M.shape[0]

    def j_matrix(self) -> Array:
        """diag(V1, V0)."""
        out = np.zeros((self.m, self.m))
        out[:self.p, :self.p] = self.V1
        out[self.p:, self.p:] = self.V0
        return out

    def m_inv(self) -> Array:
        """M^{-1} = [E; F]."""
        return np.vstack([self.E, self.F])

    def recompose(self) -> Array:
        """M diag(V1, V0) M^{-1}; reproduces the split target."""
        return self._target

    @cached_property
    def _target(self) -> Array:
        return as_readonly(self.M @ self.j_matrix() @ self.m_inv())

    @cached_property
    def v1_inv(self) -> Array:
        """V1^{-1}, inverted once per split."""
        return as_readonly(np.linalg.inv(self.V1))

    def power(self, k: int) -> Array:
        """L V1^k E + K V0^k F, the k-th power of the split target."""
        v1k = np.linalg.matrix_power(self.V1, k)
        v0k = np.linalg.matrix_power(self.V0, k)
        return self.L @ v1k @ self.E + self.K @ v0k @ self.F


def _nilpotency_index(V0: Array) -> int:
    n = V0.shape[0]
    if n == 0 or not np.any(V0 != 0.0):
        return 1
    nu = 1
    power = V0.copy()
    threshold = 1e-14 * norm_inf(V0)
    while np.any(power != 0.0):
        power = power @ V0
        power[np.abs(power) < threshold] = 0.0
        nu += 1
        if nu > n:
            raise NumericalError("nilpotent block failed to annihilate "
                                 f"within {n} powers")
    return nu


def split(target: Array, eps_zero: float | None = None) -> SpectralSplit:
    """Split a square matrix into invertible and nilpotent parts.

    Eigenvalues of modulus at most ``eps_zero`` (default
    m * machine-epsilon * ||target||) are treated as exact zeros.  Raises
    :class:`NumericalError` when the two spectral groups cannot be decoupled,
    which signals eigenvalues straddling ``eps_zero``; the caller should then
    adjust the cutoff.
    """
    C = np.atleast_2d(np.asarray(target, dtype=float))
    m = C.shape[0]
    if C.shape != (m, m):
        raise ValueError(f"target must be square, got shape {C.shape}")
    if eps_zero is None:
        eps_zero = m * np.finfo(float).eps * norm_inf(C)

    cut = float(eps_zero) ** 2
    T, Q, p = scipy.linalg.schur(
        C, output="real", sort=lambda re, im: (re * re + im * im) > cut)
    p = int(p)

    # make the trailing block exactly nilpotent: its eigenvalues are at most
    # eps_zero in modulus, so diagonal and subdiagonal entries are O(eps_zero)
    V0 = np.triu(T[p:, p:], k=1)
    V1 = T[:p, :p].copy()

    if p == 0 or p == m:
        M = Q
        M_inv = Q.T
    else:
        T12 = T[:p, p:]
        try:
            S = scipy.linalg.solve_sylvester(V1, -V0, -T12)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NumericalError(
                "spectral split: decoupling Sylvester system is singular; "
                "eigenvalues straddle eps_zero") from exc
        if not np.all(np.isfinite(S)) or norm_inf(S) > _MAX_COUPLING:
            raise NumericalError(
                "spectral split: decoupling transform blew up; eigenvalues "
                "straddle eps_zero — adjust the cutoff")
        upper = np.eye(m)
        upper[:p, p:] = S
        upper_inv = np.eye(m)
        upper_inv[:p, p:] = -S
        M = Q @ upper
        M_inv = upper_inv @ Q.T

    nu = _nilpotency_index(V0)
    return SpectralSplit(M=M, V1=V1, V0=V0, L=M[:, :p], K=M[:, p:],
                         E=M_inv[:p, :], F=M_inv[p:, :], p=p, nu=nu,
                         eps_zero=float(eps_zero))
