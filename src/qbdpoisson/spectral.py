"""Splitting of a square matrix into invertible and nilpotent parts.

For a target matrix C this produces a nonsingular M with C M = M J,
J = diag(V1, V0), where V1 (p x p) carries the eigenvalues of modulus above
a cutoff and V0 is exactly nilpotent.  Columnwise M = [L | K] and rowwise
M^{-1} = [E; F], so that C L = L V1, C K = K V0 and
C^k = L V1^k E + K V0^k F for every k >= 0.

An invertible C with 1 / ||C^{-1}||_F above the cutoff is split exactly by
M = I.  Otherwise, a Jordan form not being computable stably, an ordered
real Schur form moves the small-modulus eigenvalues to the trailing block,
which is made exactly nilpotent by zeroing its diagonal and subdiagonal
(a perturbation of the order of the cutoff), and a Sylvester solve removes
the coupling.  V1^{-1} is applied by LU solves with V1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from ._linalg import Array, FrozenRecord, frozen, gate, inverse, norm_inf
from .exceptions import NumericalError

# decoupling transforms with entries beyond this magnitude signal eigenvalues
# straddling the cutoff
_MAX_COUPLING = 1e12


@dataclass(frozen=True)
class SpectralSplit(FrozenRecord):
    """Invertible/nilpotent splitting C M = M diag(V1, V0).

    ``p`` counts the eigenvalues of modulus above ``eps_zero``, the cutoff
    :func:`split` worked out; ``nu`` is the nilpotency index of V0 (smallest
    nu with V0^nu = 0, and nu = 1 when V0 is empty or zero).
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

    @property
    def m(self) -> int:
        return self.M.shape[0]

    @cached_property
    def identity(self) -> bool:
        """M = I with p = m: then L = E = M^{-1} = I and J = V1."""
        return self.p == self.m and np.array_equal(self.M, np.eye(self.m))

    def j_matrix(self) -> Array:
        """diag(V1, V0)."""
        return scipy.linalg.block_diag(self.V1, self.V0)

    def m_inv(self) -> Array:
        """M^{-1} = [E; F]."""
        return np.vstack([self.E, self.F])

    def recompose(self) -> Array:
        """M diag(V1, V0) M^{-1}; reproduces the split target."""
        return self.M @ self.j_matrix() @ self.m_inv()

    @cached_property
    def v1_inv(self) -> Array:
        """V1^{-1}, inverted once per split."""
        return frozen(inverse(self.V1))

    @cached_property
    def _v1_lu(self):
        return scipy.linalg.lu_factor(self.V1, check_finite=False)

    def v1_solve(self, t: Array) -> Array:
        """V1^{-1} t by LU solves, stable where a dense V1^{-1} is not."""
        if self.p == 0:           # LAPACK refuses empty systems
            return np.array(t, dtype=float)
        return scipy.linalg.lapack.dgetrs(*self._v1_lu, t)[0]

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
    with np.errstate(over="ignore", invalid="ignore"):   # a blow-up is refused below
        while np.any(power != 0.0):
            power = power @ V0
            power[np.abs(power) < threshold] = 0.0
            nu += 1
            if nu > n:
                raise NumericalError("nilpotent block failed to annihilate "
                                     f"within {n} powers")
    return nu


def split(target: Array) -> SpectralSplit:
    """Split a square matrix into invertible and nilpotent parts.

    Eigenvalues of modulus at most the cutoff eps_zero = m * machine-epsilon
    * max |target_ij|, worked out from the target, are treated as exact
    zeros.  Raises :class:`NumericalError` when the two spectral groups
    cannot be decoupled, which signals eigenvalues straddling the cutoff.
    """
    C = np.atleast_2d(np.asarray(target, dtype=float))
    m = C.shape[0]
    if C.shape != (m, m):
        raise ValueError(f"target must be square, got shape {C.shape}")
    eps_zero = float(m * np.finfo(float).eps * norm_inf(C))
    if m == 0:          # LAPACK's getrf refuses n = 0 with a message on fd 1
        return SpectralSplit(C, C, C, C, C, C, C, 0, 1, eps_zero)
    # |lambda| >= sigma_min(C) >= 1 / ||C^{-1}||_F > eps_zero: p = m, M = I
    lu, piv, info = scipy.linalg.lapack.dgetrf(C)
    if info == 0:
        C_inv, info = scipy.linalg.lapack.dgetri(lu, piv)
    with np.errstate(over="ignore"):      # an overflowing norm fails the test
        invertible = info == 0 and 1.0 / np.linalg.norm(C_inv) > eps_zero
    T, Q, p = (C, np.eye(m), m) if invertible else scipy.linalg.schur(
        C, output="real", sort=lambda re, im: math.hypot(re, im) > eps_zero)
    p = int(p)

    # make the trailing block exactly nilpotent: its eigenvalues are at most
    # eps_zero in modulus, so diagonal and subdiagonal entries are O(eps_zero)
    V0 = frozen(np.triu(T[p:, p:], k=1))
    V1 = C if invertible else frozen(T[:p, :p].copy())

    if p == 0 or p == m:        # invertible: one identity for M and M^{-1}
        M, M_inv = Q, Q if invertible else Q.T
    else:
        T12 = T[:p, p:]
        try:
            S = scipy.linalg.solve_sylvester(V1, -V0, -T12)
        except (np.linalg.LinAlgError, ValueError):   # a singular system
            S = np.full(T12.shape, np.inf)
        gate(norm_inf(S), _MAX_COUPLING, "spectral split: decoupling "
             "transform blew up; eigenvalues straddle eps_zero, the split's "
             "cutoff", "||S||")
        upper = np.eye(m)
        upper[:p, p:] = S
        upper_inv = np.eye(m)
        upper_inv[:p, p:] = -S
        M = Q @ upper
        M_inv = upper_inv @ Q.T

    nu = _nilpotency_index(V0)
    # a whole block is M or M^{-1} itself, which the record adopts
    L, E = (M, M_inv) if p == m else (M[:, :p], M_inv[:p, :])
    out = SpectralSplit(M=frozen(M), V1=V1, V0=V0, L=L, K=M[:, p:], E=E,
                        F=M_inv[p:, :], p=p, nu=nu, eps_zero=eps_zero)
    if invertible:    # V1 = C: keep the factors and inverse taken above
        vars(out).update(_v1_lu=(lu, piv), v1_inv=frozen(C_inv))
    return out
