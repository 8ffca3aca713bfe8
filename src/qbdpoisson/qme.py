"""Quadratic matrix equations of the QBD and chain classification.

The minimal nonnegative solution G of A_neg + (A0 - I)X + A1 X^2 = 0 collects
the first-passage probabilities one level down; Ghat is the analogous matrix
of the level-reversed chain, solving A1 + (A0 - I)X + A_neg X^2 = 0.  From G
(resp. Ghat) follow U = A0 + A1 G and the rate matrix R = A1 (I - U)^{-1}
(resp. Uhat = A0 + A_neg Ghat and Rhat = A_neg (I - Uhat)^{-1}).

The sign of the mean drift theta^T (A1 - A_neg) 1, with theta the stationary
vector of A_neg + A0 + A1, classifies the chain as positive recurrent
(negative drift), transient (positive) or null recurrent (zero).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import (Array, as_readonly, condition_number, norm_inf,
                      spectral_radius, stationary_vector)
from .exceptions import ClassificationError, NumericalError
from .model import QbdModel

NULL_BAND = 1e-9
QME_TOL = 1e-12
QME_MAX_ITER = 200

# spectral radii within this distance of 1 count as unit for the
# drift/spectrum cross-check
_SPECTRAL_BAND = 1e-6


class Classification(enum.Enum):
    POSITIVE_RECURRENT = "PositiveRecurrent"
    NULL_RECURRENT = "NullRecurrent"
    TRANSIENT = "Transient"


class Normalization(enum.Enum):
    PROBABILITY = "Probability"
    UNIT_SUM = "UnitSum"


@dataclass(frozen=True)
class QmeSolutions:
    """Solutions of the four quadratic equations plus classification data."""

    G: Array
    Ghat: Array
    R: Array
    Rhat: Array
    U: Array
    Uhat: Array
    classification: Classification
    sp_G: float
    sp_Ghat: float
    sp_R: float
    drift: float

    def __post_init__(self):
        for name in ("G", "Ghat", "R", "Rhat", "U", "Uhat"):
            object.__setattr__(self, name, as_readonly(getattr(self, name)))


@dataclass(frozen=True)
class StationaryData:
    """Boundary stationary vector pi_0 with its normalization mode.

    Level vectors follow as pi_i^T = pi_0^T R^i; in Probability mode
    (positive recurrent chains only) pi_0^T (I - R)^{-1} 1 = 1, in UnitSum
    mode pi_0^T 1 = 1.
    """

    pi0: Array
    mode: Normalization
    R: Array

    def __post_init__(self):
        object.__setattr__(self, "pi0", as_readonly(self.pi0))
        object.__setattr__(self, "R", as_readonly(self.R))

    def level(self, i: int) -> Array:
        """pi_i^T = pi_0^T R^i."""
        v = self.pi0
        for _ in range(i):
            v = v @ self.R
        return v


def qme_residual(A_low: Array, A_mid: Array, A_high: Array, X: Array) -> float:
    """Infinity-norm residual of A_low + (A_mid - I)X + A_high X^2."""
    m = A_low.shape[0]
    return norm_inf(A_low + (A_mid - np.eye(m)) @ X + A_high @ X @ X)


def solve_qme(A_low: Array, A_mid: Array, A_high: Array,
              tol: float = QME_TOL, max_iter: int = QME_MAX_ITER) -> Array:
    """Minimal nonnegative solution X of A_low + (A_mid - I)X + A_high X^2 = 0.

    Logarithmic reduction.  The iterate increases monotonically towards the
    minimal solution; iteration stops once the additive increment reaches
    machine level or visibly stagnates, after which the residual is verified
    against ``tol``.  At zero drift the increments floor near sqrt(eps), the
    intrinsic accuracy limit of the unshifted iteration at the double unit
    root; :func:`solve_model` routes that case through an exact deflation
    instead.

    Raises :class:`NumericalError` on non-convergence, reporting the last
    residual.
    """
    A_low = np.atleast_2d(np.asarray(A_low, dtype=float))
    A_mid = np.atleast_2d(np.asarray(A_mid, dtype=float))
    A_high = np.atleast_2d(np.asarray(A_high, dtype=float))
    m = A_low.shape[0]
    eye = np.eye(m)

    if min(A_low.min(), A_mid.min(), A_high.min()) < -1e-10:
        raise ValueError("blocks must be (numerically) nonnegative")
    rows = (A_low + A_mid + A_high).sum(axis=1)
    if norm_inf(rows - 1.0) > 1e-8:
        raise ValueError("A_low + A_mid + A_high must be row-stochastic")

    def _solve(lhs, rhs):
        try:
            return np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("logarithmic reduction: local block I - U "
                                 "is singular") from exc

    both = _solve(eye - A_mid, np.hstack([A_high, A_low]))
    H, L = both[:, :m], both[:, m:]
    G = L.copy()
    T = H.copy()
    recent: list[float] = []
    for _ in range(max_iter):
        U = H @ L + L @ H
        both = _solve(eye - U, np.hstack([H @ H, L @ L]))
        H, L = both[:, :m], both[:, m:]
        increment = T @ L
        G = G + increment
        T = T @ H
        inc = norm_inf(increment)
        # stagnation near the zero-drift boundary: increments floor around
        # sqrt(eps), the intrinsic accuracy limit at the double unit root
        recent.append(inc)
        stagnated = len(recent) >= 8 and inc >= 0.25 * max(recent[-8:])
        if inc <= 1e-14 * (1.0 + norm_inf(G)) or stagnated:
            residual = qme_residual(A_low, A_mid, A_high, G)
            if residual > tol:
                raise NumericalError(
                    f"logarithmic reduction stagnated with residual {residual:.3e} > {tol:g}")
            return G
    residual = qme_residual(A_low, A_mid, A_high, G)
    raise NumericalError(
        f"logarithmic reduction: no convergence after {max_iter} iterations "
        f"(last residual {residual:.3e})")


def _cyclic_reduction(A_low: Array, A_mid: Array, A_high: Array,
                      tol: float, max_iter: int) -> Array:
    """Canonical solvent of A_low + (A_mid - I)X + A_high X^2 = 0 by cyclic
    reduction.

    Works on general (not necessarily nonnegative) blocks, which is what the
    internally shifted equations produce; converges to the solvent whose
    spectrum consists of the m smallest characteristic roots.
    """
    m = A_low.shape[0]
    eye = np.eye(m)
    low, mid, high = A_low.copy(), A_mid.copy(), A_high.copy()
    mid_hat = A_mid.copy()
    recent: list[float] = []
    for _ in range(max_iter):
        try:
            S = np.linalg.solve(eye - mid, np.eye(m))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("cyclic reduction: I - A0 became singular") from exc
        up = high @ S
        down = low @ S
        step = up @ low
        mid_hat = mid_hat + step
        mid = mid + step + down @ high
        high = up @ high
        low = down @ low
        inc = norm_inf(step)
        recent.append(inc)
        stagnated = len(recent) >= 8 and inc >= 0.25 * max(recent[-8:])
        if inc <= 1e-15 * (1.0 + norm_inf(mid_hat)) or stagnated:
            try:
                X = np.linalg.solve(eye - mid_hat, A_low)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("cyclic reduction: I - U is singular") from exc
            residual = qme_residual(A_low, A_mid, A_high, X)
            if residual > tol:
                raise NumericalError(
                    f"cyclic reduction stagnated with residual {residual:.3e} > {tol:g}")
            return X
    raise NumericalError(
        f"cyclic reduction: no convergence after {max_iter} iterations")


def _solve_critical_pair(model: QbdModel, tol: float, max_iter: int
                         ) -> tuple[Array, Array]:
    """(G, Ghat) for a null recurrent chain, at full accuracy.

    At zero drift the unit characteristic root is double and plain reduction
    algorithms lose half the digits (error ~ sqrt(eps)).  Both G and Ghat are
    stochastic there, so the unit root can be deflated a priori with the
    exactly known eigenvector 1: with Q = 1 u^T (u any probability vector)
    the minimal solution of the shifted equation

        A_neg (I - Q) + (A0 + A1 Q - I) X + A1 X^2 = 0

    is exactly G - Q, and the shifted problem has a simple unit root, so
    cyclic reduction converges quadratically with full accuracy.  The same
    deflation applied to the level-reversed blocks recovers Ghat.
    """
    m = model.m
    eye = np.eye(m)
    Q = np.full((m, m), 1.0 / m)
    deflate = eye - Q
    G = _cyclic_reduction(model.A_neg @ deflate, model.A0 + model.A1 @ Q,
                          model.A1, tol, max_iter) + Q
    Ghat = _cyclic_reduction(model.A1 @ deflate, model.A0 + model.A_neg @ Q,
                             model.A_neg, tol, max_iter) + Q
    res_G = qme_residual(model.A_neg, model.A0, model.A1, G)
    res_Ghat = qme_residual(model.A1, model.A0, model.A_neg, Ghat)
    if max(res_G, res_Ghat) > tol:
        raise NumericalError(
            f"deflated solve failed its residual check "
            f"({res_G:.3e}, {res_Ghat:.3e}); the chain may not be null recurrent")
    return G, Ghat


def compute_r_u(model: QbdModel, G: Array, Ghat: Array
                ) -> tuple[Array, Array, Array, Array]:
    """(U, R, Uhat, Rhat) from G and Ghat.

    U = A0 + A1 G and R = A1 (I - U)^{-1}; the hatted pair uses the
    level-reversed blocks, Uhat = A0 + A_neg Ghat and
    Rhat = A_neg (I - Uhat)^{-1}.  Rhat is verified against its defining
    equation A_neg + X(A0 - I) + X^2 A1 = 0.
    """
    m = model.m
    eye = np.eye(m)
    U = model.A0 + model.A1 @ G
    Uhat = model.A0 + model.A_neg @ Ghat
    for name, mat in (("I - U", eye - U), ("I - Uhat", eye - Uhat)):
        if condition_number(mat) > 1e14:
            raise NumericalError(f"{name} is numerically singular")
    # X = A (I - U)^{-1} via a transposed solve
    R = np.linalg.solve((eye - U).T, model.A1.T).T
    Rhat = np.linalg.solve((eye - Uhat).T, model.A_neg.T).T

    res_R = norm_inf(model.A1 + R @ (model.A0 - eye) + R @ R @ model.A_neg)
    res_Rhat = norm_inf(model.A_neg + Rhat @ (model.A0 - eye) + Rhat @ Rhat @ model.A1)
    if max(res_R, res_Rhat) > 1e-8:
        raise NumericalError(
            f"rate matrices fail their defining equations "
            f"(residuals {res_R:.3e}, {res_Rhat:.3e})")
    return U, R, Uhat, Rhat


def drift(model: QbdModel) -> float:
    """Mean drift theta^T (A1 - A_neg) 1 of the repeating phase process."""
    theta = stationary_vector(model.repeating_sum())
    return float(theta @ (model.A1 - model.A_neg) @ np.ones(model.m))


def _classify_drift(d: float, null_band: float) -> Classification:
    if d < -null_band:
        return Classification.POSITIVE_RECURRENT
    if d > null_band:
        return Classification.TRANSIENT
    return Classification.NULL_RECURRENT


def _spectral_classification(sp_G: float, sp_Ghat: float) -> Classification | None:
    g_unit = abs(sp_G - 1.0) <= _SPECTRAL_BAND
    ghat_unit = abs(sp_Ghat - 1.0) <= _SPECTRAL_BAND
    if g_unit and ghat_unit:
        return Classification.NULL_RECURRENT
    if g_unit and sp_Ghat < 1.0:
        return Classification.POSITIVE_RECURRENT
    if ghat_unit and sp_G < 1.0:
        return Classification.TRANSIENT
    return None


def _cross_checked(d: float, sp_G: float, sp_Ghat: float,
                   null_band: float) -> Classification:
    """Class of drift ``d``; warns when the spectral radii point elsewhere."""
    cls = _classify_drift(d, null_band)
    spectral = _spectral_classification(sp_G, sp_Ghat)
    if spectral is not None and spectral is not cls:
        warnings.warn(
            f"drift classification {cls.value} (drift {d:.3e}) disagrees with "
            f"spectral radii sp(G)={sp_G:.12f}, sp(Ghat)={sp_Ghat:.12f}",
            RuntimeWarning, stacklevel=3)
    return cls


def classify(model: QbdModel, sols: "QmeSolutions",
             null_band: float = NULL_BAND) -> Classification:
    """Drift-based classification, cross-checked against sp(G) and sp(Ghat).

    The drift ``sols.drift`` decides; a disagreement with the spectral radii
    is reported as a :class:`RuntimeWarning`, not an error.
    """
    return _cross_checked(sols.drift, sols.sp_G, sols.sp_Ghat, null_band)


def solve_model(model: QbdModel, *, tol: float = QME_TOL,
                max_iter: int = QME_MAX_ITER,
                null_band: float = NULL_BAND) -> QmeSolutions:
    """Solve all four quadratic equations and classify the chain.

    Chains whose drift falls inside the null band get the deflated solve of
    :func:`_solve_critical_pair`, which keeps full accuracy at the double
    unit root; everything else goes through logarithmic reduction.
    """
    d = drift(model)
    if abs(d) <= null_band:
        G, Ghat = _solve_critical_pair(model, tol, max_iter)
    else:
        G = solve_qme(model.A_neg, model.A0, model.A1, tol=tol, max_iter=max_iter)
        Ghat = solve_qme(model.A1, model.A0, model.A_neg, tol=tol, max_iter=max_iter)
    U, R, Uhat, Rhat = compute_r_u(model, G, Ghat)
    sp_G = spectral_radius(G)
    sp_Ghat = spectral_radius(Ghat)
    sp_R = spectral_radius(R)
    cls = _cross_checked(d, sp_G, sp_Ghat, null_band)
    return QmeSolutions(G=G, Ghat=Ghat, R=R, Rhat=Rhat, U=U, Uhat=Uhat,
                        classification=cls, sp_G=sp_G, sp_Ghat=sp_Ghat,
                        sp_R=sp_R, drift=d)


def char_roots(sols: QmeSolutions) -> Array:
    """Characteristic roots xi_1 ... xi_2m, sorted by modulus.

    The m smallest are the eigenvalues of G; the m largest are the
    reciprocals of the eigenvalues of Ghat, with 1/0 = inf marking a
    deficient-degree characteristic polynomial.  They interlace as
    |xi_{m-1}| < xi_m <= 1 <= xi_{m+1} < |xi_{m+2}|.
    """
    eig_G = np.linalg.eigvals(sols.G)
    eig_Ghat = np.linalg.eigvals(sols.Ghat)
    upper = np.empty_like(eig_Ghat)
    for i, lam in enumerate(eig_Ghat):
        upper[i] = np.inf if lam == 0.0 else 1.0 / lam
    roots = np.concatenate([eig_G, upper])
    order = np.argsort(np.abs(roots), kind="stable")
    return roots[order]


def stationary(model: QbdModel, sols: QmeSolutions,
               mode: Normalization = Normalization.PROBABILITY) -> StationaryData:
    """Boundary stationary vector: pi_0^T (I - B - A1 G) = 0, normalized.

    Probability mode requires a positive recurrent chain
    (pi_0^T (I - R)^{-1} 1 = 1); UnitSum applies to any recurrent chain
    (pi_0^T 1 = 1).  For a transient chain I - B - A1 G is nonsingular, so
    no nonzero pi_0 exists and the operation raises.
    """
    mode = Normalization(mode)
    Pstar = model.B + model.A1 @ sols.G
    if norm_inf(Pstar.sum(axis=1) - 1.0) > 1e-8:
        raise ClassificationError(
            "no stationary vector: B + A1 G is strictly substochastic "
            "(transient chain)")
    direction = stationary_vector(Pstar)
    if mode is Normalization.PROBABILITY:
        if sols.classification is not Classification.POSITIVE_RECURRENT:
            raise ClassificationError(
                "Probability normalization requires a positive recurrent chain, "
                f"got {sols.classification.value}")
        mass = float(direction @ np.linalg.solve(np.eye(model.m) - sols.R,
                                                 np.ones(model.m)))
        pi0 = direction / mass
    else:
        pi0 = direction
    return StationaryData(pi0=pi0, mode=mode, R=sols.R)
