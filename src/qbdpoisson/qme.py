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
from .model import STOCHASTIC_TOL, QbdModel

NULL_BAND = 1e-9
QME_TOL = 1e-12
QME_MAX_ITER = 200

# tolerance on |sp - 1| in the drift/spectrum cross-check
_UNIT_TOL = 1e-12


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

    The blocks must be nonnegative, with A_low + A_mid + A_high
    row-stochastic to :data:`~qbdpoisson.model.STOCHASTIC_TOL`; they go to
    the shifted cyclic reduction of :func:`_solve_shifted`, with theta the
    stationary vector of their sum.  When the sum is reducible theta is not
    unique and the same kernel runs unshifted.

    Raises :class:`NumericalError` on non-convergence, reporting the last
    residual.
    """
    A_low = np.atleast_2d(np.asarray(A_low, dtype=float))
    A_mid = np.atleast_2d(np.asarray(A_mid, dtype=float))
    A_high = np.atleast_2d(np.asarray(A_high, dtype=float))

    if min(A_low.min(), A_mid.min(), A_high.min()) < -1e-10:
        raise ValueError("blocks must be (numerically) nonnegative")
    rows = (A_low + A_mid + A_high).sum(axis=1)
    if norm_inf(rows - 1.0) > STOCHASTIC_TOL:
        raise ValueError("A_low + A_mid + A_high must be row-stochastic")
    try:
        theta = stationary_vector(A_low + A_mid + A_high)
    except NumericalError:
        theta = None
    return _solve_shifted(A_low, A_mid, A_high, theta, tol, max_iter)


def _solve_shifted(A_low: Array, A_mid: Array, A_high: Array,
                   theta: Array | None, tol: float, max_iter: int) -> Array:
    """Minimal nonnegative solvent by cyclic reduction with the unit root
    shifted away (He, Meini & Rhee, SIAM J. Matrix Anal. Appl. 23, 2001;
    Bini, Latouche & Meini, Numerical Methods for Structured Markov Chains,
    2005).

    z = 1 is a characteristic root of every such equation, with right
    eigenvector 1 and left eigenvector theta.  It belongs to the minimal
    solution X (which is then stochastic) iff theta^T (A_high - A_low) 1 <= 0.
    Removing it before the reduction leaves no (near-)double root at 1, so
    cyclic reduction converges quadratically at full accuracy for any drift:

    * owned root, shifted to 0 on the right with Q = 1 u^T (u uniform): the
      blocks (A_low (I - Q), A_mid + A_high Q, A_high) have solvent X - Q;
    * foreign root, shifted to infinity on the left with Q = 1 theta^T: the
      blocks (A_low, A_mid + Q A_low, (I - Q) A_high) keep the right factor
      (zI - X) of the matrix polynomial, so their solvent is X itself.

    ``theta=None`` runs the reduction unshifted.  The result is checked
    against the original equation, to ``tol``.
    """
    m = A_low.shape[0]
    eye = np.eye(m)
    if theta is None:
        X = _cyclic_reduction(A_low, A_mid, A_high, max_iter)
    elif _drift(A_low, A_high, theta) <= 0.0:
        Q = np.full((m, m), 1.0 / m)
        X = _cyclic_reduction(A_low @ (eye - Q), A_mid + A_high @ Q, A_high,
                              max_iter) + Q
    else:
        Q = np.outer(np.ones(m), theta)
        X = _cyclic_reduction(A_low, A_mid + Q @ A_low, (eye - Q) @ A_high,
                              max_iter)
    residual = qme_residual(A_low, A_mid, A_high, X)
    if residual > tol:
        raise NumericalError(
            f"shifted cyclic reduction: residual {residual:.3e} > {tol:g} (the "
            "shift needs A_low + A_mid + A_high row-stochastic to rounding)")
    return X


def _cyclic_reduction(A_low: Array, A_mid: Array, A_high: Array,
                      max_iter: int) -> Array:
    """Canonical solvent of A_low + (A_mid - I)X + A_high X^2 = 0 by cyclic
    reduction.

    Works on general (not necessarily nonnegative) blocks, which is what the
    shifted equations of :func:`_solve_shifted` are; converges to the solvent
    whose spectrum consists of the m smallest characteristic roots.  Stops
    once the increments reach machine level or stagnate; raises
    :class:`NumericalError`, with the last residual, when that takes more
    than ``max_iter`` steps.
    """
    m = A_low.shape[0]
    eye = np.eye(m)
    low, mid, high, mid_hat = A_low, A_mid, A_high, A_mid

    def solvent():
        try:
            return np.linalg.solve(eye - mid_hat, A_low)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("cyclic reduction: I - U is singular") from exc

    recent: list[float] = []
    for _ in range(max_iter):
        try:
            S = np.linalg.solve(eye - mid, eye)
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
            return solvent()
    residual = qme_residual(A_low, A_mid, A_high, solvent())
    raise NumericalError(
        f"cyclic reduction: no convergence after {max_iter} iterations "
        f"(last residual {residual:.3e})")


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
    return _drift(model.A_neg, model.A1, stationary_vector(model.repeating_sum()))


def _drift(A_low: Array, A_high: Array, theta: Array) -> float:
    return float(theta @ (A_high - A_low) @ np.ones(A_low.shape[0]))


def _classify_drift(d: float, null_band: float) -> Classification:
    if d < -null_band:
        return Classification.POSITIVE_RECURRENT
    if d > null_band:
        return Classification.TRANSIENT
    return Classification.NULL_RECURRENT


def _cross_checked(d: float, sp_G: float, sp_Ghat: float,
                   null_band: float) -> Classification:
    """Class of drift ``d``; warns when the spectral radii contradict its sign.

    The sign assigns the unit root to G when d <= 0 and to Ghat when d >= 0;
    a solvent that owns it must have spectral radius 1, the other at most 1,
    both to within :data:`_UNIT_TOL`.
    """
    cls = _classify_drift(d, null_band)
    contradicted = any(
        (abs(sp - 1.0) if owns_unit_root else sp - 1.0) > _UNIT_TOL
        for sp, owns_unit_root in ((sp_G, d <= 0.0), (sp_Ghat, d >= 0.0)))
    if contradicted:
        warnings.warn(
            f"drift classification {cls.value} (drift {d:.3e}) disagrees with "
            f"spectral radii sp(G)={sp_G:.15f}, sp(Ghat)={sp_Ghat:.15f}",
            RuntimeWarning, stacklevel=3)
    return cls


def classify(model: QbdModel, sols: "QmeSolutions",
             null_band: float = NULL_BAND) -> Classification:
    """Drift-based classification, cross-checked against sp(G) and sp(Ghat).

    The drift ``sols.drift`` decides; a disagreement with the spectral radii
    is reported as a :class:`RuntimeWarning`, not an error.
    """
    return _cross_checked(sols.drift, sols.sp_G, sols.sp_Ghat, null_band)


def solve_model(model: QbdModel, *, null_band: float = NULL_BAND
                ) -> QmeSolutions:
    """Solve all four quadratic equations and classify the chain.

    G and Ghat both come from the shifted cyclic reduction of
    :func:`_solve_shifted`, with the stationary vector theta of
    A_neg + A0 + A1 computed once; the sign of the drift decides which of
    them owns the unit root.  The null band only labels the class.
    """
    theta = stationary_vector(model.repeating_sum())
    d = _drift(model.A_neg, model.A1, theta)
    G = _solve_shifted(model.A_neg, model.A0, model.A1, theta, QME_TOL,
                       QME_MAX_ITER)
    Ghat = _solve_shifted(model.A1, model.A0, model.A_neg, theta, QME_TOL,
                          QME_MAX_ITER)
    U, R, Uhat, Rhat = compute_r_u(model, G, Ghat)
    sp_G = spectral_radius(G)
    sp_Ghat = spectral_radius(Ghat)
    cls = _cross_checked(d, sp_G, sp_Ghat, null_band)
    return QmeSolutions(G=G, Ghat=Ghat, R=R, Rhat=Rhat, U=U, Uhat=Uhat,
                        classification=cls, sp_G=sp_G, sp_Ghat=sp_Ghat, drift=d)


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
