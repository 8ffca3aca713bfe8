"""Quadratic matrix equations of the QBD and chain classification.

The minimal nonnegative solution G of A_neg + (A0 - I)X + A1 X^2 = 0 collects
the first-passage probabilities one level down; Ghat is the analogous matrix
of the level-reversed chain, solving A1 + (A0 - I)X + A_neg X^2 = 0.  From G
follow U = A0 + A1 G and the rate matrix R = A1 (I - U)^{-1}.

The sign of the mean drift theta^T (A1 - A_neg) 1, with theta the stationary
vector of A_neg + A0 + A1, classifies the chain as positive recurrent
(negative drift), transient (positive) or null recurrent (zero).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

# condition_number, spectral_radius: unused here, bound for bench/spans.py
from ._linalg import (Array, as_readonly, checked_inverse, condition_number,
                      norm_inf, spectral_radius, stationary_vector)  # noqa: F401
from .exceptions import ClassificationError, NumericalError
from .model import STOCHASTIC_TOL, QbdModel

NULL_BAND = 1e-9
QME_TOL = 1e-12
QME_MAX_ITER = 200

# tolerance on the solvents' row sums in the drift cross-check: the owner's
# within it of 1, the other's absolute row sums at most 1 plus it
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
    """G, Ghat, R and U, with the class and the drift that decided it."""

    G: Array
    Ghat: Array
    R: Array
    U: Array
    classification: Classification
    drift: float

    def __post_init__(self):
        for name in ("G", "Ghat", "R", "U"):
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

    The blocks must be finite and nonnegative, with A_low + A_mid + A_high
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
    for name, block in (("A_low", A_low), ("A_mid", A_mid), ("A_high", A_high)):
        if not (np.isfinite(block).all() and block.min() >= -1e-10):
            raise ValueError(f"{name} must be finite and (numerically) nonnegative")
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
    if theta is None:
        X = _cyclic_reduction(A_low, A_mid, A_high, max_iter)
    elif _drift(A_low, A_high, theta) <= 0.0:
        Q, low, mid = _right_shifted_blocks(A_low, A_mid, A_high)
        X = _cyclic_reduction(low, mid, A_high, max_iter) + Q
    else:
        Q = np.outer(np.ones(m), theta)
        X = _cyclic_reduction(A_low, A_mid + Q @ A_low, (np.eye(m) - Q) @ A_high,
                              max_iter)
    residual = qme_residual(A_low, A_mid, A_high, X)
    if not residual <= tol:
        raise NumericalError(
            f"shifted cyclic reduction: residual {residual:.3e} > {tol:g} (the "
            "shift needs A_low + A_mid + A_high row-stochastic to rounding)")
    return X


def _right_shifted_blocks(A_low: Array, A_mid: Array, A_high: Array
                         ) -> tuple[Array, Array, Array]:
    """Q = 1 u^T (u uniform) and the blocks A_low (I - Q), A_mid + A_high Q
    of the right shift; with A_high they have the solvent X - Q for every
    solvent X with X 1 = 1."""
    m = A_low.shape[0]
    Q = np.full((m, m), 1.0 / m)
    return Q, A_low @ (np.eye(m) - Q), A_mid + A_high @ Q


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


def compute_r_u(model: QbdModel, G: Array) -> tuple[Array, Array]:
    """(U, R) from G: U = A0 + A1 G and R = A1 (I - U)^{-1}, refusing
    cond_F(I - U) > 1e14 and a residual of R's defining equation
    A1 + X(A0 - I) + X^2 A_neg = 0 above 1e-8.
    """
    eye = np.eye(model.m)
    U = model.A0 + model.A1 @ G
    R = model.A1 @ checked_inverse(eye - U, 1e14, "I - U is numerically singular")
    res_R = norm_inf(model.A1 + R @ (model.A0 - eye) + R @ R @ model.A_neg)
    if not res_R <= 1e-8:
        raise NumericalError(
            f"rate matrix fails its defining equation (residual {res_R:.3e})")
    return U, R


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


def _cross_checked(d: float, G: Array, Ghat: Array,
                   null_band: float) -> Classification:
    """Class of drift ``d``; warns when the solvents' row sums contradict it.

    The sign assigns the unit root to G when d <= 0 and to Ghat when d >= 0.
    A minimal nonnegative solvent owns it iff it is stochastic, and
    min row sum <= sp(X) <= max row sum: so the owner's row sums must be 1
    and the other's absolute row sums at most 1, both to within
    :data:`_UNIT_TOL`.  A NaN row sum counts as a contradiction.
    """
    cls = _classify_drift(d, null_band)
    consistent = all(
        np.all(np.abs(X.sum(axis=1) - 1.0) <= _UNIT_TOL) if owns_unit_root
        else np.all(np.abs(X).sum(axis=1) <= 1.0 + _UNIT_TOL)
        for X, owns_unit_root in ((G, d <= 0.0), (Ghat, d >= 0.0)))
    if not consistent:
        rows = ", ".join(f"{name} {r.min():.15f} ... {r.max():.15f}" for name, r
                         in (("G", G.sum(axis=1)), ("Ghat", Ghat.sum(axis=1))))
        warnings.warn(
            f"drift classification {cls.value} (drift {d:.3e}) disagrees with "
            f"the solvents' row sums: {rows}", RuntimeWarning, stacklevel=3)
    return cls


def classify(model: QbdModel, sols: "QmeSolutions",
             null_band: float = NULL_BAND) -> Classification:
    """Drift-based classification, cross-checked against the row sums of
    ``sols.G`` and ``sols.Ghat``.

    The drift ``sols.drift`` decides; a disagreement with the row sums is
    reported as a :class:`RuntimeWarning`, not an error.
    """
    return _cross_checked(sols.drift, sols.G, sols.Ghat, null_band)


def solve_model(model: QbdModel, *, null_band: float = NULL_BAND
                ) -> QmeSolutions:
    """Solve the quadratic equations for G and Ghat, derive U and R, and
    classify the chain.

    G and Ghat both come from the shifted cyclic reduction of
    :func:`_solve_shifted`, with the stationary vector theta of
    A_neg + A0 + A1 computed once; the sign of the drift decides which of
    them owns the unit root, and :func:`_cross_checked` checks that owner
    for stochastic rows.  The null band only labels the class.
    """
    theta = stationary_vector(model.repeating_sum())
    d = _drift(model.A_neg, model.A1, theta)
    G = _solve_shifted(model.A_neg, model.A0, model.A1, theta, QME_TOL,
                       QME_MAX_ITER)
    Ghat = _solve_shifted(model.A1, model.A0, model.A_neg, theta, QME_TOL,
                          QME_MAX_ITER)
    U, R = compute_r_u(model, G)
    cls = _cross_checked(d, G, Ghat, null_band)
    return QmeSolutions(G=G, Ghat=Ghat, R=R, U=U, classification=cls, drift=d)


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


# off the solve path (pi_0 comes from group_inverse); bench/spans.py wraps it
def stationary(model: QbdModel, sols: QmeSolutions,
               mode: Normalization = Normalization.PROBABILITY) -> StationaryData:
    """Boundary stationary vector: pi_0^T (I - B - A1 G) = 0, normalized.

    Probability mode requires a positive recurrent chain
    (pi_0^T (I - R)^{-1} 1 = 1); UnitSum applies to any recurrent chain
    (pi_0^T 1 = 1).  The class is read from ``sols.classification``: for a
    transient chain I - B - A1 G is nonsingular, so no nonzero pi_0 exists
    and :class:`ClassificationError` is raised.
    """
    mode = Normalization(mode)
    if sols.classification is Classification.TRANSIENT:
        raise ClassificationError(
            "no stationary vector: B + A1 G is strictly substochastic "
            "(transient chain)")
    pi0 = stationary_vector(model.B + model.A1 @ sols.G)
    if mode is Normalization.PROBABILITY:
        if sols.classification is not Classification.POSITIVE_RECURRENT:
            raise ClassificationError(
                "Probability normalization requires a positive recurrent chain, "
                f"got {sols.classification.value}")
        mass = float(pi0 @ np.linalg.solve(np.eye(model.m) - sols.R,
                                           np.ones(model.m)))
        pi0 = pi0 / mass
    return StationaryData(pi0=pi0, mode=mode, R=sols.R)
