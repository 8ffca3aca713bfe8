"""Quadratic matrix equations of the QBD and chain classification.

The minimal nonnegative solution G of A_neg + (A0 - I)X + A1 X^2 = 0 collects
the first-passage probabilities one level down; Ghat is the analogous matrix
of the level-reversed chain, solving A1 + (A0 - I)X + A_neg X^2 = 0.  From G
follow U = A0 + A1 G and the rate matrix R = A1 (I - U)^{-1}.

The sign of the mean drift theta^T (A1 - A_neg) 1, theta the stationary vector
of A_neg + A0 + A1, classifies the chain as positive recurrent (negative
drift), transient (positive) or null recurrent (zero); outside the null band
one cyclic reduction gives both G and Ghat; inside it they are the stochastic
solvents, G for the right shift of :mod:`qbdpoisson.shift`, Ghat on first read.
"""

from __future__ import annotations

import enum
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

# condition_number, spectral_radius: unused here, bound for bench/spans.py
from ._linalg import (Array, FrozenRecord, as_readonly, checked_inverse,
                      condition_number, frozen, gate, inverse, norm_inf, solve,
                      spectral_radius, stationary_vector)  # noqa: F401
from .exceptions import ClassificationError, NumericalError
from .model import STOCHASTIC_TOL, QbdModel

NULL_BAND = 1e-9
QME_TOL = 1e-12
QME_MAX_ITER = 200

# tolerance on the solvents' row sums in the drift cross-check: the owner's
# within it of 1, the other's absolute row sums at most 1 plus it
_UNIT_TOL = 1e-12
_ROUNDING = "the shift needs A_low + A_mid + A_high row-stochastic to rounding"


class Classification(enum.Enum):
    POSITIVE_RECURRENT = "PositiveRecurrent"
    NULL_RECURRENT = "NullRecurrent"
    TRANSIENT = "Transient"


class Normalization(enum.Enum):
    PROBABILITY = "Probability"
    UNIT_SUM = "UnitSum"


@dataclass(frozen=True)
class QmeSolutions(FrozenRecord):
    """G, Ghat, R and U, with the class and the drift that decided it; G and
    Ghat are the minimal solvents, the stochastic ones when null recurrent.
    A field given as a :func:`functools.partial` (a null-recurrent Ghat) is
    called on its first read, which keeps the result, read-only, in its place."""

    G: Array
    Ghat: Array
    R: Array
    U: Array
    classification: Classification
    drift: float

    def __getattribute__(self, name):
        if isinstance(value := object.__getattribute__(self, name), partial):
            value = vars(self)[name] = as_readonly(value())
        return value


@dataclass(frozen=True)
class StationaryData(FrozenRecord):
    """Boundary stationary vector pi_0 with its normalization mode.

    Level vectors follow as pi_i^T = pi_0^T R^i; in Probability mode
    (positive recurrent chains only) pi_0^T (I - R)^{-1} 1 = 1, in UnitSum
    mode pi_0^T 1 = 1.
    """

    pi0: Array
    mode: Normalization
    R: Array

    def level(self, i: int) -> Array:
        """pi_i^T = pi_0^T R^i."""
        v = self.pi0
        for _ in range(i):
            v = v @ self.R
        return v


def qme_residual(A_low: Array, A_mid: Array, A_high: Array, X: Array) -> float:
    """Largest |entry| (:func:`norm_inf`) of A_low + ((A_mid - I) + A_high X) X."""
    return norm_inf(A_low + (A_mid - np.eye(A_low.shape[0]) + A_high @ X) @ X)


def solve_qme(A_low: Array, A_mid: Array, A_high: Array) -> Array:
    """Minimal nonnegative solution X of A_low + (A_mid - I)X + A_high X^2 = 0.

    The blocks must be finite and nonnegative, with A_low + A_mid + A_high
    row-stochastic to :data:`~qbdpoisson.model.STOCHASTIC_TOL`.  X comes
    from cyclic reduction with the unit root shifted away (He, Meini & Rhee,
    SIAM J. Matrix Anal. Appl. 23, 2001; Bini, Latouche & Meini, Numerical
    Methods for Structured Markov Chains, 2005).  z = 1 is a characteristic
    root of every such equation, with right eigenvector 1 and left
    eigenvector theta, the stationary vector of the blocks' sum.  It belongs
    to X (which is then stochastic) iff theta^T (A_high - A_low) 1 <= 0.
    Removing it leaves no (near-)double root at 1, so cyclic reduction
    converges quadratically at full accuracy for any drift:

    * owned root, shifted to 0 on the right with Q = 1 u^T (u uniform): the
      blocks (A_low (I - Q), A_mid + A_high Q, A_high) have solvent X - Q;
    * foreign root, shifted to infinity on the left with Q = 1 theta^T: the
      blocks (A_low, A_mid + Q A_low, (I - Q) A_high) keep the right factor
      (zI - X) of the matrix polynomial, so their solvent is X itself.  When
      the sum is reducible theta is not unique and Q = 0: no shift.

    X must solve the equation to :data:`QME_TOL` within :data:`QME_MAX_ITER`
    reduction steps, the one tolerance and cap of every solvent here; else
    :class:`NumericalError`, reporting the last residual.
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
    if theta is not None and _drift(A_low, A_high, theta) <= 0.0:
        return _stochastic_solvent(A_low, A_mid, A_high)
    return _left_shifted(A_low, A_mid, A_high, theta)[0]


def _stochastic_solvent(A_low: Array, A_mid: Array, A_high: Array):
    """The solvent X with X 1 = 1, by the right shift of :func:`solve_qme`;
    the minimal one iff theta^T (A_high - A_low) 1 <= 0."""
    Q, low, mid = _right_shifted_blocks(A_low, A_mid, A_high)
    return _checked(A_low, A_mid, A_high, _cyclic_reduction(low, mid, A_high)[0] + Q,
                    f"shifted cyclic reduction: {_ROUNDING}")


def _left_shifted(A_low: Array, A_mid: Array, A_high: Array,
                  theta: Array | None) -> tuple[Array, Array, Array]:
    """(X, mid_dual, (I - Q) A_high): the solvent X by the left shift of
    :func:`solve_qme`, Q = 1 theta^T (Q = 0 for ``theta=None``), gated by
    :func:`_checked`, and the reduction's dual of :func:`_cyclic_reduction`; its blocks
    are the rank-one updates A_mid + 1 (theta^T A_low), A_high - 1 (theta^T A_high)."""
    mid, high = (A_mid, A_high) if theta is None else (
        A_mid + theta.dot(A_low), A_high - theta.dot(A_high))
    X, mid_dual = _cyclic_reduction(A_low, mid, high)
    return (_checked(A_low, A_mid, A_high, X,
                     f"left-shifted cyclic reduction: {_ROUNDING}"), mid_dual, high)


def _checked(A_low: Array, A_mid: Array, A_high: Array, X: Array, what: str) -> Array:
    """X, unless its residual (:func:`qme_residual`) is above :data:`QME_TOL`."""
    gate(qme_residual(A_low, A_mid, A_high, X), QME_TOL, what, "residual")
    return X


def _right_shifted_blocks(A_low: Array, A_mid: Array, A_high: Array
                         ) -> tuple[Array, Array, Array]:
    """Q = 1 u^T (u uniform) and the blocks A_low (I - Q), A_mid + A_high Q
    of the right shift; with A_high they have the solvent X - Q for every
    solvent X with X 1 = 1.  Both are rank-one updates, A_low - (A_low 1) u^T
    corrected once more, so that its row sums, on which X 1 = 1 rests, are
    e A_low 1 to rounding, e = 1 - u^T 1 exactly (2^-54 at m = 3); without
    that step G^1000 1 fell up to 2e-13 below 1."""
    m = A_low.shape[0]
    Q = np.full((m, m), 1.0 / m)
    rows, e = A_low.sum(axis=1, keepdims=True), math.fsum([1.0] + [-Q[0, 0]] * m)
    low = A_low - rows * Q[0]
    low -= (low.sum(axis=1, keepdims=True) - e * rows) * Q[0]
    return Q, low, A_mid + A_high.sum(axis=1, keepdims=True) * Q[0]


def _solve_pair(A_low: Array, A_mid: Array, A_high: Array, theta: Array
                ) -> tuple[Array, Array]:
    """Minimal solvents X, Z of the equation and of its level reversal when
    Z owns the unit root: X from :func:`_left_shifted`, Z from the
    reduction's dual with the root restored (see the README).  Each is
    checked against its own equation, to :data:`QME_TOL`."""
    X, mid_dual, high = _left_shifted(A_low, A_mid, A_high, theta)
    eye = np.eye(len(theta))
    Y = _solve(eye - mid_dual, high)
    ell = theta.dot(A_high) - theta.dot(A_low).dot(Y)
    w = ell / ell.sum()
    Z0 = (Y - np.outer(Y.sum(axis=1), w)) + w
    Qu, low_u, _ = _right_shifted_blocks(A_high, A_mid, A_low)
    Z = _solve(eye - A_mid - A_low @ Z0, low_u) + Qu
    return X, _checked(A_high, A_mid, A_low, Z, "unit root restored to the dual solvent")


def _solve(M: Array, rhs: Array | None, what: str = "I - U is singular") -> Array:
    try:
        return inverse(M) if rhs is None else solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"cyclic reduction: {what}") from exc


def _cyclic_reduction(A_low: Array, A_mid: Array, A_high: Array) -> tuple[Array, Array]:
    """Canonical solvent of A_low + (A_mid - I)X + A_high X^2 = 0 by cyclic
    reduction, and the dual mid_dual, A_mid plus the sum of the down @ high
    steps: (I - mid_dual)^{-1} A_high is the canonical reversed solvent.

    Works on general (not necessarily nonnegative) blocks, which is what the
    shifted equations of :func:`_stochastic_solvent` and :func:`_left_shifted`
    are; converges to the solvent whose spectrum consists of the m smallest
    characteristic roots.  Each step's two products share one getrf + getri
    inverse of I - mid.  Stops once the increments reach machine level or
    stagnate; raises :class:`NumericalError`, with the last residual, past
    :data:`QME_MAX_ITER` steps.
    """
    m = A_low.shape[0]
    eye = np.eye(m)
    low, mid, high, mid_hat = A_low, A_mid, A_high, A_mid
    recent: list[float] = []
    for _ in range(QME_MAX_ITER):
        S = _solve(eye - mid, None, "I - A0 became singular")
        up, down = high @ S, low @ S
        step = up @ low
        mid_hat = mid_hat + step
        mid = mid + step + down @ high
        inc = norm_inf(step)
        recent.append(inc)
        stagnated = len(recent) >= 8 and inc >= 0.25 * max(recent[-8:])
        if inc <= 1e-15 * (1.0 + norm_inf(mid_hat)) or stagnated:
            return _solve(eye - mid_hat, A_low), mid - mid_hat + A_mid
        high, low = up @ high, down @ low
    residual = qme_residual(A_low, A_mid, A_high, _solve(eye - mid_hat, A_low))
    raise NumericalError(
        f"cyclic reduction: no convergence after {QME_MAX_ITER} iterations "
        f"(last residual {residual:.3e})")


def compute_r_u(model: QbdModel, G: Array) -> tuple[Array, Array]:
    """(U, R) from G: U = A0 + A1 G and R = A1 (I - U)^{-1}, refusing
    cond_F(I - U) > 1e14 and a residual of R's defining equation
    A1 + X(A0 - I) + X^2 A_neg = 0, in Horner form, above 1e-8.
    """
    eye = np.eye(model.m)
    U = model.A0 + model.A1 @ G
    R = model.A1 @ checked_inverse(eye - U, 1e14, "I - U is numerically singular")
    gate(norm_inf(model.A1 + R @ (model.minus_identity[1] + R @ model.A_neg)), 1e-8,
         "rate matrix fails its defining equation", "residual")
    return U, R


def drift(model: QbdModel) -> float:
    """Mean drift theta^T (A1 - A_neg) 1 of the repeating phase process."""
    return _drift(model.A_neg, model.A1, stationary_vector(model.repeating_sum()))


def _drift(A_low: Array, A_high: Array, theta: Array) -> float:
    return float(theta @ (A_high - A_low) @ np.ones(A_low.shape[0]))


def _classify_drift(d: float) -> Classification:
    if d < -NULL_BAND:
        return Classification.POSITIVE_RECURRENT
    if d > NULL_BAND:
        return Classification.TRANSIENT
    return Classification.NULL_RECURRENT


def _cross_checked(cls: Classification, d: float, G: Array, Ghat: Array) -> None:
    """Warns when the solvents' row sums contradict ``cls``, decided by drift ``d``.

    The class gives the unit root to G unless transient and to Ghat unless
    positive recurrent.  A solvent owns it iff it is stochastic, and
    min row sum <= sp(X) <= max row sum: so an owner's row sums must be 1
    and the other's absolute row sums at most 1, both to within
    :data:`_UNIT_TOL`.  A NaN row sum counts as a contradiction; a solvent
    that is not an array (None, or a Ghat not solved yet) is not checked.
    """
    solved = [(name, X, foreign) for name, X, foreign in (
        ("G", G, Classification.TRANSIENT),
        ("Ghat", Ghat, Classification.POSITIVE_RECURRENT)) if isinstance(X, np.ndarray)]
    consistent = all(
        np.all(np.abs(X.sum(axis=1) - 1.0) <= _UNIT_TOL) if cls is not foreign
        else np.all(np.abs(X).sum(axis=1) <= 1.0 + _UNIT_TOL)
        for _, X, foreign in solved)
    if not consistent:
        rows = ", ".join(f"{name} {X.sum(axis=1).min():.15f} ... "
                         f"{X.sum(axis=1).max():.15f}" for name, X, _ in solved)
        warnings.warn(
            f"drift classification {cls.value} (drift {d:.3e}) disagrees with "
            f"the solvents' row sums: {rows}", RuntimeWarning,
            stacklevel=_outside_stacklevel())


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that names, for a warning its caller issues, the
    first frame outside this package: the user's call into it."""
    package, frame, level = os.path.dirname(__file__) + os.sep, sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def classify(sols: QmeSolutions) -> Classification:
    """``sols.classification``, the one class :func:`solve_model` decided from
    the drift against :data:`NULL_BAND`, cross-checked against the row sums of
    ``sols.G`` and ``sols.Ghat``: G stochastic unless transient, Ghat unless
    positive recurrent.  Reading a null-recurrent ``sols.Ghat`` the first
    time solves it and checks it.  A disagreement with the row sums is
    reported as a :class:`RuntimeWarning`, not an error.
    """
    _cross_checked(sols.classification, sols.drift, sols.G, sols.Ghat)
    return sols.classification


def solve_model(model: QbdModel) -> QmeSolutions:
    """Solve the quadratic equations for G and Ghat, derive U and R, and
    classify the chain.

    With theta, the stationary vector of A_neg + A0 + A1, computed once,
    the sign of the drift decides which solvent owns the unit root; outside
    the null band :func:`_solve_pair` gives both minimal solvents from one
    reduction, inside it :func:`_stochastic_solvent` each stochastic one
    (O(d) from the minimal), Ghat, which the shifted plan does not read, on
    its first read (:func:`_in_band_Ghat`).  :func:`_cross_checked` checks them.
    """
    theta = stationary_vector(model.repeating_sum())
    d = _drift(model.A_neg, model.A1, theta)
    cls = _classify_drift(d)
    if cls is Classification.NULL_RECURRENT:
        G = frozen(_stochastic_solvent(model.A_neg, model.A0, model.A1))
        Ghat = partial(_in_band_Ghat, model.A_neg, model.A0, model.A1, d)
    elif d > 0.0:
        G, Ghat = map(frozen, _solve_pair(model.A_neg, model.A0, model.A1, theta))
    else:
        Ghat, G = map(frozen, _solve_pair(model.A1, model.A0, model.A_neg, theta))
    U, R = map(frozen, compute_r_u(model, G))
    _cross_checked(cls, d, G, Ghat)
    return QmeSolutions(G=G, Ghat=Ghat, R=R, U=U, classification=cls, drift=d)


def _in_band_Ghat(A_neg: Array, A0: Array, A1: Array, d: float):
    """The stochastic Ghat of a null-recurrent chain, gated and cross-checked."""
    Ghat = frozen(_stochastic_solvent(A1, A0, A_neg))
    _cross_checked(Classification.NULL_RECURRENT, d, None, Ghat)
    return Ghat


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
        mass = float(pi0 @ solve(np.eye(model.m) - sols.R, np.ones(model.m)))
        pi0 = pi0 / mass
    return StationaryData(pi0=pi0, mode=mode, R=sols.R)
