"""The coupling matrix W and the resolvent triple of the block polynomial.

The quadratic matrix polynomial of the difference equation is
eta(lam) = A_neg + (A0 - I) lam + A1 lam^2.  For a chain that is not null
recurrent the series W = sum_j G^j (U - I)^{-1} R^j converges and satisfies

    W^{-1} = (I - U)(G Ghat - I),      W R = Ghat W,
    W A1 (G Ghat - I) = Ghat,

so W is computed from the closed form (one solve) and checked against the
similarity W R = Ghat W; :func:`w_series` sums the series for the shift.

Together with the splitting of Ghat, W yields a resolvent triple (X, T, Z):
eta(lam)^{-1} = X T(lam)^{-1} Z with T(lam) = diag(lam I - T1, lam T2 - I),
the engine behind the closed-form solution of the difference equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import qme
# spectral_radius is unused here but stays bound: bench/spans.py wraps it
from ._linalg import (Array, FrozenRecord, checked_inverse, condition_number,
                      frozen, gate, inverse, norm_inf, spectral_radius)  # noqa: F401
from .exceptions import NumericalError
from .model import QbdModel
from .spectral import SpectralSplit

# sample points for the resolvent identity, exercising both branches of
# T(lam); points closer than _LAMBDA_MARGIN to a characteristic root are
# dropped
SAMPLE_LAMBDAS = (-0.5, 0.5 + 0.3j, 2.2, 1.7 - 0.9j)
_LAMBDA_MARGIN = 0.05

W_SERIES_MAX_STEPS = 64    # slow-mixing null recurrent chains need over 8


@dataclass(frozen=True)
class ResolventData(FrozenRecord):
    """The coupling matrix W with its inverse."""

    W: Array
    W_inv: Array


@dataclass(frozen=True)
class ResolventTriple(FrozenRecord):
    """Resolvent triple (X, T, Z) of the quadratic block polynomial.

    X1 = [I | L], X2 = K, T1 = diag(G, V1^{-1}), T2 = V0, Z1 = [W; -E W],
    Z2 = -V0 F W.
    """

    X1: Array
    X2: Array
    T1: Array
    T2: Array
    Z1: Array
    Z2: Array

    def pair_matrix(self) -> Array:
        """[[X1, X2 T2], [X1 T1, X2]]; nonsingular for a decomposable pair."""
        return np.block([[self.X1, self.X2 @ self.T2],
                         [self.X1 @ self.T1, self.X2]])

    @cached_property
    def pair_condition(self) -> float:
        """2-norm condition number of the pair matrix, taken once."""
        return condition_number(self.pair_matrix())

    def resolvent(self, lam: complex) -> Array:
        """X T(lam)^{-1} Z = X1 (lam I - T1)^{-1} Z1 + X2 (lam T2 - I)^{-1} Z2."""
        q = self.T1.shape[0]
        r = self.T2.shape[0]
        # complex, so numpy: the LAPACK kernel of _linalg is real-only
        out = self.X1 @ np.linalg.solve(lam * np.eye(q) - self.T1,
                                        self.Z1.astype(complex))
        if r:
            out = out + self.X2 @ np.linalg.solve(lam * self.T2 - np.eye(r),
                                                  self.Z2.astype(complex))
        return out


def eta(model: QbdModel, lam: complex) -> Array:
    """The block polynomial A_neg + (A0 - I) lam + A1 lam^2."""
    return model.A_neg + model.minus_identity[1] * lam + model.A1 * lam * lam


def w_series(G: Array, U: Array, R: Array) -> Array:
    """X = sum_j G^j (U - I)^{-1} R^j, solving X - G X R = (U - I)^{-1}, by
    Smith's doubling (SIAM J. Appl. Math. 16, 1968): from X = (U - I)^{-1},
    A = G, B = R, X <- X + A X B, A <- A^2, B <- B^2 until the increment is
    at most 1e-16 ||X|| < inf.  :class:`NumericalError` after
    :data:`W_SERIES_MAX_STEPS` steps (sp(G) sp(R) >= 1: an unshifted chain
    that is null recurrent or too close to it)."""
    eye = np.eye(G.shape[0])
    X, A, B = inverse(U - eye), G, R
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(W_SERIES_MAX_STEPS):
            step = A @ X @ B
            X = X + step
            if norm_inf(step) <= 1e-16 * norm_inf(X) < np.inf:
                return X
            A, B = A @ A, B @ B
    raise NumericalError(
        f"W series did not converge within {W_SERIES_MAX_STEPS} doubling steps "
        f"(last increment norm {norm_inf(step):.3e}); chain is null recurrent "
        "or too close to it")


def compute_w(G: Array, U: Array, R: Array, Ghat: Array) -> ResolventData:
    """W from the closed form W^{-1} = (I - U)(G Ghat - I).

    Defined when the chain is not null recurrent, which callers read from
    its class.  Raises when cond_F(W^{-1}) > 1e14, naming that cause, and
    when W R = Ghat W misses by more than 1e-8 (1 + ||W||).
    """
    eye = np.eye(G.shape[0])
    W_inv = (eye - U) @ (G @ Ghat - eye)
    W = checked_inverse(W_inv, 1e14, "W is undefined: (I - U)(G Ghat - I) is "
                        "singular (null recurrent chain); use the shift path")
    gate(norm_inf(W @ R - Ghat @ W), 1e-8 * (1.0 + norm_inf(W)),
         "closed-form W fails the similarity W R = Ghat W", "residual")
    return ResolventData(W=frozen(W), W_inv=frozen(W_inv))


def build_triple(G: Array, split: SpectralSplit, W: Array) -> ResolventTriple:
    """Assemble the resolvent triple from G, the splitting of Ghat, and W;
    NumericalError when its pair matrix has condition number above 1e12."""
    triple = ResolventTriple(X1=np.hstack([np.eye(G.shape[0]), split.L]), X2=split.K,
                             T1=scipy.linalg.block_diag(G, split.v1_inv), T2=split.V0,
                             Z1=np.vstack([W, -split.E @ W]), Z2=-split.V0 @ split.F @ W)
    gate(triple.pair_condition, 1e12, "decomposable pair "
         "matrix is ill-conditioned: likely a near-critical chain or a nearly "
         "singular Ghat", "condition number")
    return triple


def _filtered_lambdas(roots: Array) -> list[complex]:
    finite = roots[np.isfinite(roots)]
    return [lam for lam in SAMPLE_LAMBDAS
            if finite.size == 0 or np.min(np.abs(finite - lam)) > _LAMBDA_MARGIN]


def check_identities(model: QbdModel, sols: qme.QmeSolutions,
                     split: SpectralSplit, wdata: ResolventData) -> dict[str, float]:
    """Residuals of every identity tying W, the splitting, and the triple.

    Returns a name -> residual mapping: the closed-form inverse of W, the
    similarity W R = Ghat W, the identity W A1 (G Ghat - I) = Ghat, the
    reconstruction of W from the partitioned eigenbasis, the two decomposable
    pair conditions, the pair condition number, and the worst relative error
    of the resolvent identity over the retained sample points.
    """
    eye = np.eye(model.m)
    G, Ghat, U, R = sols.G, sols.Ghat, sols.U, sols.R
    W = wdata.W
    L, K, V0 = split.L, split.K, split.V0

    report: dict[str, float] = {}
    report["w_inverse"] = norm_inf(W @ ((eye - U) @ (G @ Ghat - eye)) - eye)
    report["w_similarity"] = norm_inf(W @ R - Ghat @ W)
    report["w_up_identity"] = norm_inf(W @ model.A1 @ (G @ Ghat - eye) - Ghat)

    Y = np.hstack([model.A1 @ L @ split.v1_inv,
                   -model.A_neg @ K @ V0 - (model.A0 - eye) @ K])
    report["w_from_partition"] = norm_inf(W @ (model.A1 @ G @ split.M - Y) - split.M)

    triple = build_triple(G, split, W)
    X1, X2, T1, T2 = triple.X1, triple.X2, triple.T1, triple.T2
    report["pair_down"] = norm_inf(
        model.A_neg @ X1 + (model.A0 - eye) @ X1 @ T1 + model.A1 @ X1 @ T1 @ T1)
    report["pair_up"] = norm_inf(
        model.A1 @ X2 + (model.A0 - eye) @ X2 @ T2 + model.A_neg @ X2 @ T2 @ T2)
    report["pair_condition_number"] = triple.pair_condition

    worst = 0.0
    for lam in _filtered_lambdas(qme.char_roots(sols)):
        eta_inv = np.linalg.inv(eta(model, lam).astype(complex))  # complex
        err = norm_inf(eta_inv - triple.resolvent(lam)) / (1.0 + norm_inf(eta_inv))
        worst = max(worst, err)
    report["resolvent_max_rel_err"] = worst
    return report
