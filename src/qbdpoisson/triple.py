"""The coupling matrix W and the resolvent triple of the block polynomial.

The quadratic matrix polynomial of the difference equation is
eta(lam) = A_neg + (A0 - I) lam + A1 lam^2.  For a chain that is not null
recurrent the series W = sum_j G^j (U - I)^{-1} R^j converges and satisfies

    W^{-1} = (I - U)(G Ghat - I),      W R = Ghat W,
    W A1 (G Ghat - I) = Ghat,

so W is computed from the closed form (one solve) and checked against the
similarity W R = Ghat W; the series itself is kept as a reference.

Together with the splitting of Ghat, W yields a resolvent triple (X, T, Z):
eta(lam)^{-1} = X T(lam)^{-1} Z with T(lam) = diag(lam I - T1, lam T2 - I),
the engine behind the closed-form solution of the difference equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qme
# spectral_radius is unused here but stays bound: bench/spans.py wraps it
from ._linalg import (Array, as_readonly, checked_inverse, condition_number,
                      norm_inf, spectral_radius)  # noqa: F401
from .exceptions import NumericalError
from .model import QbdModel
from .spectral import SpectralSplit

# sample points for the resolvent identity, exercising both branches of
# T(lam); points closer than _LAMBDA_MARGIN to a characteristic root are
# dropped
SAMPLE_LAMBDAS = (-0.5, 0.5 + 0.3j, 2.2, 1.7 - 0.9j)
_LAMBDA_MARGIN = 0.05

_MAX_SERIES_TERMS_BASE = 200


@dataclass(frozen=True)
class ResolventData:
    """The coupling matrix W with its closed-form inverse (I-U)(G Ghat - I)."""

    W: Array
    W_inv: Array

    def __post_init__(self):
        object.__setattr__(self, "W", as_readonly(self.W))
        object.__setattr__(self, "W_inv", as_readonly(self.W_inv))


@dataclass(frozen=True)
class ResolventTriple:
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

    def __post_init__(self):
        for name in ("X1", "X2", "T1", "T2", "Z1", "Z2"):
            object.__setattr__(self, name, as_readonly(getattr(self, name)))

    @property
    def m(self) -> int:
        return self.X1.shape[0]

    def pair_matrix(self) -> Array:
        """[[X1, X2 T2], [X1 T1, X2]]; nonsingular for a decomposable pair."""
        return np.block([[self.X1, self.X2 @ self.T2],
                         [self.X1 @ self.T1, self.X2]])

    def resolvent(self, lam: complex) -> Array:
        """X T(lam)^{-1} Z = X1 (lam I - T1)^{-1} Z1 + X2 (lam T2 - I)^{-1} Z2."""
        q = self.T1.shape[0]
        r = self.T2.shape[0]
        out = self.X1 @ np.linalg.solve(lam * np.eye(q) - self.T1,
                                        self.Z1.astype(complex))
        if r:
            out = out + self.X2 @ np.linalg.solve(lam * self.T2 - np.eye(r),
                                                  self.Z2.astype(complex))
        return out


def eta(model: QbdModel, lam: complex) -> Array:
    """The block polynomial A_neg + (A0 - I) lam + A1 lam^2."""
    eye = np.eye(model.m)
    return model.A_neg + (model.A0 - eye) * lam + model.A1 * lam * lam


def w_series(G: Array, U: Array, R: Array) -> Array:
    """Truncated series sum_j G^j (U - I)^{-1} R^j.

    Terms are summed until the term norm drops below 1e-14, capped at
    10 m + 200 terms.  Raises :class:`NumericalError` if the cap is reached
    first (divergent or too slowly convergent — null recurrent input).
    """
    m = G.shape[0]
    max_terms = 10 * m + _MAX_SERIES_TERMS_BASE
    core = np.linalg.solve(U - np.eye(m), np.eye(m))
    total = np.zeros((m, m))
    term = core
    for _ in range(max_terms):
        total = total + term
        if norm_inf(term) < 1e-14:
            return total
        term = G @ term @ R
    raise NumericalError(
        f"W series did not converge within {max_terms} terms "
        f"(last term norm {norm_inf(term):.3e}); chain is null recurrent "
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
    residual = norm_inf(W @ R - Ghat @ W)
    if not residual <= 1e-8 * (1.0 + norm_inf(W)):
        raise NumericalError(
            f"closed-form W fails the similarity W R = Ghat W by {residual:.3e}")
    return ResolventData(W=W, W_inv=W_inv)


def build_triple(G: Array, split: SpectralSplit, W: Array) -> ResolventTriple:
    """Assemble the resolvent triple from G, the splitting of Ghat, and W."""
    m = G.shape[0]
    p = split.p
    T1 = np.zeros((m + p, m + p))
    T1[:m, :m] = G
    T1[m:, m:] = split.v1_inv
    X1 = np.hstack([np.eye(m), split.L])
    X2 = split.K
    T2 = split.V0
    Z1 = np.vstack([W, -split.E @ W])
    Z2 = -split.V0 @ split.F @ W
    triple = ResolventTriple(X1=X1, X2=X2, T1=T1, T2=T2, Z1=Z1, Z2=Z2)
    cond = condition_number(triple.pair_matrix())
    if cond > 1e12:
        raise NumericalError(
            f"decomposable pair matrix is ill-conditioned (cond {cond:.3e})")
    return triple


def _filtered_lambdas(roots: Array) -> list[complex]:
    finite = roots[np.isfinite(roots)]
    kept = []
    for lam in SAMPLE_LAMBDAS:
        if finite.size == 0 or np.min(np.abs(finite - lam)) > _LAMBDA_MARGIN:
            kept.append(lam)
    return kept


def check_identities(model: QbdModel, sols: qme.QmeSolutions,
                     split: SpectralSplit, wdata: ResolventData) -> dict[str, float]:
    """Residuals of every identity tying W, the splitting, and the triple.

    Returns a name -> residual mapping: the closed-form inverse of W, the
    similarity W R = Ghat W, the identity W A1 (G Ghat - I) = Ghat, the
    reconstruction of W from the partitioned eigenbasis, the two decomposable
    pair conditions, the pair condition number, and the worst relative error
    of the resolvent identity over the retained sample points.
    """
    m = model.m
    eye = np.eye(m)
    G, Ghat, U, R = sols.G, sols.Ghat, sols.U, sols.R
    W = wdata.W
    L, K, E, F = split.L, split.K, split.E, split.F
    V0 = split.V0

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
    report["pair_condition_number"] = condition_number(triple.pair_matrix())

    worst = 0.0
    for lam in _filtered_lambdas(qme.char_roots(sols)):
        eta_inv = np.linalg.inv(eta(model, lam).astype(complex))
        err = norm_inf(eta_inv - triple.resolvent(lam)) / (1.0 + norm_inf(eta_inv))
        worst = max(worst, err)
    report["resolvent_max_rel_err"] = worst
    return report
