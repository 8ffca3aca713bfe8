"""Probabilistic solution of the Poisson equation, used as an independent oracle.

A solution can be written, up to an additive constant, as

    omega_r = G^r gamma + y_r + c 1,
    gamma   = (I - P*)^# sum_k R^k g_k,
    y_r     = sum_{j=0}^{r-1} G^j z_{r-j},
    z_n     = (I - U)^{-1} sum_k R^k g_{n+k},

valid for all three recurrence classes provided, for recurrent chains, the
compatibility condition pi*^T sum_k R^k g_k = 0 holds (pi* the stationary
vector of P* = B + A1 G).  For finitely supported g every series is a finite
sum.  For a positive recurrent chain this coincides, up to a constant vector,
with the analytic solution that picks y = y*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poisson, qme
from ._linalg import Array, FrozenRecord, norm_inf, solve
from .exceptions import InfeasibleConstraintError
from .model import QbdModel, RhsSpec, is_count

_COMPAT_TOL = 1e-9


@dataclass(frozen=True)
class ProbSolution(FrozenRecord):
    """omega_r = G^r gamma + y_r, the solution with the constant c fixed to 0."""

    gamma: Array
    y_seq: Array
    omega: Array


def omega_solution(model: QbdModel, g: RhsSpec, R_max: int | None = None) -> ProbSolution:
    """Probabilistic solution omega_0 ... omega_{R_max}.

    Raises :class:`InfeasibleConstraintError` for a recurrent chain whose
    right-hand side violates the compatibility condition
    pi*^T sum_k R^k g_k = 0 (within 1e-9 (1 + ||g||)), and ValueError for an
    ``R_max`` that is not a nonnegative integer.
    """
    g.check_width(model.m)
    if R_max is not None and not is_count(R_max, 0):
        raise ValueError(f"R_max must be a nonnegative integer, got {R_max!r}")
    sols = qme.solve_model(model)
    m = model.m
    N = g.N
    if R_max is None:
        R_max = N + poisson._EXTRA_LEVELS

    # tail sums s_n = sum_{k>=0} R^k g_{n+k}, finite by support of g
    tails = np.zeros((N + 2, m))
    for n in range(N, -1, -1):
        tails[n] = g.block(n) + sols.R @ tails[n + 1]

    Pstar = model.B + model.A1 @ sols.G
    # the class, not P*'s row sums, picks the branch, as in the solve plan
    gi = poisson.group_inverse(
        Pstar, recurrent=sols.classification is not qme.Classification.TRANSIENT)
    if gi.recurrent:
        mismatch = abs(float(gi.pi_star @ tails[0]))
        if mismatch > _COMPAT_TOL * (1.0 + norm_inf(g.blocks)):
            raise InfeasibleConstraintError(
                "probabilistic solution needs pi*^T sum_k R^k g_k = 0 for a "
                f"recurrent chain; got {mismatch:.6e}")
    gamma = gi.sharp @ tails[0]

    z = solve(np.eye(m) - sols.U, tails[:N + 1].T).T  # z_0 unused

    y_seq = np.zeros((R_max + 1, m))
    omega = np.empty((R_max + 1, m))
    g_pow = gamma.copy()
    omega[0] = g_pow
    for r in range(1, R_max + 1):
        y_seq[r] = sols.G @ y_seq[r - 1] + (z[r] if r <= N else 0.0)
        g_pow = sols.G @ g_pow
        omega[r] = g_pow + y_seq[r]
    return ProbSolution(gamma=gamma, y_seq=y_seq, omega=omega)


def compare_constant_shift(u, omega, tol: float = 1e-7
                           ) -> tuple[bool, float, float]:
    """Is omega - u a constant vector?  Returns (is_match, offset, max_dev).

    ``offset`` is the mean of all components of all differences; the match
    holds iff every component deviates from the offset by at most ``tol``.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    omega = np.atleast_2d(np.asarray(omega, dtype=float))
    if u.shape != omega.shape:
        raise ValueError(f"sequences must have equal shapes, got {u.shape} "
                         f"vs {omega.shape}")
    d = omega - u
    offset = float(d.mean())
    max_dev = float(np.max(np.abs(d - offset))) if d.size else 0.0
    return max_dev <= tol, offset, max_dev
