"""Null-recurrent chains: right-shift transformation and solution recovery.

For a null recurrent chain both unit characteristic roots coincide, the
coupling series W diverges, and no resolvent triple exists.  The right
shift of the QME kernel (He, Meini & Rhee 2001) moves the unit root of the
stochastic solvent G, which :func:`~qbdpoisson.qme.solve_model` gives for
every drift in the null band, to zero: with Q = 1 u^T, u uniform, the
shifted equation has the blocks

    B + A1 Q,   A_neg (I - Q),   A0 + A1 Q,   A1

and the solvents Gt = G - Q (sp < 1) and, on the level-reversed side,
Gddot (sp = 1 to O(d)), with G's U and R.  :func:`right_shift` returns it,
with its convergent Wt = sum_j Gt^j (U - I)^{-1} R^j, for the one pipeline
to solve in place of the chain's own, and the levels map back via

    u_0 = ut_0,   u_k = ut_k + Q sum_{i<k} ut_i.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import poisson, qme, triple
# condition_number, spectral_radius, unit_eigenvector: unused here, bound for
# bench/spans.py
from ._linalg import (Array, FrozenRecord, checked_inverse, condition_number,
                      frozen, spectral_radius, unit_eigenvector)  # noqa: F401
from .exceptions import ClassificationError
from .model import QbdModel, RhsSpec
from .qme import Classification


@dataclass(frozen=True)
class ShiftData(FrozenRecord):
    """Q, the shifted equation (its model and solutions) and its Wt."""

    Q: Array
    equation: tuple[QbdModel, qme.QmeSolutions]
    wdata: triple.ResolventData


def right_shift(model: QbdModel, sols: qme.QmeSolutions) -> ShiftData:
    """The right-shifted equation of a null recurrent chain, ready to solve.

    ``sols.G`` is the stochastic solvent at every drift in the band, and
    ``sols`` holds its U and R, which the shifted equation keeps with
    (Gt, Gddot) for (G, Ghat).  Wt = :func:`~qbdpoisson.triple.w_series`
    (G - Q, U, R) solves Wt - Gt Wt R = (U - I)^{-1}, and Gddot = Wt R Wt^{-1}.
    :class:`NumericalError` unless Gddot solves its equation to ``QME_TOL``,
    cond_F(Wt) <= 1e14 and cond_F(I - Gt Gddot) <= 1e12.
    """
    if sols.classification is not Classification.NULL_RECURRENT:
        raise ClassificationError("right shift requires a null recurrent chain, "
                                  f"got {sols.classification.value}")
    Q, At_neg, At0 = map(frozen, qme._right_shifted_blocks(
        model.A_neg, model.A0, model.A1))
    Gt = frozen(sols.G - Q)
    W = frozen(triple.w_series(Gt, sols.U, sols.R))
    W_inv = frozen(checked_inverse(W, 1e14, "the shifted W is numerically singular"))
    Gddot = frozen(qme._checked(model.A1, At0, At_neg, W @ sols.R @ W_inv,
                                "Gddot = Wt R Wt^-1 fails its shifted equation"))
    checked_inverse(np.eye(model.m) - Gt @ Gddot, 1e12,
                    "I - Gt Gddot is numerically singular; the shift did not "
                    "separate the unit roots")
    B = frozen(model.B + model.A1.sum(axis=1, keepdims=True) * Q[0])
    return ShiftData(Q=Q, equation=(QbdModel._adopting(B, At_neg, At0, model.A1),
                                    replace(sols, G=Gt, Ghat=Gddot)),
                     wdata=triple.ResolventData(W=W, W_inv=W_inv))


def solve_null_recurrent(model: QbdModel, g: RhsSpec,
                         options: poisson.SolveOptions | None = None
                         ) -> poisson.PoissonSolution:
    """Solve the Poisson equation for a null recurrent chain via the shift.

    :func:`~qbdpoisson.poisson.solve_poisson` with its per-model plan, for
    null recurrent chains only: (Gt, Gddot) and Q go through the one
    pipeline, which maps the shifted levels back by the cumulative
    Q-correction and checks residuals against the original blocks.
    """
    opt = options or poisson.SolveOptions()
    plan = poisson._plan(model)
    if plan.shift is None:
        raise ClassificationError("solve_null_recurrent requires a null recurrent "
                                  f"chain, got {plan.sols.classification.value}")
    return plan.solve(g, opt)
