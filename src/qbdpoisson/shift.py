"""Null-recurrent chains: right-shift transformation and solution recovery.

For a null recurrent chain both unit characteristic roots coincide, the
coupling series W diverges, and no resolvent triple exists.  The right
shift of the QME kernel (He, Meini & Rhee 2001) moves the unit root of G to
zero: with Q = 1 u^T, u uniform, the shifted blocks

    At_neg = A_neg (I - Q),   At0 = A0 + A1 Q,   At1 = A1

have the solvents Gt = G - Q (sp < 1) and, on the level-reversed side,
Gddot (sp = 1) from cyclic reduction.  They share U and R with the original
blocks, so (Gt, Gddot) go through the one pipeline in place of (G, Ghat),
and the levels map back via

    u_0 = ut_0,   u_k = ut_k + Q sum_{i<k} ut_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poisson, qme, triple
# condition_number, unit_eigenvector: unused here, bound for bench/spans.py
from ._linalg import (Array, as_readonly, checked_inverse, condition_number,
                      norm_inf, spectral_radius, unit_eigenvector)  # noqa: F401
from .exceptions import ClassificationError
from .model import QbdModel, RhsSpec
from .qme import Classification


@dataclass(frozen=True)
class ShiftData:
    """The shift Q, the shifted blocks and their solutions."""

    Q: Array
    At_neg: Array
    At0: Array
    At1: Array
    Gt: Array
    Gddot: Array

    def __post_init__(self):
        for name in ("Q", "At_neg", "At0", "At1", "Gt", "Gddot"):
            object.__setattr__(self, name, as_readonly(getattr(self, name)))


def right_shift(model: QbdModel, sols: qme.QmeSolutions) -> ShiftData:
    """Build the right-shift data for a null recurrent chain.

    Gddot comes from the cyclic-reduction kernel on the level-reversed
    shifted blocks, which checks its own residual.  An I - Gt Gddot of
    Frobenius condition number above 1e12 (no shifted W) raises
    :class:`NumericalError`.
    """
    if sols.classification is not Classification.NULL_RECURRENT:
        raise ClassificationError(
            f"right shift requires a null recurrent chain, got "
            f"{sols.classification.value}")
    Q, At_neg, At0 = qme._right_shifted_blocks(model.A_neg, model.A0, model.A1)
    Gt = sols.G - Q
    Gddot = qme._solve_shifted(model.A1, At0, At_neg, None, qme.QME_TOL,
                               qme.QME_MAX_ITER)
    checked_inverse(np.eye(model.m) - Gt @ Gddot, 1e12,
                    "I - Gt Gddot is numerically singular; the shift did not "
                    "separate the unit roots")
    return ShiftData(Q=Q, At_neg=At_neg, At0=At0, At1=model.A1, Gt=Gt,
                     Gddot=Gddot)


def shift_identity_report(model: QbdModel, sols: qme.QmeSolutions,
                          sd: ShiftData) -> dict[str, float]:
    """Residuals of the shifted-block identities, for diagnostics."""
    eye = np.eye(model.m)
    # the shifted chain shares U and R with the original model
    wt = triple.compute_w(sd.Gt, sols.U, sols.R, sd.Gddot)
    return {
        "shifted_down_equation": norm_inf(
            sd.At_neg + (sd.At0 - eye) @ sd.Gt + sd.At1 @ sd.Gt @ sd.Gt),
        "shifted_up_equation": norm_inf(
            sd.At1 + (sd.At0 - eye) @ sd.Gddot + sd.At_neg @ sd.Gddot @ sd.Gddot),
        "shifted_w_inverse": norm_inf(wt.W @ wt.W_inv - eye),
        "sp_Gt": spectral_radius(sd.Gt),
        "sp_Gddot": spectral_radius(sd.Gddot),
    }


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
    plan = poisson._plan(model, opt)
    if plan.sols.classification is not Classification.NULL_RECURRENT:
        raise ClassificationError(
            f"solve_null_recurrent requires a null recurrent chain, got "
            f"{plan.sols.classification.value}")
    return plan.solve(g, opt)
