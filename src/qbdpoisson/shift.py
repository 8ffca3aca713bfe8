"""Null-recurrent chains: right-shift transformation and solution recovery.

For a null recurrent chain both unit characteristic roots coincide, the
coupling series W diverges, and no resolvent triple exists.  A rank-one
update built from the unit eigenvectors of G and Ghat moves the unit root of
the down-going side to zero: with Q = w_G v_Ghat^T the shifted blocks

    At_neg = A_neg (I - Q),   At0 = A0 + A1 Q,   At1 = A1

admit the solutions Gt = G - Q (sp < 1) and
Gddot = Ghat + (w_G + Hhat^{-1} w_Rhat) v_Ghat^T (sp = 1), where
Hhat = A0 - I + A_neg Ghat and w_Rhat is scaled so that
v_Ghat^T Hhat^{-1} w_Rhat = -1.  The shifted difference equation keeps the
same right-hand side and the same U and R, so Wt follows from the usual
closed form with (Gt, Gddot) in place of (G, Ghat).  Solutions map back via

    u_0 = ut_0,   u_k = ut_k + Q sum_{i<k} ut_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poisson, qme, spectral, triple
from ._linalg import (Array, as_readonly, condition_number, norm_inf,
                      spectral_radius, unit_eigenvector)
from .exceptions import ClassificationError, NumericalError
from .model import QbdModel, RhsSpec
from .qme import Classification
from .spectral import SpectralSplit
from .triple import ResolventData


@dataclass(frozen=True)
class ShiftData:
    """Shifted blocks, their solutions, and the shifted coupling matrix."""

    w_G: Array
    v_Ghat: Array
    w_Rhat: Array
    Q: Array
    At_neg: Array
    At0: Array
    At1: Array
    Gt: Array
    Gddot: Array
    Hhat: Array
    Wt: ResolventData
    split_t: SpectralSplit

    def __post_init__(self):
        for name in ("w_G", "v_Ghat", "w_Rhat", "Q", "At_neg", "At0", "At1",
                     "Gt", "Gddot", "Hhat"):
            object.__setattr__(self, name, as_readonly(getattr(self, name)))


def right_shift(model: QbdModel, sols: qme.QmeSolutions, *,
                eps_zero: float | None = None) -> ShiftData:
    """Build the right-shift data for a null recurrent chain.

    w_G, v_Ghat and the direction of w_Rhat are the unit eigenvectors of
    :func:`~qbdpoisson._linalg.unit_eigenvector` (one bordered solve each,
    unit sum); v_Ghat is then rescaled to v_Ghat^T w_G = 1, so Q does not
    depend on either scale.  For a drift inside the null band but not zero,
    G or Ghat has its eigenvalue within O(drift) of 1 and the vectors are
    accurate to that order.  The normalization scalar
    v_Ghat^T Hhat^{-1} w_Rhat is nonzero for null recurrent chains; a
    vanishing value is reported as a degeneracy.
    """
    if sols.classification is not Classification.NULL_RECURRENT:
        raise ClassificationError(
            f"right shift requires a null recurrent chain, got "
            f"{sols.classification.value}")
    m = model.m
    eye = np.eye(m)

    w_G = unit_eigenvector(sols.G)
    v_Ghat = unit_eigenvector(sols.Ghat, left=True)
    v_Ghat = v_Ghat / float(v_Ghat @ w_G)

    Hhat = model.A0 - eye + model.A_neg @ sols.Ghat
    w_Rhat_raw = unit_eigenvector(sols.Rhat)
    h = np.linalg.solve(Hhat, w_Rhat_raw)
    scalar = float(v_Ghat @ h)
    if abs(scalar) < 1e-12:
        raise NumericalError(
            f"degenerate shift normalization: v_Ghat^T Hhat^{{-1}} w_Rhat = "
            f"{scalar:.3e}")
    w_Rhat = -w_Rhat_raw / scalar
    h_w = -h / scalar                       # Hhat^{-1} w_Rhat after scaling

    Q = np.outer(w_G, v_Ghat)
    At_neg = model.A_neg @ (eye - Q)
    At0 = model.A0 + model.A1 @ Q
    At1 = model.A1.copy()
    Gt = sols.G - Q
    Gddot = sols.Ghat + np.outer(w_G + h_w, v_Ghat)

    if condition_number(eye - Gt @ Gddot) > 1e12:
        raise NumericalError("I - Gt Gddot is numerically singular; the shift "
                             "did not separate the unit roots")
    # shifted chain shares U and R with the original model
    wt = triple.compute_w(Gt, sols.U, sols.R, Gddot)
    split_t = spectral.split(Gddot, eps_zero=eps_zero)
    return ShiftData(w_G=w_G, v_Ghat=v_Ghat, w_Rhat=w_Rhat, Q=Q,
                     At_neg=At_neg, At0=At0, At1=At1, Gt=Gt, Gddot=Gddot,
                     Hhat=Hhat, Wt=wt, split_t=split_t)


def shift_identity_report(model: QbdModel, sols: qme.QmeSolutions,
                          sd: ShiftData) -> dict[str, float]:
    """Residuals of the shifted-block identities, for diagnostics."""
    m = model.m
    eye = np.eye(m)
    report = {
        "shifted_down_equation": norm_inf(
            sd.At_neg + (sd.At0 - eye) @ sd.Gt + sd.At1 @ sd.Gt @ sd.Gt),
        "shifted_up_equation": norm_inf(
            sd.At1 + (sd.At0 - eye) @ sd.Gddot + sd.At_neg @ sd.Gddot @ sd.Gddot),
        "shifted_w_inverse": norm_inf(
            sd.Wt.W @ ((eye - sols.U) @ (sd.Gt @ sd.Gddot - eye)) - eye),
        "sp_Gt": spectral_radius(sd.Gt),
        "sp_Gddot": spectral_radius(sd.Gddot),
        "normalization": float(sd.v_Ghat @ np.linalg.solve(sd.Hhat, sd.w_Rhat)),
    }
    return report


def solve_null_recurrent(model: QbdModel, g: RhsSpec,
                         options: poisson.SolveOptions | None = None
                         ) -> poisson.PoissonSolution:
    """Solve the Poisson equation for a null recurrent chain via the shift.

    The shifted difference equation (Gt, Gddot, its split and Wt) and the
    shift Q are handed to the one solution pipeline of
    :mod:`qbdpoisson.poisson`: the boundary condition reduces to
    pi_0^T Wt^{-1} Lt (y - yt*) = pi^T g with pi_0 in unit-sum normalization
    (the constraint is scale invariant in pi_0), x follows from the finite
    Poisson equation in P* = B + A1 G via the group inverse, and the
    original solution is recovered from the shifted one by the cumulative
    Q-correction.  Residuals are checked against the original blocks.  The
    g-independent part is shared with :func:`~qbdpoisson.poisson.solve_poisson`
    and reused per :class:`QbdModel` object.
    """
    opt = options or poisson.SolveOptions()
    plan = poisson._plan(model, opt)
    if plan.sols.classification is not Classification.NULL_RECURRENT:
        raise ClassificationError(
            f"solve_null_recurrent requires a null recurrent chain, got "
            f"{plan.sols.classification.value}")
    return plan.solve(g, opt)
