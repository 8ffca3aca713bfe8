"""Independent oracles and deterministic random-model generation.

``residuals`` plugs a candidate solution straight into the level equations,
``forward_oracle`` reconstructs a solution by running the three-term
recurrence forward (numerically unstable over long horizons, so comparisons
stay short), and ``random_model`` draws reproducible test models of a
requested recurrence class from a counter-based stream.  The generation
recipe is part of the public test contract: failures reproduce by seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qme
# condition_number is unused here but stays bound: bench/spans.py wraps it
from ._linalg import Array, checked_inverse, condition_number  # noqa: F401
from .exceptions import NumericalError
from .model import QbdModel, RhsSpec

DEFAULT_TOL = 1e-7
_DRIFT_MARGIN = 1e-6
_MAX_RETRIES = 50


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of a candidate solution against the level equations.

    ``passed`` holds iff each equation's residual is at most tol times its
    own scale, 1 plus the norms of the blocks it couples, and u is finite.
    ``worst_equation`` is the level whose equation is worst against its scale
    ``worst_scale`` (interior residual r is level r + 1's).  ``scale`` =
    1 + max_r ||u_r|| is informational only.
    """

    boundary_residual: float
    interior_residuals: tuple[float, ...]
    scale: float
    tol: float
    passed: bool
    worst_equation: int
    worst_scale: float

    @property
    def max_residual(self) -> float:
        return max(self.boundary_residual, *(self.interior_residuals or (0.0,)))

    def to_dict(self) -> dict:
        return {
            "boundary": self.boundary_residual,
            "interior": list(self.interior_residuals),
            "scale": self.scale,
            "tol": self.tol,
            "pass": self.passed,
        }


def residuals(model: QbdModel, g: RhsSpec, u, tol: float = DEFAULT_TOL
              ) -> ResidualReport:
    """Exact residual evaluation of the boundary and interior equations.

    The boundary residual is ||(B - I) u_0 + A1 u_1 + g_0||; interior
    residual r (for r = 0 ... len(u) - 3) is
    ||A_neg u_r + (A0 - I) u_{r+1} + A1 u_{r+2} + g_{r+1}||, for all r in
    three batched products.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n, m = u.shape
    if n < 3:
        raise ValueError(f"need at least 3 solution blocks, got {n}")
    if m != model.m:
        raise ValueError(f"solution blocks have length {m}, "
                         f"model has m = {model.m}")
    g.check_width(model.m)
    forcing = np.zeros_like(u)
    forcing[:g.N + 1] = g.blocks[:n]
    B_eye, A0_eye = model.minus_identity
    boundary = B_eye.dot(u[0]) + model.A1.dot(u[1]) + forcing[0]
    interior = (u[:-2].dot(model.A_neg.T) + u[1:-1].dot(A0_eye.T)
                + u[2:].dot(model.A1.T) + forcing[1:-1])
    res = np.abs(np.vstack([boundary, interior])).max(axis=1)
    norms = np.abs(u).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite u fails
        scales = 1.0 + norms[:-1] + norms[1:]  # equation k couples u_{k-1} ... u_{k+1}
        scales[1:] += norms[:-2]
        worst = int(np.argmax(res / scales))   # the first NaN, if any
    passed = bool(np.isfinite(norms).all() and np.all(res <= tol * scales))
    return ResidualReport(boundary_residual=float(res[0]),
                          interior_residuals=tuple(res[1:].tolist()),
                          scale=1.0 + float(norms.max()), tol=tol,
                          passed=passed, worst_equation=worst,
                          worst_scale=float(scales[worst]))


def forward_oracle(model: QbdModel, g: RhsSpec, u0, u1, R_max: int) -> Array:
    """Reconstruct u_2 ... u_{R_max} from seeds (u_0, u_1) by forward recurrence.

    u_{r+2} = A1^{-1} (-g_{r+1} - A_neg u_r - (A0 - I) u_{r+1}).  Requires
    cond_F(A1) <= 1e12 (else :class:`NumericalError`); growing characteristic
    modes amplify rounding, so use short horizons only.  Near a critical
    chain even a short horizon can drift far from a correct bounded solution.
    """
    g.check_width(model.m)
    A1_inv = checked_inverse(model.A1, 1e12,
                             "forward recurrence requires a nonsingular A1")
    if R_max < 1:
        raise ValueError(f"horizon must cover both seeds, got R_max = {R_max}")
    A0_eye = model.minus_identity[1]
    out = np.empty((R_max + 1, model.m))
    out[0] = np.asarray(u0, dtype=float)
    out[1] = np.asarray(u1, dtype=float)
    for r in range(R_max - 1):
        rhs = -g.block(r + 1) - model.A_neg @ out[r] - A0_eye @ out[r + 1]
        out[r + 2] = A1_inv @ rhs
    return out


def _draw_directional(rng: np.random.Generator, m: int,
                      target: qme.Classification) -> QbdModel | None:
    raw = rng.uniform(0.05, 1.0, size=(3, m, m))
    raw /= raw.sum(axis=(0, 2))[None, :, None]
    A_neg, A0, A1 = raw[0], raw[1], raw[2]
    model = QbdModel(B=A_neg + A0, A_neg=A_neg, A0=A0, A1=A1)
    d = qme.drift(model)
    if abs(d) < _DRIFT_MARGIN:
        return None
    want_negative = target is qme.Classification.POSITIVE_RECURRENT
    if (d < 0) != want_negative:
        # moving the mass between the up and down blocks flips the drift sign
        # without touching A_neg + A0 + A1
        A_neg, A1 = A1, A_neg
        model = QbdModel(B=A_neg + A0, A_neg=A_neg, A0=A0, A1=A1)
    return model


def _draw_null(rng: np.random.Generator, m: int) -> QbdModel:
    raw = rng.uniform(0.05, 1.0, size=(m, m))
    mass = rng.uniform(0.15, 0.45, size=m)
    A_neg = raw * (mass / raw.sum(axis=1))[:, None]
    A1 = A_neg.copy()                      # equal up/down blocks: drift exactly 0
    A0 = np.diag(1.0 - 2.0 * A_neg.sum(axis=1))
    return QbdModel(B=A_neg + A0, A_neg=A_neg, A0=A0, A1=A1)


def random_model(seed: int, m: int,
                 target_class: qme.Classification) -> QbdModel:
    """Deterministic random model of the requested recurrence class.

    Strictly positive blocks are normalized to a stochastic repeating row;
    the boundary block is the reflecting choice B = A_neg + A0, which keeps
    B + A1 stochastic.  Positive recurrent / transient targets are reached by
    exchanging mass between A1 and A_neg until the drift sign is right; the
    null recurrent target sets A1 = A_neg (zero drift by symmetry) with a
    diagonal A0 absorbing the rest of each row.  The classification of the
    output, at the default null band, is verified before returning; after
    50 draws of the wrong class :class:`NumericalError` is raised.
    """
    if m < 1:
        raise ValueError(f"phase count must be positive, got {m}")
    target = qme.Classification(target_class)
    rng = np.random.Generator(np.random.Philox(key=abs(int(seed))))
    for _ in range(_MAX_RETRIES):
        if target is qme.Classification.NULL_RECURRENT:
            model = _draw_null(rng, m)
        else:
            model = _draw_directional(rng, m, target)
            if model is None:
                continue
        d = qme.drift(model)
        got = qme._classify_drift(d, qme.NULL_BAND)
        if got is target:
            return model
    raise NumericalError(
        f"random model generation failed for seed={seed}, m={m}, "
        f"target={target.value} after {_MAX_RETRIES} attempts")
