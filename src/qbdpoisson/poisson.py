"""General solution of the Poisson equation for recurrent and transient chains.

Every solution of the level equations

    (B - I) u_0 + A1 u_1            = -g_0
    A_neg u_r + (A0 - I) u_{r+1} + A1 u_{r+2} = -g_{r+1},   r >= 0

has the form u_r = G^r x + L V1^{-r} y + sigma_r, where (x, y) parametrize
the homogeneous family and sigma_r is the particular solution

    sigma_r = - sum_{k=1}^{r} (G^{r-k} - L V1^{k-r} E) W g_k
              - sum_{j=1}^{nu-1} K V0^j F W g_{j+r}.

The boundary equation pins x through a finite Poisson equation in
P* = B + A1 G.  For a transient chain I - P* is nonsingular and y is free
(default y*); for a recurrent chain x is determined up to alpha * 1 via the
group inverse of I - P*, and y = y* + y_perp with y* = -sum_k V1^k E W g_k
and y_perp constrained to the hyperplane pi_0^T W^{-1} L y_perp = pi^T g."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import qme, spectral, triple, verify
# condition_number is unused here but stays bound: bench/spans.py wraps it
from ._linalg import (Array, as_readonly, checked_inverse, condition_number,
                      norm_inf, stationary_vector)  # noqa: F401
from .exceptions import (ClassificationError, InfeasibleConstraintError,
                         NumericalError)
from .model import QbdModel, RhsSpec
from .qme import Classification
from .spectral import SpectralSplit
from .triple import ResolventData
from .verify import ResidualReport

DEFAULT_RESIDUAL_TOL = 1e-7
_EXTRA_LEVELS = 10
_PSTAR_ROW_TOL = 1e-10

Y_PERP_MODES = ("minimal_norm", "zero", "explicit")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the solution pipeline.

    ``y_free`` is the free homogeneous parameter of the transient case
    (length p, default y*, which gives the bounded representative: V1^{-r}
    then multiplies a zero deviation y - y*).
    ``y_perp_mode`` selects the recurrent-case hyperplane solution:
    ``minimal_norm`` (default), ``zero``, or ``explicit`` with ``y_perp``
    supplied.  ``R_max`` defaults to N + 10 and must be at least 2, so that
    the residual report sees an interior equation.
    """

    y_free: tuple | None = None
    y_perp_mode: str = "minimal_norm"
    y_perp: tuple | None = None
    alpha: float = 0.0
    R_max: int | None = None
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    null_band: float = qme.NULL_BAND
    eps_zero: float | None = None

    def __post_init__(self):
        if self.y_perp_mode not in Y_PERP_MODES:
            raise ValueError(f"y_perp_mode must be one of {Y_PERP_MODES}, "
                             f"got {self.y_perp_mode!r}")
        if self.y_perp_mode == "explicit" and self.y_perp is None:
            raise ValueError("y_perp_mode 'explicit' requires a y_perp vector")
        if self.R_max is not None and self.R_max < 2:
            raise ValueError(f"R_max must be at least 2, got {self.R_max}")


@dataclass(frozen=True)
class GroupInverseData:
    """Group inverse of I - P*, P* = B + A1 G.

    For a stochastic (recurrent) P* the group inverse is
    (I - P* + 1 pi*^T)^{-1} - 1 pi*^T with pi* its stationary vector; for a
    strictly substochastic (transient) P* it reduces to the plain inverse and
    ``pi_star`` is None.
    """

    Pstar: Array
    sharp: Array
    pi_star: Array | None
    recurrent: bool

    def __post_init__(self):
        object.__setattr__(self, "Pstar", as_readonly(self.Pstar))
        object.__setattr__(self, "sharp", as_readonly(self.sharp))
        if self.pi_star is not None:
            object.__setattr__(self, "pi_star", as_readonly(self.pi_star))


@dataclass(frozen=True)
class PoissonSolution:
    """Solution data (x, y) plus evaluated blocks u_0 ... u_{R_max}.

    ``alpha`` is the free additive constant of the recurrent case (None for
    transient chains, where x is fully determined).  ``sigma1`` is the
    particular-solution block entering the boundary equation.  All paths
    feed one pipeline, each with its own difference equation: on the
    null-recurrent path the shifted one, which ``sigma1`` and ``y`` belong
    to; on the :func:`solve_nonsingular_a1` path ``y`` multiplies W R^{-r}
    instead of L V1^{-r}, and ``sigma1`` is zero, as whenever Ghat has no
    nilpotent part.
    """

    classification: Classification
    x: Array
    y: Array
    y_star: Array
    alpha: float | None
    sigma1: Array
    R_max: int
    u: Array
    diagnostics: ResidualReport

    def __post_init__(self):
        for name in ("x", "y", "y_star", "sigma1", "u"):
            object.__setattr__(self, name, as_readonly(getattr(self, name)))


def group_inverse(Pstar: Array, *,
                  recurrent: bool | None = None) -> GroupInverseData:
    """Group inverse of I - P* for a (sub)stochastic P*.

    One formula for every class: (I - P* + 1 pi^T)^{-1} - 1 pi^T, with pi the
    stationary vector of P* when ``recurrent`` and 0 (the plain inverse)
    otherwise; the solvers pass their class.  By default P* counts as
    stochastic when its row sums are within 1e-10 of 1.  Raises
    :class:`NumericalError` when I - P* + 1 pi^T has Frobenius condition
    number above 1e14 (a reducible P*), and ValueError when a transient P*
    is not substochastic.
    """
    Pstar = np.atleast_2d(np.asarray(Pstar, dtype=float))
    m = Pstar.shape[0]
    rows = Pstar.sum(axis=1)
    if recurrent is None:
        recurrent = norm_inf(rows - 1.0) <= _PSTAR_ROW_TOL
    if not recurrent and rows.max() > 1.0 + _PSTAR_ROW_TOL:
        raise ValueError("P* must be substochastic")
    pi = stationary_vector(Pstar) if recurrent else np.zeros(m)
    one_pi = np.outer(np.ones(m), pi)
    sharp = checked_inverse(np.eye(m) - Pstar + one_pi, 1e14,
                            "group inverse: I - P* + 1 pi^T is numerically "
                            "singular (P* appears reducible)") - one_pi
    return GroupInverseData(Pstar=Pstar, sharp=sharp, recurrent=recurrent,
                            pi_star=pi if recurrent else None)


def compute_sigma(G: Array, split: SpectralSplit, W: Array, g: RhsSpec,
                  r: int) -> Array:
    """Particular-solution block sigma_r, in the regrouped form

        sigma_r = - sum_{j=0}^{r-1} G^j W g_{r-j}
                  + L V1^{-r} sum_{k=1}^{r} V1^k E W g_k
                  - sum_{j=1}^{nu-1} K V0^j F W g_{j+r}.

    Equals the general solution at x = 0, y = 0 (:func:`evaluate_u`).
    """
    if r < 0:
        raise ValueError(f"level index must be nonnegative, got {r}")
    return evaluate_u(np.zeros(G.shape[0]), np.zeros(split.p), G, split, W, g, r)


def evaluate_u(x: Array, y: Array, G: Array, split: SpectralSplit, W: Array,
               g: RhsSpec, r: int) -> Array:
    """u_r = G^r x + L V1^{-r} y + sigma_r for a single level r."""
    return evaluate_u_sequence(x, y, G, split, W, g, r)[r]


def evaluate_u_sequence(x: Array, y: Array, G: Array, split: SpectralSplit,
                        W: Array, g: RhsSpec, R_max: int) -> Array:
    """Solution blocks u_0 ... u_{R_max} for parameters (x, y).

    Evaluated in the numerically convenient regrouping: with
    y* = -sum_{k=1}^{N} V1^k E W g_k and C = M diag(V1, V0) M^{-1} the
    split's own target, whose powers are C^j = L V1^j E + K V0^j F,

        u_r = G^r x - sum_{j=0}^{r-1} G^j W g_{r-j}
              + L V1^{-r} (y - y*) - sum_{k=r+1}^{N} C^{k-r} W g_k.

    Negative powers of V1 multiply only the exact deviation y - y*; the
    remaining series tail uses positive powers, so the bounded choice y = y*
    stays bounded instead of drowning in amplified cancellation noise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (split.p,):
        raise ValueError(f"y must have length p = {split.p}, got shape {y.shape}")
    return _u_sequence(x, y - compute_y_star(split, W, g), G, split, W, g,
                       R_max)


def _u_sequence(x: Array, dev: Array, G: Array, split: SpectralSplit,
                W: Array, g: RhsSpec, R_max: int) -> Array:
    """Levels 0 ... R_max for x and dev = y - y*: u_r = a_r - c_r + L t_r with
    a_0 = x, a_r = G a_{r-1} - W g_r; c_r = C (W g_{r+1} + c_{r+1}) down from
    c_N = 0, C = ``split.recompose()``; t_r = V1^{-r} dev.  C and V1^{-1}
    are built once per split."""
    Wg = np.zeros((max(g.N, R_max) + 2, G.shape[0]))
    Wg[:g.N + 1] = g.blocks @ W.T
    C, v1_inv = split.recompose(), split.v1_inv
    c = np.zeros_like(Wg)
    for r in range(g.N - 1, -1, -1):
        c[r] = C @ (Wg[r + 1] + c[r + 1])
    a, t = [x], [dev]
    for r in range(1, R_max + 1):
        a.append(G @ a[-1] - Wg[r])
        t.append(v1_inv @ t[-1])
    return np.array(a) - c[:R_max + 1] + np.array(t) @ split.L.T


def compute_y_star(split: SpectralSplit, W: Array, g: RhsSpec) -> Array:
    """y* = -sum_{k=1}^{N} V1^k E W g_k (a finite sum for finitely supported g),
    by the Horner recursion y* = -V1 (E W g_1 + V1 (E W g_2 + ...))."""
    EWg = g.blocks @ (split.E @ W).T          # rows E W g_k
    acc = np.zeros(split.p)
    for k in range(g.N, 0, -1):
        acc = split.V1 @ (EWg[k] + acc)
    return -acc


def pi_dot_g(pi0: Array, R: Array, g: RhsSpec) -> float:
    """pi^T g = sum_{k=0}^{N} pi_0^T R^k g_k."""
    v = np.asarray(pi0, dtype=float)
    total = 0.0
    for k in range(g.N + 1):
        total += float(v @ g.block(k))
        v = v @ R
    return total


def _solve_hyperplane(direction: Array, target: float, target_noise: float,
                      g_scale: float, options: SolveOptions) -> Array:
    """A vector y_perp with direction^T y_perp = target, per the chosen mode.

    ``direction`` is (pi_0^T W^{-1} L)^T with pi_0 of unit sum.  The
    constraint is infeasible only when the direction vanishes while the
    target does not; that case (and an explicit or zero y_perp violating the
    constraint) raises :class:`InfeasibleConstraintError`.  The minimal-norm
    mode returns y_perp = 0 for a target within ``target_noise`` of zero.
    """
    feas_tol = 1e-8 * (1.0 + g_scale)
    if options.y_perp_mode == "zero":
        if abs(target) > feas_tol:
            raise InfeasibleConstraintError(
                f"y_perp = 0 violates the boundary constraint: pi^T g = "
                f"{target:.6e} must vanish")
        return np.zeros_like(direction)
    if options.y_perp_mode == "explicit":
        y_perp = np.asarray(options.y_perp, dtype=float)
        if y_perp.shape != direction.shape:
            raise ValueError(
                f"explicit y_perp must have length {direction.shape[0]}, "
                f"got shape {y_perp.shape}")
        gap = abs(float(direction @ y_perp) - target)
        if gap > feas_tol:
            raise InfeasibleConstraintError(
                f"explicit y_perp misses the boundary constraint by {gap:.6e}")
        return y_perp
    # minimal-norm solution of the single linear constraint
    nrm2 = float(direction @ direction)
    if nrm2 <= 1e-24:
        if abs(target) > feas_tol:
            raise InfeasibleConstraintError(
                "boundary constraint infeasible: pi_0^T W^{-1} L = 0 while "
                f"pi^T g = {target:.6e} != 0")
        return np.zeros_like(direction)
    if abs(target) <= target_noise:
        # a target at noise level would seed a spurious growing component
        return np.zeros_like(direction)
    return (target / nrm2) * direction


def _sigma1(split: SpectralSplit, W: Array, g: RhsSpec) -> Array:
    """sigma_1 = -sum_{j=0}^{nu-1} K V0^j F W g_{j+1}, the paper's sigma_r at
    r = 1 with I - L E = K F; exactly zero when p = m."""
    acc = np.zeros(split.m - split.p)
    for FWg in (g.blocks[1:split.nu + 1] @ (split.F @ W).T)[::-1]:
        acc = FWg + split.V0 @ acc
    return -(split.K @ acc)


class SolvePlan:
    """The part of a solve that does not depend on g, built once per model.

    Holds the difference equation being solved, (G, Ghat, split, W) or the
    shifted one with its shift ``Q`` (boundary block B + A1 Q, levels mapped
    back by u_k = ut_k + Q sum_{i<k} ut_i), the boundary operator
    (B + A1 Q - I) Ghat + A1, the group inverse of I - P* (P* = B + A1 G, the
    original G) in the form its class picks, and, recurrent only, its pi_0 of
    unit sum, the hyperplane direction and pi_0's stationarity defect.  It
    keeps its own copy of the blocks, so a cached plan does not refer back.
    """

    def __init__(self, model: QbdModel, sols: qme.QmeSolutions, G: Array,
                 Ghat: Array, split: SpectralSplit, wdata: ResolventData,
                 Q: Array | None = None):
        eye = np.eye(model.m)
        self.model = replace(model)
        self.sols, self.G, self.split, self.W, self.Q = sols, G, split, wdata.W, Q
        B = model.B if Q is None else model.B + model.A1 @ Q
        self.boundary = (B - eye) @ Ghat + model.A1
        gi = group_inverse(
            model.B + model.A1 @ sols.G,
            recurrent=sols.classification is not Classification.TRANSIENT)
        self.sharp = gi.sharp
        if not gi.recurrent:
            return
        # the constraint is scale invariant in pi_0; a unit sum keeps the
        # direction away from the drift^2 scale of the probability mass
        self.pi0 = gi.pi_star
        self.direction = split.L.T @ (wdata.W_inv.T @ self.pi0)
        self.defect = float(np.abs(self.pi0 - self.pi0 @ gi.Pstar).sum())

    def solve(self, g: RhsSpec, opt: SolveOptions) -> PoissonSolution:
        """Boundary solve, level evaluation and residual check for one g."""
        split, W, cls = self.split, self.W, self.sols.classification
        y_star = compute_y_star(split, W, g)
        if cls is Classification.TRANSIENT:
            y = y_star
            if opt.y_free is not None:
                y = np.asarray(opt.y_free, dtype=float)
                if y.shape != (split.p,):
                    raise ValueError(f"y_free must have length p = {split.p}, "
                                     f"got shape {y.shape}")
        else:
            pig = pi_dot_g(self.pi0, self.sols.R, g)
            # pi^T g = pi_0^T (I - P*) u_0 for every solution u, so the target is
            # known only to within pi_0's stationarity defect times ||u_0||, for
            # which 1 + ||g|| stands in; the defect is rounding-level except for
            # a null-band chain with a substochastic P*
            g_scale = norm_inf(g.blocks)
            y = y_star + _solve_hyperplane(self.direction, pig, (
                1e-12 + self.defect) * (1.0 + g_scale), g_scale, opt)

        sigma1 = _sigma1(split, W, g)
        rhs = self.boundary @ (sigma1 + split.L @ (split.v1_inv @ y)) + g.block(0)
        x, alpha = self.sharp @ rhs, None
        if cls is not Classification.TRANSIENT:
            x, alpha = x + opt.alpha, opt.alpha

        R_max = g.N + _EXTRA_LEVELS if opt.R_max is None else int(opt.R_max)
        # a growing family may overflow; that is refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            u = evaluate_u_sequence(x, y, self.G, split, W, g, R_max)
            if self.Q is not None:
                u[1:] += np.cumsum(u[:-1], axis=0) @ self.Q.T
        bad = np.flatnonzero(~np.isfinite(u).all(axis=1))
        if bad.size:
            raise NumericalError(
                f"solution is not finite from level {bad[0]} on (R_max = {R_max}); "
                "the solution family overflows, choose fewer levels")
        report = verify.residuals(self.model, g, u, tol=opt.residual_tol)
        return PoissonSolution(classification=cls, x=x, y=y, y_star=y_star,
                               alpha=alpha, sigma1=sigma1, R_max=R_max, u=u,
                               diagnostics=report)


def _plan(model: QbdModel, opt: SolveOptions) -> SolvePlan:
    """The plan of ``model`` for opt's (null_band, eps_zero), built on first
    use and kept on the model, whose blocks are read-only."""
    plans = vars(model).setdefault("_plans", {})
    key = (opt.null_band, opt.eps_zero)
    if key not in plans:
        sols = qme.solve_model(model, null_band=opt.null_band)
        G, Ghat, Q = sols.G, sols.Ghat, None
        if sols.classification is Classification.NULL_RECURRENT:
            from . import shift           # shift imports this module
            sd = shift.right_shift(model, sols)
            G, Ghat, Q = sd.Gt, sd.Gddot, sd.Q
        # the shifted equation shares U and R with the original one
        plans[key] = SolvePlan(model, sols, G, Ghat,
                               spectral.split(Ghat, eps_zero=opt.eps_zero),
                               triple.compute_w(G, sols.U, sols.R, Ghat), Q=Q)
    return plans[key]


def solve_poisson(model: QbdModel, g: RhsSpec,
                  options: SolveOptions | None = None) -> PoissonSolution:
    """General solution of the Poisson equation (I - P) u = g.

    Positive recurrent and transient chains are handled here; a null
    recurrent chain goes through the right shift of
    :mod:`qbdpoisson.shift`.  The work that does not depend on g (QME,
    split, W, shift, boundary operator, group inverse, pi_0) is done on the
    first call for a :class:`QbdModel` object and reused by later calls on
    the same object, which is immutable; ``null_band`` and ``eps_zero``
    select the plan, the other options apply per call.
    """
    opt = options or SolveOptions()
    return _plan(model, opt).solve(g, opt)


def _corollary_split(wdata: ResolventData, R: Array) -> SpectralSplit:
    """Split M = W, V1 = R of Ghat, exact because W R = Ghat W: y multiplies
    W R^{-r}, y* = -sum_k R^k g_k and the hyperplane direction is pi_0."""
    m = R.shape[0]
    return SpectralSplit(M=wdata.W, V1=R, V0=np.zeros((0, 0)), L=wdata.W,
                         K=np.zeros((m, 0)), E=wdata.W_inv, F=np.zeros((0, m)),
                         p=m, nu=1, eps_zero=0.0)


def solve_nonsingular_a1(model: QbdModel, g: RhsSpec,
                         options: SolveOptions | None = None) -> PoissonSolution:
    """Simplified solution family for nonsingular A1 (hence nonsingular R).

    u_r = G^r x + W R^{-r} y - sum_{k=1}^{r} (G^{r-k} W - W R^{k-r}) g_k,
    with the boundary handled as in :func:`solve_poisson` but with y an
    m-vector multiplying W R^{-r} (so here p = m and no Schur split is
    needed).  The output differs from :func:`solve_poisson` by a homogeneous
    solution only.  Requires cond_F(A1) <= 1e12 (else NumericalError).
    """
    opt = options or SolveOptions()
    checked_inverse(model.A1, 1e12, "A1 is numerically singular; use solve_poisson")
    sols = qme.solve_model(model, null_band=opt.null_band)
    if sols.classification is Classification.NULL_RECURRENT:
        raise ClassificationError(
            "nonsingular-A1 path requires a chain that is not null recurrent")
    wdata = triple.compute_w(sols.G, sols.U, sols.R, sols.Ghat)
    return SolvePlan(model, sols, sols.G, sols.Ghat,
                     _corollary_split(wdata, sols.R), wdata).solve(g, opt)
