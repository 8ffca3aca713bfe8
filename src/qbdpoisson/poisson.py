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

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qme, shift, spectral, triple, verify
# condition_number is unused here but stays bound: bench/spans.py wraps it
from ._linalg import (Array, FrozenRecord, checked_inverse, condition_number,
                      frozen, norm_inf, stationary_vector)  # noqa: F401
from .exceptions import (ClassificationError, InfeasibleConstraintError,
                         NumericalError)
from .model import QbdModel, RhsSpec, is_count, validate
from .qme import Classification
from .spectral import SpectralSplit
from .triple import ResolventData
from .verify import ResidualReport

_EXTRA_LEVELS = 10
_PSTAR_ROW_TOL = 1e-10

Y_PERP_MODES = ("minimal_norm", "zero", "explicit")


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of the solution pipeline.

    ``y_free`` is the free homogeneous parameter of the transient case
    (length p, default y*, which gives the bounded representative: V1^{-r}
    then multiplies a zero deviation y - y*).  ``y_perp_mode`` selects the
    recurrent-case hyperplane solution: ``minimal_norm`` (default), ``zero``,
    or ``explicit`` with ``y_perp``, which is refused in the other modes; a
    solve refuses ``y_free`` on a recurrent chain, ``y_perp`` and a nonzero
    ``alpha`` on a transient one.  ``R_max`` defaults to N + 10 and must be
    an integer >= 2, so that the residual report sees an interior equation.
    y, y*, ``y_free`` and ``y_perp`` are in the columns of L of the split of
    Ghat, or of the shifted Gddot on a null-recurrent chain: the phases only
    when that split is the identity (:attr:`SpectralSplit.identity`), else
    the ordered Schur basis.  No option sets a tolerance or the null band:
    :data:`~qbdpoisson.qme.NULL_BAND` and :data:`~qbdpoisson.verify.DEFAULT_TOL` are constants.
    """

    y_free: tuple | None = None
    y_perp_mode: str = "minimal_norm"
    y_perp: tuple | None = None
    alpha: float = 0.0
    R_max: int | None = None

    def __post_init__(self):
        if self.y_perp_mode not in Y_PERP_MODES:
            raise ValueError(f"y_perp_mode must be one of {Y_PERP_MODES}, "
                             f"got {self.y_perp_mode!r}")
        if (self.y_perp_mode == "explicit") != (self.y_perp is not None):
            raise ValueError("y_perp_mode 'explicit' requires a y_perp vector, "
                             "and a y_perp requires y_perp_mode 'explicit'")
        if self.R_max is not None and not is_count(self.R_max, 2):
            raise ValueError(f"R_max must be at least 2 and an integer, got {self.R_max!r}")
        for name in ("y_free", "y_perp", "alpha"):
            value = getattr(self, name)     # np.asarray(None, float) is NaN
            if (value is not None or name == "alpha") and not np.isfinite(
                    np.asarray(value, float)).all():
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GroupInverseData(FrozenRecord):
    """Group inverse of I - P*, P* = B + A1 G.

    For a stochastic (recurrent) P* the group inverse is
    (I - P* + 1 pi*^T)^{-1} - 1 pi*^T with pi* its stationary vector; for a
    strictly substochastic (transient) P* it reduces to the plain inverse and
    ``pi_star`` is None.
    """

    sharp: Array
    pi_star: Array | None
    recurrent: bool


@dataclass(frozen=True)
class PoissonSolution(FrozenRecord):
    """Solution data (x, y) plus evaluated blocks u_0 ... u_{R_max}.

    ``alpha`` is the free additive constant of the recurrent case (None for
    transient chains, where x is fully determined).  ``sigma1`` is the
    particular-solution block entering the boundary equation.  All paths
    feed one pipeline, each on the difference equation its plan names
    (``SolvePlan.equation``): on the null-recurrent path the shifted one,
    which ``sigma1`` and ``y`` belong to; on the :func:`solve_nonsingular_a1`
    path ``y`` multiplies W R^{-r} instead of L V1^{-r}, and ``sigma1`` is
    zero, as whenever Ghat has no nilpotent part.
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
    return GroupInverseData(sharp=frozen(sharp), recurrent=recurrent,
                            pi_star=frozen(pi) if recurrent else None)


def compute_sigma(G: Array, split: SpectralSplit, W: Array, g: RhsSpec,
                  r: int) -> Array:
    """Particular-solution block sigma_r, in the regrouped form

        sigma_r = - sum_{j=0}^{r-1} G^j W g_{r-j}
                  + L V1^{-r} sum_{k=1}^{r} V1^k E W g_k
                  - sum_{j=1}^{nu-1} K V0^j F W g_{j+r}.

    Equals the general solution at x = 0, y = 0 (:func:`evaluate_u_sequence`).
    """
    if r < 0:
        raise ValueError(f"level index must be nonnegative, got {r}")
    return evaluate_u_sequence(np.zeros(G.shape[0]), np.zeros(split.p), G, split, W, g, r)[r]


# The per-g path multiplies by ndarray.dot: on C-ordered operands it makes @'s
# BLAS call (same bits, up to a zero's sign at m = 1) at half @'s dispatch cost.
def evaluate_u_sequence(x: Array, y: Array, G: Array, split: SpectralSplit,
                        W: Array, g: RhsSpec, R_max: int, *,
                        tail: Array | None = None,
                        powers: Array | None = None) -> Array:
    """Solution blocks u_0 ... u_{R_max} for parameters (x, y); ``tail`` (the
    h of :func:`backward_pass`) and ``powers`` are the caller's, if it has them.

    Evaluated in the numerically convenient regrouping

        u_r = G^r x - sum_{j=0}^{r-1} G^j W g_{r-j}
              + L V1^{-r} (y - y*) - M h_r,

    with the series tail M h_r = sum_{k>r} C^{k-r} W g_k, C^j = L V1^j E +
    K V0^j F, and y* = -h_0[:p] read from the same h as the caller's y*, so
    y = y* leaves a deviation of exactly 0.  Negative powers of V1 multiply
    only that deviation and the tail has positive powers, so the bounded
    choice y = y* stays bounded instead of drowning in cancellation noise.

    On g's support, r <= n = min(N, R_max), a_r = G a_{r-1} - W g_r; then
    a_r = G^{r-n} a_n, K = isqrt(R_max - n) levels per product with [G; ...;
    G^K], the first K of ``powers`` ((k, m, m), extended when k < K).  V1^{-r}
    (y - y*) runs by LU solves, and only when y - y* is not 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (split.p,):
        raise ValueError(f"y must have length p = {split.p}, got shape {y.shape}")
    h = backward_pass(split, W, g)[0] if tail is None else tail
    m, n = G.shape[0], min(g.N, R_max)
    Wg, u = g.blocks.dot(W.T), np.empty((R_max + 1, m))
    u[0] = x
    a = u[0]
    for r in range(1, n + 1):
        a = u[r] = G.dot(a) - Wg[r]
    powers, K = _g_powers(G, R_max, n, powers)     # K = 1: G itself
    stack = G if K == 1 else powers[:K].reshape(K * m, m)
    flat = u.reshape(-1)
    for r in range(n, R_max, K):
        k = min(K, R_max - r)
        stack[:k * m].dot(u[r], out=flat[(r + 1) * m:(r + k + 1) * m])
    u[:n + 1] -= h[:n + 1] if split.identity else h[:n + 1] @ split.M.T
    t = [y + h[0, :split.p]]
    if t[0].any():
        for r in range(1, R_max + 1):
            t.append(split.v1_solve(t[-1]))
        u += np.array(t) if split.identity else np.array(t) @ split.L.T
    return u


def _grown(stack: Array, n: int, step) -> Array:
    """``stack`` with at least n rows, each next one step(the last): a new array."""
    if len(stack) >= n:
        return stack
    rows = list(stack)
    while len(rows) < n:
        rows.append(step(rows[-1]))
    return np.array(rows)


def _g_powers(G: Array, R_max: int, n: int, powers: Array | None = None):
    """(``powers`` [G; G^2; ...] grown to K rows, K = max(1, isqrt(R_max - n)))."""
    K = max(1, math.isqrt(R_max - n))
    return _grown(np.array([G]) if powers is None else powers, K, G.dot), K


def backward_pass(split: SpectralSplit, W: Array, g: RhsSpec, *,
                  ops: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """(h_0 ... h_N, sigma_1) from one pass down g's levels in the split's
    coordinates, J = diag(V1, V0): h_N = 0, h_r = J s_r, s_r = M^{-1} W g_{r+1}
    + h_{r+1}.  M h_r is the series tail of :func:`evaluate_u_sequence`,
    y* = -h_0[:p] and sigma_1 = -K s_0[p:] = -sum_{j<nu} K V0^j F W g_{j+1},
    the paper's sigma_r at r = 1 (exactly zero when p = m).  ``ops``: (M^{-1} W, J)."""
    MW, J = ops or (split.m_inv() @ W, split.j_matrix())
    MWg = g.blocks.dot(MW.T)                # rows M^{-1} W g_k
    s = h_r = np.zeros(split.m)             # h_N
    h = [h_r]
    for row in MWg[:0:-1]:                  # M^{-1} W g_N ... M^{-1} W g_1
        s = row + h_r
        h_r = J.dot(s)
        h.append(h_r)
    return np.array(h[::-1]), -(split.K @ s[split.p:])


def compute_y_star(split: SpectralSplit, W: Array, g: RhsSpec) -> Array:
    """y* = -sum_{k=1}^{N} V1^k E W g_k (a finite sum for finitely supported
    g), read off :func:`backward_pass` as -h_0[:p]."""
    return -backward_pass(split, W, g)[0][0, :split.p]


def pi_dot_g(pi0: Array, R: Array, g: RhsSpec) -> float:
    """pi^T g = sum_{k=0}^{N} pi_0^T R^k g_k, one dot of g's blocks with the
    rows pi_0 R^k, k <= N; ``pi0`` may be a longer stack of them (a plan's)."""
    rows = _grown(np.atleast_2d(np.asarray(pi0, dtype=float)), g.N + 1, lambda r: r.dot(R))
    return float(np.vdot(rows[:g.N + 1], g.blocks))


def _solve_hyperplane(direction: Array, target: float, g_scale: float,
                      options: SolveOptions) -> Array:
    """A vector y_perp with direction^T y_perp = target, per the chosen mode.

    ``direction`` is (pi_0^T W^{-1} L)^T with pi_0 of unit sum.  The
    constraint is infeasible only when the direction vanishes while the
    target does not; that case (and an explicit or zero y_perp violating the
    constraint) raises :class:`InfeasibleConstraintError`.  The minimal-norm
    mode returns y_perp = 0 for a target within 1e-12 (1 + ``g_scale``) of
    zero: pi^T g = pi_0^T (I - P*) u_0 for every solution u, so the target is
    known only to rounding times ||u_0||, for which 1 + ||g|| stands in.
    """
    feas_tol, noise = 1e-8 * (1.0 + g_scale), 1e-12 * (1.0 + g_scale)
    if options.y_perp_mode != "minimal_norm":
        if options.y_perp_mode == "zero":
            y_perp = np.zeros(direction.shape)
        else:
            y_perp = np.asarray(options.y_perp, dtype=float)
            if y_perp.shape != direction.shape:
                raise ValueError(
                    f"explicit y_perp must have length {direction.shape[0]}, "
                    f"got shape {y_perp.shape}")
        gap = abs(float(direction @ y_perp) - target)
        if not gap <= feas_tol:
            raise InfeasibleConstraintError(
                f"y_perp ({options.y_perp_mode}) misses the boundary "
                f"constraint pi_0^T W^{{-1}} L y_perp = pi^T g = {target:.6e} "
                f"by {gap:.6e}")
        return y_perp
    # minimal-norm solution of the single linear constraint
    if abs(target) <= noise:
        # a target at noise level would seed a spurious growing component
        return np.zeros(direction.shape)
    nrm2 = float(direction @ direction)
    if nrm2 <= 1e-24:
        if abs(target) > feas_tol:
            raise InfeasibleConstraintError(
                "boundary constraint infeasible: pi_0^T W^{-1} L = 0 while "
                f"pi^T g = {target:.6e} != 0")
        return np.zeros(direction.shape)
    return (target / nrm2) * direction


class SolvePlan:
    """The g-independent part of a solve, built once per model in stage order.

    ``equation`` names the difference equation the plan solves: a
    :class:`QbdModel` of its blocks and the :class:`~qbdpoisson.qme.QmeSolutions`
    of its solvents, which ``split`` and ``wdata`` belong to.  It is the
    chain's own (model, sols), or the right-shifted one that ``shift``
    (:func:`~qbdpoisson.shift.right_shift`) holds with its Wt; levels map
    back by u_k = ut_k + Q sum_{i<k} ut_i.  The plan holds that equation's
    boundary operator (B - I) Ghat + A1, the group inverse of the chain's
    I - P* (P* = B + A1 G, stochastic if recurrent) in the form its class
    picks, and, recurrent only, its pi_0 of unit sum and the hyperplane
    direction; the ``ops`` of :func:`backward_pass`; and the stacks pi_0 R^k
    and G^k, regrown as g or R_max needs.  ``model`` is its own
    :class:`QbdModel` on the model's read-only blocks, so a cached plan does
    not refer back.
    """

    def __init__(self, model: QbdModel):
        # kept on ``model``: its blocks, not it, and the (B - I, A0 - I) R's gate forms
        self.model = model = QbdModel._adopting(model.B, model.A_neg, model.A0, model.A1)
        self.sols = sols = qme.solve_model(model)
        self.shift = sd = (shift.right_shift(model, sols) if sols.classification
                           is Classification.NULL_RECURRENT else None)
        self.equation = sd.equation if sd else (model, sols)
        self.wdata = sd.wdata if sd else triple.compute_w(sols.G, sols.U, sols.R, sols.Ghat)
        eq, eq_sols = self.equation
        split = spectral.split(eq_sols.Ghat)
        self.G, self._powers = eq_sols.G, np.array([eq_sols.G])
        self.boundary = (eq.B - np.eye(model.m)) @ eq_sols.Ghat + eq.A1
        gi = group_inverse(
            frozen(model.B + model.A1 @ sols.G),
            recurrent=sols.classification is not Classification.TRANSIENT)
        self.sharp = gi.sharp
        if gi.recurrent:
            # the constraint is scale invariant in pi_0; a unit sum keeps the
            # direction away from the drift^2 scale of the probability mass
            self.pi0, self._pi_rows = gi.pi_star, gi.pi_star[None]
        self._with_split(split)

    def _with_split(self, split: SpectralSplit) -> SolvePlan:
        self.split, W = split, self.wdata.W
        # M = I: M^{-1} W and J are W and V1, C-ordered like a product (same bits)
        self._ops = ((np.ascontiguousarray(W), np.ascontiguousarray(split.V1))
                     if split.identity else (split.m_inv() @ W, split.j_matrix()))
        if hasattr(self, "pi0"):
            self.direction = split.L.T @ (self.wdata.W_inv.T @ self.pi0)
        return self

    @cached_property
    def corollary(self) -> SolvePlan:
        """This plan on the corollary's split M = W, V1 = R of Ghat, all else shared."""
        if self.shift is not None:
            raise ClassificationError(
                "nonsingular-A1 path requires a chain that is not null recurrent")
        checked_inverse(self.model.A1, 1e12, "A1 is numerically singular; use solve_poisson")
        return copy.copy(self)._with_split(_corollary_split(self.wdata, self.sols.R))

    def solve(self, g: RhsSpec, opt: SolveOptions) -> PoissonSolution:
        """Boundary solve, level evaluation and residual check for one g."""
        split, W, cls = self.split, self.wdata.W, self.sols.classification
        g.check_width(W.shape[0])
        tr = cls is Classification.TRANSIENT
        if opt.y_free is not None or opt.y_perp is not None or opt.alpha:
            for name, refused in (("y_free", not tr and opt.y_free is not None),
                                  ("y_perp", tr and opt.y_perp is not None),
                                  ("alpha", tr and opt.alpha != 0.0)):
                if refused:
                    raise ValueError(f"{name} is not a free parameter of the "
                                     f"solutions of a {cls.value} chain")
        h, sigma1 = backward_pass(split, W, g, ops=self._ops)
        y_star = frozen(-h[0, :split.p])
        if cls is Classification.TRANSIENT:
            y = y_star
            if opt.y_free is not None:
                y = np.asarray(opt.y_free, dtype=float)
                if y.shape != (split.p,):
                    raise ValueError(f"y_free must have length p = {split.p}, "
                                     f"got shape {y.shape}")
        else:
            self._pi_rows = rows = _grown(self._pi_rows, g.N + 1, lambda r: r.dot(self.sols.R))
            pig = float(np.vdot(rows[:g.N + 1], g.blocks))     # pi_dot_g on the plan's rows
            y = frozen(y_star + _solve_hyperplane(self.direction, pig,
                                                  norm_inf(g.blocks), opt))

        R_max = g.N + _EXTRA_LEVELS if opt.R_max is None else int(opt.R_max)
        # a huge g or a growing family may overflow: refused below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            Ly = split.v1_solve(y) if split.identity else split.L @ split.v1_solve(y)
            x, alpha = self.sharp.dot(self.boundary.dot(sigma1 + Ly) + g.block(0)), None
            if cls is not Classification.TRANSIENT:
                x, alpha = x + opt.alpha, opt.alpha
            self._powers, _ = _g_powers(self.G, R_max, min(g.N, R_max), self._powers)
            u = evaluate_u_sequence(x, y, self.G, split, W, g, R_max, tail=h,
                                    powers=self._powers)
            if self.shift is not None:
                u[1:] += np.cumsum(u[:-1], axis=0).dot(self.shift.Q[0])[:, None]
        if not np.isfinite(u).all():
            bad = np.flatnonzero(~np.isfinite(u).all(axis=1))[0]
            raise NumericalError(
                f"solution is not finite from level {bad} on (R_max = {R_max}); "
                "the solution family overflows, choose fewer levels")
        report = verify.residuals(self.model, g, u, tol=verify.DEFAULT_TOL)
        return PoissonSolution(classification=cls, x=frozen(x), y=y,
                               y_star=y_star, alpha=alpha, sigma1=frozen(sigma1),
                               R_max=R_max, u=frozen(u), diagnostics=report)


def _plan(model: QbdModel) -> SolvePlan:
    """The one plan of ``model``, built on first use and kept on the model,
    whose blocks are read-only.  A plan that fails a gate on a model that is
    not a QBD is refused with the invariants it breaks first."""
    if "_plan" not in vars(model):
        try:
            vars(model)["_plan"] = SolvePlan(model)
        except NumericalError as exc:
            if failures := validate(model).failures:
                raise NumericalError(
                    f"invalid model ({'; '.join(failures)}): {exc}") from exc
            raise
    return vars(model)["_plan"]


def solve_poisson(model: QbdModel, g: RhsSpec,
                  options: SolveOptions | None = None) -> PoissonSolution:
    """General solution of the Poisson equation (I - P) u = g.

    Positive recurrent and transient chains are handled here; a null
    recurrent chain goes through the right shift of
    :mod:`qbdpoisson.shift`.  The work that does not depend on g (QME, W,
    shift, split and all else a :class:`SolvePlan` holds) is done on the
    first call for a :class:`QbdModel` object and reused by later calls on
    the same object, which is immutable; the options apply per call.
    """
    opt = options or SolveOptions()
    return _plan(model).solve(g, opt)


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
    solution only.  Solves on :attr:`SolvePlan.corollary` of the model's plan,
    which refuses a null-recurrent chain and cond_F(A1) > 1e12.
    """
    opt = options or SolveOptions()
    return _plan(model).corollary.solve(g, opt)
