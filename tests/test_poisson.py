import math
from dataclasses import replace

import numpy as np
import pytest

from qbdpoisson import (Classification, ClassificationError,
                        InfeasibleConstraintError, ModelValidationError,
                        NumericalError, QbdModel, RhsSpec, SolveOptions,
                        compute_sigma, compute_y_star, evaluate_u,
                        evaluate_u_sequence, group_inverse, omega_solution,
                        pi_dot_g, random_model, residuals, solve_model,
                        solve_nonsingular_a1, solve_null_recurrent,
                        solve_poisson, split, stationary, compute_w,
                        validate)

from qbdpoisson import _linalg, poisson, qme, verify
from qbdpoisson.poisson import (_corollary_split, _solve_hyperplane,
                                backward_pass)
from conftest import (balanced_h, balanced_rhs, near_singular_model,
                      nilpotent_model, random_rhs, rhs, scalar_model,
                      scaled_interior_residual, with_drift)


def direct_u(x, y, G, sp, W, g, r):
    """Oracle: the unregrouped solution formula with explicit matrix powers,

    u_r = G^r x + L V1^{-r} y
          - sum_{k=1}^{r} (G^{r-k} - L V1^{k-r} E) W g_k
          - sum_{j=1}^{nu-1} K V0^j F W g_{j+r}.
    """
    m = G.shape[0]
    v1_inv = np.linalg.inv(sp.V1) if sp.p else None
    acc = np.linalg.matrix_power(G, r) @ np.asarray(x, dtype=float)
    if sp.p:
        acc = acc + sp.L @ np.linalg.matrix_power(v1_inv, r) @ np.asarray(y, dtype=float)
    for k in range(1, r + 1):
        term = np.linalg.matrix_power(G, r - k) @ W @ g.block(k)
        if sp.p:
            term = term - sp.L @ np.linalg.matrix_power(v1_inv, r - k) @ sp.E @ W @ g.block(k)
        acc = acc - term
    for j in range(1, sp.nu):
        acc = acc - sp.K @ np.linalg.matrix_power(sp.V0, j) @ sp.F @ W @ g.block(j + r)
    return acc


def _ingredients(model):
    s = solve_model(model)
    sp = split(s.Ghat)
    w = compute_w(s.G, s.U, s.R, s.Ghat)
    return s, sp, w


def test_sigma_scalar_values(pr1, pr1_rhs):
    s, sp, w = _ingredients(pr1)
    # r = 1: (G^0 - L V1^0 E) = 1 - 1 = 0 annihilates the only term
    assert compute_sigma(s.G, sp, w.W, pr1_rhs, 1)[0] == pytest.approx(0.0, abs=1e-12)
    # r = 3: -(1 - 3^2) W g_1 with W g_1 = 7.5
    assert compute_sigma(s.G, sp, w.W, pr1_rhs, 3)[0] == pytest.approx(60.0, abs=1e-9)


def test_sigma_vanishes_without_interior_forcing(pr1):
    s, sp, w = _ingredients(pr1)
    g0_only = rhs([4.2])
    for r in range(6):
        assert compute_sigma(s.G, sp, w.W, g0_only, r)[0] == pytest.approx(0.0, abs=1e-14)


def test_sigma_start_identity(pr1, pr1_rhs):
    # sigma_0 = Ghat sigma_1 ties the two lowest particular blocks together
    for seed in (3, 4):
        model = random_model(seed, 3, Classification.POSITIVE_RECURRENT)
        s, sp, w = _ingredients(model)
        g = random_rhs(seed, 3)
        sigma0 = compute_sigma(s.G, sp, w.W, g, 0)
        sigma1 = compute_sigma(s.G, sp, w.W, g, 1)
        np.testing.assert_allclose(sigma0, s.Ghat @ sigma1, atol=1e-10)


def test_y_star_scalar_values(pr1):
    s, sp, w = _ingredients(pr1)
    assert compute_y_star(sp, w.W, rhs([1.0], [-3.0]))[0] == pytest.approx(-2.5, abs=1e-12)
    assert compute_y_star(sp, w.W, rhs([7.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert compute_y_star(sp, w.W, rhs([0.0], [3.0]))[0] == pytest.approx(2.5, abs=1e-12)


def group_inverse_equations_hold(H, sharp):
    """Oracle: the three defining equations, by direct multiplication."""
    return (np.allclose(H @ sharp, sharp @ H, atol=1e-10)
            and np.allclose(H @ sharp @ H, H, atol=1e-10)
            and np.allclose(sharp @ H @ sharp, sharp, atol=1e-10))


def test_group_inverse_scalar_cases():
    gi = group_inverse(np.array([[1.0]]))
    assert gi.sharp[0, 0] == 0.0
    assert gi.pi_star[0] == pytest.approx(1.0)
    gi = group_inverse(np.array([[0.6]]))
    assert not gi.recurrent
    assert gi.sharp[0, 0] == pytest.approx(2.5, abs=1e-14)


def test_group_inverse_permutation():
    Pstar = np.array([[0.0, 1.0], [1.0, 0.0]])
    gi = group_inverse(Pstar)
    np.testing.assert_allclose(gi.sharp, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)
    assert group_inverse_equations_hold(np.eye(2) - Pstar, gi.sharp)


def test_group_inverse_characterization_random():
    for seed in range(6):
        cls = Classification.POSITIVE_RECURRENT if seed % 2 else Classification.NULL_RECURRENT
        model = random_model(seed, seed % 4 + 1, cls)
        s = solve_model(model)
        Pstar = model.B + model.A1 @ s.G
        gi = group_inverse(Pstar)
        m = model.m
        eye = np.eye(m)
        np.testing.assert_allclose(
            eye - (eye - Pstar) @ gi.sharp, np.outer(np.ones(m), gi.pi_star),
            atol=1e-10)
        np.testing.assert_allclose(gi.pi_star @ gi.sharp, np.zeros(m), atol=1e-10)
        assert group_inverse_equations_hold(eye - Pstar, gi.sharp)


@pytest.mark.parametrize("case", ["tr1", 3, 8])
def test_transient_group_inverse_is_the_plain_inverse(case, request):
    # pi = 0 turns (I - P* + 1 pi^T)^{-1} - 1 pi^T into the plain inverse,
    # bit for bit, taken by the solve path's own inverse kernel
    model = (request.getfixturevalue(case) if case == "tr1"
             else random_model(case, case, Classification.TRANSIENT))
    Pstar = model.B + model.A1 @ solve_model(model).G
    gi = group_inverse(Pstar, recurrent=False)
    assert np.array_equal(gi.sharp, _linalg.inverse(np.eye(model.m) - Pstar))
    assert gi.pi_star is None and not gi.recurrent


def test_positive_recurrent_walkthrough(pr1, pr1_rhs):
    sol = solve_poisson(pr1, pr1_rhs)
    assert sol.classification is Classification.POSITIVE_RECURRENT
    # pi^T g = (2/3)(1) + (2/9)(-3) = 0, so the minimal-norm y_perp vanishes
    assert sol.y[0] == pytest.approx(-2.5, abs=1e-12)
    assert sol.y_star[0] == pytest.approx(-2.5, abs=1e-12)
    assert sol.u[0, 0] == pytest.approx(sol.x[0] - 2.5, abs=1e-12)
    for r in range(1, sol.R_max + 1):
        assert sol.u[r, 0] == pytest.approx(sol.x[0] - 7.5, abs=1e-10)
    assert sol.diagnostics.passed
    assert sol.diagnostics.max_residual < 1e-12


def test_alpha_shifts_recurrent_solution(pr1, pr1_rhs):
    base = solve_poisson(pr1, pr1_rhs, SolveOptions(alpha=0.0))
    lifted = solve_poisson(pr1, pr1_rhs, SolveOptions(alpha=1.25))
    np.testing.assert_allclose(lifted.u - base.u, 1.25, atol=1e-10)
    assert lifted.diagnostics.passed


def test_transient_solution(tr1, tr1_rhs):
    sol = solve_poisson(tr1, tr1_rhs)
    assert sol.classification is Classification.TRANSIENT
    assert sol.alpha is None
    assert sol.x[0] == pytest.approx(2.5, abs=1e-13)
    for r in range(sol.R_max + 1):
        assert sol.u[r, 0] == pytest.approx(2.5 / 3.0 ** r, abs=1e-12)
    # boundary: -0.6 * 2.5 + 0.6 * (2.5 / 3) = -1 = -g_0
    assert sol.diagnostics.boundary_residual < 1e-14


def test_transient_free_parameter(tr1, tr1_rhs):
    sol = solve_poisson(tr1, tr1_rhs, SolveOptions(y_free=(0.3,)))
    assert sol.diagnostics.passed
    with pytest.raises(ValueError, match="y_free"):
        solve_poisson(tr1, tr1_rhs, SolveOptions(y_free=(0.3, 0.4)))


def test_transient_free_parameter_is_in_phase_coordinates():
    # an invertible Ghat is split by M = I, so y_free multiplies Ghat^{-r}
    # directly: u_r = G^r x + Ghat^{-r} y - sum_k (G^{r-k} - Ghat^{k-r}) W g_k
    model = random_model(2, 4, Classification.TRANSIENT)
    g = random_rhs(2, 4)
    s, sp, w = _ingredients(model)
    assert sp.p == 4 and np.array_equal(sp.L, np.eye(4))
    y = np.array([0.3, -0.2, 0.1, 0.4])
    sol = solve_poisson(model, g, SolveOptions(y_free=tuple(y)))
    assert sol.diagnostics.passed
    np.testing.assert_array_equal(sol.y, y)
    power = np.linalg.matrix_power
    Ghat_inv = np.linalg.inv(s.Ghat)
    for r in range(sol.R_max + 1):
        expected = power(s.G, r) @ sol.x + power(Ghat_inv, r) @ y
        for k in range(1, min(r, g.N) + 1):
            expected -= (power(s.G, r - k) - power(Ghat_inv, r - k)) @ w.W @ g.block(k)
        np.testing.assert_allclose(sol.u[r], expected, rtol=1e-9,
                                   atol=1e-9 * np.abs(sol.u[r]).max())


@pytest.mark.parametrize("R_max", [1, 0, -5, 30.7, 30.0, np.inf, True, "30"])
def test_r_max_below_two_is_refused(R_max):
    # the residual report needs an interior equation; no silent clamp, and
    # no truncation of a non-integer
    with pytest.raises(ValueError, match="R_max must be at least 2"):
        SolveOptions(R_max=R_max)


@pytest.mark.parametrize("seed", range(6))
def test_transient_default_is_bounded(seed):
    # the default y = y* leaves no V1^{-r} (y - y*) mode, so the levels
    # beyond the forcing decay instead of growing geometrically
    g = random_rhs(seed, 4)
    sol = solve_poisson(random_model(seed, 4, Classification.TRANSIENT), g,
                        SolveOptions(R_max=120))
    np.testing.assert_array_equal(sol.y, sol.y_star)
    assert np.linalg.norm(sol.u[120]) < np.linalg.norm(sol.u[g.N])


def test_unbalanced_rhs_forces_growing_solution(pr1):
    # pi^T g = 2/3 != 0: the constraint pins y_perp = -2.5 and the solution
    # grows like -2.5 * 3^r
    g = rhs([1.0])
    sol = solve_poisson(pr1, g)
    assert sol.y_star[0] == pytest.approx(0.0, abs=1e-15)
    assert sol.y[0] == pytest.approx(-2.5, abs=1e-12)
    assert sol.diagnostics.passed
    ratio = sol.u[6, 0] / sol.u[5, 0]
    assert ratio == pytest.approx(3.0, abs=1e-6)


def test_zero_mode_requires_balanced_rhs(pr1):
    with pytest.raises(InfeasibleConstraintError):
        solve_poisson(pr1, rhs([1.0]), SolveOptions(y_perp_mode="zero"))


def test_explicit_y_perp_checked_against_constraint(pr1):
    sol = solve_poisson(pr1, rhs([1.0]),
                        SolveOptions(y_perp_mode="explicit", y_perp=(-2.5,)))
    assert sol.diagnostics.passed
    with pytest.raises(InfeasibleConstraintError):
        solve_poisson(pr1, rhs([1.0]),
                      SolveOptions(y_perp_mode="explicit", y_perp=(1.0,)))


@pytest.mark.parametrize("delta, refused", [(2e-8, True), (5e-9, False)])
def test_explicit_y_perp_within_the_feasibility_tolerance(delta, refused):
    # y_perp off the hyperplane by delta (1 + ||g||) along the direction: the
    # tolerance 1e-8 (1 + ||g||) refuses 2e-8, 2.3x past it, and a tolerance
    # ten times wider would not; 5e-9 is inside and solves
    model = random_model(0, 3, Classification.POSITIVE_RECURRENT)
    g = RhsSpec(np.random.default_rng(0).normal(size=(4, 3)))
    plan = poisson._plan(model)
    d, target = plan.direction, pi_dot_g(plan.pi0, plan.sols.R, g)
    y_perp = ((target + delta * (1.0 + np.abs(g.blocks).max())) / (d @ d)) * d
    opt = SolveOptions(y_perp_mode="explicit", y_perp=tuple(y_perp))
    if refused:
        with pytest.raises(InfeasibleConstraintError, match="misses the boundary"):
            solve_poisson(model, g, opt)
    else:
        assert solve_poisson(model, g, opt).diagnostics.passed


def _regrouped_case(seed):
    m = seed % 5 + 1
    cls = Classification.POSITIVE_RECURRENT if seed % 2 == 0 else Classification.TRANSIENT
    return pytest.param(seed, random_model(seed, m, cls), id=str(seed))


# the nilpotent_model cases reach the evaluator with nu = 2
@pytest.mark.parametrize("seed, model", [
    *(_regrouped_case(seed) for seed in range(8)),
    *(pytest.param(m, nilpotent_model(m, m), id=f"nu2-m{m}") for m in (3, 4, 6)),
])
def test_regrouped_evaluation_matches_direct_formula(seed, model):
    m = model.m
    s, sp, w = _ingredients(model)
    g = random_rhs(seed, m)
    gen = np.random.Generator(np.random.Philox(key=seed))
    x = gen.normal(size=m)
    y = gen.normal(size=sp.p)
    R_max = g.N + 6
    u = evaluate_u_sequence(x, y, s.G, sp, w.W, g, R_max)
    for r in range(R_max + 1):
        np.testing.assert_allclose(u[r], direct_u(x, y, s.G, sp, w.W, g, r),
                                    atol=1e-9 * (1 + np.max(np.abs(u))))
    np.testing.assert_allclose(evaluate_u(x, y, s.G, sp, w.W, g, 3), u[3],
                               atol=1e-12)


@pytest.mark.parametrize("m", [3, 4, 6])
def test_nilpotent_part_balanced_solution(m):
    # g = (I - P) h: u is h, continued by zeros, up to a constant
    model = nilpotent_model(m, m)
    sp = split(solve_model(model).Ghat)
    assert (sp.p, sp.nu) == (m - 2, 2)
    u = solve_poisson(model, balanced_rhs(model, m)).u
    h = np.zeros_like(u)
    h[:8] = balanced_h(m, key=m)
    c = (u - h).mean()
    assert np.abs(u - h - c).max() <= 1e-12


@pytest.mark.parametrize("seed", [0, 2, 5])
def test_homogeneous_family(seed):
    m = seed % 4 + 2
    model = random_model(seed, m, Classification.POSITIVE_RECURRENT)
    s, sp, w = _ingredients(model)
    g = random_rhs(seed, m)
    gen = np.random.Generator(np.random.Philox(key=seed + 13))
    x = gen.normal(size=m)
    y = gen.normal(size=sp.p)
    dx = gen.normal(size=m)
    dy = gen.normal(size=sp.p)
    R_max = 8
    base = evaluate_u_sequence(x, y, s.G, sp, w.W, g, R_max)
    bumped = evaluate_u_sequence(x + dx, y + dy, s.G, sp, w.W, g, R_max)
    v1_inv = np.linalg.inv(sp.V1)
    scale = 1 + np.max(np.abs(bumped))
    for r in range(R_max + 1):
        expected = np.linalg.matrix_power(s.G, r) @ dx \
            + sp.L @ np.linalg.matrix_power(v1_inv, r) @ dy
        np.testing.assert_allclose(bumped[r] - base[r], expected,
                                   atol=1e-9 * scale)
    # the difference solves the homogeneous interior equation
    diff = bumped - base
    rep = residuals(model, rhs(*np.zeros((g.N + 2, m))), diff, tol=1e-8)
    assert max(rep.interior_residuals) <= 1e-8 * rep.scale


def test_bounded_solution_when_balanced(pr1, pr1_rhs):
    # balanced forcing with y = y* keeps the solution bounded and flat
    sol = solve_poisson(pr1, pr1_rhs, SolveOptions(R_max=40))
    norms = np.max(np.abs(sol.u), axis=1)
    assert norms.max() < 10.0
    assert abs(sol.u[-1, 0] - sol.u[-2, 0]) < 1e-9


def test_nonsingular_a1_matches_general_path(pr1, pr1_rhs):
    general = solve_poisson(pr1, pr1_rhs)
    simple = solve_nonsingular_a1(pr1, pr1_rhs)
    assert simple.y[0] == pytest.approx(1.0, abs=1e-12)   # y = W^{-1} (-2.5) = 1
    assert simple.diagnostics.passed
    # same solution family: the difference solves the homogeneous equations
    diff = general.u - simple.u
    zero_g = rhs(*np.zeros((pr1_rhs.N + 1, 1)))
    rep = residuals(pr1, zero_g, diff, tol=1e-8)
    assert rep.boundary_residual <= 1e-8 * rep.scale
    assert max(rep.interior_residuals) <= 1e-8 * rep.scale


def test_corollary_split_is_exact():
    # W R = Ghat W makes (M = W, V1 = R) an exact split of Ghat, on which the
    # corollary's sigma_1 vanishes up to rounding
    def nrm(a):
        return np.linalg.norm(a, np.inf)

    count = 0
    for seed in range(40):
        cls = Classification.POSITIVE_RECURRENT if seed % 2 == 0 else Classification.TRANSIENT
        model = random_model(seed, seed % 5 + 1, cls)
        if np.linalg.cond(model.A1) > 1e10:
            continue
        g = random_rhs(seed, model.m)
        s = solve_model(model)
        w = compute_w(s.G, s.U, s.R, s.Ghat)
        sp = _corollary_split(w, s.R)
        assert nrm(sp.recompose() - s.Ghat) <= 1e-12 * nrm(s.Ghat), seed
        assert nrm(s.Ghat @ sp.L - sp.L @ sp.V1) <= 1e-12 * nrm(s.Ghat) * nrm(sp.L)
        sigma1 = solve_nonsingular_a1(model, g).sigma1
        assert nrm(sigma1) <= 1e-12 * nrm(w.W) * nrm(g.blocks), seed
        count += 1
    assert count >= 30


def test_nonsingular_a1_transient(tr1, tr1_rhs):
    sol = solve_nonsingular_a1(tr1, tr1_rhs)
    for r in range(sol.R_max + 1):
        assert sol.u[r, 0] == pytest.approx(2.5 / 3.0 ** r, abs=1e-12)


def test_nonsingular_a1_rejects_singular_up_block():
    # the plan refuses its corollary without keeping it: every call is refused
    model = scalar_model(0.5, 0.5, 0.0, 1.0)
    for _ in range(2):
        with pytest.raises(NumericalError, match="A1 is numerically singular"):
            solve_nonsingular_a1(model, rhs([1.0]))


def test_nonsingular_a1_rejects_null_recurrent(nr1, nr1_rhs):
    with pytest.raises(ClassificationError):
        solve_nonsingular_a1(nr1, nr1_rhs)


def test_chain_without_up_transitions():
    # A1 = 0 forces p = 0: no free y at all, so an unbalanced rhs has no
    # solution in this family and must be reported as infeasible
    model = QbdModel(B=[[1.0]], A_neg=[[0.5]], A0=[[0.5]], A1=[[0.0]])
    with pytest.raises(InfeasibleConstraintError):
        solve_poisson(model, rhs([1.0]))
    # balanced rhs (R = 0, so only g_0 enters pi^T g): solvable exactly
    sol = solve_poisson(model, rhs([0.0], [-1.0], [2.0]))
    assert sol.y.shape == (0,)
    np.testing.assert_allclose(sol.u.ravel()[:5], [0.0, -2.0, 2.0, 2.0, 2.0],
                               atol=1e-12)
    assert sol.diagnostics.passed


@pytest.mark.parametrize("gap", [1e-7, 1e-8, 2e-9])
def test_near_critical_hyperplane_is_feasible(gap):
    # the hyperplane direction pi_0^T W^{-1} L scales like gap^2 here; only a
    # test relative to the norms of its factors tells it from zero
    p = 0.3
    q = p + gap
    model = scalar_model(q, 1.0 - p - q, p, 1.0 - p)
    g = rhs([1.0])
    sol = solve_poisson(model, g)
    assert sol.classification is Classification.POSITIVE_RECURRENT
    assert sol.diagnostics.passed
    assert sol.diagnostics.boundary_residual <= 1e-12 * (
        1.0 + np.abs(sol.u[:2]).max())
    assert scaled_interior_residual(model, g, sol.u) <= 1e-12


def test_pi_dot_g_matches_brute_force(pr1, pr1_rhs):
    s = solve_model(pr1)
    st = stationary(pr1, s)
    total = sum(float(st.level(k) @ pr1_rhs.block(k)) for k in range(pr1_rhs.N + 1))
    assert pi_dot_g(st.pi0, s.R, pr1_rhs) == pytest.approx(total, abs=1e-14)
    assert pi_dot_g(st.pi0, s.R, pr1_rhs) == pytest.approx(0.0, abs=1e-14)


def test_pi_dot_g_reads_a_prefix_of_longer_rows():
    # a plan passes its stack of rows pi_0 R^k, grown for an earlier, longer
    # g; the first N + 1 of them give pi^T g bit for bit
    model = random_model(1, 4, Classification.POSITIVE_RECURRENT)
    plan = poisson._plan(model)
    R = plan.sols.R
    rows = poisson._grown(plan.pi0[None], 30, R.__rmatmul__)
    for n_blocks in (1, 2, 7, 30):
        g = random_rhs(n_blocks, 4, n_blocks)
        assert pi_dot_g(rows, R, g) == pi_dot_g(plan.pi0, R, g)
        assert pi_dot_g(rows[:1], R, g) == pi_dot_g(plan.pi0, R, g)


@pytest.mark.parametrize("cls", list(Classification), ids=lambda c: c.value)
def test_evaluate_u_sequence_reads_a_prefix_of_longer_powers(cls):
    # a longer stack of powers of G, or a shorter one it extends, gives the
    # levels evaluate_u_sequence builds with none, bit for bit
    model = random_model(1, 4, cls)
    plan = poisson._plan(model)
    g = random_rhs(1, 4, 3)
    sol = plan.solve(g, SolveOptions())
    args = (sol.x, sol.y_star, plan.G, plan.split, plan.wdata.W, g)
    longer = poisson._g_powers(plan.G, 10_000, 0)[0]
    assert len(longer) == 100
    for R_max in (2, 3, 4, 7, 40, 500):
        with np.errstate(over="ignore", invalid="ignore"):
            want = evaluate_u_sequence(*args, R_max)
            for powers in (longer, np.array([plan.G])):
                got = evaluate_u_sequence(*args, R_max, powers=powers)
                np.testing.assert_array_equal(got, want)


def test_chunk_width_by_isqrt_equals_the_float_square_root():
    # K = isqrt(R_max - n) is int(np.sqrt(R_max - n)) below 2^48: both floor
    # sqrt are nondecreasing, so they agree below 2^48 when they agree at
    # s^2 - 1 and s^2 for every s < 2^24.  Those are exact floats, and
    # sqrt(s^2 - 1) sits more than 1 / (2s) below s, which is at least 16 ulps
    # of s and fewest for the largest s; past 2^53 the two differ
    s = np.r_[1:2 ** 16, 2 ** 24 - 2 ** 16:2 ** 24].astype(np.int64)
    for v, want in ((s * s - 1, s - 1), (s * s, s)):
        assert np.array_equal(np.sqrt(v.astype(float)).astype(np.int64), want)
    assert int(np.sqrt(2 ** 54 - 1)) != math.isqrt(2 ** 54 - 1)
    G = np.array([[0.5]])
    for R_max, n in ((2, 0), (30, 6), (40, 6), (1000, 6), (1000, 1000)):
        assert poisson._g_powers(G, R_max, n, np.array([G] * 3))[1] == \
            max(1, int(np.sqrt(R_max - n)))


SIGMA1_CASES = [*((f"nu2-m{m}", m) for m in (3, 4, 6)),
                *((f"{cls.name[:2]}-m{m}", m) for cls in
                  (Classification.POSITIVE_RECURRENT, Classification.TRANSIENT)
                  for m in (3, 8, 16))]


@pytest.mark.parametrize("case, m", SIGMA1_CASES, ids=[c for c, _ in SIGMA1_CASES])
def test_sigma1_closed_form_matches_level_one_block(case, m):
    # sigma_1 = -sum_{j<nu} K V0^j F W g_{j+1} against the level-1 block of
    # the particular solution, which runs the whole tail recursion
    if case.startswith("nu2"):
        model = nilpotent_model(m, m)
    else:
        cls = {"PO": Classification.POSITIVE_RECURRENT,
               "TR": Classification.TRANSIENT}[case[:2]]
        model = random_model(m, m, cls)
    g = random_rhs(m, m, 5)
    s, sp, w = _ingredients(model)
    reference = compute_sigma(s.G, sp, w.W, g, 1)
    sigma1 = solve_poisson(model, g).sigma1
    scale = np.abs(w.W).max() * np.abs(g.blocks).max()
    assert np.abs(sigma1 - reference).max() <= 1e-12 * scale
    if sp.p < m:
        assert np.abs(sigma1).max() > 1e-3 * scale
    else:
        assert np.all(sigma1 == 0.0)


def test_sigma1_is_zero_without_nilpotent_part():
    # p = m leaves K empty; the corollary split has no nilpotent part either
    count = 0
    for seed in range(12):
        cls = Classification.POSITIVE_RECURRENT if seed % 2 == 0 else Classification.TRANSIENT
        model = random_model(seed, seed % 4 + 2, cls)
        g = random_rhs(seed, model.m)
        assert np.all(solve_nonsingular_a1(model, g).sigma1 == 0.0)
        if split(solve_model(model).Ghat).p == model.m:
            assert np.all(solve_poisson(model, g).sigma1 == 0.0)
            count += 1
    assert count >= 6


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hyperplane_direction_stands_clear_of_its_gate_outside_the_band(seed, m):
    # the direction pi_0^T W^-1 L shrinks with the drift; just outside the one
    # band it stays 1e4 above the absolute 1e-24 test of _solve_hyperplane
    model = with_drift(random_model(seed, m, Classification.POSITIVE_RECURRENT), -1.01e-9)
    sol = solve_poisson(model, random_rhs(seed, m))
    assert sol.classification is Classification.POSITIVE_RECURRENT
    assert sol.diagnostics.passed
    direction = poisson._plan(model).direction
    assert direction @ direction >= 1e4 * 1e-24


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("d", [-2e-10, 2e-10])
def test_narrowed_null_band_solves_near_critical_chain(m, d, monkeypatch):
    # under a null band of 1e-12 the drift is outside the band, so the chain is
    # solved as positive recurrent or transient: W exists, whatever its size
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT), d)
    g = balanced_rhs(model, 3)
    monkeypatch.setattr(qme, "NULL_BAND", 1e-12)
    sol = solve_poisson(model, g)
    assert sol.classification is (Classification.TRANSIENT if d > 0
                                  else Classification.POSITIVE_RECURRENT)
    assert sol.diagnostics.passed
    h = np.zeros_like(sol.u)
    h[:8] = balanced_h(m, 3)
    dist = sol.u - h
    # the 1/|d| loss of digits near the band is not addressed here
    assert np.abs(dist - dist.mean()).max() <= 1e-5 * (1.0 + np.abs(h).max())


@pytest.mark.parametrize("seed", range(3))
def test_ill_conditioned_ghat_keeps_near_critical_accuracy(seed):
    # cond_F(Ghat) >= 1e8 at drift -1e-4: the split is M = I, V1 = Ghat, and
    # the boundary solves with V1 by LU; a dense V1^{-1} applied to y
    # moved u from h + c 1 by 3e-9 ... 8e-9 here
    model = with_drift(near_singular_model(seed, 8, 1e-7), -1e-4)
    Ghat = solve_model(model).Ghat
    assert np.linalg.norm(Ghat) * np.linalg.norm(np.linalg.inv(Ghat)) >= 1e8
    assert split(Ghat).p == 8
    sol = solve_poisson(model, balanced_rhs(model, 3))
    assert sol.classification is Classification.POSITIVE_RECURRENT
    h = np.zeros_like(sol.u)
    h[:8] = balanced_h(8, 3)
    dist = sol.u - h
    assert np.abs(dist - dist.mean()).max() <= 1e-11 * (1.0 + np.abs(h).max())


@pytest.mark.parametrize("model", [
    *(pytest.param(random_model(s, 3, Classification.POSITIVE_RECURRENT),
                   id=f"pr-{s}") for s in range(2)),
    *(pytest.param(nilpotent_model(0, m), id=f"nu2-m{m}") for m in (3, 4, 6)),
])
def test_backward_pass_matches_explicit_sums(model):
    # M h_r = sum_{k>r} C^{k-r} W g_k, y* = -sum_k V1^k E W g_k and
    # sigma_1 = -sum_j K V0^j F W g_{j+1}, with explicit matrix powers
    s, sp, w = _ingredients(model)
    g = random_rhs(5, model.m, 6)
    h, sigma1 = backward_pass(sp, w.W, g)
    assert h.shape == (g.N + 1, model.m)
    for r in range(g.N + 1):
        tail = sum((sp.power(k - r) @ w.W @ g.block(k)
                    for k in range(r + 1, g.N + 1)), np.zeros(model.m))
        np.testing.assert_allclose(sp.M @ h[r], tail, atol=1e-12)
    y_star = -sum(np.linalg.matrix_power(sp.V1, k) @ sp.E @ w.W @ g.block(k)
                  for k in range(1, g.N + 1))
    np.testing.assert_allclose(h[0, :sp.p], -y_star, atol=1e-12)
    np.testing.assert_array_equal(compute_y_star(sp, w.W, g), -h[0, :sp.p])
    expected = -sum((sp.K @ np.linalg.matrix_power(sp.V0, j) @ sp.F @ w.W
                     @ g.block(j + 1) for j in range(sp.nu)), np.zeros(model.m))
    np.testing.assert_allclose(sigma1, expected, atol=1e-12)


def _long_horizon_case(seed, m, cls):
    model = random_model(seed, m, cls)
    if cls is Classification.TRANSIENT:
        return pytest.param(model, random_rhs(seed, m, 21), SolveOptions(R_max=1000),
                            id=f"tr-m{m}-s{seed}")
    return pytest.param(model, balanced_rhs(model, 3),
                        SolveOptions(y_perp_mode="zero", R_max=1000),
                        id=f"pr-m{m}-s{seed}")


@pytest.mark.parametrize("model, g, opt", [
    _long_horizon_case(seed, m, cls)
    for cls in (Classification.TRANSIENT, Classification.POSITIVE_RECURRENT)
    for m in (8, 64) for seed in range(3)])
def test_y_star_is_shared_at_long_horizons(model, g, opt):
    # the plan's y* and the evaluator's come from one backward pass: the
    # deviation y - y* is exactly 0, so 1000 levels of V1^{-r} stay bounded
    sol = solve_poisson(model, g, opt)
    np.testing.assert_array_equal(sol.y, sol.y_star)
    assert np.isfinite(sol.u).all()
    assert sol.diagnostics.passed


@pytest.mark.parametrize("blocks, k", [([[np.nan, 1.0]], 0),
                                       ([[1.0, 2.0], [np.inf, 0.0]], 1)])
def test_non_finite_g_is_refused(blocks, k):
    # refused as input, not reported as an overflowing solution family
    with pytest.raises(ModelValidationError, match=f"'g' block {k} is not finite"):
        solve_poisson(random_model(0, 2, Classification.TRANSIENT), RhsSpec(blocks))


@pytest.mark.parametrize("solver, cls", [
    (solve_poisson, Classification.TRANSIENT),
    (solve_null_recurrent, Classification.NULL_RECURRENT),
    (solve_nonsingular_a1, Classification.POSITIVE_RECURRENT),
])
def test_g_of_wrong_width_is_refused(solver, cls):
    with pytest.raises(ValueError, match="width 3, the model has m = 2"):
        solver(random_model(0, 2, cls), RhsSpec(np.ones((2, 3))))


def _invalid_models():
    """(model, validate's text, the gate's text): blocks replaced on a valid
    model, which QbdModel does not validate."""
    model = random_model(1, 3, Classification.POSITIVE_RECURRENT)
    A0 = model.A0.copy()
    A0[0, 0] = np.nan
    return {
        "substochastic": (replace(model, **{name: 0.9 * getattr(model, name)
                                            for name in ("B", "A_neg", "A0", "A1")}),
                          "B + A1 sums to", "1 is not an eigenvalue"),
        "nan": (replace(model, A0=A0), "A0[0,0] = nan is not finite",
                "normalization failed"),
        "superstochastic": (replace(model, A_neg=(1.0 + 1e-11) * model.A_neg),
                            "repeating row 0 of A_neg + A0 + A1 sums to",
                            "row-stochastic to rounding"),
    }


@pytest.mark.parametrize("solver", [solve_poisson, solve_nonsingular_a1])
@pytest.mark.parametrize("case", ["substochastic", "nan", "superstochastic"])
def test_invalid_model_refusal_names_the_broken_invariant(case, solver):
    model, invariant, gate_text = _invalid_models()[case]
    with pytest.raises(NumericalError) as info:
        solver(model, random_rhs(1, 3))
    text = str(info.value)
    assert text.startswith(f"invalid model ({'; '.join(validate(model).failures)}): ")
    assert invariant in text and gate_text in text
    assert isinstance(info.value.__cause__, NumericalError)


def test_valid_model_refusal_keeps_the_gate_text(monkeypatch):
    # a gate set to 0 refuses a valid model: its text is passed on as it is
    model = random_model(1, 3, Classification.POSITIVE_RECURRENT)
    monkeypatch.setattr(qme, "QME_TOL", 0.0)
    with pytest.raises(NumericalError) as own:
        qme.solve_model(model)
    with pytest.raises(NumericalError) as info:
        solve_poisson(model, random_rhs(1, 3))
    assert str(info.value) == str(own.value)
    assert not str(info.value).startswith("invalid model")


@pytest.mark.parametrize("field, options", [
    ("y_free", dict(y_free=(np.nan, 0.0))),
    ("y_perp", dict(y_perp_mode="explicit", y_perp=(np.nan, 0.0))),
    ("alpha", dict(alpha=np.inf)),
    # a NaN or infinity in any entry, of either sign
    ("y_free", dict(y_free=(0.0, -np.inf))),
    ("y_perp", dict(y_perp_mode="explicit", y_perp=(-np.inf, 0.0))),
    ("y_free", dict(y_free=(1.0, np.nan))),
    ("y_perp", dict(y_perp_mode="explicit", y_perp=(0.0, np.nan))),
    ("y_perp", dict(y_perp_mode="explicit", y_perp=(0.0, np.inf))),
    ("alpha", dict(alpha=-np.inf)),
    ("y_free", dict(y_free=(np.inf,))),
    ("alpha", dict(alpha=np.nan)),
    # None is a default only for y_free and y_perp
    ("alpha", dict(alpha=None)),
])
def test_non_finite_option_is_refused(field, options):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SolveOptions(**options)


def _nilpotent_plan():
    """(G, split, W) of ``nilpotent_model(0, 4)``, whose split has p = 2."""
    s = solve_model(nilpotent_model(0, 4))
    return s.G, split(s.Ghat), compute_w(s.G, s.U, s.R, s.Ghat).W


@pytest.mark.parametrize("call, message", [
    (lambda: SolveOptions(y_perp_mode="bogus"), "y_perp_mode must be one of"),
    (lambda: group_inverse(np.array([[0.7, 0.4], [0.1, 0.2]])),
     r"P\* must be substochastic"),
    (lambda: compute_sigma(*_nilpotent_plan(), random_rhs(0, 4), -1),
     "level index must be nonnegative, got -1"),
    (lambda: evaluate_u_sequence(np.zeros(4), np.zeros(4), *_nilpotent_plan(),
                                 random_rhs(0, 4), 5),
     r"y must have length p = 2, got shape \(4,\)"),
], ids=["y_perp_mode", "superstochastic_pstar", "negative_level", "y_length"])
def test_bad_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_default_tolerances_are_pinned(pr1, pr1_rhs):
    # the fixed tolerances: residuals at 1e-7, by the solver and by the
    # residual check, model rows at 1e-12; and the split's cutoff
    # m * eps * max |C_ij|
    assert verify.DEFAULT_TOL == 1e-7
    sol = solve_poisson(pr1, pr1_rhs)
    assert sol.diagnostics.tol == 1e-7
    assert residuals(pr1, pr1_rhs, sol.u).tol == 1e-7
    assert validate(pr1).tol == 1e-12
    C = np.random.default_rng(3).standard_normal((5, 5))
    for target, p in ((C, 5), (C[:, :1] @ C[:1, :], 1)):
        sp = split(target)
        assert sp.p == p
        assert sp.eps_zero == 5 * np.finfo(float).eps * np.abs(target).max()


@pytest.mark.parametrize("scale", [1.0 + 5e-10, 1.0 - 5e-10],
                         ids=["above", "below"])
def test_pstar_row_tolerance_sits_inside_its_tenfold_band(scale):
    # row sums 5e-10 from 1 lie between the 1e-10 tolerance and 10x of it, so
    # by default neither P* counts as stochastic: the one above 1 is refused,
    # the one below is inverted as transient
    Pstar = np.random.default_rng(4).random((4, 4))
    Pstar *= scale / Pstar.sum(axis=1, keepdims=True)
    if scale > 1.0:
        with pytest.raises(ValueError, match=r"P\* must be substochastic"):
            group_inverse(Pstar)
    else:
        gi = group_inverse(Pstar)
        assert not gi.recurrent and gi.pi_star is None


def test_split_cutoff_is_not_a_setting(pr1, pr1_rhs):
    # the cutoff is m eps max |C_ij|, worked out by split: no layer takes one;
    # nor does any take a null band, the constant qme.NULL_BAND
    for call in (lambda: SolveOptions(eps_zero=1e-13),
                 lambda: split(np.eye(2), eps_zero=1e-13),
                 lambda: SolveOptions(null_band=1e-12),
                 lambda: solve_model(pr1, null_band=1e-12),
                 lambda: omega_solution(pr1, pr1_rhs, null_band=1e-12)):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("target", [0.0, 5e-13, 1e-10, -1e-8])
def test_hyperplane_with_a_vanishing_direction_takes_no_step(target):
    # a zero direction meets a target within the feasibility tolerance
    # 1e-8 (1 + ||g||) by y_perp = 0, at the noise level 1e-12 (1 + ||g||)
    # and above it; past the tolerance it is refused
    assert _solve_hyperplane(np.zeros(2), target, 0.0, SolveOptions()).tolist() == [0.0, 0.0]
    with pytest.raises(InfeasibleConstraintError, match="infeasible"):
        _solve_hyperplane(np.zeros(2), 2e-8, 0.0, SolveOptions())


def test_hyperplane_gate_refuses_nan():
    # every comparison with NaN is False: the gate must not read it as a pass
    with pytest.raises(InfeasibleConstraintError):
        _solve_hyperplane(np.ones(1), np.nan, 1.0, SolveOptions(y_perp_mode="zero"))


def sequential_u(x, y, G, sp, W, g, R_max):
    """Oracle: the evaluator's former sequential recursion, one G product and
    one V1^{-1} LU solve per level on zero-padded g and tail buffers."""
    h = backward_pass(sp, W, g)[0]
    Wg, c = np.zeros((2, max(g.N, R_max) + 2, G.shape[0]))
    Wg[:g.N + 1] = g.blocks @ W.T
    c[:g.N + 1] = h @ sp.M.T
    a, t = [x], [y + h[0, :sp.p]]
    for r in range(1, R_max + 1):
        a.append(G @ a[-1] - Wg[r])
        t.append(sp.v1_solve(t[-1]))
    return np.array(a) - c[:R_max + 1] + np.array(t) @ sp.L.T


def fast_decay_model(m):
    """A transient chain with sp(G) = 1/6, the small root of
    0.6 z^2 - 0.7 z + 0.1 (every row splits 0.1 / 0.3 / 0.6): u_r falls
    below 1e-200 within 1000 levels."""
    raw = np.random.Generator(np.random.Philox(key=m)).uniform(0.05, 1.0, (3, m, m))
    raw /= raw.sum(axis=2, keepdims=True)
    A_neg, A0, A1 = 0.1 * raw[0], 0.3 * raw[1], 0.6 * raw[2]
    return QbdModel(B=A_neg + A0, A_neg=A_neg, A0=A0, A1=A1)


def _agreement_case(kind, m):
    """(model, g, options) whose x and y feed the evaluator."""
    if kind == "tr-fast":
        model = fast_decay_model(m)
        return model, random_rhs(m, m, 21), SolveOptions(R_max=2)
    model = random_model(1, m, Classification[kind])
    if kind == "TRANSIENT":
        return model, random_rhs(1, m, 21), SolveOptions(R_max=2)
    # pi^T g = 0, so y_perp = 0 and the default y is y*
    return model, balanced_rhs(model, 3), SolveOptions(R_max=2, y_perp_mode="zero")


@pytest.mark.parametrize("kind", ["POSITIVE_RECURRENT", "TRANSIENT",
                                  "NULL_RECURRENT", "tr-fast"])
def test_chunked_evaluation_matches_sequential_recursion(kind):
    # powers of G in chunks beyond g's support, and no V1^{-r} pass on a zero
    # deviation, agree with one G product and one LU solve per level
    worst = 0.0
    for m in (3, 8, 64):
        model, g, opt = _agreement_case(kind, m)
        plan = poisson._plan(model)
        sol = plan.solve(g, opt)
        args = (plan.G, plan.split, plan.wdata.W, g)
        if kind == "tr-fast":
            assert max(abs(np.linalg.eigvals(plan.G))) < 0.2
        for R_max in (2, g.N, g.N + 1, 30, 1000):
            for dy in (0.0, 1e-3):
                y = sol.y + dy * np.linspace(-1.0, 1.0, plan.split.p)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = sequential_u(sol.x, y, *args, R_max)
                    got = evaluate_u_sequence(sol.x, y, *args, R_max)
                    assert got.shape == want.shape
                    finite = np.isfinite(want).all(axis=1)
                    np.testing.assert_array_equal(np.isfinite(got).all(axis=1), finite)
                    norm = np.linalg.norm(want, axis=1)
                    keep = finite & (norm > 1e-290)
                    diff = np.linalg.norm(got - want, axis=1)[keep] / norm[keep]
                worst = max(worst, diff.max(initial=0.0))
                if kind == "tr-fast" and R_max == 1000 and dy == 0.0:
                    assert norm[finite].min() < 1e-200
    print(f"{kind}: worst per-level relative difference {worst:.2e}")
    assert worst <= 1e-13


def test_overflow_refusal_names_the_sequential_first_level():
    model = random_model(1, 64, Classification.POSITIVE_RECURRENT)
    g = random_rhs(0, 64, 21)
    plan = poisson._plan(model)
    sol = plan.solve(g, SolveOptions(R_max=2))
    with np.errstate(over="ignore", invalid="ignore"):
        want = sequential_u(sol.x, sol.y, plan.G, plan.split, plan.wdata.W, g, 1000)
    first = np.flatnonzero(~np.isfinite(want).all(axis=1))[0]
    with pytest.raises(NumericalError, match=f"not finite from level {first} on"):
        solve_poisson(model, g, SolveOptions(R_max=1000))


@pytest.mark.parametrize("solver", [solve_poisson, solve_nonsingular_a1])
@pytest.mark.parametrize("cls", list(Classification))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_boundary_overflow_is_refused_without_a_warning(solver, cls, m):
    # A1 at 1e-13 of its mass (the rest on A0's diagonal) and g near the
    # largest float: the boundary solve for x overflows, which is refused as
    # a solution not finite from level 0, not warned about by numpy
    for s in range(3):
        base = random_model(s, m, cls)
        A1 = base.A1 * 1e-13
        A0 = base.A0 + np.diag((base.A1 - A1).sum(axis=1))
        model = QbdModel(B=base.A_neg + A0, A_neg=base.A_neg, A0=A0, A1=A1)
        g = RhsSpec(np.random.default_rng(s).uniform(-1, 1, (3, m)) * 1e300)
        with pytest.raises(NumericalError, match="not finite from level 0 on"):
            solver(model, g)
