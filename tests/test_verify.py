import dataclasses

import numpy as np
import pytest

from qbdpoisson import (Classification, NumericalError, RhsSpec, SolveOptions,
                        drift, forward_oracle, omega_solution, random_model,
                        residuals, solve_poisson, validate)
from qbdpoisson.verify import ResidualReport

from conftest import random_rhs, rhs, scalar_model


def test_residuals_on_analytic_transient_solution(tr1, tr1_rhs):
    u = [[2.5 / 3.0 ** r] for r in range(8)]
    rep = residuals(tr1, tr1_rhs, u)
    assert rep.passed
    assert rep.boundary_residual < 1e-14
    assert max(rep.interior_residuals) < 1e-14
    assert rep.scale == pytest.approx(3.5)


def test_residuals_zero_and_unit_cases(pr1):
    zeros3 = np.zeros((3, 1))
    rep = residuals(pr1, rhs([0.0]), zeros3)
    assert rep.boundary_residual == 0.0
    assert rep.interior_residuals == (0.0,)
    rep = residuals(pr1, rhs([1.0]), zeros3)
    assert rep.boundary_residual == 1.0
    assert not rep.passed


def test_residuals_requires_three_blocks(pr1):
    with pytest.raises(ValueError):
        residuals(pr1, rhs([0.0]), np.zeros((2, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda model: residuals(model, rhs([0.0]), np.zeros((3, 2))),
     "solution blocks have length 2, model has m = 1"),
    (lambda model: forward_oracle(model, rhs([0.0]), [0.0], [0.0], 0),
     "horizon must cover both seeds, got R_max = 0"),
], ids=["residuals_width", "oracle_horizon"])
def test_bad_argument_is_refused(call, message, pr1):
    with pytest.raises(ValueError, match=message):
        call(pr1)


ORACLES = {
    "residuals": lambda model, g: residuals(model, g, np.zeros((5, 3))),
    "forward_oracle": lambda model, g: forward_oracle(model, g, np.zeros(3),
                                                      np.zeros(3), 4),
    "omega_solution": omega_solution,
}


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracles_refuse_g_of_wrong_width(oracle, width):
    # a width-1 g would broadcast across the m = 3 phases, a width-4 one
    # stop in numpy; each oracle refuses it as the solve plan does
    model = random_model(0, 3, Classification.TRANSIENT)
    with pytest.raises(ValueError, match=f"g has width {width}, the model has m = 3"):
        ORACLES[oracle](model, rhs([1.0] * width, [0.0] * width))


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("seed", ["u0", "u1"])
def test_forward_oracle_refuses_seeds_of_wrong_width(seed, width):
    # a width-1 seed would broadcast across the m = 3 phases, a width-4 one
    # stop in numpy; the oracle names the seed, its length and m
    model = random_model(0, 3, Classification.TRANSIENT)
    seeds = {"u0": np.zeros(3), "u1": np.zeros(3), seed: [1.0] * width}
    with pytest.raises(ValueError, match=f"{seed} has length {width}, the model has m = 3"):
        forward_oracle(model, rhs([1.0] * 3), seeds["u0"], seeds["u1"], 3)


def test_residuals_scaled_per_equation():
    # the family grows to 2.9e228 by level 200, so 1 + max_r ||u_r|| would
    # hide any boundary error; the boundary's own scale is 1 + ||u_0|| + ||u_1||
    model = random_model(1, 4, Classification.POSITIVE_RECURRENT)
    g = random_rhs(1, 4, 5)
    sol = solve_poisson(model, g, SolveOptions(R_max=200))
    assert sol.diagnostics.passed
    assert sol.diagnostics.scale > 1e228
    u = sol.u.copy()
    u[0] += 1e-3
    rep = residuals(model, g, u)
    assert not rep.passed
    assert rep.worst_equation == 0
    assert rep.worst_scale == pytest.approx(
        1.0 + np.abs(u[0]).max() + np.abs(u[1]).max())


def test_residuals_form_the_shifted_blocks_once_per_model():
    # (B - I, A0 - I) are formed on the first check and kept on the model;
    # later checks read the same read-only arrays, equal to the subtraction
    model = random_model(2, 5, Classification.TRANSIENT)
    g = random_rhs(2, 5, 4)
    u = np.random.default_rng(2).normal(size=(9, 5))
    assert "minus_identity" not in vars(model)
    first = residuals(model, g, u)
    kept = vars(model)["minus_identity"]
    assert residuals(model, g, u) == first
    assert vars(model)["minus_identity"] is kept
    B_eye, A0_eye = kept
    assert not (B_eye.flags.writeable or A0_eye.flags.writeable)
    assert B_eye.tobytes() == (model.B - np.eye(5)).tobytes()
    assert A0_eye.tobytes() == (model.A0 - np.eye(5)).tobytes()
    boundary = (model.B - np.eye(5)).dot(u[0]) + model.A1.dot(u[1]) + g.blocks[0]
    assert first.boundary_residual == np.abs(boundary).max()


def test_residuals_fail_on_non_finite_blocks(pr1):
    u = np.zeros((4, 1))
    u[3] = np.inf
    rep = residuals(pr1, rhs([0.0]), u)
    assert not rep.passed
    assert rep.worst_equation == 2


def _reference_residuals(model, g, u, tol=1e-7):
    """The report by the full-forcing formula: g copied into a zero table of
    u's shape and added to every equation, each equation's max over its row."""
    n = len(u)
    forcing = np.zeros_like(u)
    forcing[:g.N + 1] = g.blocks[:n]
    B_eye, A0_eye = model.minus_identity
    boundary = B_eye.dot(u[0]) + model.A1.dot(u[1]) + forcing[0]
    interior = (u[:-2].dot(model.A_neg.T) + u[1:-1].dot(A0_eye.T)
                + u[2:].dot(model.A1.T) + forcing[1:-1])
    res = np.abs(np.vstack([boundary, interior])).max(axis=1)
    norms = np.abs(u).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        scales = 1.0 + norms[:-1] + norms[1:]
        scales[1:] += norms[:-2]
        worst = int(np.argmax(res / scales))
    passed = bool(np.isfinite(norms).all() and np.all(res <= tol * scales))
    return ResidualReport(boundary_residual=float(res[0]),
                          interior_residuals=tuple(res[1:].tolist()),
                          scale=1.0 + float(norms.max()), tol=tol,
                          passed=passed, worst_equation=worst,
                          worst_scale=float(scales[worst]))


def _assert_same_report(got, want):
    # bit for bit, field by field: NaN equals NaN, 0.0 is not -0.0
    for field in dataclasses.fields(ResidualReport):
        a, b = (np.asarray(getattr(r, field.name)) for r in (got, want))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


@pytest.mark.parametrize("n", [3, 4, 31, 1001])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_residuals_equal_the_full_forcing_formula_bitwise(m, n):
    # g's last level N + 1 below, at and above n - 1, the number of equations,
    # on a solved u (a passing report) and on random levels of mixed scale
    model = random_model(n, m, Classification.TRANSIENT)
    rng = np.random.default_rng(100 * m + n)
    for N in sorted({0, max(0, n - 3), n - 2, n - 1, n + 2}):
        g = RhsSpec(rng.normal(size=(N + 1, m)))
        u = solve_poisson(model, g, SolveOptions(R_max=n - 1)).u
        report = residuals(model, g, u)
        assert report.passed
        interior = report.interior_residuals
        assert type(interior) is np.ndarray and interior.dtype == np.float64
        assert interior.shape == (n - 2,) and not interior.flags.writeable
        _assert_same_report(report, _reference_residuals(model, g, u))
        u = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        _assert_same_report(residuals(model, g, u), _reference_residuals(model, g, u))


def test_residual_report_holds_its_interior_residuals_as_one_array(pr1):
    # a sequence given in place of the array is kept as a read-only float64
    # copy; reports compare field by field with NaN unequal, and no report
    # is hashable; the largest residual is NaN when one is
    report = residuals(pr1, rhs([0.0]), np.zeros((5, 1)))
    again = dataclasses.replace(report, interior_residuals=(0.0, 0.0, 0.0))
    assert type(again.interior_residuals) is np.ndarray
    assert not again.interior_residuals.flags.writeable
    assert again == report and report != "report"
    assert report != dataclasses.replace(report, interior_residuals=(0.0, 0.0))
    nan = dataclasses.replace(report, interior_residuals=(0.0, np.nan, 0.0))
    assert nan != nan and np.isnan(nan.max_residual)
    assert report.max_residual == 0.0 and report.to_dict()["interior"] == [0.0] * 3
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("bad", ["nan_row", "inf_entry"])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_residuals_of_non_finite_levels_equal_the_reference(m, bad):
    # level 7 is not finite: equations 6 to 8 see it, and the report names
    # the first of them, whose residual over its scale is the first NaN
    model = random_model(1, m, Classification.POSITIVE_RECURRENT)
    g = RhsSpec(np.random.default_rng(m).normal(size=(4, m)))
    u = np.random.default_rng(m).normal(size=(31, m))
    if bad == "nan_row":
        u[7] = np.nan
    else:
        u[7, m // 2] = np.inf
    report = residuals(model, g, u)
    assert not report.passed and report.worst_equation == 6
    _assert_same_report(report, _reference_residuals(model, g, u))


def test_forward_oracle_walkthrough(pr1, pr1_rhs):
    # seeds from the analytic solution with x = 0
    out = forward_oracle(pr1, pr1_rhs, [-2.5], [-7.5], 5)
    np.testing.assert_allclose(out[:, 0], [-2.5, -7.5, -7.5, -7.5, -7.5, -7.5],
                               atol=1e-12)


def test_forward_oracle_null_recurrent(nr1, nr1_rhs):
    out = forward_oracle(nr1, nr1_rhs, [0.0], [-2.5], 4)
    np.testing.assert_allclose(out[:, 0], [0.0, -2.5, 0.0, 2.5, 5.0], atol=1e-12)


def test_forward_oracle_zero_case(pr1):
    out = forward_oracle(pr1, rhs([0.0]), [0.0], [0.0], 6)
    np.testing.assert_array_equal(out, np.zeros((7, 1)))


def test_forward_oracle_rejects_singular_up_block():
    model = scalar_model(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(NumericalError):
        forward_oracle(model, rhs([0.0]), [0.0], [0.0], 3)


def test_forward_oracle_agrees_with_solver(tr1, tr1_rhs):
    sol = solve_poisson(tr1, tr1_rhs)
    horizon = tr1_rhs.N + 5
    recon = forward_oracle(tr1, tr1_rhs, sol.u[0], sol.u[1], horizon)
    scale = 1 + np.max(np.abs(sol.u[:horizon + 1]))
    assert np.max(np.abs(recon - sol.u[:horizon + 1])) <= 1e-6 * scale


@pytest.mark.parametrize("seed", range(9))
def test_forward_oracle_agrees_with_solver_random(seed):
    from conftest import random_rhs
    cls = list(Classification)[seed % 3]
    m = seed % 4 + 1
    model = random_model(seed, m, cls)
    if np.linalg.cond(model.A1) > 1e10:
        pytest.skip("singular up block")
    g = random_rhs(seed, m)
    sol = solve_poisson(model, g)
    horizon = g.N + 5
    recon = forward_oracle(model, g, sol.u[0], sol.u[1], horizon)
    scale = 1 + np.max(np.abs(sol.u[:horizon + 1]))
    assert np.max(np.abs(recon - sol.u[:horizon + 1])) <= 1e-6 * scale


def test_random_model_determinism():
    a = random_model(7, 4, Classification.TRANSIENT)
    b = random_model(7, 4, Classification.TRANSIENT)
    for name in ("B", "A_neg", "A0", "A1"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("cls", list(Classification))
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_random_model_hits_target_class(cls, seed):
    m = seed % 6 + 1
    model = random_model(seed, m, cls)
    assert validate(model).passed
    d = drift(model)
    if cls is Classification.POSITIVE_RECURRENT:
        assert d < -1e-9
    elif cls is Classification.TRANSIENT:
        assert d > 1e-9
    else:
        assert d == 0.0


def test_null_target_uses_symmetric_blocks():
    model = random_model(0, 3, Classification.NULL_RECURRENT)
    np.testing.assert_array_equal(model.A1, model.A_neg)
    np.testing.assert_array_equal(model.B, model.A_neg + model.A0)
    assert np.count_nonzero(model.A0 - np.diag(np.diag(model.A0))) == 0
