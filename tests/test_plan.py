"""solve_poisson does the g-independent work once per QbdModel object."""

import gc
import re
import sys
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from qbdpoisson import (Classification, ClassificationError, NumericalError,
                        QbdModel, RhsSpec, SolveOptions, _linalg, load_problem,
                        poisson, probabilistic, qme, random_model, shift,
                        solve_nonsingular_a1, solve_null_recurrent,
                        solve_poisson, spectral, triple)
from conftest import nilpotent_model, random_rhs, with_drift

CLASSES = list(Classification)
IDS = [cls.value for cls in CLASSES]
_PR, _TR = Classification.POSITIVE_RECURRENT, Classification.TRANSIENT
MODELS = Path(__file__).resolve().parents[1] / "models"


def _copy(model):
    return QbdModel(B=model.B, A_neg=model.A_neg, A0=model.A0, A1=model.A1)


@pytest.fixture
def qme_calls(monkeypatch):
    calls = []
    solve_model = qme.solve_model

    def counted(*args, **kwargs):
        calls.append(kwargs.get("null_band"))
        return solve_model(*args, **kwargs)

    monkeypatch.setattr(qme, "solve_model", counted)
    return calls


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_model_stages_run_once_per_model(cls, qme_calls):
    model = random_model(0, 4, cls)
    for k in range(5):
        assert solve_poisson(model, random_rhs(k, 4)).diagnostics.passed
    if cls is Classification.NULL_RECURRENT:
        solve_null_recurrent(model, random_rhs(5, 4))
    else:
        for k in range(5, 8):
            assert solve_nonsingular_a1(model, random_rhs(k, 4)).diagnostics.passed
    assert len(qme_calls) == 1


@pytest.mark.parametrize("cls", [Classification.POSITIVE_RECURRENT,
                                 Classification.TRANSIENT],
                         ids=lambda cls: cls.value)
def test_corollary_solves_on_the_cached_plan(cls, monkeypatch):
    # after solve_poisson, the corollary builds no W and no group inverse: it
    # takes its parent's, and answers bitwise the same on every call
    calls = []
    for mod, name in ((triple, "compute_w"), (poisson, "group_inverse")):
        original = getattr(mod, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    model, g = random_model(0, 32, cls), random_rhs(0, 32)
    solve_poisson(model, g)
    assert calls == ["compute_w", "group_inverse"]
    first = solve_nonsingular_a1(model, g)
    for _ in range(4):
        again = solve_nonsingular_a1(model, g)
        assert np.array_equal(again.u, first.u)
    assert calls == ["compute_w", "group_inverse"]


@pytest.mark.parametrize("cls", [_PR, _TR], ids=lambda cls: cls.value)
def test_warm_corollary_solves_invert_nothing(cls, monkeypatch):
    # cond_F(A1) belongs to the model: the corollary plan checks it once, when
    # it is built, and a warm corollary solve makes no checked inverse
    model, g = random_model(0, 8, cls), random_rhs(0, 8)
    solve_nonsingular_a1(model, g)
    calls = []
    original = poisson.checked_inverse

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(poisson, "checked_inverse", counted)
    for _ in range(3):
        assert solve_nonsingular_a1(model, g).diagnostics.passed
    assert calls == []


@pytest.mark.parametrize("cls", [Classification.POSITIVE_RECURRENT,
                                 Classification.TRANSIENT],
                         ids=lambda cls: cls.value)
def test_solve_null_recurrent_refusal_keeps_the_plan(cls, qme_calls):
    # the refusal reads the class off the model's plan, which a later
    # solve_poisson on the same model reuses without a second QME solve
    model = random_model(0, 3, cls)
    with pytest.raises(ClassificationError,
                       match=f"requires a null recurrent chain, got {cls.value}$"):
        solve_null_recurrent(model, random_rhs(0, 3))
    assert solve_poisson(model, random_rhs(1, 3)).classification is cls
    assert len(qme_calls) == 1


def test_equal_but_distinct_model_builds_its_own_plan(qme_calls):
    model = random_model(0, 4, Classification.POSITIVE_RECURRENT)
    twin = _copy(model)
    solve_poisson(model, random_rhs(0, 4))
    solve_poisson(twin, random_rhs(0, 4))
    assert len(qme_calls) == 2


def test_plan_is_keyed_by_null_band_and_eps_zero(qme_calls):
    model = random_model(0, 4, Classification.POSITIVE_RECURRENT)
    g = random_rhs(0, 4)
    for opt in (SolveOptions(), SolveOptions(null_band=1e-10),
                SolveOptions(eps_zero=1e-13), SolveOptions(alpha=2.0, R_max=40),
                SolveOptions(null_band=1e-10), SolveOptions(eps_zero=1e-13)):
        solve_poisson(model, g, opt)
    assert qme_calls == [qme.NULL_BAND, 1e-10, qme.NULL_BAND]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_warm_solve_equals_cold_bitwise(cls):
    model = random_model(1, 5, cls)
    g = random_rhs(1, 5)
    solve_poisson(model, random_rhs(2, 5))
    warm = solve_poisson(model, g)
    cold = solve_poisson(_copy(model), g)
    for name in ("u", "x", "y", "sigma1"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name)), name


def _zero_target(model, g):
    """g with g_0 moved so that pi^T g = 0 (recurrent model; pi_0 of unit sum)."""
    plan = poisson._plan(model, SolveOptions())
    blocks = np.array(g.blocks)
    blocks[0] -= poisson.pi_dot_g(plan.pi0, plan.sols.R, g)
    return RhsSpec(blocks)


def _assert_same_solution(warm, fresh):
    # bit for bit, except that a nonzero hyperplane target (y_perp != 0) may
    # move u, x and y by rounding, at most 1e-14 (1 + ||u||)
    assert warm.R_max == fresh.R_max
    exact = ["y_star", "sigma1"]
    if (fresh.classification is Classification.TRANSIENT
            or np.array_equal(fresh.y, fresh.y_star)):
        exact += ["u", "x", "y"]
    for name in ("u", "x", "y", "y_star", "sigma1"):
        got, want = getattr(warm, name), getattr(fresh, name)
        if name in exact:
            assert np.array_equal(got, want), name
        else:
            bound = 1e-14 * (1.0 + np.abs(fresh.u).max())
            assert np.abs(got - want).max() <= bound, name


_Y_FREE = SolveOptions(y_free=(0.5, -1.0, 0.25, 2.0, -0.75), R_max=25)
# (model, g, options, solver) of each warm-against-fresh comparison, given a
# fixture getter; the corollary solves on Ghat = W R W^-1, "schur" on an
# M != I split, "y_free" runs the V1^-r loop and "nonzero_target" the
# hyperplane's y_perp
WARM_CASES = {
    **{name: (lambda fx, name=name: (fx(name), fx(f"{name}_rhs"), SolveOptions(),
                                     solve_poisson))
       for name in ("pr1", "tr1", "nr1")},
    "nr_m5": lambda fx: (random_model(1, 5, Classification.NULL_RECURRENT),
                         random_rhs(1, 5), SolveOptions(), solve_poisson),
    "schur": lambda fx: (nilpotent_model(0, 4), random_rhs(1, 4), SolveOptions(),
                         solve_poisson),
    "corollary_pr": lambda fx: (random_model(1, 6, _PR), random_rhs(1, 6),
                                SolveOptions(R_max=30), solve_nonsingular_a1),
    "corollary_tr": lambda fx: (random_model(1, 6, _TR), random_rhs(1, 6),
                                SolveOptions(R_max=30), solve_nonsingular_a1),
    "y_free": lambda fx: (random_model(2, 5, _TR), random_rhs(2, 5, 4), _Y_FREE,
                          solve_poisson),
    "nonzero_target": lambda fx: (random_model(3, 5, _PR), random_rhs(3, 5),
                                  SolveOptions(R_max=20), solve_poisson),
}


@pytest.mark.parametrize("case", list(WARM_CASES))
def test_warm_solve_equals_fresh_model(case, request):
    model, g, opt, solver = WARM_CASES[case](request.getfixturevalue)
    # the warm plan has grown its stacks past what g and opt need, and has
    # served the corollary or the main path before
    recurrent = poisson._plan(model, opt).sols.classification is not _TR
    for n_blocks, R_max in ((9, 90), (1, 2), (5, 40)):
        h = random_rhs(10 + n_blocks, model.m, n_blocks)
        h = _zero_target(model, h) if recurrent else h
        solve_poisson(model, h, SolveOptions(R_max=R_max))
        if solver is solve_nonsingular_a1:
            solver(model, h, SolveOptions(R_max=R_max))
    fresh = solver(_copy(model), g, opt)
    _assert_same_solution(solver(model, g, opt), fresh)
    if case == "nonzero_target":
        assert not np.array_equal(fresh.y, fresh.y_star)        # y_perp != 0


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_plan_stacks_grow_and_serve_prefixes(cls):
    # g.N and R_max alternate up and down: each stack grows into a new array
    # when a solve needs more, serves a prefix otherwise, and every solve
    # equals the one on a fresh model
    model = random_model(2, 4, cls)
    plan = poisson._plan(model, SolveOptions())
    recurrent = cls is not _TR
    most_rows, most_powers = 1, 1
    for n_blocks, R_max in ((4, 30), (13, 150), (2, 5), (21, 400), (1, 2),
                            (8, 60), (13, 150)):
        g = random_rhs(n_blocks, 4, n_blocks)
        g = _zero_target(model, g) if recurrent else g
        powers, rows = plan._powers, getattr(plan, "_pi_rows", None)
        held = [np.array(powers), np.array(rows)]
        opt = SolveOptions(R_max=R_max)
        _assert_same_solution(solve_poisson(model, g, opt),
                              solve_poisson(_copy(model), g, opt))
        for old, kept in zip((powers, rows), held):
            assert np.array_equal(old, kept)            # never edited in place
        most_powers = max(most_powers, int(np.sqrt(R_max - min(g.N, R_max))))
        assert len(plan._powers) == most_powers
        assert (plan._powers is powers) == (len(powers) == most_powers)
        if recurrent:
            most_rows = max(most_rows, g.N + 1)
            assert len(plan._pi_rows) == most_rows
            assert (plan._pi_rows is rows) == (len(rows) == most_rows)


def _count_split_operators(monkeypatch):
    calls = []
    for name in ("m_inv", "j_matrix"):
        original = getattr(spectral.SpectralSplit, name)

        def counted(self, _name=name, _fn=original):
            calls.append(_name)
            return _fn(self)

        monkeypatch.setattr(spectral.SpectralSplit, name, counted)
    return calls


WORK_CASES = {**{cls.value: (cls, solve_poisson) for cls in CLASSES},
              "schur": (None, solve_poisson),
              "corollary_pr": (_PR, solve_nonsingular_a1),
              "corollary_tr": (_TR, solve_nonsingular_a1)}


@pytest.mark.parametrize("case", list(WORK_CASES))
def test_warm_solve_does_only_g_dependent_work(case, monkeypatch):
    # after the first solve, a solve with the same g.N and R_max forms no
    # M^-1, no J and no new row of either stack (no power of G, no pi_0 R^k)
    cls, solver = WORK_CASES[case]
    model = nilpotent_model(0, 4) if cls is None else random_model(4, 4, cls)
    calls = _count_split_operators(monkeypatch)
    grown = poisson._grown

    def counted_grown(stack, n, step):
        out = grown(stack, n, step)
        if out is not stack:
            calls.append(f"{len(out) - len(stack)} rows")
        return out

    monkeypatch.setattr(poisson, "_grown", counted_grown)
    solver(model, random_rhs(0, 4, 6), SolveOptions(R_max=40))
    assert calls
    calls.clear()
    for k in range(1, 4):
        solver(model, random_rhs(k, 4, 6), SolveOptions(R_max=40))
    assert calls == []


IDENTITY_CASES = [(cls, m) for cls in CLASSES for m in (1, 3, 8, 32)]


@pytest.mark.parametrize("cls, m", IDENTITY_CASES,
                         ids=[f"{cls.value}-m{m}" for cls, m in IDENTITY_CASES])
def test_cold_plan_on_the_identity_split_forms_no_m_inv_or_j(cls, m, monkeypatch):
    # M = I: the backward pass's operators are W and V1, not M^-1 W and J
    calls = _count_split_operators(monkeypatch)
    model = random_model(0, m, cls)
    plan = poisson._plan(model, SolveOptions())
    assert plan.split.identity
    solve_poisson(model, random_rhs(0, m))
    assert calls == []


@pytest.mark.parametrize("case", ["schur", "corollary"])
def test_plan_off_the_identity_split_forms_m_inv_and_j(case, monkeypatch):
    calls = _count_split_operators(monkeypatch)
    if case == "schur":
        plan = poisson._plan(nilpotent_model(0, 4), SolveOptions())
    else:
        plan = poisson._plan(random_model(0, 4, _PR), SolveOptions()).corollary
    assert not plan.split.identity
    assert sorted(calls) == ["j_matrix", "m_inv"]


# (class, m, blocks of g, options) of each solve against the generic formula; "y_free"
# and "target" give y - y* != 0, so that the L V1^-r term runs
GENERIC_CASES = {
    **{f"{cls.value}-m{m}": (cls, m, 3, SolveOptions(R_max=40))
       for cls, m in IDENTITY_CASES},
    "y_free": (_TR, 5, 4, SolveOptions(y_free=(0.5, -1.0, 0.25, 2.0, -0.75), R_max=25)),
    "target": (_PR, 5, 4, SolveOptions(R_max=20)),
}


@pytest.mark.parametrize("case", list(GENERIC_CASES))
def test_identity_split_solve_equals_the_generic_formula_bitwise(case):
    # the generic formula: backward_pass without the plan's ops (M^-1 W, J)
    # and, with the split's identity withheld, h M^T and t L^T in the evaluator
    cls, m, n_blocks, opt = GENERIC_CASES[case]
    model, g = random_model(3, m, cls), random_rhs(3, m, n_blocks)
    plan = poisson._plan(model, opt)
    assert plan.split.identity
    sol = plan.solve(g, opt)
    if case in ("y_free", "target"):
        assert not np.array_equal(sol.y, sol.y_star)
    split = replace(plan.split)
    vars(split)["identity"] = False
    W = plan.wdata.W
    h, sigma1 = poisson.backward_pass(split, W, g)
    rhs = plan.boundary @ (sigma1 + split.L @ split.v1_solve(sol.y)) + g.block(0)
    x = plan.sharp @ rhs + opt.alpha
    u = poisson.evaluate_u_sequence(x, sol.y, plan.G, split, W, g, sol.R_max)
    if plan.shift is not None:
        u[1:] += np.cumsum(u[:-1], axis=0) @ plan.shift.Q.T
    assert np.array_equal(sol.y_star, -h[0, :split.p])
    assert np.array_equal(sol.sigma1, sigma1)
    assert np.array_equal(sol.x, x)
    assert np.array_equal(sol.u, u)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_plan_does_not_keep_its_model_alive(cls):
    # a plan referring back to its model would leave both to the cyclic
    # collector, which is disabled here
    model = random_model(0, 8, cls)
    solve_poisson(model, random_rhs(0, 8))
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()


def _plan_of(seed, m, cls):
    model = random_model(seed, m, cls)
    solve_poisson(model, random_rhs(0, m))
    return model, poisson._plan(model, SolveOptions())


def _buffers(obj, seen):
    """The memory owners of the arrays reachable from ``obj`` through the
    package's objects and the tuples, lists and dicts they hold."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        yield obj
    elif isinstance(obj, (tuple, list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _buffers(item, seen)
    elif type(obj).__module__.startswith("qbdpoisson") and hasattr(obj, "__dict__"):
        yield from _buffers(vars(obj), seen)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_plan_shares_the_arrays_it_does_not_compute(cls):
    # records adopt arrays that are already read-only: the model's blocks,
    # R and U on the shifted equation, the shift's blocks, one identity for
    # an invertible split, whose V1 is the equation's Ghat
    model, plan = _plan_of(0, 64, cls)
    names = ("B", "A_neg", "A0", "A1")
    assert all(getattr(plan.model, n) is getattr(model, n) for n in names)
    eq, eq_sols = plan.equation
    sp = plan.split
    assert sp.p == 64 and sp.M is sp.L is sp.E and sp.V1 is eq_sols.Ghat
    np.testing.assert_array_equal(sp.M, np.eye(64))
    if cls is Classification.NULL_RECURRENT:
        sd = plan.shift
        assert eq_sols.R is plan.sols.R and eq_sols.U is plan.sols.U
        assert eq_sols.G is sd.Gt and eq_sols.Ghat is sd.Gddot
        assert eq.A_neg is sd.At_neg and eq.A0 is sd.At0 and eq.A1 is sd.At1
        assert sd.At1 is model.A1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_plan_keeps_one_buffer_per_matrix(cls):
    # distinct m x m (or larger) buffers of the plan beyond the model's
    # blocks: one per matrix it computes, no copy of the model, of R and U,
    # of the shift's blocks or of the split's identity; on that identity
    # the backward pass runs on W and V1, copied only when F-ordered; the
    # residual check's (B - I, A0 - I), kept on the plan's model, are named
    m = 64
    model, plan = _plan_of(0, m, cls)
    assert plan.split.identity
    own = {id(getattr(model, n)) for n in ("B", "A_neg", "A0", "A1")}
    own |= {id(b) for b in vars(plan.model)["minus_identity"]}
    big = {id(b) for b in _buffers(plan, set()) if b.size >= m * m}
    assert len(big - own) <= {_PR: 14, _TR: 13}.get(cls, 17)


@pytest.mark.parametrize("fixture", ["pr1", "tr1", "nr1"])
def test_cold_solve_decides_the_class_once(fixture, request, monkeypatch):
    # qme.solve_model classifies and checks the class on row sums; the later
    # stages read the class instead of re-deriving it from eigenvalues, and
    # one group inverse of I - P* serves every class
    callers, inverses = [], []
    original = _linalg.spectral_radius

    def spectral_radius(a):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(a)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("qbdpoisson")
                and getattr(mod, "spectral_radius", None) is original):
            monkeypatch.setattr(mod, "spectral_radius", spectral_radius)
    group_inverse = poisson.group_inverse

    def counted(*args, **kwargs):
        inverses.append(kwargs.get("recurrent"))
        return group_inverse(*args, **kwargs)

    monkeypatch.setattr(poisson, "group_inverse", counted)
    solve_poisson(request.getfixturevalue(fixture),
                  request.getfixturevalue(f"{fixture}_rhs"))
    assert callers == []
    assert inverses == [fixture != "tr1"]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_cold_plan_runs_one_reduction_outside_the_null_band(cls, reduction_calls):
    # one left-shifted reduction gives G and Ghat; a null recurrent plan
    # reduces for G alone, the stochastic Ghat waits for a read the plan
    # does not make, and Gddot comes from the shifted W
    poisson._plan(random_model(0, 4, cls), SolveOptions())
    assert len(reduction_calls) == 1


def test_cold_plan_in_band_above_zero_drift_runs_one_reduction(
        reduction_calls, monkeypatch):
    # at 0 < d <= null_band solve_model takes the stochastic G by one
    # right-shifted reduction and derives U and R once; the shift reads that
    # G and takes Wt and Gddot from its series as at d <= 0, with no
    # closed-form W and no reduction for the stochastic Ghat
    monkeypatch.setattr(triple, "compute_w", mock.Mock(wraps=triple.compute_w))
    monkeypatch.setattr(qme, "compute_r_u", mock.Mock(wraps=qme.compute_r_u))
    model = with_drift(random_model(1, 4, Classification.POSITIVE_RECURRENT), 1e-10)
    assert 0.0 < qme.drift(model) <= qme.NULL_BAND
    poisson._plan(model, SolveOptions())
    assert len(reduction_calls) == 1
    assert qme.compute_r_u.call_count == 1
    assert not triple.compute_w.called


@pytest.mark.parametrize("fixture", ["pr1", "tr1", "nr1"])
def test_cold_solve_runs_no_eigensolver(fixture, request, monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    solve_poisson(request.getfixturevalue(fixture),
                  request.getfixturevalue(f"{fixture}_rhs"))
    assert calls == []


@pytest.mark.parametrize("case", ["pr1", "tr1", "nr1", *IDS])
def test_cold_solve_runs_no_svd(case, request, monkeypatch):
    # every solve gate reads the Frobenius condition number off the inverse
    # it guards; np.linalg.cond would run a full SVD
    if case in IDS:
        model = random_model(1, 64, Classification(case))
        g = random_rhs(1, 64)
    else:
        model = request.getfixturevalue(case)
        g = request.getfixturevalue(f"{case}_rhs")
    calls = []
    for name in ("svd", "cond"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert solve_poisson(model, g).diagnostics.passed
    assert calls == []


def _refuse_numpy_factorizations(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.solve or inv on a real solve path")

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refused)


# (model, g) of each cold solve that must not reach np.linalg.solve or inv
NO_NUMPY_CASES = {
    "near_pr": lambda: load_problem((MODELS / "near_pr.json").read_text()),
    "schur_split": lambda: (nilpotent_model(0, 4), random_rhs(0, 4)),
    "near_critical": lambda: (with_drift(random_model(1, 8, _PR), -1e-6),
                              random_rhs(1, 8)),
    "nonsingular_a1": lambda: (random_model(1, 8, _PR), random_rhs(1, 8)),
    **{f"{cls.value}_64": (lambda cls=cls: (random_model(1, 64, cls),
                                            random_rhs(1, 64)))
       for cls in CLASSES},
}


@pytest.mark.parametrize("case", ["pr1", "tr1", "nr1", *NO_NUMPY_CASES])
def test_cold_solve_runs_no_numpy_factorization(case, request, monkeypatch):
    # every real solve and inverse goes through _linalg.inverse / solve
    # (LAPACK getrf + getri, gesv); a path falling back to numpy fails here
    if case in NO_NUMPY_CASES:
        model, g = NO_NUMPY_CASES[case]()
    else:
        model = request.getfixturevalue(case)
        g = request.getfixturevalue(f"{case}_rhs")
    solver = solve_nonsingular_a1 if case == "nonsingular_a1" else solve_poisson
    _refuse_numpy_factorizations(monkeypatch)
    assert solver(model, g).diagnostics.passed


@pytest.mark.parametrize("case", ["pr1", "tr1", "nr1", *IDS])
def test_cold_solve_calls_gesv_on_vectors_only(case, request, monkeypatch):
    # several right-hand sides go through getrf + getri and one product,
    # faster than gesv on m columns; only theta and pi* stay on gesv
    if case in IDS:
        model, g = random_model(1, 64, Classification(case)), random_rhs(1, 64)
    else:
        model = request.getfixturevalue(case)
        g = request.getfixturevalue(f"{case}_rhs")
    shapes, gesv = [], _linalg.lapack.dgesv

    def recorded(a, b, *args, **kwargs):
        shapes.append(np.shape(b))
        return gesv(a, b, *args, **kwargs)

    monkeypatch.setattr(_linalg.lapack, "dgesv", recorded)
    assert solve_poisson(model, g).diagnostics.passed
    assert shapes and all(shape == (model.m,) for shape in shapes), shapes


def test_off_path_real_solves_run_no_numpy_factorization(pr1, pr1_rhs,
                                                         monkeypatch):
    sols = qme.solve_model(pr1)
    nilpotent = spectral.split(np.array([[0.0, 1.0], [0.0, 0.0]]))
    _refuse_numpy_factorizations(monkeypatch)
    pi0 = qme.stationary(pr1, sols).pi0
    assert float(pi0 @ np.ones(pr1.m)) > 0.0
    assert probabilistic.omega_solution(pr1, pr1_rhs).omega.shape[1] == pr1.m
    assert nilpotent.v1_inv.shape == (0, 0)


def test_checked_inverse_returns_the_inverse():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    inv = _linalg.checked_inverse(a, 10.0, "a")
    assert np.array_equal(inv, np.linalg.inv(a))


@pytest.mark.parametrize("a, value", [
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "nan"),
    (np.array([[1.0, 2.0], [2.0, 4.0]]), "inf"),
], ids=["nan", "singular"])
def test_checked_inverse_refuses(a, value):
    with pytest.raises(NumericalError) as info:
        _linalg.checked_inverse(a, 2.0, "test matrix is singular")
    assert str(info.value) == (f"test matrix is singular (Frobenius condition "
                               f"number {value}, limit 2e+00)")


def test_checked_inverse_gates_on_frobenius_not_2_norm():
    # I_4 passes a cond_2 gate at 2 (cond_2 = 1) but not the cond_F one (4)
    assert np.linalg.cond(np.eye(4)) <= 2.0
    with pytest.raises(NumericalError) as info:
        _linalg.checked_inverse(np.eye(4), 2.0, "I_4")
    assert str(info.value) == "I_4 (Frobenius condition number 4.000e+00, limit 2e+00)"


def _split_with_singular_sylvester(Ghat):
    """spectral.split with a Sylvester solver that finds its system singular."""
    def singular(*args):
        raise np.linalg.LinAlgError("singular Sylvester system")

    with mock.patch.object(scipy.linalg, "solve_sylvester", singular):
        return spectral.split(Ghat)


def _pair_without_theta(model):
    """qme._solve_pair with theta = 0 for the positive recurrent ``model``:
    the reduction runs unshifted, so Ghat is right, but l^T 1 = 0 leaves the
    restored G NaN."""
    with np.errstate(invalid="ignore"):
        return qme._solve_pair(model.A1, model.A0, model.A_neg, np.zeros(model.m))


def _at_qme_tol(tol, A_low, A_mid, A_high):
    """qme.solve_qme with qme.QME_TOL set to ``tol`` for the call."""
    with mock.patch.object(qme, "QME_TOL", tol):
        return qme.solve_qme(A_low, A_mid, A_high)


def _gate_cases():
    """One call past each numerical gate's limit: (call, what, measure)."""
    model = random_model(0, 3, Classification.POSITIVE_RECURRENT)
    s = qme.solve_model(model)
    R_nan = s.R.copy()
    R_nan[1, 2] = np.nan
    coupled = np.array([[1e-6, 1e7], [0.0, 0.0]])    # S = -1e7 / 1e-6
    nilpotent = qme.solve_model(nilpotent_model(0, 4)).Ghat   # p = 2, nu = 2
    nr = random_model(0, 3, Classification.NULL_RECURRENT)
    s_nr = qme.solve_model(nr)
    # (U - I)^{-1} of condition number 1e16, and R = 0: the series is W = it
    u_singular = np.eye(3) - np.diag([1.0, 1.0, 1e-16])
    return {
        "inverse": (lambda: _linalg.checked_inverse(np.eye(4), 2.0, "I_4"),
                    "I_4", "Frobenius condition number"),
        "inverse_nan": (lambda: _linalg.checked_inverse(
            np.array([[1.0, np.nan], [0.0, 1.0]]), 2.0, "a"),
            "a", "Frobenius condition number"),
        "unit_eigenvector": (lambda: _linalg.unit_eigenvector(0.5 * np.eye(2)),
                             "1 is not an eigenvalue", "||A z - z||"),
        "shifted_cr": (lambda: _at_qme_tol(0.0, model.A_neg, model.A0, model.A1),
                       "row-stochastic to rounding", "residual"),
        "shifted_cr_nan": (lambda: _at_qme_tol(
            np.nan, model.A_neg, model.A0, model.A1),
            "row-stochastic to rounding", "residual"),
        "left_shifted_cr": (lambda: _at_qme_tol(0.0, model.A1, model.A0, model.A_neg),
                            "left-shifted cyclic reduction: the shift needs", "residual"),
        "shifted_gddot_residual": (lambda: shift.right_shift(
            nr, replace(s_nr, R=s_nr.R + 1e-6)),
            "Gddot = Wt R Wt^-1 fails its shifted equation", "residual"),
        "qme_residual_tenfold": (lambda: shift.right_shift(
            nr, replace(s_nr, R=s_nr.R + 1e-11)),
            "Gddot = Wt R Wt^-1 fails its shifted equation", "residual"),
        "shifted_w_inverse": (lambda: shift.right_shift(
            nr, replace(s_nr, U=u_singular, R=np.zeros((3, 3)))),
            "the shifted W is numerically singular",
            "Frobenius condition number"),
        "restored_owner": (lambda: _pair_without_theta(model),
                           "unit root restored to the dual solvent", "residual"),
        "rate_matrix": (lambda: qme.compute_r_u(model, s.G + 0.01),
                        "rate matrix fails its defining equation", "residual"),
        "rate_matrix_tenfold": (lambda: qme.compute_r_u(model, s.G + 3e-7),
                                "rate matrix fails its defining equation", "residual"),
        # P* = [[1 - e, e], [e, 1 - e]], e = 2e-15: cond_F 2.5e14
        "group_inverse_tenfold": (lambda: poisson.group_inverse(
            np.array([[1.0 - 2e-15, 2e-15], [2e-15, 1.0 - 2e-15]])),
            "group inverse: I - P* + 1 pi^T is numerically singular",
            "Frobenius condition number"),
        "w_similarity_nan": (lambda: triple.compute_w(s.G, s.U, R_nan, s.Ghat),
                             "W R = Ghat W", "residual"),
        "pair_matrix": (lambda: triple.build_triple(
            0.5 * np.eye(2), spectral.split(2.0 * np.eye(2)), np.eye(2)),
            "pair matrix is ill-conditioned", "condition number"),
        "split_coupling": (lambda: spectral.split(coupled, eps_zero=1e-7),
                           "decoupling transform blew up", "||S||"),
        "split_singular_sylvester": (
            lambda: _split_with_singular_sylvester(nilpotent),
            "cutoff (||S|| inf, limit 1e+12)", "||S||"),
    }


GATE_CASES = _gate_cases()


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_every_gate_names_its_value_and_limit(case):
    # a *_tenfold row sits past its limit by at most 10x, so a gate loosened
    # tenfold lets it pass
    call, what, measure = GATE_CASES[case]
    with pytest.raises(NumericalError) as info:
        call()
    text = str(info.value)
    assert what in text
    found = re.search(rf" \({re.escape(measure)} (\S+), limit (\S+)\)$", text)
    assert found, text
    value, limit = (float(v) for v in found.groups())
    # the refusal is either past the limit or a NaN on one side
    assert not value <= limit
    if case.endswith("_tenfold"):
        assert limit < value <= 10.0 * limit


@pytest.mark.parametrize("value, limit, text", [
    (np.nan, 1.0, "x (v nan, limit 1e+00)"),
    (0.5, np.nan, "x (v 5.000e-01, limit nan)"),
    (3.0, 2.5, "x (v 3.000e+00, limit 2.5e+00)"),
    (np.inf, 1e14, "x (v inf, limit 1e+14)"),
])
def test_gate_refuses_past_the_limit_and_nan(value, limit, text):
    with pytest.raises(NumericalError) as info:
        _linalg.gate(value, limit, "x", "v")
    assert str(info.value) == text


def test_gate_passes_at_its_limit():
    assert _linalg.gate(2.5, 2.5, "x", "v") is None
