"""solve_poisson does the g-independent work once per QbdModel object."""

import gc
import sys
import weakref

import numpy as np
import pytest

from qbdpoisson import (Classification, NumericalError, QbdModel, SolveOptions,
                        _linalg, poisson, qme, random_model,
                        solve_null_recurrent, solve_poisson)
from conftest import random_rhs

CLASSES = list(Classification)
IDS = [cls.value for cls in CLASSES]


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
