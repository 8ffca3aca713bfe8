"""solve_poisson does the g-independent work once per QbdModel object."""

import gc
import weakref

import numpy as np
import pytest

from qbdpoisson import (Classification, QbdModel, SolveOptions, qme,
                        random_model, solve_null_recurrent, solve_poisson)
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
