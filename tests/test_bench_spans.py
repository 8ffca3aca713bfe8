"""The traced benchmark wraps library attributes by name; they must exist,
and the level-wise ones must stay on the solve path."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from qbdpoisson import solve_poisson

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", _spans().TARGETS)
def test_span_target_is_bound(module, attr, span):
    assert callable(getattr(importlib.import_module(f"qbdpoisson.{module}"), attr))


@pytest.mark.parametrize("fixture", ["pr1", "tr1", "nr1"])
def test_level_spans_reached_once_per_solve(fixture, request, monkeypatch):
    # a solve that bypassed these attributes would zero the benchmark's
    # levels_per_s figures without failing
    spans = _spans()
    calls, levels = Counter(), Counter()
    for module, attr, span in spans.TARGETS:
        if span not in spans._LEVELS:
            continue
        mod = importlib.import_module(f"qbdpoisson.{module}")

        def counted(*args, _span=span, _fn=getattr(mod, attr), **kwargs):
            result = _fn(*args, **kwargs)
            calls[_span] += 1
            levels[_span] += spans._LEVELS[_span](result)
            return result

        monkeypatch.setattr(mod, attr, counted)
    sol = solve_poisson(request.getfixturevalue(fixture),
                        request.getfixturevalue(f"{fixture}_rhs"))
    assert calls == {span: 1 for span in spans._LEVELS}
    assert levels == {span: sol.R_max + 1 for span in spans._LEVELS}


PLAN_STAGES = ("qme.solve_model", "spectral.split", "triple.compute_w",
               "triple.w_series", "shift.right_shift", "qme.stationary",
               "poisson.group_inverse")


@pytest.mark.parametrize("fixture", ["pr1", "tr1", "nr1"])
def test_plan_stages_reached_once_per_model(fixture, request, monkeypatch):
    # a stage the plan bypassed would move its time into poisson.self_ms
    calls = Counter()
    targets = [(module, attr, span) for module, attr, span in _spans().TARGETS
               if span in PLAN_STAGES]
    assert {span for *_, span in targets} == set(PLAN_STAGES)
    for module, attr, span in targets:
        mod = importlib.import_module(f"qbdpoisson.{module}")

        def counted(*args, _span=span, _fn=getattr(mod, attr), **kwargs):
            calls[_span] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    model = request.getfixturevalue(fixture)
    g = request.getfixturevalue(f"{fixture}_rhs")
    solve_poisson(model, g)
    # one group inverse of I - P* for every class, its pi_star being pi_0;
    # the shift sums its W as a series in place of the closed form
    expected = {"qme.solve_model": 1, "spectral.split": 1,
                "poisson.group_inverse": 1}
    if fixture == "nr1":
        expected.update({"shift.right_shift": 1, "triple.w_series": 1})
    else:
        expected["triple.compute_w"] = 1
    assert calls == expected
    calls.clear()
    solve_poisson(model, g)
    assert calls == {}
