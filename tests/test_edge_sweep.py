"""Every input gets a checked answer or a named error: a seeded sweep of
edge inputs through the solves, their building blocks and the console
script, under the suite's RuntimeWarning-as-error filter.

A call either returns an answer that passes its own check or raises
QbdError or ValueError with a message; anything else fails the test."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from conftest import random_rhs

from qbdpoisson import (Classification, QbdError, QbdModel, RhsSpec,
                        SolveOptions, cli, forward_oracle, omega_solution,
                        random_model, residuals, serialize_problem,
                        solve_nonsingular_a1, solve_poisson, solve_qme, split)
from qbdpoisson.qme import qme_residual

SEED = 15


def _outcome(call, check) -> str:
    """"pass" when ``check`` holds for what ``call()`` returns, else the name
    of the QbdError or ValueError that ``call()`` raised, with a message."""
    try:
        answer = call()
    except (QbdError, ValueError) as exc:
        assert str(exc), f"{type(exc).__name__} without a message"
        return type(exc).__name__
    assert check(answer), "an answer that fails its own check"
    return "pass"


def _variants(model):
    """The drawn model, A1 scaled by 1e-13, A1 = 0 and A_neg = 0; the mass
    taken off moves to A0 (and to B when it is A1's), so rows stay stochastic."""
    B, A_neg, A0, A1 = model.B, model.A_neg, model.A0, model.A1
    yield model
    for gone in ((1.0 - 1e-13) * A1, A1):
        yield QbdModel(B + gone, A_neg, A0 + gone, A1 - gone)
    yield QbdModel(B, 0.0 * A_neg, A0 + A_neg, A1)


def _rhs(rng, m):
    """Normal, about 1e300, about 1e-310, zero, and over 60 levels."""
    g = rng.standard_normal((3, m))
    return [g, 1e300 * g, 1e-310 * g, np.zeros((3, m)), rng.standard_normal((60, m))]


def _solution_passes(sol) -> bool:
    return bool(sol.diagnostics.passed and np.isfinite(sol.u).all())


@pytest.mark.parametrize("cls", list(Classification))
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_solves_answer_with_a_passing_check_or_a_named_error(m, cls):
    rng = np.random.default_rng([SEED, m, list(Classification).index(cls)])
    outcomes = [
        _outcome(lambda: solve(model, RhsSpec(g), SolveOptions(R_max=R_max)),
                 _solution_passes)
        for model in _variants(random_model(SEED, m, cls))
        for g in _rhs(rng, m)
        for solve in (solve_poisson, solve_nonsingular_a1)
        for R_max in (None, 500)]
    assert len(outcomes) == 80 and "pass" in outcomes


_E = np.zeros((0, 0))
_ONE = QbdModel([[0.7]], [[0.5]], [[0.2]], [[0.3]])     # scalar, positive recurrent
_TR3 = random_model(SEED, 3, Classification.TRANSIENT)
_G1, _G3 = RhsSpec([[1.0], [-1.0]]), random_rhs(SEED, 3)
_U1, _U3 = solve_poisson(_ONE, _G1).u, solve_poisson(_TR3, _G3).u


def _no_answer(_) -> bool:
    """The check of a call whose input has no answer: only a refusal passes."""
    return False


def _split_case(target):
    return lambda: split(target), lambda s: np.allclose(s.power(1), target, atol=1e-12)


def _qme_case(*blocks):
    return (lambda: solve_qme(*blocks),
            lambda X: qme_residual(*blocks, X) <= 1e-12)


def _oracle_case(model, g, u, seeds, R_max=5):
    return (lambda: forward_oracle(model, g, *seeds, R_max),
            lambda out: np.allclose(out, u[:R_max + 1]))


def _omega_case(model, g, R_max=5):
    return (lambda: omega_solution(model, g, R_max),
            lambda prob: residuals(model, g, prob.omega).passed)


BLOCK_CASES = {
    "QbdModel 0x0": (lambda: QbdModel(_E, _E, _E, _E), _no_answer),
    "QbdModel mixed sizes": (lambda: QbdModel(np.eye(2), np.eye(3), np.eye(2), np.eye(2)),
                             _no_answer),
    "QbdModel 2x3": (lambda: QbdModel(*[np.ones((2, 3))] * 4), _no_answer),
    "RhsSpec no levels": (lambda: RhsSpec(np.zeros((0, 3))), _no_answer),
    "RhsSpec 1-d": (lambda: RhsSpec(np.zeros(3)), _no_answer),
    "RhsSpec ragged": (lambda: RhsSpec([[1.0], [1.0, 2.0]]), _no_answer),
    "split 0x0": _split_case(_E),
    "split 1x1": _split_case(np.array([[0.5]])),
    "split 1x1 zero": _split_case(np.zeros((1, 1))),
    "split 2x3": _split_case(np.ones((2, 3))),
    "split 1-d": _split_case(np.ones(3)),
    "split NaN": _split_case(np.full((2, 2), np.nan)),
    "solve_qme 0x0": _qme_case(_E, _E, _E),
    "solve_qme 1x1": _qme_case(_ONE.A_neg, _ONE.A0, _ONE.A1),
    "solve_qme mixed sizes": _qme_case(np.eye(2) / 2, np.eye(3) / 4, np.eye(2) / 4),
    "solve_qme 2x3": _qme_case(*[np.ones((2, 3)) / 9] * 3),
    "residuals 1x1": (lambda: residuals(_ONE, _G1, _U1), lambda r: r.passed),
    "residuals u too narrow": (lambda: residuals(_TR3, _G3, _U3[:, :2]), _no_answer),
    "residuals one level": (lambda: residuals(_TR3, _G3, _U3[:1]), _no_answer),
    "residuals no level": (lambda: residuals(_TR3, _G3, _U3[:0]), _no_answer),
    "residuals g too narrow": (lambda: residuals(_TR3, _G1, _U3), _no_answer),
    "forward_oracle 1x1": _oracle_case(_ONE, _G1, _U1, _U1[:2]),
    "forward_oracle short seed": _oracle_case(_TR3, _G3, _U3, ([0.0], _U3[1])),
    "forward_oracle g too narrow": _oracle_case(_TR3, _G1, _U3, _U3[:2]),
    "forward_oracle R_max 0": _oracle_case(_TR3, _G3, _U3, _U3[:2], R_max=0),
    "omega_solution 1x1": _omega_case(_ONE, _G1),
    "omega_solution 3x3": _omega_case(_TR3, _G3),
    "omega_solution g too narrow": _omega_case(_TR3, _G1),
    "omega_solution R_max -1": _omega_case(_TR3, _G3, R_max=-1),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_building_blocks_answer_with_a_passing_check_or_a_named_error(case):
    _outcome(*BLOCK_CASES[case])


@pytest.mark.xfail(strict=True, reason=(
    "solve_qme takes raw arrays and refuses these with numpy's own message "
    "(a zero-size reduction, operands that do not broadcast), naming no block"))
@pytest.mark.parametrize("case", ["solve_qme 0x0", "solve_qme mixed sizes", "solve_qme 2x3"])
def test_solve_qme_names_the_shape_it_refuses(case):
    with pytest.raises(ValueError, match="square|same shape"):
        BLOCK_CASES[case][0]()


_DOC = {"m": 1, "B": [[0.7]], "A_minus": [[0.5]], "A0": [[0.2]], "A1": [[0.3]],
        "g": [[1.0], [-1.0]]}
_OVERFLOW = serialize_problem(random_model(1, 2, Classification.POSITIVE_RECURRENT),
                              RhsSpec([[1e300, 1e300], [-1e300, -1e300]]))


def _doc(**fields):
    return json.dumps({**_DOC, **fields})


DOCUMENTS = {
    "not JSON": "{m: 1",
    "empty": "",
    "a list": "[1, 2]",
    "no A1": json.dumps({k: v for k, v in _DOC.items() if k != "A1"}),
    "m 0": _doc(m=0),
    "m true": _doc(m=True),
    "m a string": _doc(m="1"),
    "m too large": _doc(m=10 ** 9),
    "block shape": _doc(A0=[[0.2, 0.0]]),
    "block text": _doc(A0=[["x"]]),
    "block NaN": _doc(A0=[[float("nan")]]),
    "negative block": _doc(A_minus=[[-0.5]], A0=[[1.2]]),
    "rows not stochastic": _doc(A0=[[0.9]]),
    "g too wide": _doc(g=[[1.0, 2.0]]),
    "g empty": _doc(g=[]),
    "g NaN": _doc(g=[[float("nan")]]),
    "g infinite": _doc(g=[[float("inf")]]),
}
COMMANDS = ("validate", "classify", "solve", "lemmas", "compare-prob", "oracle")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, text, commands", [
    *[(name, text, COMMANDS) for name, text in DOCUMENTS.items()],
    ("solution overflows", _OVERFLOW, ("solve", "oracle"))])
def test_console_script_prints_one_json_document_and_exits_1_or_2(name, text, commands,
                                                                  tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(text)
    for command in commands:
        code, out, err = _run([command, str(path), *(
            ["-o", str(tmp_path / "out")] if command == "solve" else [])])
        assert code in (1, 2), (command, code)
        assert bool(out) != bool(err), (command, out, err)
        json.loads(out or err)
