import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qbdpoisson import (Classification, NumericalError, RhsSpec, SolveOptions,
                        load_problem, random_model, serialize_problem,
                        solve_poisson)
from qbdpoisson.cli import _dump, run
from conftest import with_drift

MODELS = Path(__file__).resolve().parents[1] / "models"

PR1 = {"m": 1, "B": [[0.8]], "A_minus": [[0.6]], "A0": [[0.2]], "A1": [[0.2]],
       "g": [[1.0], [-3.0]]}
NR1 = {"m": 1, "B": [[0.6]], "A_minus": [[0.4]], "A0": [[0.2]], "A1": [[0.4]],
       "g": [[1.0], [-2.0]]}
BAD = {"m": 1, "B": [[0.5]], "A_minus": [[0.5]], "A0": [[0.5]], "A1": [[0.5]],
       "g": [[1.0]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_classify_output(tmp_path, capsys):
    path = write(tmp_path, "nr1.json", NR1)
    assert run(["classify", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"class": "NullRecurrent", "drift": 0.0, "roots": [1.0, 1.0]}


def test_solve_writes_solution_files(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    out = tmp_path / "result"
    assert run(["solve", "--levels", "10", "-o", str(out), str(path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "result.json").read_text())
    assert payload["class"] == "PositiveRecurrent"
    assert payload["residuals"]["pass"] is True
    assert payload["alpha"] == 0.0
    u = [row[0] for row in payload["u"]]
    assert len(u) == 11
    assert u[0] == pytest.approx(-2.5, abs=1e-12)
    assert all(v == pytest.approx(-7.5, abs=1e-10) for v in u[1:])
    csv_lines = (tmp_path / "result.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "level,u0"
    assert len(csv_lines) == 12


@pytest.mark.parametrize("stem", ["pr1", "tr1", "nr1", "tandem_m2"])
def test_solution_csv_round_trips_bitwise(stem, tmp_path, capsys):
    path = MODELS / f"{stem}.json"
    out = tmp_path / "result"
    assert run(["solve", "--levels", "40", "-o", str(out), str(path)]) == 0
    capsys.readouterr()
    model, g = load_problem(path.read_text(encoding="utf-8"))
    sol = solve_poisson(model, g, SolveOptions(R_max=40))
    with (tmp_path / "result.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [int(row[0]) for row in rows] == list(range(41))
    assert np.array_equal([[float(v) for v in row[1:]] for row in rows], sol.u)


def test_solve_default_output_paths(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    assert run(["solve", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "pr1.solution.json").exists()
    assert (tmp_path / "pr1.solution.csv").exists()
    # the input document is untouched
    assert json.loads(path.read_text()) == PR1


def test_solve_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "nr1.json", NR1)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["solve", "-o", str(out1), str(path)]) == 0
    assert run(["solve", "-o", str(out2), str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_validation_failure_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", BAD)
    assert run(["solve", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ModelValidationError"
    assert "1.5" in err["message"]


def test_validate_reports_without_failing_process(tmp_path, capsys):
    path = write(tmp_path, "bad.json", BAD)
    assert run(["validate", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    path = write(tmp_path, "pr1.json", PR1)
    assert run(["validate", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_infeasible_constraint_exit_code(tmp_path, capsys):
    doc = dict(PR1)
    doc["g"] = [[1.0]]          # pi^T g != 0
    path = write(tmp_path, "pr1_unbalanced.json", doc)
    assert run(["solve", "--y-perp-mode", "zero", str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InfeasibleConstraintError"


def test_unknown_flag_is_validation_error(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    assert run(["solve", "--no-such-flag", str(path)]) == 1
    capsys.readouterr()


def test_missing_file_is_validation_error(tmp_path, capsys):
    assert run(["classify", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_numerical_failure_exit_code(tmp_path, capsys):
    # singular up block: the forward-recurrence oracle cannot run
    doc = {"m": 1, "B": [[1.0]], "A_minus": [[0.5]], "A0": [[0.5]],
           "A1": [[0.0]], "g": [[0.0], [-1.0]]}
    path = write(tmp_path, "noup.json", doc)
    assert run(["oracle", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalError"


def test_lemmas_command(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    assert run(["lemmas", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(v < 1e-10 for k, v in payload["identities"].items()
               if k != "pair_condition_number")
    path = write(tmp_path, "nr1.json", NR1)
    assert run(["lemmas", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shift"]["shifted_down_equation"] < 1e-10


def test_compare_prob_command(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    assert run(["compare-prob", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_match"] is True
    assert payload["offset"] == pytest.approx(2.5, abs=1e-10)


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "nr1.json", NR1)
    assert run(["oracle", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True


def test_solve_refuses_non_finite_levels(tmp_path, capsys):
    # the tandem model's solution family overflows long before level 3000
    out = tmp_path / "long"
    assert run(["solve", "--levels", "3000", "-o", str(out),
                str(MODELS / "tandem_m2.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalError"
    assert "not finite from level" in err["message"]
    assert not (tmp_path / "long.json").exists()


def test_residual_failure_names_worst_equation(tmp_path, capsys):
    # no residual meets a tolerance of 1e-300
    out = tmp_path / "strict"
    assert run(["solve", "--residual-tol", "1e-300", "-o", str(out),
                str(MODELS / "tandem_m2.json")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalError"
    assert re.search(r"the level-\d+ equation has residual \S+ > 1e-300 \* \S+, "
                     r"its own scale", err["message"])


def test_output_is_strict_json():
    with pytest.raises(NumericalError, match="strict JSON"):
        _dump({"value": float("nan")})


def _non_finite(field, value):
    doc = json.loads(json.dumps(PR1))
    doc[field][-1][0] = value
    return doc


NON_FINITE = {
    "nan_B": (_non_finite("B", float("nan")), "B[0,0] = nan"),
    "nan_A0": (_non_finite("A0", float("nan")), "A0[0,0] = nan"),
    "nan_g": (_non_finite("g", float("nan")), "'g' block 1"),
    "inf_g": (_non_finite("g", float("inf")), "'g' block 1"),
}


@pytest.mark.parametrize("case", ["nan_B", "nan_A0"])
def test_validate_fails_on_non_finite_block(case, tmp_path, capsys):
    # every comparison with NaN is False, so a range check alone passes it
    doc, named = NON_FINITE[case]
    path = write(tmp_path, "bad.json", doc)
    assert "NaN" in path.read_text()
    assert run(["validate", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    assert payload["failures"] == [f"{named} is not finite"]


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_solve_refuses_non_finite_input(case, tmp_path, capsys):
    doc, named = NON_FINITE[case]
    path = write(tmp_path, "bad.json", doc)
    assert run(["solve", "-o", str(tmp_path / "out"), str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ModelValidationError"
    assert named in err["message"]
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flags, fixture, message", [
    (["--y-perp-mode", "explicit"], "pr1", "requires a y_perp"),
    (["--y-perp-mode", "explicit", "--y-perp", "1,2"], "pr1", "length 1"),
    (["--y-free", "1,2"], "tr1", "y_free must have length"),
    (["--levels", "1"], "pr1", "at least 2"),
    (["--levels", "-5"], "pr1", "at least 2"),
])
def test_solve_parameter_errors_are_json(flags, fixture, message, tmp_path,
                                         capsys):
    path = MODELS / f"{fixture}.json"
    assert run(["solve", *flags, "-o", str(tmp_path / "out"), str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert message in err["message"]


def _without_g():
    doc = json.loads(json.dumps(PR1))
    del doc["g"]
    return doc


@pytest.mark.parametrize("doc", [
    {**PR1, "g": [[1.0], [float("nan")]]},
    {**PR1, "g": [[1.0, 2.0]]},
    _without_g(),
], ids=["nan_g", "g_shape_1x2", "no_g"])
def test_validate_reads_g(doc, tmp_path, capsys):
    # validate parses the document as solve does, g included
    path = write(tmp_path, "pr1.json", doc)
    assert run(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ModelValidationError"
    assert "'g'" in err["message"]
    assert run(["solve", "-o", str(tmp_path / "out"), str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == err["message"]


def test_lemmas_with_narrowed_null_band(tmp_path, capsys):
    # drift 2e-10 is transient or positive recurrent under a band of 1e-12,
    # so W exists; the class, not a spectral-radius gate, decides that
    for drift in (-2e-10, 2e-10):
        model = with_drift(random_model(1, 3, Classification.POSITIVE_RECURRENT),
                           drift)
        path = tmp_path / "near.json"
        path.write_text(serialize_problem(model, RhsSpec([[0.0] * 3])),
                        encoding="utf-8")
        assert run(["lemmas", "--null-band", "1e-12", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == ("Transient" if drift > 0
                                    else "PositiveRecurrent")
        assert payload["identities"]["pair_down"] < 1e-10
