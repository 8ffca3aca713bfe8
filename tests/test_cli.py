import json
import re
from pathlib import Path

import pytest

from qbdpoisson import NumericalError
from qbdpoisson.cli import _dump, run

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
