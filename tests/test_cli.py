import csv
import dataclasses
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from qbdpoisson import (Classification, NumericalError, RhsSpec, SolveOptions,
                        load_problem, random_model, serialize_problem,
                        solve_poisson)
from qbdpoisson import cli, poisson, qme, shift, spectral, triple, verify
from qbdpoisson.cli import _dump, _options, _write_solution, build_parser, run
from conftest import balanced_rhs, nilpotent_model, random_rhs, with_drift

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


def _generated_file(tmp_path, stem):
    # tr8: the largest drift (0.134) of random_model's m = 8 transient draws
    # over seeds 0-399; with g on level 0 only its levels decay to ~1e-182.
    # pr8: a recurrent m = 8 chain, whose levels reach a constant vector;
    # pr1g: its m = 1 counterpart, one number per row
    if stem == "tr8":
        model = random_model(333, 8, Classification.TRANSIENT)
        g = random_rhs(0, 8, 1)
    else:
        model = random_model(1, 1 if stem == "pr1g" else 8,
                             Classification.POSITIVE_RECURRENT)
        g = balanced_rhs(model, 3)
    path = tmp_path / f"{stem}.json"
    path.write_text(serialize_problem(model, g), encoding="utf-8")
    return path


def _reference_files(sol):
    """The bytes of the solution files as the json and csv modules write
    them: json.dumps(indent=2, sort_keys=True) of every field but u, then u
    one level per line; the csv module's rows of the level and u."""
    payload = {"class": sol.classification.value, "x": sol.x.tolist(),
               "y": sol.y.tolist(), "y_star": sol.y_star.tolist(),
               "alpha": sol.alpha, "residuals": sol.diagnostics.to_dict()}
    head = json.dumps(payload, indent=2, sort_keys=True)[:-2]
    body = ",\n".join("    " + json.dumps(row, separators=(",", ":"))
                      for row in sol.u.tolist())
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["level"] + [f"u{i}" for i in range(sol.u.shape[1])])
    writer.writerows([r, *row] for r, row in enumerate(sol.u.tolist()))
    return (f'{head},\n  "u": [\n{body}\n  ]\n}}\n'.encode("utf-8"),
            reference.getvalue().encode("utf-8"))


# near_pr and tandem_m2 overflow long before level 1000; tr1 at 1000 levels
# reaches subnormal and zero entries; pr8's levels repeat one vector. The
# transient 1000-level solves have more distinct values than _KERNEL_MIN and
# are written by the float text kernel, the others by repr. At 2 levels the
# interior residual list has one entry
@pytest.mark.parametrize("stem, levels", [
    *((stem, 40) for stem in ("pr1", "tr1", "nr1", "tandem_m2", "near_pr")),
    ("tr1", 1000), ("tr8", 1000), ("pr8", 1000),
    ("pr1", 2), ("tr1", 2), ("pr1g", 1000),
], ids=str)
def test_solution_files_round_trip_bitwise(stem, levels, tmp_path, capsys,
                                           monkeypatch):
    path = (_generated_file(tmp_path, stem) if stem in ("tr8", "pr8", "pr1g")
            else MODELS / f"{stem}.json")
    out = tmp_path / "result"
    kernel_calls = []
    reprs = cli._floattext.reprs
    monkeypatch.setattr(cli._floattext, "reprs",
                        lambda a: kernel_calls.append(len(a)) or reprs(a))
    assert run(["solve", "--levels", str(levels), "-o", str(out),
                str(path)]) == 0
    capsys.readouterr()
    assert bool(kernel_calls) == (stem in ("tr1", "tr8") and levels == 1000)
    model, g = load_problem(path.read_text(encoding="utf-8"))
    sol = solve_poisson(model, g, SolveOptions(R_max=levels))
    doc = json.loads((tmp_path / "result.json").read_text(encoding="utf-8"))
    for got, want in [(doc["u"], sol.u), (doc["x"], sol.x), (doc["y"], sol.y),
                      (doc["y_star"], sol.y_star),
                      (doc["residuals"]["interior"],
                       sol.diagnostics.interior_residuals)]:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the hand-written files are what the json and csv modules write
    assert ((tmp_path / "result.json").read_bytes(),
            (tmp_path / "result.csv").read_bytes()) == _reference_files(sol)


def test_solution_files_keep_signed_zeros(tmp_path, monkeypatch):
    # each distinct bit pattern is formatted once: 0.0 and -0.0 compare equal
    # but are written apart, in u and in the interior residuals alike; the
    # second input reaches every layout of the text: a decimal point before
    # the digits, inside them and after padding zeros, 2- and 3-digit
    # exponents, negatives and subnormals; each by the kernel and by repr
    model = random_model(0, 3, Classification.POSITIVE_RECURRENT)
    sol = solve_poisson(model, random_rhs(0, 3), SolveOptions(R_max=5))
    signed_zeros = ([[0.0, -0.0, 5e-324], [1e16, 1e-05, -0.0], [0.0, 1e16, 0.1],
                     [0.1, -5e-324, 1e-05], [-0.0, 0.0, 1e16], [5e-324, 0.1, 0.0]],
                    (0.0, -0.0, 5e-324, 0.0))
    layouts = ([[0.000123, -0.00123, 0.0123], [0.123, 123.45, -1.5],
                [1e15, 120.0, -1.0], [1e-05, -2.5e-07, 1.5e16],
                [1e-300, -1.7976931348623157e308, 2.2250738585072014e-308],
                [-5e-324, 1e-320, -2.5e-315], [9999999999999998.0, 0.1, 1e22]],
               (1e-05, -1e-300, 3e-320, 0.5, -0.0, 1234567890123456.7))
    for kernel_min, (table, interior) in itertools.product(
            (0, 10**9), (signed_zeros, layouts)):
        monkeypatch.setattr(cli, "_KERNEL_MIN", kernel_min)
        crafted = dataclasses.replace(
            sol, u=np.array(table), diagnostics=dataclasses.replace(
                sol.diagnostics, interior_residuals=interior))
        json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
        _write_solution(crafted, json_path, csv_path)
        assert (json_path.read_bytes(), csv_path.read_bytes()) == \
            _reference_files(crafted)
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert np.array_equal(np.signbit(doc["u"]), np.signbit(table))
        assert np.signbit(doc["residuals"]["interior"]).tolist() == \
            np.signbit(interior).tolist()


def test_solution_files_reuse_a_row_only_for_identical_bits(tmp_path):
    # a level reuses the row text of the level before only when every entry
    # has the same bits: [-0.0, 1.0] after [0.0, 1.0] compares equal as
    # floats but is written apart; runs of identical rows share one text.
    # The files are written over longer ones, whose tails must not survive
    model = random_model(0, 2, Classification.POSITIVE_RECURRENT)
    sol = solve_poisson(model, random_rhs(0, 2), SolveOptions(R_max=9))
    table = [[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
             [0.1, 1e16], [0.1, 1e16], [0.1, -1e16], [0.0, 1.0], [0.0, -1.0]]
    crafted = dataclasses.replace(sol, u=np.array(table))
    json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    for path in (json_path, csv_path):
        path.write_bytes(b"9" * 100_000)
    _write_solution(crafted, json_path, csv_path)
    assert (json_path.read_bytes(), csv_path.read_bytes()) == \
        _reference_files(crafted)
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    assert np.array_equal(np.signbit(doc["u"]), np.signbit(table))
    lines = csv_path.read_bytes().decode("utf-8").split("\r\n")
    assert lines[1:6] == ["0,0.0,1.0", "1,-0.0,1.0", "2,-0.0,1.0",
                          "3,-0.0,1.0", "4,0.0,1.0"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_write_solution_refuses_non_finite_u(value, pr1, pr1_rhs, tmp_path):
    sol = solve_poisson(pr1, pr1_rhs)
    u = sol.u.copy()
    u[-1, 0] = value
    bad = dataclasses.replace(sol, u=u)
    json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    with pytest.raises(NumericalError, match="strict JSON"):
        _write_solution(bad, json_path, csv_path)
    assert not json_path.exists() and not csv_path.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_write_solution_refuses_non_finite_residuals(value, pr1, pr1_rhs,
                                                     tmp_path):
    # the interior residuals bypass json's own check, so they are checked here
    sol = solve_poisson(pr1, pr1_rhs)
    interior = sol.diagnostics.interior_residuals
    bad = dataclasses.replace(sol, diagnostics=dataclasses.replace(
        sol.diagnostics, interior_residuals=(*interior[:-1], value)))
    json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    with pytest.raises(NumericalError, match="strict JSON"):
        _write_solution(bad, json_path, csv_path)
    assert not json_path.exists() and not csv_path.exists()


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


def test_non_numeric_vector_flag_exits_1(capsys):
    assert run(["solve", "--y-free", "a,b", str(MODELS / "tr1.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "_CliArgumentError"
    assert "expected comma-separated floats, got 'a,b'" in err["message"]


def test_oracle_refuses_a_correct_near_critical_solution(tmp_path, capsys):
    # the forward recurrence amplifies rounding along growing modes: near a
    # critical chain it disagrees with a solution that solve accepts
    model = with_drift(random_model(0, 8, Classification.POSITIVE_RECURRENT),
                       -1e-4)
    path = tmp_path / "near.json"
    path.write_text(serialize_problem(model, balanced_rhs(model, 3)),
                    encoding="utf-8")
    assert run(["solve", "-o", str(tmp_path / "out"), str(path)]) == 0
    capsys.readouterr()
    assert run(["oracle", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["pass"] is False
    assert "forward recurrence disagrees" in json.loads(captured.err)["message"]


def test_unknown_flag_is_validation_error(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    assert run(["solve", "--no-such-flag", str(path)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "_CliArgumentError", "message": "unrecognized arguments: --no-such-flag"}
    # a left-over path is named when no flag is
    assert run(["solve", str(path), "extra.json"]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == \
        "unrecognized arguments: extra.json"


UNREAD_FLAGS = [("classify", "--eps-zero"), ("solve", "--eps-zero"),
                ("lemmas", "--eps-zero"), ("compare-prob", "--eps-zero"),
                ("oracle", "--eps-zero"), ("classify", "--residual-tol"),
                ("lemmas", "--residual-tol"), ("solve", "--residual-tol"),
                ("validate", "--stochastic-tol"), ("classify", "--null-band"),
                ("solve", "--null-band"), ("lemmas", "--null-band"),
                ("compare-prob", "--null-band"), ("oracle", "--null-band")]


def _refused_flag_message(flag):
    return json.dumps({"error": "_CliArgumentError",
                       "message": f"unrecognized arguments: {flag}"},
                      sort_keys=True) + "\n"


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_subcommand_refuses_flag_it_does_not_read(command, flag, tmp_path,
                                                  capsys):
    # a negative value is a value, not a second unknown flag
    path = write(tmp_path, "pr1.json", PR1)
    for value in ("1e-9", "-1"):
        assert run([command, str(path), flag, value]) == 1
        assert capsys.readouterr().err == _refused_flag_message(flag)


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_unread_flag_ahead_of_the_path_is_named_not_the_path(command, flag,
                                                              tmp_path, capsys):
    # the flag's value is parsed as the input path and the path is left over
    path = write(tmp_path, "pr1.json", PR1)
    assert run([command, flag, "1e-9", str(path)]) == 1
    assert capsys.readouterr().err == _refused_flag_message(flag)


@pytest.mark.parametrize("flag_first", [True, False], ids=["before", "after"])
def test_abbreviated_known_flag_is_read(flag_first, tmp_path, capsys):
    path = str(write(tmp_path, "pr1.json", PR1))
    argv = ["--lev", "5", path] if flag_first else [path, "--lev", "5"]
    assert run(["solve", "-o", str(tmp_path / "out"), *argv]) == 0
    capsys.readouterr()
    assert len(json.loads((tmp_path / "out.json").read_text())["u"]) == 6


def test_runs_in_one_process_share_one_parser(tmp_path, capsys):
    path = write(tmp_path, "pr1.json", PR1)
    argvs = (["solve", "--levels", "40"], ["solve"])

    def outputs(tag, fresh_parser):
        files = []
        for k, argv in enumerate(argvs):
            if fresh_parser:
                build_parser.cache_clear()
            base = tmp_path / f"{tag}{k}"
            assert run([*argv, "-o", str(base), str(path)]) == 0
            files += [base.with_name(base.name + ext).read_bytes()
                      for ext in (".json", ".csv")]
        return files

    separate = outputs("separate", True)
    build_parser.cache_clear()
    shared = outputs("shared", False)
    assert build_parser.cache_info().misses == 1
    capsys.readouterr()
    assert shared == separate
    # the second run takes the default horizon, N + 10, not the first's 40
    assert [len(files.splitlines()) for files in shared[1::2]] == [42, 13]


@pytest.mark.parametrize("command", ["classify", "solve", "lemmas",
                                     "compare-prob", "oracle"])
def test_unset_solver_flags_take_solve_options_defaults(command):
    assert _options(build_parser().parse_args([command, "p.json"])) == SolveOptions()


def test_solver_flags_map_onto_solve_options():
    args = build_parser().parse_args([
        "solve", "p.json", "--levels", "40", "--alpha", "1.5",
        "--y-perp-mode", "explicit", "--y-perp", "1,2", "--y-free", "3"])
    assert _options(args) == SolveOptions(
        R_max=40, alpha=1.5,
        y_perp_mode="explicit", y_perp=(1.0, 2.0), y_free=(3.0,))
    for command in ("compare-prob", "oracle"):
        args = build_parser().parse_args([command, "p.json", "--levels", "7"])
        assert _options(args) == SolveOptions(R_max=7)


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
    assert all(v < 1e-10 for k, v in payload["identities"].items()
               if k != "pair_condition_number")


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


def test_residual_failure_names_worst_equation(tmp_path, capsys, monkeypatch):
    # no residual meets a tolerance of 1e-300
    monkeypatch.setattr(verify, "DEFAULT_TOL", 1e-300)
    out = tmp_path / "strict"
    assert run(["solve", "-o", str(out), str(MODELS / "tandem_m2.json")]) == 2
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
    # NaN fails every comparison; it is refused before the hyperplane gate
    (["--y-perp-mode", "explicit", "--y-perp", "nan"], "pr1",
     "y_perp must be finite"),
    (["--alpha", "nan"], "pr1", "alpha must be finite"),
    (["--y-free", "inf"], "tr1", "y_free must be finite"),
    (["--y-perp-mode", "explicit", "--y-perp", "inf"], "pr1",
     "y_perp must be finite"),
    (["--y-free", "nan"], "tr1", "y_free must be finite"),
    (["--alpha", "inf"], "pr1", "alpha must be finite"),
    # a parameter the class's solution family does not have is refused
    (["--y-perp", "5"], "nr1", "a y_perp requires y_perp_mode 'explicit'"),
    (["--y-free", "5"], "nr1",
     "y_free is not a free parameter of the solutions of a NullRecurrent chain"),
    (["--y-free", "5"], "pr1",
     "y_free is not a free parameter of the solutions of a PositiveRecurrent chain"),
    (["--y-perp-mode", "explicit", "--y-perp", "5"], "tr1",
     "y_perp is not a free parameter of the solutions of a Transient chain"),
    (["--alpha", "1"], "tr1",
     "alpha is not a free parameter of the solutions of a Transient chain"),
])
def test_solve_parameter_errors_are_json(flags, fixture, message, tmp_path,
                                         capsys):
    path = MODELS / f"{fixture}.json"
    assert run(["solve", *flags, "-o", str(tmp_path / "out"), str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert message in err["message"]


def test_memory_error_is_json(monkeypatch, capsys):
    # numpy raises a MemoryError subclass for levels too many to allocate;
    # a stand-in raises it here, so the test allocates nothing
    class _ArrayMemoryError(MemoryError):
        pass

    def out_of_memory(*args):
        raise _ArrayMemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(poisson, "solve_poisson", out_of_memory)
    assert run(["solve", "--levels", "100000000000", str(MODELS / "pr1.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "MemoryError",
                                        "message": "Unable to allocate 745. GiB"}


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


def test_lemmas_with_narrowed_null_band(tmp_path, capsys, monkeypatch):
    # drift 2e-10 is transient or positive recurrent under a band of 1e-12,
    # so W exists; the class, not a spectral-radius gate, decides that
    for drift in (-2e-10, 2e-10):
        model = with_drift(random_model(1, 3, Classification.POSITIVE_RECURRENT),
                           drift)
        path = tmp_path / "near.json"
        path.write_text(serialize_problem(model, RhsSpec([[0.0] * 3])),
                        encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(qme, "NULL_BAND", 1e-12)
            assert run(["lemmas", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == ("Transient" if drift > 0
                                    else "PositiveRecurrent")
        assert payload["identities"]["pair_down"] < 1e-10


def _near_critical_file(tmp_path, m, drift, g):
    model = with_drift(random_model(1, m, Classification.POSITIVE_RECURRENT),
                       drift)
    path = tmp_path / "near.json"
    path.write_text(serialize_problem(model, RhsSpec(g)), encoding="utf-8")
    return path


def test_compare_prob_classifies_both_sides_at_the_null_band(tmp_path, capsys,
                                                             monkeypatch):
    # drift 2e-10 is transient under a null band of 1e-12: the probabilistic
    # oracle must take the transient branch too, not the recurrent group
    # inverse of a P* that is stochastic only to O(drift)
    path = _near_critical_file(tmp_path, 3, 2e-10, [[1.0, 0.0, -1.0]])
    branches = []
    group_inverse = poisson.group_inverse

    def recorded(Pstar, *, recurrent=None):
        branches.append(recurrent)
        return group_inverse(Pstar, recurrent=recurrent)

    monkeypatch.setattr(poisson, "group_inverse", recorded)
    monkeypatch.setattr(qme, "NULL_BAND", 1e-12)
    assert run(["compare-prob", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "Transient"
    assert branches == [False, False]


def test_lemmas_refusal_names_near_critical_cause_and_drift(tmp_path, capsys,
                                                           monkeypatch):
    # the pair-matrix gate stays at 1e12; its refusal says why and at what drift
    path = _near_critical_file(tmp_path, 8, 2e-11, [[0.0] * 8])
    monkeypatch.setattr(qme, "NULL_BAND", 1e-12)
    assert run(["lemmas", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NumericalError"
    assert "near-critical" in err["message"]
    assert "drift 2.000e-11" in err["message"]


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_bundled_model_passes_every_command(path, tmp_path, capsys):
    # the console-script loop of the CI workflow, with RuntimeWarning an error
    for command in ("validate", "classify", "lemmas", "oracle"):
        assert run([command, str(path)]) == 0, command
    assert run(["solve", "-o", str(tmp_path / path.stem), str(path)]) == 0
    capsys.readouterr()


# compare-prob takes the y_perp = 0 solution, which exists only when pi^T g = 0:
# nr1, tandem_m2 and near_pr have pi^T g != 0 and exit 3 by design
COMPARE_PROB_EXIT = {"pr1": 0, "tr1": 0, "nr1": 3, "tandem_m2": 3, "near_pr": 3}


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_bundled_model_compare_prob_exit_code(path, capsys):
    # the compare-prob step of the CI workflow; every bundled model needs an entry
    expected = COMPARE_PROB_EXIT[path.stem]
    assert run(["compare-prob", str(path)]) == expected
    captured = capsys.readouterr()
    if expected == 3:
        assert json.loads(captured.err)["error"] == "InfeasibleConstraintError"
    else:
        assert json.loads(captured.out)["is_match"] is True


def test_singular_up_block_runs_through_every_command(tmp_path, capsys):
    # A1 of rank m - 2: classify reports the roots at infinity, and lemmas
    # checks the nilpotent branch of the resolvent on the Schur-route split
    path = tmp_path / "nilpotent.json"
    path.write_text(serialize_problem(nilpotent_model(0, 4), random_rhs(0, 4)),
                    encoding="utf-8")
    assert run(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert run(["classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["roots"].count("inf") == 2
    assert run(["lemmas", str(path)]) == 0
    identities = json.loads(capsys.readouterr().out)["identities"]
    assert identities.pop("pair_condition_number") < 1e12
    assert max(identities.values()) < 1e-8
    assert run(["solve", "-o", str(tmp_path / "out"), str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["residual_pass"] is True
    # the forward recurrence inverts A1, so it refuses this chain by design
    assert run(["oracle", str(path)]) == 2
    assert "requires a nonsingular A1" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("stem", ["pr1", "nr1"])
def test_lemmas_reports_on_the_plan_solve_uses(stem, monkeypatch, capsys):
    # lemmas builds no stage of its own: it reads the model's plan
    plans = []
    plan = poisson._plan

    def recorded(model):
        plans.append(plan(model))
        return plans[-1]

    monkeypatch.setattr(poisson, "_plan", recorded)
    assert run(["lemmas", str(MODELS / f"{stem}.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(plans) == 1
    # one report for every class, on the equation the plan solves
    assert sorted(payload) == ["class", "identities"]
    assert (plans[0].shift is not None) == (stem == "nr1")


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_lemmas_builds_each_stage_once(path, monkeypatch, capsys):
    # the report reads the plan's split and W; it builds no second W
    calls = []
    for mod, name in ((qme, "solve_model"), (spectral, "split"),
                      (triple, "compute_w"), (triple, "w_series"),
                      (poisson, "group_inverse"), (shift, "right_shift")):
        original = getattr(mod, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    assert run(["lemmas", str(path)]) == 0
    capsys.readouterr()
    expected = ["solve_model", "split", "group_inverse"]
    if path.stem == "nr1":
        expected += ["right_shift", "w_series"]
    else:
        expected.append("compute_w")
    assert sorted(calls) == sorted(expected)


def test_lemmas_takes_the_pair_condition_number_once(monkeypatch, capsys):
    # the value build_triple's gate saw is the one reported
    calls = []
    condition_number = triple.condition_number

    def counted(a):
        calls.append(condition_number(a))
        return calls[-1]

    monkeypatch.setattr(triple, "condition_number", counted)
    assert run(["lemmas", str(MODELS / "tandem_m2.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert payload["identities"]["pair_condition_number"] == calls[0]
