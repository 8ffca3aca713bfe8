"""Command-line front end.

Subcommands: ``validate`` (structural report), ``classify`` (recurrence class,
drift, characteristic roots), ``solve`` (full pipeline, JSON + CSV output),
``lemmas`` (identity residual report), ``compare-prob`` (probabilistic vs
analytic solution), ``oracle`` (forward-recurrence cross-check).

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 infeasible
constraint.  Errors are written to stderr as a JSON object.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import poisson, probabilistic, qme, shift, spectral, triple, verify
from .exceptions import (InfeasibleConstraintError, ModelValidationError,
                         NumericalError, QbdError)
from .model import STOCHASTIC_TOL, load_problem, parse_problem, validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_INFEASIBLE = 3


class _CliArgumentError(ModelValidationError):
    """Flag/usage errors, mapped to the validation exit code."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliArgumentError(message)


def _vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}") from exc


def _add_model_flags(sub):
    sub.add_argument("input", type=Path, help="problem document (JSON)")
    sub.add_argument("--stochastic-tol", type=float, default=STOCHASTIC_TOL,
                     help="row-sum/entry tolerance for model validation")


def _add_solver_flags(sub):
    sub.add_argument("--null-band", type=float, default=qme.NULL_BAND,
                     help="drift band classified as null recurrent")
    sub.add_argument("--eps-zero", type=float, default=None,
                     help="eigenvalue-modulus cutoff of the spectral split "
                          "(default: m * eps * norm)")
    sub.add_argument("--residual-tol", type=float,
                     default=poisson.DEFAULT_RESIDUAL_TOL,
                     help="pass/fail tolerance of the residual report")


def build_parser() -> _Parser:
    parser = _Parser(prog="qbdpoisson", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check model invariants")
    _add_model_flags(sub)

    sub = commands.add_parser("classify", help="recurrence class, drift, roots")
    _add_model_flags(sub)
    _add_solver_flags(sub)

    sub = commands.add_parser("solve", help="solve the Poisson equation")
    _add_model_flags(sub)
    _add_solver_flags(sub)
    sub.add_argument("-o", "--output", type=Path, default=None,
                     help="output path base (default: input stem + '.solution')")
    sub.add_argument("--levels", type=int, default=None,
                     help="highest level R_max to evaluate (default N + 10)")
    sub.add_argument("--alpha", type=float, default=0.0,
                     help="additive constant of the recurrent solution family")
    sub.add_argument("--y-perp-mode", choices=poisson.Y_PERP_MODES,
                     default="minimal_norm",
                     help="how to pick y_perp on the constraint hyperplane")
    sub.add_argument("--y-perp", type=_vector, default=None,
                     help="explicit y_perp (comma-separated, with "
                          "--y-perp-mode explicit)")
    sub.add_argument("--y-free", type=_vector, default=None,
                     help="free homogeneous parameter y of the transient "
                          "case (default y*)")

    sub = commands.add_parser("lemmas", help="identity residual report")
    _add_model_flags(sub)
    _add_solver_flags(sub)

    sub = commands.add_parser("compare-prob",
                              help="probabilistic vs analytic solution")
    _add_model_flags(sub)
    _add_solver_flags(sub)
    sub.add_argument("--levels", type=int, default=None)

    sub = commands.add_parser("oracle", help="forward-recurrence cross-check")
    _add_model_flags(sub)
    _add_solver_flags(sub)
    sub.add_argument("--levels", type=int, default=None)
    return parser


def _dump(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"output is not strict JSON: {exc}") from exc


def _load(args):
    return load_problem(args.input.read_text(encoding="utf-8"),
                        stochastic_tol=args.stochastic_tol)


def _options(args) -> poisson.SolveOptions:
    return poisson.SolveOptions(
        y_free=getattr(args, "y_free", None),
        y_perp_mode=getattr(args, "y_perp_mode", "minimal_norm"),
        y_perp=getattr(args, "y_perp", None),
        alpha=getattr(args, "alpha", 0.0),
        R_max=getattr(args, "levels", None),
        residual_tol=args.residual_tol,
        null_band=args.null_band,
        eps_zero=args.eps_zero,
    )


def _roots_payload(roots) -> list:
    out = []
    for lam in roots:
        if not np.isfinite(lam):
            out.append("inf")          # deficient-degree roots, strict-JSON safe
        elif lam.imag == 0.0:
            out.append(float(lam.real))
        else:
            out.append([float(lam.real), float(lam.imag)])
    return out


def _solution_payload(sol: poisson.PoissonSolution) -> dict:
    return {
        "class": sol.classification.value,
        "x": sol.x.tolist(),
        "y": sol.y.tolist(),
        "y_star": sol.y_star.tolist(),
        "alpha": sol.alpha,
        "u": sol.u.tolist(),
        "residuals": sol.diagnostics.to_dict(),
    }


def _write_solution(sol: poisson.PoissonSolution, json_path: Path,
                    csv_path: Path) -> None:
    json_path.write_text(_dump(_solution_payload(sol)) + "\n", encoding="utf-8")
    with csv_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        m = sol.u.shape[1]
        writer.writerow(["level"] + [f"u{i}" for i in range(m)])
        # csv writes a float as its repr, which round-trips exactly
        writer.writerows([r, *row] for r, row in enumerate(sol.u.tolist()))


def _cmd_validate(args) -> int:
    # parse errors (g included) raise; invariant violations go to the report
    model, _ = parse_problem(args.input.read_text(encoding="utf-8"))
    report = validate(model, tol=args.stochastic_tol)
    print(_dump(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_classify(args) -> int:
    model, _ = _load(args)
    sols = qme.solve_model(model, null_band=args.null_band)
    payload = {
        "class": sols.classification.value,
        "drift": sols.drift,
        "roots": _roots_payload(qme.char_roots(sols)),
    }
    print(_dump(payload))
    return EXIT_OK


def _cmd_solve(args) -> int:
    model, g = _load(args)
    sol = poisson.solve_poisson(model, g, _options(args))
    base = args.output if args.output is not None \
        else args.input.with_name(args.input.stem + ".solution")
    json_path = base.with_name(base.name + ".json")
    csv_path = base.with_name(base.name + ".csv")
    _write_solution(sol, json_path, csv_path)
    print(_dump({
        "class": sol.classification.value,
        "output_json": str(json_path),
        "output_csv": str(csv_path),
        "residual_pass": sol.diagnostics.passed,
    }))
    rep = sol.diagnostics
    if not rep.passed:
        k = rep.worst_equation
        residual = (rep.boundary_residual, *rep.interior_residuals)[k]
        raise NumericalError(
            f"solution residual report failed: the level-{k} equation has "
            f"residual {residual:.3e} > {rep.tol:g} * {rep.worst_scale:.3e}, "
            "its own scale")
    return EXIT_OK


def _cmd_lemmas(args) -> int:
    model, _ = _load(args)
    sols = qme.solve_model(model, null_band=args.null_band)
    if sols.classification is qme.Classification.NULL_RECURRENT:
        sd = shift.right_shift(model, sols)
        payload = {"class": sols.classification.value,
                   "shift": shift.shift_identity_report(model, sols, sd)}
    else:
        split = spectral.split(sols.Ghat, eps_zero=args.eps_zero)
        wdata = triple.compute_w(sols.G, sols.U, sols.R, sols.Ghat)
        payload = {"class": sols.classification.value,
                   "identities": triple.check_identities(model, sols, split, wdata)}
    print(_dump(payload))
    return EXIT_OK


def _cmd_compare_prob(args) -> int:
    model, g = _load(args)
    # the probabilistic solution corresponds to y_perp = 0
    opts = dataclasses.replace(_options(args), y_perp_mode="zero")
    sol = poisson.solve_poisson(model, g, opts)
    prob = probabilistic.omega_solution(model, g, R_max=sol.R_max)
    is_match, offset, max_dev = probabilistic.compare_constant_shift(
        sol.u, prob.omega)
    print(_dump({
        "class": sol.classification.value,
        "is_match": is_match,
        "offset": offset,
        "max_deviation": max_dev,
        "analytic_residual_pass": sol.diagnostics.passed,
    }))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    model, g = _load(args)
    sol = poisson.solve_poisson(model, g, _options(args))
    horizon = min(sol.R_max, g.N + 5)
    recon = verify.forward_oracle(model, g, sol.u[0], sol.u[1], horizon)
    scale = 1.0 + float(np.max(np.abs(sol.u[:horizon + 1])))
    diff = float(np.max(np.abs(recon - sol.u[:horizon + 1])))
    passed = diff <= 1e-6 * scale
    print(_dump({
        "class": sol.classification.value,
        "levels_compared": horizon,
        "max_abs_diff": diff,
        "scale": scale,
        "pass": passed,
    }))
    if not passed:
        raise NumericalError(
            f"forward recurrence disagrees with the analytic solution by "
            f"{diff:.3e} (scale {scale:.3e})")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "lemmas": _cmd_lemmas,
    "compare-prob": _cmd_compare_prob,
    "oracle": _cmd_oracle,
}


def run(argv=None) -> int:
    """Parse flags, dispatch, and map errors onto exit codes."""
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (QbdError, OSError, ValueError) as exc:
        # OSError: unreadable input; ValueError: a parameter the chain cannot
        # take (y_perp or y_free of the wrong length, R_max < 2)
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        if isinstance(exc, InfeasibleConstraintError):
            return EXIT_INFEASIBLE
        if isinstance(exc, (ModelValidationError, OSError, ValueError)):
            return EXIT_VALIDATION
        return EXIT_NUMERICAL


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
