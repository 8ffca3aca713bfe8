"""Command-line front end.

Subcommands: ``validate`` (structural report), ``classify`` (recurrence class,
drift, characteristic roots), ``solve`` (full pipeline, JSON + CSV output),
``lemmas`` (identity residual report on the equation ``solve`` solves),
``compare-prob`` (probabilistic vs analytic solution), ``oracle``
(forward-recurrence cross-check).

``solve`` writes ``<base>.json`` (u one level per line) and ``<base>.csv``
(header ``level,u0,...``, one row per level, CRLF line ends).  Every number
in both is the shortest text that round-trips exactly, byte for byte its
``repr``: from ``_KERNEL_MIN`` distinct values on it is computed for all of
them at once in numpy (:mod:`qbdpoisson._floattext`), below that by ``repr``.
The outputs are byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 infeasible
constraint.  Errors are written to stderr as a JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import _floattext, poisson, probabilistic, qme, triple, verify
from .exceptions import (InfeasibleConstraintError, ModelValidationError,
                         NumericalError, QbdError)
from .model import load_problem, parse_problem, validate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_INFEASIBLE = 3

# distinct values from which the float text kernel beats one repr each
_KERNEL_MIN = 500


class _CliArgumentError(ModelValidationError):
    """Flag/usage errors, mapped to the validation exit code."""


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        # name only the unknown flag: not a negative value, nor the path read as its value
        args, extras = self.parse_known_args(args, namespace)
        if extras:
            flags = [a for a in extras if a.startswith("-") and not _is_number(a)]
            self.error(f"unrecognized arguments: {' '.join(flags or extras)}")
        return args

    def error(self, message):
        raise _CliArgumentError(message)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _vector(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}") from exc


@functools.cache
def build_parser() -> _Parser:
    """The argument parser: built once, shared by every :func:`run`."""
    parser = _Parser(prog="qbdpoisson", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    # no default here: a --levels left out is None, and SolveOptions fills it in
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--levels", dest="R_max", type=int,
                        help="highest level R_max to evaluate (default N + 10)")
    commands.add_parser("validate", help="check model invariants")
    commands.add_parser("classify", help="recurrence class, drift, roots")
    sub = commands.add_parser("solve", parents=[levels], help="solve the Poisson equation")
    sub.add_argument("-o", "--output", type=Path, default=None,
                     help="output path base (default: input stem + '.solution')")
    sub.add_argument("--alpha", type=float,
                     help="additive constant of the recurrent solution family")
    sub.add_argument("--y-perp-mode", choices=poisson.Y_PERP_MODES,
                     help="how to pick y_perp on the constraint hyperplane")
    sub.add_argument("--y-perp", type=_vector,
                     help="explicit y_perp (comma-separated, with "
                          "--y-perp-mode explicit; in the split's basis, "
                          "the phases when Ghat is invertible)")
    sub.add_argument("--y-free", type=_vector,
                     help="free homogeneous parameter y of the transient "
                          "case (default y*; in the split's basis, the "
                          "phases when Ghat is invertible)")
    commands.add_parser("lemmas", help="identity residual report")
    commands.add_parser("compare-prob", parents=[levels],
                        help="probabilistic vs analytic solution")
    commands.add_parser("oracle", parents=[levels], help="forward-recurrence cross-check "
                        "(may refuse a correct solution near criticality)")
    for sub in commands.choices.values():     # each reads one problem file
        sub.add_argument("input", type=Path, help="problem document (JSON)")
    return parser


def _dump(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"output is not strict JSON: {exc}") from exc


def _load(args):
    return load_problem(args.input.read_text(encoding="utf-8"))


def _options(args) -> poisson.SolveOptions:
    """SolveOptions from the flags given; every default is SolveOptions' own."""
    fields = {f.name for f in dataclasses.fields(poisson.SolveOptions)}
    return poisson.SolveOptions(**{name: value for name, value in vars(args).items()
                                   if name in fields and value is not None})


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
    rep = sol.diagnostics
    return {
        "class": sol.classification.value,
        "x": sol.x.tolist(),
        "y": sol.y.tolist(),
        "y_star": sol.y_star.tolist(),
        "alpha": sol.alpha,
        # ResidualReport.to_dict's keys; the interior list is laid out by
        # _write_solution, as json does
        "residuals": {"boundary": rep.boundary_residual, "interior": None,
                      "scale": rep.scale, "tol": rep.tol, "pass": rep.passed},
    }


def _reprs(a) -> list:
    """The reprs of the values of a flat array, formatted once per bit
    pattern (-0.0 is not 0.0): by ``repr`` below ``_KERNEL_MIN`` distinct
    values, where the kernel's fixed cost is larger, else by the kernel."""
    bits, index = np.unique(a.view(np.int64), return_inverse=True)
    if len(bits) < _KERNEL_MIN:
        texts = [repr(v) for v in bits.view(float).tolist()]
    else:
        texts = _floattext.reprs(bits.view(float))
    return np.array(texts, dtype=object)[index].tolist()


def _write_solution(sol: poisson.PoissonSolution, json_path: Path,
                    csv_path: Path) -> None:
    # each distinct value of u and of the interior residuals is formatted once,
    # as its repr: the shortest text that round-trips exactly, as json and csv do
    interior = sol.diagnostics.interior_residuals
    if not (np.isfinite(sol.u).all() and np.isfinite(interior).all()):
        raise NumericalError("output is not strict JSON: u or its residuals are not finite")
    # a level bit-identical to the one before reuses its row text; levels are
    # compared as bits (-0.0 is not 0.0), along the level axis of a transpose
    bits = sol.u.view(np.int64)
    new = np.ones(len(bits), dtype=bool)
    new[1:] = (bits[1:] != bits[:-1]).T.copy().any(axis=0)
    levels = sol.u[new].ravel()
    numbers = _reprs(np.concatenate([levels, interior]))
    m = sol.u.shape[1]
    texts = np.array(list(map(",".join, zip(*[iter(numbers[:len(levels)])] * m))),
                     dtype=object)
    rows = texts[np.cumsum(new) - 1].tolist()
    items = ",\n      ".join(numbers[len(levels):])
    head = _dump(_solution_payload(sol))[:-2].replace(  # reopen: drop "\n}"
        '"interior": null', f'"interior": [\n      {items}\n    ]', 1)
    body = "],\n    [".join(rows)
    header = ",".join(["level"] + [f"u{i}" for i in range(m)])
    # the csv module's dialect: no field needs quoting, lines end in \r\n
    lines = [f"{header}\r\n"] + [f"{r},{row}\r\n" for r, row in enumerate(rows)]
    json_path.write_text(f'{head},\n  "u": [\n    [{body}]\n  ]\n}}\n',
                         encoding="utf-8")
    csv_path.write_text("".join(lines), encoding="utf-8", newline="")


def _cmd_validate(args) -> int:
    # parse errors (g included) raise; invariant violations go to the report
    model, _ = parse_problem(args.input.read_text(encoding="utf-8"))
    report = validate(model)
    print(_dump(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_classify(args) -> int:
    sols = qme.solve_model(_load(args)[0])
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
    plan = poisson._plan(_load(args)[0])     # the equation solve solves
    sols = plan.sols
    try:
        identities = triple.check_identities(*plan.equation, plan.split,
                                             plan.wdata)
    except NumericalError as exc:
        raise NumericalError(f"{exc}; drift {sols.drift:.3e}") from exc
    print(_dump({"class": sols.classification.value, "identities": identities}))
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
    except (QbdError, OSError, ValueError, MemoryError) as exc:
        # OSError: unreadable input; ValueError: a parameter the chain cannot
        # take (y_perp or y_free of the wrong length, R_max < 2); MemoryError:
        # levels too many to allocate.  A subclass of the first two (say
        # FileNotFoundError, numpy's _ArrayMemoryError) is named by its base.
        name = next((base for base in (OSError, MemoryError)
                     if isinstance(exc, base)), type(exc)).__name__
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
