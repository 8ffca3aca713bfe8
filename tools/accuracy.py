"""Solve a fixed corpus of 480 problems and report the error distribution.

    python tools/accuracy.py [--against REV] [--check] [--write-baseline]

The corpus is built by ``bench/problems``, so a library change cannot change
its inputs: ``make_problem(rng_for(7, m, i), m, 6, kind)`` for m in
{3, 8, 32, 64} and i < 40, with kind cycling PR, TR, NR, NEAR.  Each draw is
solved for its own g and for two ``with_new_rhs(rng_for(8, m, i, k), ...)``,
k < 2, on one model, with R_max 40, 1000, 30 and 30 for the four m.

Each solve gets one error, in units of machine epsilon:

* recurrent draws (PR, NR, NEAR) carry an exact reference h: the forward
  error max_r |u_r - h_r - c| / (1 + max |h|), h continued by zeros and c
  the mean of u - h over levels 0 ... N;
* transient draws have none: the largest interior residual, each scaled by
  1 plus the norms of the three levels it couples (``bench/checks``).

The tool prints the sha256 over u, x, y, y*, sigma1 and the interior
residuals of every solve, in corpus order, so that "the answers are bitwise
equal" is one command; then a Markdown table of count, mean, p50, p99 and
max per kind and per (kind, m).  ``--against REV`` solves the same corpus,
in this process, with the library of REV: :func:`load_revision` takes REV's
``src/qbdpoisson`` from ``git archive`` (the one process the tool starts)
into a temporary directory and imports it as ``qbdpoisson_base``, which
works because the package imports itself only relatively.  The tool then
prints REV's hash, the paired ratios (this tree over REV) per kind, and
lists the draws whose error rose more than 10x.  A solve that raises stops
the tool with its traceback (exit 1).  This tree's library is imported from
the ``src/`` beside this file; nothing beyond numpy is needed.

``--check`` gates the tree on ``accuracy_baseline.json`` beside this file:
the baseline's sha256 and, per (kind, m), the count, mean, p99 and max of
the errors.  It prints each cell's p99 and max against its limit,
max(10 x baseline, 8 eps), and exits 1 when one exceeds it, or when a
cell's count differs from the baseline's (the corpus changed).  Cells, not
single draws: one near-critical draw rose 15x in a change that improved
every cell.  The floor is there because the transient cells sit at a
fraction of eps (max 0.58): a rounding move of a few ulps in one solve
would cross 10x of that without any loss of accuracy, while the smallest
real regression seen, cyclic reduction stopped early, took that max to
50 eps.  This tree's ledger is solved before REV is imported, and the gate
reads only it and the checked-in baseline, so ``--against`` changes the
printed comparison and nothing the gate decides.  ``--write-baseline``
writes this tree's cells and hash to the baseline: a change that moves
answers on purpose does so, and a cell that rises there is a loosened check.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "bench"))     # the corpus and its residual check
from checks import scaled_residuals  # noqa: E402
from problems import KINDS, make_problem, rng_for, with_new_rhs  # noqa: E402

EPS = np.finfo(float).eps
R_MAX = {3: 40, 8: 1000, 32: 30, 64: 30}
DRAWS = 40
RISE = 10.0
FLOOR = 8.0          # eps; the reason is in the module docstring
BASELINE = HERE / "accuracy_baseline.json"


def corpus():
    """(m, i, k, problem) in corpus order: k = 0 is draw i's own g, k = 1
    and 2 the fresh ones from ``rng_for(8, m, i, k - 1)``."""
    for m in R_MAX:
        for i in range(DRAWS):
            base = make_problem(rng_for(7, m, i), m, 6, KINDS[i % len(KINDS)])
            yield m, i, 0, base
            for k in (1, 2):
                yield m, i, k, with_new_rhs(rng_for(8, m, i, k - 1), base)


def error(problem, u) -> float:
    """The solve's forward error, or its scaled interior residual, in eps."""
    if problem.h is None:      # entry 0 is the boundary equation
        return float(scaled_residuals(problem, u)[1:].max() / EPS)
    h = np.zeros_like(u)
    h[:len(problem.h)] = problem.h
    c = (u - h)[:len(problem.g)].mean()
    return float(np.abs(u - h - c).max() / (1.0 + np.abs(problem.h).max()) / EPS)


def load_revision(rev: str, tmp: str):
    """REV's library, imported as ``qbdpoisson_base`` from ``tmp``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/qbdpoisson"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    shutil.move(str(Path(tmp) / "src" / "qbdpoisson"), str(Path(tmp) / "qbdpoisson_base"))
    sys.path.insert(0, tmp)
    return importlib.import_module("qbdpoisson_base")


def ledger(lib) -> dict:
    """{"sha256": ..., "records": [{m, i, k, kind, error}, ...]} of library ``lib``."""
    digest, records, model = hashlib.sha256(), [], None
    for m, i, k, problem in corpus():
        if k == 0:
            b = problem.blocks
            model = lib.QbdModel(b.B, b.A_neg, b.A0, b.A1)
        sol = lib.solve_poisson(model, lib.RhsSpec(problem.g),
                                lib.SolveOptions(R_max=R_MAX[m]))
        for a in (sol.u, sol.x, sol.y, sol.y_star, sol.sigma1,
                  sol.diagnostics.interior_residuals):
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        records.append({"m": m, "i": i, "k": k, "kind": problem.kind,
                        "error": error(problem, sol.u)})
    return {"sha256": digest.hexdigest(), "records": records}


def cells(records) -> list[dict]:
    """Count, mean, p99 and max of the errors per (kind, m), as :func:`table` orders them."""
    out = []
    for kind in dict.fromkeys(r["kind"] for r in records):
        for m in R_MAX:
            e = np.array([r["error"] for r in records if (r["kind"], r["m"]) == (kind, m)])
            if e.size:
                out.append({"kind": kind, "m": m, "count": len(e),
                            "mean": float(e.mean()), "p99": float(np.percentile(e, 99)),
                            "max": float(e.max())})
    return out


def check(records, baseline) -> tuple[bool, str]:
    """(passed, table): each cell's p99 and max against max(RISE x baseline, FLOOR)."""
    now = {(c["kind"], c["m"]): c for c in cells(records)}
    passed = set(now) == {(b["kind"], b["m"]) for b in baseline["cells"]}
    lines = ["| kind | m | count | p99 | limit | max | limit | verdict |",
             "|---|---|---|---|---|---|---|---|"]
    for b in baseline["cells"]:
        c = now.get((b["kind"], b["m"]), {"count": 0, "p99": np.nan, "max": np.nan})
        limits = [max(RISE * b[stat], FLOOR) for stat in ("p99", "max")]
        ok = c["count"] == b["count"] and all(
            c[stat] <= limit for stat, limit in zip(("p99", "max"), limits))
        passed &= ok
        lines.append(f"| {b['kind']} | {b['m']} | {c['count']}/{b['count']} | "
                     f"{c['p99']:.3g} | {limits[0]:.3g} | {c['max']:.3g} | "
                     f"{limits[1]:.3g} | {'ok' if ok else 'FAIL'} |")
    if not passed:
        lines.append("\nThe ledger check failed: a cell rose above its limit, or the "
                     "corpus no longer matches the baseline.")
    return passed, "\n".join(lines)


def table(records) -> str:
    """Count, mean, p50, p99 and max of the errors per kind, then per (kind, m)."""
    kinds = dict.fromkeys(r["kind"] for r in records)
    lines = ["| kind | m | error | count | mean | p50 | p99 | max |",
             "|---|---|---|---|---|---|---|---|"]
    for kind, m in [(k, "all") for k in kinds] + [(k, m) for k in kinds for m in R_MAX]:
        e = np.array([r["error"] for r in records
                      if r["kind"] == kind and m in ("all", r["m"])])
        what = "scaled residual" if kind == "Transient" else "forward"
        lines.append(f"| {kind} | {m} | {what} | {len(e)} | {e.mean():.3g} | "
                     f"{np.percentile(e, 50):.3g} | {np.percentile(e, 99):.3g} | "
                     f"{e.max():.3g} |")
    return "\n".join(lines)


def comparison(records, base, rev: str) -> str:
    """Paired ratios, this tree over REV, per kind; the draws that rose > 10x."""
    ratios = []
    for r, b in zip(records, base):
        a, z = r["error"], b["error"]
        ratios.append(a / z if z else (1.0 if a == 0.0 else np.inf))
    lines = [f"| kind | same error | p10 | p50 | p90 | max (this / {rev}) |",
             "|---|---|---|---|---|---|"]
    for kind in dict.fromkeys(r["kind"] for r in records):
        pick = [j for j, r in enumerate(records) if r["kind"] == kind]
        q = np.array([ratios[j] for j in pick])
        equal = sum(records[j]["error"] == base[j]["error"] for j in pick)
        p10, p50, p90 = np.percentile(q, [10, 50, 90])
        lines.append(f"| {kind} | {equal}/{len(q)} | {p10:.3g} | {p50:.3g} | "
                     f"{p90:.3g} | {q.max():.3g} |")
    rose = [(r, b["error"], q) for r, b, q in zip(records, base, ratios) if q > RISE]
    lines.append(f"\nSolves whose error rose more than {RISE:g}x over {rev}'s: "
                 f"{len(rose)} of {len(records)}" + (":" if rose else "."))
    lines += [f"- {r['kind']} m={r['m']} i={r['i']} k={r['k']}: "
              f"{z:.3g} -> {r['error']:.3g} eps ({q:.3g}x)" for r, z, q in rose]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with the library of git revision REV")
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 when a cell rises above {BASELINE.name}'s limits")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"write this tree's cells and hash to {BASELINE.name}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import qbdpoisson
    this = ledger(qbdpoisson)
    print(f"sha256 {this['sha256']}\n\n{table(this['records'])}")
    if args.against:
        with tempfile.TemporaryDirectory() as tmp:
            base = ledger(load_revision(args.against, tmp))
        print(f"\n{args.against} sha256 {base['sha256']}"
              + (" (equal)" if base["sha256"] == this["sha256"] else "")
              + f"\n\n{comparison(this['records'], base['records'], args.against)}")
    if args.write_baseline:
        BASELINE.write_text(json.dumps({"sha256": this["sha256"],
                                        "cells": cells(this["records"])}, indent=1) + "\n")
    if args.check:
        baseline = json.loads(BASELINE.read_text())
        passed, report = check(this["records"], baseline)
        print(f"\nbaseline sha256 {baseline['sha256']}"
              + (" (equal)" if baseline["sha256"] == this["sha256"] else "")
              + f"\n\n{report}")
        return 0 if passed else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
