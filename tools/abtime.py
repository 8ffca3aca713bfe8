"""Time solves and solution writes of this tree against another revision, in one process.

    python tools/abtime.py --against REV [--rounds 30]

REV's library is loaded by ``accuracy.load_revision`` and imported as
``qbdpoisson_base`` beside this tree's, so both share the process, its BLAS
and its caches.  The problems are the first ``len(KINDS)`` draws per m of
``accuracy.corpus``, one per kind, each with its three g and the ledger's
R_max.

Each round times, per (kind, m), a batch of cold solves (a fresh ``QbdModel``
per solve, so its plan is built) and a batch of warm solves (one planned
model) in each tree, the tree that goes first alternating by round.  At m = 8
(R_max 1000, the CLI's long-horizon case) a third row, write, times
``cli._write_solution`` of the draw's solution into a temporary directory:
the JSON and CSV output path of ``qbdpoisson solve``, so that CI's
report-only "In-process A/B timing" step (``--against HEAD^1``) shows it
beside the solves.  Printed per (kind, m) and cold, warm or write: each
tree's median microseconds per solve or write and the p10, p50 and p90 of the
paired ratio this tree / REV over the rounds.  A solve or write that raises
stops the tool with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from accuracy import KINDS, R_MAX, ROOT, corpus, load_revision

WRITE_M = 8                         # the m whose solutions the write rows write
BATCH = {"cold": 3, "warm": 30, "write": 3}     # solves or writes per timed batch


def batches(lib, problems, R_max, out) -> dict:
    """{"cold": fn, "warm": fn}, and "write" when ``out`` is a directory to
    write into: each times one batch, in microseconds per solve or write."""
    b = problems[0].blocks
    blocks, opt = (b.B, b.A_neg, b.A0, b.A1), lib.SolveOptions(R_max=R_max)
    gs = [lib.RhsSpec(p.g) for p in problems]
    planned = lib.QbdModel(*blocks)
    sol = lib.solve_poisson(planned, gs[0], opt)
    write = importlib.import_module(f"{lib.__name__}.cli")._write_solution

    def timed(mode):
        count = BATCH[mode]
        start = time.perf_counter()
        for k in range(count):
            if mode == "write":
                write(sol, out / "u.json", out / "u.csv")
            else:
                model = lib.QbdModel(*blocks) if mode == "cold" else planned
                lib.solve_poisson(model, gs[k % len(gs)], opt)
        return (time.perf_counter() - start) / count * 1e6
    return {mode: (lambda mode=mode: timed(mode)) for mode in BATCH
            if mode != "write" or out is not None}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the git revision whose library is the base")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"argument --rounds: {args.rounds} is below 1")
    sys.path.insert(0, str(ROOT / "src"))
    import qbdpoisson as this
    problems = {}                   # (kind, m) -> the draw and its two fresh g
    for m, i, _, problem in corpus():
        if i < len(KINDS):
            problems.setdefault((problem.kind, m), []).append(problem)
    with tempfile.TemporaryDirectory() as tmp:
        libs = (this, load_revision(args.against, tmp))
        outs = [Path(tmp) / f"out_{lib.__name__}" for lib in libs]
        for out in outs:
            out.mkdir()
        cells = {(kind, m): [batches(lib, draws, R_MAX[m], out if m == WRITE_M else None)
                             for lib, out in zip(libs, outs)]
                 for (kind, m), draws in problems.items()}
        times = {(cell, mode): ([], []) for cell in cells for mode in cells[cell][0]}
        for rnd in range(args.rounds):
            for (cell, mode), pair in times.items():
                for t in ((0, 1) if rnd % 2 == 0 else (1, 0)):
                    pair[t].append(cells[cell][t][mode]())
    print(f"| kind | m | row | this µs | {args.against} µs | ratio p10 | p50 | p90 |")
    print("|---|---|---|---|---|---|---|---|")
    for ((kind, m), mode), (a, z) in times.items():
        p10, p50, p90 = np.percentile(np.divide(a, z), [10, 50, 90])
        print(f"| {kind} | {m} | {mode} | {np.median(a):.1f} | {np.median(z):.1f} | "
              f"{p10:.3f} | {p50:.3f} | {p90:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
