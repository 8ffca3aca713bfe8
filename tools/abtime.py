"""Time cold and warm solves of this tree against another revision, in one process.

    python tools/abtime.py --against REV [--rounds 30]

REV's ``src/qbdpoisson`` is taken from ``git archive`` into a temporary
directory and imported as ``qbdpoisson_base``; the package imports itself only
relatively, so both libraries load side by side and share the process, its
BLAS and its caches.  Problems are drawn as ``tools/accuracy.py`` draws its
corpus, ``make_problem(rng_for(7, m, i), m, 6, kind)`` with i the kind's first
index and R_max 40, 1000, 30 and 30 for m 3, 8, 32 and 64; the solves cycle
through the draw's g and two ``with_new_rhs(rng_for(8, m, i, k), ...)``.

Each round times, per (kind, m), a batch of cold solves (a fresh ``QbdModel``
per solve, so its plan is built) and a batch of warm solves (one planned
model) in each tree, the tree that goes first alternating by round.  Printed
per (kind, m) and cold or warm: each tree's median microseconds per solve and
the p10, p50 and p90 of the paired ratio this tree / REV over the rounds.  A
solve that raises stops the tool with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import importlib
import io
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from problems import KINDS, make_problem, rng_for, with_new_rhs  # noqa: E402

R_MAX = {3: 40, 8: 1000, 32: 30, 64: 30}
BATCH = {"cold": 3, "warm": 30}     # solves per timed batch


def load_base(rev: str, tmp: str):
    """REV's library, imported as ``qbdpoisson_base`` from ``tmp``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/qbdpoisson"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp, filter="data")
    shutil.move(str(Path(tmp) / "src" / "qbdpoisson"), str(Path(tmp) / "qbdpoisson_base"))
    sys.path.insert(0, tmp)
    return importlib.import_module("qbdpoisson_base")


def batches(lib, problems, R_max) -> dict:
    """{"cold": fn, "warm": fn}: each times one batch, in microseconds per solve."""
    b = problems[0].blocks
    blocks, opt = (b.B, b.A_neg, b.A0, b.A1), lib.SolveOptions(R_max=R_max)
    gs = [lib.RhsSpec(p.g) for p in problems]
    planned = lib.QbdModel(*blocks)
    lib.solve_poisson(planned, gs[0], opt)

    def timed(mode):
        count = BATCH[mode]
        start = time.perf_counter()
        for k in range(count):
            model = lib.QbdModel(*blocks) if mode == "cold" else planned
            lib.solve_poisson(model, gs[k % len(gs)], opt)
        return (time.perf_counter() - start) / count * 1e6
    return {mode: (lambda mode=mode: timed(mode)) for mode in BATCH}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the git revision whose library is the base")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import qbdpoisson as this
    with tempfile.TemporaryDirectory() as tmp:
        libs = (this, load_base(args.against, tmp))
        cells = {}
        for m, R_max in R_MAX.items():
            for i, kind in enumerate(KINDS):
                first = make_problem(rng_for(7, m, i), m, 6, kind)
                problems = [first] + [with_new_rhs(rng_for(8, m, i, k), first) for k in (0, 1)]
                cells[kind, m] = [batches(lib, problems, R_max) for lib in libs]
        times = {(cell, mode): ([], []) for cell in cells for mode in BATCH}
        for rnd in range(args.rounds):
            for (cell, mode), pair in times.items():
                for t in ((0, 1) if rnd % 2 == 0 else (1, 0)):
                    pair[t].append(cells[cell][t][mode]())
    print(f"| kind | m | solve | this µs | {args.against} µs | ratio p10 | p50 | p90 |")
    print("|---|---|---|---|---|---|---|---|")
    for ((kind, m), mode), (a, z) in times.items():
        p10, p50, p90 = np.percentile(np.divide(a, z), [10, 50, 90])
        print(f"| {kind} | {m} | {mode} | {np.median(a):.1f} | {np.median(z):.1f} | "
              f"{p10:.3f} | {p50:.3f} | {p90:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
