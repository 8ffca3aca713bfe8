"""Solver benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wide_phase --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
inputs traced and untraced and reports the per-layer metrics.  The package
is imported from ``src/`` of the checkout, never from an installed copy; the
last line of standard output is the result object, and a fuller record (with
the environment) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A single-threaded BLAS keeps run-to-run spread low on a shared machine; it
# must be set before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("wide_phase", "long_horizon", "shared_model"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "qbdpoisson" / "__init__.py").is_file():
        print(f"no package source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import environment
    import workloads

    record = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), SRC, OUT)
    record["environment"] = environment.describe(ROOT)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} solves, {record['failed']} failed; record {path}")
    for name, (value, unit) in record["metrics"].items():
        print(f"#   {name:42s} {value:14.6g} {unit}")
    for failure in record["failures"]:
        print(f"#   failed solve {failure['solve']} ({failure['kind']}): "
              f"{failure['reason']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
