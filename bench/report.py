"""Run every workload of BENCHMARK.json once and print one table.

    python3 bench/report.py --seed 1 [--seconds 15] [--trace]

Each workload runs in its own process through ``bench/run.py``, one after
the other.  The table lists every end-to-end metric with its unit, the
sample count and the error rate; ``--trace`` adds the traced runs and their
per-layer metrics.  Exits 1 if any run fails or reports a failed solve.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        print(f"{workload} (trace {trace}) exited {done.returncode}:\n{done.stderr}",
              file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    status = 0
    for trace, group in ((0, "end_to_end"), (1, "per_layer"))[:1 + args.trace]:
        results = {name: run_one(name, args.seed, args.seconds, trace) for name in names}
        rows = [("samples (solves attempted)", "count",
                 {n: r["attempted"] for n, r in results.items() if r}),
                ("error_rate (failed / attempted)", "ratio",
                 {n: r["failed"] / r["attempted"] for n, r in results.items() if r})]
        rows += [(m["name"], m["unit"],
                  {n: r["metrics"][m["name"]]["value"] for n, r in results.items() if r})
                 for m in spec[group]]
        print(f"\n{group} (seed {args.seed}, {args.seconds} s per run)")
        print(f"{'metric':42s} {'unit':8s}" + "".join(f"{n:>16s}" for n in names))
        for metric, unit, values in rows:
            cells = "".join(f"{values[n]:16.6g}" if n in values else f"{'-':>16s}"
                            for n in names)
            print(f"{metric:42s} {unit:8s}{cells}")
        if any(r is None or r["failed"] for r in results.values()):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
