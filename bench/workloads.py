"""The benchmark's workloads and the closed loop that measures them.

One caller in one process issues each solve when the previous one has
returned.  Inputs come from :mod:`problems`, keyed by the seed and the solve
index, so a seed fixes the input sequence.  Input generation and the
correctness check run outside the timed region.

Workloads (why each exists is recorded in BENCHMARK.json as well):

* ``wide_phase``: ``solve_poisson`` on a fresh m = 64 model per solve, in
  equal quarters positive recurrent, transient, null recurrent and
  near-critical positive recurrent.  The O(m^3) stages that do not depend on
  g dominate.
* ``long_horizon``: ``qbdpoisson solve --levels 1000`` through ``cli.run`` on
  m = 8 problem files, in thirds PR / TR / NR.  Per-level work (level
  evaluation, residuals, JSON/CSV output) dominates; the only workload that
  reaches ``load_problem`` and the CLI.
* ``shared_model``: ``solve_poisson`` on three m = 32 models (PR, TR, NR),
  each solved for RHS_PER_MODEL consecutive right-hand sides on the same
  ``QbdModel`` object.  Same layers as wide_phase, but the g-independent
  work repeats unchanged from one solve to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import problems
import spans
from calibration import Calibration
from problems import KINDS, NR, PR, TR
from qbdpoisson import (QbdModel, RhsSpec, cli, model, poisson, qme, shift,
                        spectral, triple, verify)

MODULES = {"model": model, "qme": qme, "spectral": spectral, "triple": triple,
           "poisson": poisson, "shift": shift, "verify": verify, "cli": cli}

N_LEVELS = 20            # g has blocks g_0 ... g_N
R_MAX = 30               # levels evaluated by the API workloads
CLI_LEVELS = 1000        # levels evaluated by long_horizon
RHS_PER_MODEL = 20       # consecutive right-hand sides per shared model

MIN_SOLVES = 100         # so that at least ten samples lie beyond p90
MAX_LOOP_S = 120.0       # hard stop for the measured loop
SETUP_REPEATS = 5

TIMED_STREAM = 1         # problems.rng_for(seed, stream, ...) keys
WARMUP_STREAM = 0
MODEL_STREAM = 2


def _plain(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class _Workload:
    """Inputs of one workload: kind i % len(kinds) for solve i."""

    m: int
    kinds: tuple
    levels = R_MAX + 1           # levels per solve, for the calibration kernel
    calibration_ms: float        # the kernel's reference time (calibration.py)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def prepare(self) -> None:
        """Input preparation that belongs to set-up."""

    def problem(self, stream: int, i: int):
        return problems.make_problem(problems.rng_for(self.seed, stream, i), self.m,
                                     N_LEVELS, self.kinds[i % len(self.kinds)])

    def warmup_problems(self, rep: int):
        """One input of each kind, distinct for every set-up repetition."""
        n = len(self.kinds)
        return [self.problem(WARMUP_STREAM, rep * n + k) for k in range(n)]


class _ApiWorkload(_Workload):
    """solve_poisson called in-process."""

    options = poisson.SolveOptions(R_max=R_MAX)

    def solve(self, problem, span):
        """Timed part: what a library user runs for one right-hand side."""
        rhs = span("model.RhsSpec", RhsSpec, problem.g)
        return poisson.solve_poisson(self.model_for(problem, span), rhs, self.options)

    def outcome(self, problem, sol):
        """(u, reported class, bytes written) of a returned solve."""
        return sol.u, sol.classification.value, 0


class WidePhase(_ApiWorkload):
    m = 64
    kinds = KINDS
    calibration_ms = 5.0

    def model_for(self, problem, span):
        b = problem.blocks
        return span("model.QbdModel", QbdModel, B=b.B, A_neg=b.A_neg, A0=b.A0, A1=b.A1)


class SharedModel(_ApiWorkload):
    m = 32
    kinds = (PR, TR, NR)
    calibration_ms = 2.5

    def prepare(self) -> None:
        self.bases = [problems.make_problem(problems.rng_for(self.seed, MODEL_STREAM, k),
                                            self.m, N_LEVELS, kind)
                      for k, kind in enumerate(self.kinds)]
        self.models = {id(base.blocks): QbdModel(
            B=base.blocks.B, A_neg=base.blocks.A_neg, A0=base.blocks.A0,
            A1=base.blocks.A1) for base in self.bases}

    def problem(self, stream: int, i: int):
        """A fresh right-hand side on model (i // RHS_PER_MODEL) % 3."""
        base = self.bases[(i // RHS_PER_MODEL) % len(self.bases)]
        return problems.with_new_rhs(problems.rng_for(self.seed, stream, i), base)

    def warmup_problems(self, rep: int):
        n = len(self.bases)
        return [self.problem(WARMUP_STREAM, (rep * n + k) * RHS_PER_MODEL)
                for k in range(n)]

    def model_for(self, problem, span):
        return self.models[id(problem.blocks)]


class LongHorizon(_Workload):
    """``qbdpoisson solve`` run in-process through ``cli.run``."""

    m = 8
    kinds = (PR, TR, NR)
    levels = CLI_LEVELS + 1
    calibration_ms = 20.0

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.input_path = out_dir / "long_horizon.problem.json"
        base = out_dir / "long_horizon.solution"
        self.argv = ["solve", "--levels", str(CLI_LEVELS), "-o", str(base),
                     str(self.input_path)]
        self.outputs = (base.with_name(base.name + ".json"),
                        base.with_name(base.name + ".csv"))

    def problem(self, stream: int, i: int):
        """The generated input, also written out as the CLI's problem file."""
        prob = super().problem(stream, i)
        self.input_path.write_text(json.dumps(problems.problem_document(prob)),
                                   encoding="utf-8")
        return prob

    def solve(self, problem, span):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(self.argv)
        return code, err.getvalue()

    def outcome(self, problem, result):
        code, err = result
        if code != 0:
            raise RuntimeError(f"cli exit {code}: {err.strip()}")
        doc = json.loads(self.outputs[0].read_text(encoding="utf-8"))
        nbytes = sum(path.stat().st_size for path in self.outputs)
        return doc["u"], doc["class"], nbytes


WORKLOADS = {"wide_phase": WidePhase, "long_horizon": LongHorizon,
             "shared_model": SharedModel}


def import_seconds(src: Path) -> float:
    """Time to import the package (CLI included) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import qbdpoisson, qbdpoisson.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip())


def _timed(fn, *args):
    """(elapsed ns, fn's result or the exception it raised)."""
    start = time.perf_counter_ns()
    try:
        result = fn(*args)
    except Exception as exc:          # a failed solve is counted, not fatal
        result = exc
    return time.perf_counter_ns() - start, result


def _traced_solve(tracer, workload, prob, i):
    """A timed solve with the tracer installed, under one root span."""
    tracer.solve_id = i
    tracer.install()
    try:
        return _timed(tracer.call, spans.ROOT, workload.solve, prob, tracer.call)
    finally:
        tracer.remove()


def _verdict(workload, problem, result):
    """(checks.Verdict, bytes written) for one solve's result."""
    if isinstance(result, Exception):
        return checks.Verdict(False, f"{type(result).__name__}: {result}",
                              math.inf, None), 0
    try:
        u, cls, nbytes = workload.outcome(problem, result)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        return checks.Verdict(False, f"{type(exc).__name__}: {exc}", math.inf, None), 0
    return checks.check(problem, u, cls), nbytes


def _running_median3(values) -> np.ndarray:
    """Centred running median of three; the kernel runs after solves i - 1
    and i bracket solve i, and the median drops a single noisy kernel run."""
    v = np.asarray(values, dtype=float)
    padded = np.concatenate([v[:1], v, v[-1:]])
    return np.median(np.stack([padded[:-2], padded[1:-1], padded[2:]]), axis=0)


def _digits(worst: float) -> float:
    """-log10 of a worst relative error, clamped to a finite number."""
    return -math.log10(min(max(worst, 1e-17), 1e17))


def run(name: str, seed: int, seconds: float, trace: bool, src: Path,
        out_dir: Path, min_solves: int = MIN_SOLVES) -> dict:
    """Set up, run the closed loop, check every solve, and derive metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, out_dir)

    # set-up is dominated by the import in a fresh interpreter, which the
    # calibration kernel does not track, so set-up times are reported raw
    setups = []
    for rep in range(SETUP_REPEATS):
        imported = import_seconds(src)
        start = time.perf_counter()
        workload.prepare()
        for prob in workload.warmup_problems(rep):
            _timed(workload.solve, prob, _plain)
        setups.append(imported + time.perf_counter() - start)

    tracer = spans.Tracer(MODULES) if trace else None
    if tracer is None:
        calibrate = Calibration(workload.m, workload.levels)
        for _ in range(3):
            calibrate()
    latencies, untraced_ns, calibrations, failures, sizes = [], [], [], [], []
    worst_residual = worst_reference = 0.0
    nr_solves = 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_solves) or elapsed >= MAX_LOOP_S:
            break
        prob = workload.problem(TIMED_STREAM, i)
        if tracer is None:
            ns, result = _timed(workload.solve, prob, _plain)
            calibrations.append(calibrate())
        else:
            # untraced and traced solve of the same input, in alternating order
            if i % 2:
                plain_ns, _ = _timed(workload.solve, prob, _plain)
            ns, result = _traced_solve(tracer, workload, prob, i)
            if not i % 2:
                plain_ns, _ = _timed(workload.solve, prob, _plain)
            untraced_ns.append(plain_ns)
        verdict, nbytes = _verdict(workload, prob, result)
        latencies.append(ns)
        sizes.append(nbytes)
        nr_solves += prob.kind == NR
        if not verdict.ok:
            failures.append({"solve": i, "kind": prob.kind, "reason": verdict.reason})
        if math.isfinite(verdict.residual):
            worst_residual = max(worst_residual, verdict.residual)
        if verdict.reference is not None:
            worst_reference = max(worst_reference, verdict.reference)
        i += 1

    attempted = len(latencies)
    correct = attempted - len(failures)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "tolerances": {"residual": checks.RESIDUAL_TOL,
                       "reference": checks.REFERENCE_TOL,
                       "decay": checks.DECAY_TOL},
        "setup_samples_s": setups,
    }
    if tracer is None:
        # a solve time t measured beside kernel runs of k ns is reported as
        # t * reference / k: its time at the machine speed where the kernel
        # takes its reference time (see calibration.py)
        raw_ms = np.array(latencies) / 1e6
        lat_ms = raw_ms * workload.calibration_ms * 1e6 / _running_median3(calibrations)
        record["calibration_ms"] = {"reference": workload.calibration_ms,
                                    "median": statistics.median(calibrations) / 1e6}
        record["raw"] = {"solves_per_s": correct / (raw_ms.sum() / 1e3),
                         "solve_ms_p50": float(np.percentile(raw_ms, 50)),
                         "solve_ms_p90": float(np.percentile(raw_ms, 90))}
        record["metrics"] = {
            "solves_per_s": (correct / (lat_ms.sum() / 1e3), "1/s"),
            "solve_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
            "solve_ms_p90": (float(np.percentile(lat_ms, 90)), "ms"),
            "success_rate": (correct / attempted, "ratio"),
            "residual_digits": (_digits(worst_residual), "digits"),
            "reference_digits": (_digits(worst_reference), "digits"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    else:
        summary = spans.summarize(tracer.spans)
        record["metrics"] = _layer_metrics(summary, attempted, nr_solves,
                                           sum(sizes), sum(latencies), sum(untraced_ns))
        record["trace_totals_ns"] = {
            "solve": summary["root_ns"],
            "layers_self": sum(v["self_ns"] for v in summary["layers"].values()),
            "unattributed": summary["root_self_ns"],
        }
        tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    return record


def _layer_metrics(summary: dict, solves: int, nr_solves: int, nbytes: int,
                   traced_ns: int, untraced_ns: int) -> dict:
    names, layers = summary["names"], summary["layers"]
    empty = {"calls": 0, "ns": 0, "raised": 0, "levels": 0}

    def per_solve_calls(key, count=solves):
        return names.get(key, empty)["calls"] / max(count, 1)

    def ms_per_solve(ns):
        return ns / solves / 1e6

    def levels_per_s(key):
        entry = names.get(key, empty)
        return entry["levels"] / (entry["ns"] / 1e9) if entry["ns"] else 0.0

    out = {}
    for layer, value in layers.items():
        if layer == "cli":
            # a share, not a time: the API workloads never reach the CLI
            share = 100.0 * value["self_ns"] / summary["root_ns"]
            out["cli.self_pct"] = (share, "%")
        else:
            out[f"{layer}.self_ms"] = (ms_per_solve(value["self_ns"]), "ms")
        out[f"{layer}.errors"] = (value["errors"], "count")
    w = names.get("triple.w_series", empty)
    cond = names.get("linalg.condition_number", empty)
    out.update({
        "triple.w_series.ms": (ms_per_solve(w["ns"]), "ms"),
        "triple.w_series.converged_ratio":
            ((w["calls"] - w["raised"]) / w["calls"] if w["calls"] else 0.0, "ratio"),
        "linalg.cond.calls": (per_solve_calls("linalg.condition_number"), "count"),
        "linalg.cond.ms": (ms_per_solve(cond["ns"]), "ms"),
        "qme.solve_model.calls": (per_solve_calls("qme.solve_model"), "count"),
        "spectral.split.calls": (per_solve_calls("spectral.split"), "count"),
        "triple.compute_w.calls": (per_solve_calls("triple.compute_w"), "count"),
        "shift.right_shift.calls":
            (per_solve_calls("shift.right_shift", nr_solves), "count"),
        "qme.drift.calls": (per_solve_calls("qme.drift"), "count"),
        "poisson.compute_y_star.calls": (per_solve_calls("poisson.compute_y_star"),
                                         "count"),
        "poisson.evaluate_u_sequence.levels_per_s":
            (levels_per_s("poisson.evaluate_u_sequence"), "1/s"),
        "verify.residuals.levels_per_s": (levels_per_s("verify.residuals"), "1/s"),
        "cli.bytes_written": (nbytes / solves, "bytes"),
        "trace.solve_ms": (ms_per_solve(summary["root_ns"]), "ms"),
        "trace.unattributed_ms": (ms_per_solve(summary["root_self_ns"]), "ms"),
        "trace_overhead_pct": (100.0 * (traced_ns / untraced_ns - 1.0), "%"),
    })
    return out
