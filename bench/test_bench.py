"""Tests of the benchmark itself: generator, correctness check, smoke runs.

Run from the root of the repository:  python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import problems
import spans
import workloads
from problems import KINDS, NEAR, NR, PR, TR
from qbdpoisson import QbdModel, RhsSpec, SolveOptions, solve_poisson

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def explicit_i_minus_p(blocks: problems.Blocks, levels: int) -> np.ndarray:
    """I - P on levels 0 ... levels-1 as one dense matrix (truncated above)."""
    m = blocks.m
    P = np.zeros((levels * m, levels * m))
    for r in range(levels):
        rows = slice(r * m, (r + 1) * m)
        P[rows, rows] = blocks.B if r == 0 else blocks.A0
        if r > 0:
            P[rows, (r - 1) * m:r * m] = blocks.A_neg
        if r + 1 < levels:
            P[rows, (r + 1) * m:(r + 2) * m] = blocks.A1
    return np.eye(levels * m) - P


def solve(problem, **options):
    b = problem.blocks
    model = QbdModel(B=b.B, A_neg=b.A_neg, A0=b.A0, A1=b.A1)
    return solve_poisson(model, RhsSpec(problem.g),
                         SolveOptions(R_max=workloads.R_MAX, **options))


@pytest.mark.parametrize("kind", KINDS)
def test_generator_identity(kind):
    N = 6
    problem = problems.make_problem(problems.rng_for(5, 1, 0), 3, N, kind)
    b = problem.blocks
    assert all(np.all(block > 0) for block in (b.B, b.A_neg, b.A0, b.A1))
    assert np.allclose((b.B + b.A1).sum(axis=1), 1.0, atol=1e-15)
    assert np.allclose((b.A_neg + b.A0 + b.A1).sum(axis=1), 1.0, atol=1e-15)
    assert problem.g.shape == (N + 1, 3)
    if kind == TR:
        assert problem.h is None and not np.any(problem.g[1:])
        assert problems.drift(b) >= 0.04
        return
    # one level beyond the support, so truncation does not touch (I - P) h
    h = np.vstack([problem.h, np.zeros((2, 3))])
    g = explicit_i_minus_p(b, N + 2) @ h.reshape(-1)
    assert np.allclose(g.reshape(N + 2, 3)[:N + 1], problem.g, atol=1e-14)
    assert np.all(g[-3:] == 0.0)
    expected = {PR: lambda d: d <= -0.04, NR: lambda d: d == 0.0,
                NEAR: lambda d: -1e-3 <= d <= -1e-5}[kind]
    assert expected(problems.drift(b))


def test_generator_is_deterministic():
    one = problems.make_problem(problems.rng_for(9, 1, 4), 4, 3, NEAR)
    two = problems.make_problem(problems.rng_for(9, 1, 4), 4, 3, NEAR)
    other = problems.make_problem(problems.rng_for(10, 1, 4), 4, 3, NEAR)
    assert np.array_equal(one.g, two.g) and np.array_equal(one.blocks.A1, two.blocks.A1)
    assert not np.array_equal(one.g, other.g)


@pytest.mark.parametrize("kind", KINDS)
def test_check_accepts_solver_output(kind):
    problem = problems.make_problem(problems.rng_for(2, 1, 0), 4, 5, kind)
    sol = solve(problem)
    verdict = checks.check(problem, sol.u, sol.classification.value)
    assert verdict.ok, verdict.reason
    assert verdict.residual < checks.RESIDUAL_TOL
    assert (verdict.reference is None) == (kind == TR)


@pytest.mark.parametrize("kind", (PR, TR, NR))
def test_check_rejects_bad_solutions(kind):
    problem = problems.make_problem(problems.rng_for(3, 1, 0), 4, 5, kind)
    sol = solve(problem)
    cls = sol.classification.value

    perturbed = sol.u.copy()
    perturbed[7, 1] += 1e-6
    assert not checks.check(problem, perturbed, cls).ok

    nan = sol.u.copy()
    nan[3, 0] = np.nan
    verdict = checks.check(problem, nan, cls)
    assert not verdict.ok and "non-finite" in verdict.reason

    wrong = TR if cls != TR else PR
    verdict = checks.check(problem, sol.u, wrong)
    assert not verdict.ok and "class" in verdict.reason


def test_check_rejects_growing_transient_solution():
    # y_free != 0 adds a growing homogeneous component: the level equations
    # still hold, so only the decay check can see it
    problem = problems.make_problem(problems.rng_for(4, 1, 0), 4, 5, TR)
    p = solve(problem).y.shape[0]
    grown = solve(problem, y_free=tuple(np.full(p, 1e-6)))
    verdict = checks.check(problem, grown.u, grown.classification.value)
    assert verdict.residual < checks.RESIDUAL_TOL
    assert not verdict.ok and "rises" in verdict.reason


def test_self_times_add_up():
    rows = [["bench.solve", 0, 100, -1, 0, False, 0],
            ["poisson.solve_poisson", 10, 90, 0, 0, False, 0],
            ["qme.solve_model", 20, 50, 1, 0, False, 0],
            ["linalg.condition_number", 30, 35, 2, 0, False, 0],
            ["triple.w_series", 60, 70, 1, 0, True, 0]]
    summary = spans.summarize(rows)
    layers = summary["layers"]
    assert layers["poisson"]["self_ns"] == 80 - 30 - 10
    assert layers["qme"]["self_ns"] == 25
    assert layers["linalg"]["self_ns"] == 5
    assert layers["triple"]["errors"] == 1
    total = sum(v["self_ns"] for v in layers.values()) + summary["root_self_ns"]
    assert total == summary["root_ns"] == 100


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", (False, True))
def test_smoke_run(name, trace, tmp_path):
    record = workloads.run(name, seed=3, seconds=0.01, trace=trace,
                           src=HERE.parent / "src", out_dir=tmp_path, min_solves=4)
    assert record["attempted"] >= 4
    assert record["failed"] == 0, record["failures"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        value, unit = record["metrics"][metric["name"]]
        assert unit == metric["unit"] and np.isfinite(value)
    if trace:
        totals = record["trace_totals_ns"]
        assert totals["layers_self"] + totals["unattributed"] == totals["solve"]
        assert (tmp_path / f"spans-{name}-seed3.jsonl").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wide_phase", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
