"""Correctness check of one solve, independent of the library's own reports.

The library's ``diagnostics.passed`` scales its tolerance by the largest
block of the whole solution, so a blown-up solution can pass it.  This check
scales each level equation by the blocks it touches instead, and compares
against the reference the generator built in:

* recurrent inputs: u must equal h + c 1 for one constant c;
* transient inputs (g on level 0 only): the bounded solution is u_r = G^r x
  with G nonnegative and substochastic, so ||u_r||_inf cannot increase with
  r.  A growing homogeneous component shows up as an increase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from problems import TR, Problem

# The worst values seen over several thousand generated inputs were 2.5e-13
# for the scaled residual and 3e-11 for the reference distance, both at
# drift near -1e-5; the tolerances sit 40x and 300x above them.
RESIDUAL_TOL = 1e-11
REFERENCE_TOL = 1e-8
DECAY_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    residual: float          # worst scaled level residual
    reference: float | None  # distance from the reference (recurrent only)


def scaled_residuals(problem: Problem, u: np.ndarray) -> np.ndarray:
    """Level residuals of (I - P) u = g, each scaled by 1 + the norms of the
    blocks it involves.  Entry 0 is the boundary equation, entry r + 1 the
    interior equation A_neg u_r + (A0 - I) u_{r+1} + A1 u_{r+2} = -g_{r+1}.
    """
    b = problem.blocks
    levels = u.shape[0]
    g = np.zeros_like(u)
    n = min(levels, problem.g.shape[0])
    g[:n] = problem.g[:n]
    norms = np.abs(u).max(axis=1)
    boundary = u[0] - b.B @ u[0] - b.A1 @ u[1] - g[0]
    interior = (u[1:-1] - u[1:-1] @ b.A0.T - u[:-2] @ b.A_neg.T
                - u[2:] @ b.A1.T - g[1:-1])
    out = np.empty(levels - 1)
    out[0] = np.abs(boundary).max() / (1.0 + norms[0] + norms[1])
    out[1:] = np.abs(interior).max(axis=1) / (
        1.0 + norms[:-2] + norms[1:-1] + norms[2:])
    return out


def reference_distance(problem: Problem, u: np.ndarray) -> float:
    """max |u - h - c 1| relative to 1 + |c| + max |h|, the scale of the exact
    solution.  c is the median offset, which is exact when u = h + c 1; it
    grows like 1 / |drift| near the null band."""
    h = np.zeros_like(u)
    n = min(u.shape[0], problem.h.shape[0])
    h[:n] = problem.h[:n]
    offset = u - h
    c = float(np.median(offset))
    return float(np.abs(offset - c).max()) / (1.0 + abs(c) + float(np.abs(problem.h).max()))


def check(problem: Problem, u, reported_class: str) -> Verdict:
    """Verdict on one solution: finite, right class, residual and reference."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != problem.blocks.m or u.shape[0] < 3:
        return Verdict(False, f"solution has shape {u.shape}", np.inf, None)
    if not np.all(np.isfinite(u)):
        return Verdict(False, "non-finite solution", np.inf, None)
    residual = float(scaled_residuals(problem, u).max())
    reference = None
    reasons = []
    if reported_class != problem.expected_class:
        reasons.append(f"class {reported_class}, constructed {problem.expected_class}")
    if residual > RESIDUAL_TOL:
        reasons.append(f"scaled residual {residual:.3e} > {RESIDUAL_TOL:g}")
    if problem.kind == TR:
        norms = np.abs(u).max(axis=1)
        rise = float(np.max(np.diff(norms))) / (1.0 + norms[0])
        if rise > DECAY_TOL:
            reasons.append(f"||u_r|| rises by {rise:.3e} (growing component)")
    else:
        reference = reference_distance(problem, u)
        if reference > REFERENCE_TOL:
            reasons.append(f"reference distance {reference:.3e} > {REFERENCE_TOL:g}")
    return Verdict(not reasons, "; ".join(reasons), residual, reference)
