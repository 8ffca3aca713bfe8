"""Seeded QBD problems whose recurrence class is fixed by construction.

The benchmark owns this generator so that a change to the library cannot
change its inputs.  Every repeating row is split into down, local and up
mass; the class follows from how those masses compare:

* positive recurrent: every row moves down more often than up, so the drift
  theta^T (A1 - A_neg) 1 is at most -0.04;
* transient: a positive recurrent draw with A1 and A_neg exchanged, which
  leaves A_neg + A0 + A1 (hence theta) unchanged and flips the drift sign;
* null recurrent: A1 = A_neg, so the drift is exactly zero;
* near-critical positive recurrent: a positive recurrent draw with mass
  moved between A1 and A_neg.  With A1' = (1 - t) A1 + t A_neg and
  A_neg' = (1 - t) A_neg + t A1 the sum is unchanged and the drift scales
  by 1 - 2t, which hits a target drift exactly.

The drift of every draw is recomputed here with plain numpy and checked
against the construction.

Right-hand sides:

* recurrent chains get g = (I - P) h with h supported on levels 0 ... N-1,
  so h + c 1 is an exact reference solution and pi^T g = 0;
* transient chains get g on level 0 only.  Then y* = 0 and the library's
  default y_free = 0 selects the bounded solution u_r = G^r x.  This steps
  around the open defect that y_free = 0 is not the bounded choice when
  y* != 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PR = "PositiveRecurrent"
TR = "Transient"
NR = "NullRecurrent"
NEAR = "NearCritical"

KINDS = (PR, TR, NR, NEAR)

# class the solver must report for each construction
EXPECTED_CLASS = {PR: PR, TR: TR, NR: NR, NEAR: PR}

NEAR_DRIFT_RANGE = (1e-5, 1e-3)
_MIN_DIRECTIONAL_DRIFT = 0.04


@dataclass(frozen=True)
class Blocks:
    """Transition blocks of one QBD: level 0 block B, then A_neg, A0, A1."""

    B: np.ndarray
    A_neg: np.ndarray
    A0: np.ndarray
    A1: np.ndarray

    @property
    def m(self) -> int:
        return self.A0.shape[0]


@dataclass(frozen=True)
class Problem:
    """One generated input.

    ``h`` holds the reference solution on levels 0 ... N-1 (zero beyond) for
    recurrent chains, and is None for transient chains.
    """

    kind: str
    blocks: Blocks
    g: np.ndarray
    h: np.ndarray | None

    @property
    def expected_class(self) -> str:
        return EXPECTED_CLASS[self.kind]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one (seed, stream...) key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


def drift(blocks: Blocks) -> float:
    """theta^T (A1 - A_neg) 1, theta the stationary vector of A_neg + A0 + A1."""
    return _drift(blocks.A_neg, blocks.A0, blocks.A1)


def _drift(A_neg: np.ndarray, A0: np.ndarray, A1: np.ndarray) -> float:
    S = A_neg + A0 + A1
    m = S.shape[0]
    # bordered system: theta^T (I - S + 1 1^T / m) = 1^T / m
    border = np.full((m, m), 1.0 / m)
    theta = np.linalg.solve((np.eye(m) - S + border).T, np.full(m, 1.0 / m))
    theta /= theta.sum()
    return float(theta @ (A1 - A_neg).sum(axis=1))


def _rows(rng: np.random.Generator, mass: np.ndarray) -> np.ndarray:
    """Strictly positive m x m block whose row i sums to mass[i]."""
    raw = rng.uniform(0.05, 1.0, size=(mass.size, mass.size))
    return raw * (mass / raw.sum(axis=1))[:, None]


def _boundary(rng: np.random.Generator, A1: np.ndarray) -> np.ndarray:
    """Positive level-0 block B with B + A1 stochastic."""
    return _rows(rng, 1.0 - A1.sum(axis=1))


def draw_blocks(rng: np.random.Generator, m: int, kind: str) -> Blocks:
    """Blocks of the requested construction class; the drift is checked."""
    down = rng.uniform(0.2, 0.45, size=m)
    if kind == NR:
        up = down
    else:
        up = down * rng.uniform(0.3, 0.8, size=m)
    A_neg = _rows(rng, down)
    A1 = A_neg.copy() if kind == NR else _rows(rng, up)
    A0 = _rows(rng, 1.0 - down - up)
    target = None
    if kind == TR:
        A_neg, A1 = A1, A_neg
    elif kind == NEAR:
        d0 = _drift(A_neg, A0, A1)
        lo, hi = np.log(NEAR_DRIFT_RANGE[0]), np.log(NEAR_DRIFT_RANGE[1])
        target = -float(np.exp(rng.uniform(lo, hi)))
        t = 0.5 * (1.0 - target / d0)
        A_neg, A1 = (1.0 - t) * A_neg + t * A1, (1.0 - t) * A1 + t * A_neg
    blocks = Blocks(B=_boundary(rng, A1), A_neg=A_neg, A0=A0, A1=A1)
    _check_drift(blocks, kind, target)
    return blocks


def _check_drift(blocks: Blocks, kind: str, target: float | None) -> None:
    d = drift(blocks)
    ok = {
        PR: d <= -_MIN_DIRECTIONAL_DRIFT,
        TR: d >= _MIN_DIRECTIONAL_DRIFT,
        NR: d == 0.0,
        NEAR: target is not None and abs(d - target) <= 1e-6 * abs(target),
    }[kind]
    if not ok:
        raise AssertionError(f"generator produced drift {d!r} for a {kind} draw "
                             f"(target {target!r})")


def apply_i_minus_p(blocks: Blocks, u: np.ndarray) -> np.ndarray:
    """(I - P) u on levels 0 ... len(u) - 1, with u_r = 0 beyond the array.

    Level r of (I - P) u is u_r - A_neg u_{r-1} - A0 u_r - A1 u_{r+1}, with
    B in place of A0 and no down term on level 0.
    """
    out = u - u @ blocks.A0.T
    out[0] = u[0] - blocks.B @ u[0]
    out[1:] -= u[:-1] @ blocks.A_neg.T
    out[:-1] -= u[1:] @ blocks.A1.T
    return out


def draw_rhs(rng: np.random.Generator, blocks: Blocks, kind: str, N: int
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """(g, h): g has N + 1 level blocks; h is the reference (None if transient)."""
    m = blocks.m
    if kind == TR:
        g = np.zeros((N + 1, m))
        g[0] = rng.normal(size=m)
        return g, None
    h = rng.normal(size=(N, m))
    padded = np.vstack([h, np.zeros((1, m))])   # h_N = 0 closes the support
    return apply_i_minus_p(blocks, padded), h


def make_problem(rng: np.random.Generator, m: int, N: int, kind: str) -> Problem:
    blocks = draw_blocks(rng, m, kind)
    g, h = draw_rhs(rng, blocks, kind, N)
    return Problem(kind=kind, blocks=blocks, g=g, h=h)


def with_new_rhs(rng: np.random.Generator, problem: Problem) -> Problem:
    """The same blocks with a freshly drawn right-hand side."""
    g, h = draw_rhs(rng, problem.blocks, problem.kind, problem.g.shape[0] - 1)
    return Problem(kind=problem.kind, blocks=problem.blocks, g=g, h=h)


def problem_document(problem: Problem) -> dict:
    """The CLI's problem document; floats round-trip exactly through JSON."""
    b = problem.blocks
    return {"m": b.m, "B": b.B.tolist(), "A_minus": b.A_neg.tolist(),
            "A0": b.A0.tolist(), "A1": b.A1.tolist(), "g": problem.g.tolist()}
