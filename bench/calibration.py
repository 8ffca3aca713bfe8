"""A fixed reference computation, timed next to every solve.

The machine this benchmark was built on is a shared 2-vCPU VM (KVM, Xeon at
2.0 GHz) whose speed swings by 20-50 % within seconds, with the load of its
neighbours.  Over five 10-second runs, the spread between runs (quartile
distance over median) of raw solves_per_s was 18 % on wide_phase, and that
of raw solve_ms_p50 was 32 % on shared_model.  Dividing each solve's time by
the time of this kernel, run between solves, cut those spreads to 3 % and
4 %.  The benchmark reports times rescaled to the speed at which the kernel
takes a fixed reference time; the raw times go to the run's record.

The kernel mimics a solve's mix of work at the workload's phase count m and
level count: a few doubling steps of logarithmic reduction (small dense
LAPACK/BLAS calls), a Python loop with one small product per level, and JSON
encoding of a levels x m table.  Its inputs are fixed, so it does the same
work on every run and every commit; it shares no code with the library.
"""

from __future__ import annotations

import json
import time

import numpy as np

import problems

_DOUBLING_STEPS = 6


class Calibration:
    """Callable returning the elapsed nanoseconds of one kernel run."""

    def __init__(self, m: int, levels: int):
        b = problems.draw_blocks(problems.rng_for(0, 99), m, problems.PR)
        self.eye = np.eye(m)
        self.A0, self.A1, self.A_neg = b.A0, b.A1, b.A_neg
        self.levels = levels

    def run(self) -> str:
        eye = self.eye
        m = eye.shape[0]
        H = np.linalg.solve(eye - self.A0, self.A1)
        L = np.linalg.solve(eye - self.A0, self.A_neg)
        for _ in range(_DOUBLING_STEPS):
            U = H @ L + L @ H
            both = np.linalg.solve(eye - U, np.hstack([H @ H, L @ L]))
            H, L = both[:, :m], both[:, m:]
            H = H / np.abs(H).sum(axis=1).max()
            L = L / np.abs(L).sum(axis=1).max()
        x = np.ones(m)
        table = np.empty((self.levels, m))
        for r in range(self.levels):
            x = L @ x
            x = x / np.abs(x).max()
            table[r] = x
        return json.dumps(table.tolist(), indent=2)

    def __call__(self) -> int:
        start = time.perf_counter_ns()
        self.run()
        return time.perf_counter_ns() - start
