"""Span recording around calls into the library's modules.

Nothing in the library is edited: :class:`Tracer` replaces module attributes
with timing wrappers while it is installed and puts the originals back when
it is removed.  A call made through a replaced name records one span (name,
start, end, parent, solve id, whether it raised, and a level count for the
level-wise functions); the layer is the name's first component.  Spans are kept in memory and written out once,
at the end of the run; the per-layer figures are derived from them.

Each layer's self time is the duration of its spans minus the time covered
by their child spans, so the self times of all layers plus the root span's
own self time add up to the traced solve time exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("model", "qme", "spectral", "triple", "poisson", "shift", "verify",
          "cli", "linalg")
ROOT = "bench.solve"

# (module, attribute, span name).  A name imported with ``from ... import``
# is a separate binding in every importing module, so each binding is
# wrapped where the calls look it up.  norm_inf and as_readonly are too
# fine-grained to wrap; their cost stays in the caller's self time.
TARGETS = (
    ("model", "validate", "model.validate"),
    ("cli", "load_problem", "model.load_problem"),
    ("qme", "solve_model", "qme.solve_model"),
    ("qme", "drift", "qme.drift"),
    ("qme", "stationary", "qme.stationary"),
    ("spectral", "split", "spectral.split"),
    ("triple", "compute_w", "triple.compute_w"),
    ("triple", "w_series", "triple.w_series"),
    ("poisson", "solve_poisson", "poisson.solve_poisson"),
    ("poisson", "compute_sigma", "poisson.compute_sigma"),
    ("poisson", "compute_y_star", "poisson.compute_y_star"),
    ("poisson", "group_inverse", "poisson.group_inverse"),
    ("poisson", "evaluate_u_sequence", "poisson.evaluate_u_sequence"),
    ("shift", "right_shift", "shift.right_shift"),
    ("shift", "solve_null_recurrent", "shift.solve_null_recurrent"),
    ("verify", "residuals", "verify.residuals"),
    ("cli", "run", "cli.run"),
    *((mod, "condition_number", "linalg.condition_number")
      for mod in ("qme", "triple", "poisson", "shift", "verify")),
    *((mod, "spectral_radius", "linalg.spectral_radius")
      for mod in ("qme", "triple", "shift")),
    *((mod, "stationary_vector", "linalg.stationary_vector")
      for mod in ("qme", "poisson")),
    ("shift", "unit_eigenvector", "linalg.unit_eigenvector"),
)

# level counts of the level-wise functions, taken from their results
_LEVELS = {
    "poisson.evaluate_u_sequence": lambda result: result.shape[0],
    "verify.residuals": lambda report: len(report.interior_residuals) + 2,
}


class Tracer:
    """Records spans of calls into the library while installed.

    ``modules`` maps the short module names of :data:`TARGETS` to the
    imported library modules.
    """

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        # rows of [name, start_ns, end_ns, parent index, solve id, raised, levels]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.solve_id = -1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, span_name in TARGETS:
            module = self._modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        row = [name, 0, 0, stack[-1] if stack else -1, self.solve_id, False, 0]
        spans.append(row)
        stack.append(index)
        row[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            row[2] = time.perf_counter_ns()
            row[5] = True
            raise
        finally:
            stack.pop()
        row[2] = time.perf_counter_ns()
        levels = _LEVELS.get(name)
        if levels is not None:
            row[6] = levels(result)
        return result

    def _wrap(self, name: str, fn):
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        keys = ("name", "start_ns", "end_ns", "parent", "solve", "raised", "levels")
        with path.open("w", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(dict(zip(keys, row))) + "\n")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict:
    """Totals per span name and per layer, derived from the span rows.

    Returns ``{"names": {name: {calls, ns, raised, levels}},
    "layers": {layer: {self_ns, errors}}, "root_ns", "root_self_ns"}``.
    A layer error is a span that raised into a caller of another layer (or
    into the benchmark), so an exception caught inside its own layer, such as
    the W series giving up inside compute_w, is not counted as one.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "raised": 0,
                                                  "levels": 0})
    layers = {layer: {"self_ns": 0, "errors": 0} for layer in LAYERS}
    root_ns = root_self_ns = 0
    for index, (name, start, end, parent, _solve, raised, levels) in enumerate(spans):
        duration = end - start
        own = duration - child_ns[index]
        if name == ROOT:
            root_ns += duration
            root_self_ns += own
            continue
        entry = names[name]
        entry["calls"] += 1
        entry["ns"] += duration
        entry["raised"] += int(raised)
        entry["levels"] += levels
        layer = layer_of(name)
        layers[layer]["self_ns"] += own
        if raised and (parent < 0 or layer_of(spans[parent][0]) != layer):
            layers[layer]["errors"] += 1
    return {"names": dict(names), "layers": layers, "root_ns": root_ns,
            "root_self_ns": root_self_ns}
