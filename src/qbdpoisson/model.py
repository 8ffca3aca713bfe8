"""QBD model and right-hand-side containers: parsing, serialization, validation.

The transition matrix acts on states (level, phase) and is block tridiagonal
with a repeating row of blocks::

    [ B     A1            ]
    [ A_neg A0   A1       ]
    [       A_neg A0  A1  ]
    [            ...  ... ]

``B`` is the local block at level 0; ``A_neg``, ``A0`` and ``A1`` are the
down, local and up blocks of the repeating levels.  The right-hand side of
the Poisson equation is a finitely supported sequence of level blocks
g_0, ..., g_N (implicitly zero beyond N).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._linalg import Array, as_readonly, norm_inf
from .exceptions import ModelValidationError

STOCHASTIC_TOL = 1e-12

_BLOCK_KEYS = ("B", "A_minus", "A0", "A1")


@dataclass(frozen=True)
class QbdModel:
    """Level-independent QBD transition blocks (m x m each, row-major).

    The container performs only shape coercion; structural invariants
    (entry range, row sums, irreducibility) are checked by :func:`validate`
    and enforced by :func:`load_problem`.  The blocks are read-only, so
    :func:`~qbdpoisson.poisson.solve_poisson` keeps its per-model plan on
    the instance (a private attribute outside the fields).
    """

    B: Array
    A_neg: Array
    A0: Array
    A1: Array

    def __post_init__(self):
        for name in ("B", "A_neg", "A0", "A1"):
            a = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, as_readonly(a))
        shapes = {getattr(self, n).shape for n in ("B", "A_neg", "A0", "A1")}
        if len(shapes) != 1:
            raise ModelValidationError(f"blocks have inconsistent shapes: {shapes}")
        (shape,) = shapes
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise ModelValidationError(f"blocks must be square matrices, got shape {shape}")

    @property
    def m(self) -> int:
        """Phase count."""
        return self.A0.shape[0]

    def repeating_sum(self) -> Array:
        """A_neg + A0 + A1, the phase process of the repeating levels."""
        return self.A_neg + self.A0 + self.A1


@dataclass(frozen=True)
class RhsSpec:
    """Finitely supported right-hand side g_0 ... g_N, one length-m vector per level."""

    blocks: Array

    def __post_init__(self):
        a = np.asarray(self.blocks, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ModelValidationError(
                f"rhs must be a nonempty list of equal-length vectors, got shape {a.shape}")
        object.__setattr__(self, "blocks", as_readonly(a))

    @property
    def N(self) -> int:
        """Index of the last explicitly stored block."""
        return self.blocks.shape[0] - 1

    @property
    def m(self) -> int:
        return self.blocks.shape[1]

    def block(self, k: int) -> Array:
        """g_k, with g_k = 0 for k > N."""
        if k < 0:
            raise IndexError(f"rhs block index must be nonnegative, got {k}")
        if k > self.N:
            return np.zeros(self.m)
        return self.blocks[k]


@dataclass(frozen=True)
class ValidationReport:
    """Report-only diagnostics for the structural model invariants."""

    failures: tuple[str, ...]
    warnings: tuple[str, ...]
    boundary_rowsum_residual: float
    repeating_rowsum_residual: float
    phase_graph_irreducible: bool
    truncation_irreducible: bool
    tol: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "warnings": list(self.warnings),
            "boundary_rowsum_residual": self.boundary_rowsum_residual,
            "repeating_rowsum_residual": self.repeating_rowsum_residual,
            "phase_graph_irreducible": self.phase_graph_irreducible,
            "truncation_irreducible": self.truncation_irreducible,
            "tol": self.tol,
        }


def _strongly_connected(a: Array) -> bool:
    graph = csr_matrix((a > 0.0).astype(np.int8))
    n_components, _ = connected_components(graph, directed=True, connection="strong")
    return int(n_components) == 1


def validate(model: QbdModel, tol: float = STOCHASTIC_TOL) -> ValidationReport:
    """Check the structural invariants and report residuals; never mutates.

    Failures: non-finite entries, entries outside [0, 1], row-sum residuals
    above ``tol`` for B + A1 (level 0) and A_neg + A0 + A1 (repeating
    levels; rows with a non-finite sum are left out), and a reducible phase
    graph of A_neg + A0 + A1.  A 3-level truncation of the full chain that
    is not strongly connected is reported as a warning only.
    """
    failures: list[str] = []
    warnings: list[str] = []
    m = model.m

    for name in ("B", "A_neg", "A0", "A1"):
        a = getattr(model, name)
        # NaN fails both comparisons, so it lands here too
        for i, j in np.argwhere(~((a >= -tol) & (a <= 1.0 + tol))):
            value = float(a[i, j])
            failures.append(f"{name}[{i},{j}] = {value!r} " + (
                "outside [0, 1]" if np.isfinite(value) else "is not finite"))

    boundary_rows = (model.B + model.A1).sum(axis=1)
    repeating_rows = model.repeating_sum().sum(axis=1)
    boundary_res, repeating_res = (norm_inf(rows[np.isfinite(rows)] - 1.0)
                                   for rows in (boundary_rows, repeating_rows))
    for i in np.flatnonzero(np.abs(boundary_rows - 1.0) > tol):
        failures.append(f"level-0 row {i} of B + A1 sums to {float(boundary_rows[i])!r}")
    for i in np.flatnonzero(np.abs(repeating_rows - 1.0) > tol):
        failures.append(
            f"repeating row {i} of A_neg + A0 + A1 sums to {float(repeating_rows[i])!r}")

    phase_irreducible = _strongly_connected(model.repeating_sum())
    if not phase_irreducible:
        failures.append("phase graph of A_neg + A0 + A1 is not strongly connected")

    zero = np.zeros((m, m))
    truncation = np.block([
        [model.B, model.A1, zero],
        [model.A_neg, model.A0, model.A1],
        [zero, model.A_neg, model.A0],
    ])
    truncation_irreducible = _strongly_connected(truncation)
    if not truncation_irreducible:
        warnings.append("3-level truncation of the chain is not strongly connected "
                        "(level graph cannot move both up and down)")

    return ValidationReport(
        failures=tuple(failures),
        warnings=tuple(warnings),
        boundary_rowsum_residual=boundary_res,
        repeating_rowsum_residual=repeating_res,
        phase_graph_irreducible=phase_irreducible,
        truncation_irreducible=truncation_irreducible,
        tol=tol,
    )


def _as_matrix(doc: dict, key: str, m: int) -> Array:
    try:
        a = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"field {key!r} is not a numeric matrix: {exc}") from exc
    if a.shape != (m, m):
        raise ModelValidationError(f"field {key!r} has shape {a.shape}, expected ({m}, {m})")
    return a


def parse_problem(document) -> tuple[QbdModel, RhsSpec]:
    """Parse a problem document without checking the model's invariants.

    ``document`` is a JSON text (or an already-decoded dict) of the form
    ``{"m": int, "B": [[...]], "A_minus": [[...]], "A0": [[...]],
    "A1": [[...]], "g": [[...], ...]}`` with row-major m x m matrices and a
    list of length-m right-hand-side vectors.

    Raises :class:`ModelValidationError` on parse failures, missing fields,
    wrong shapes and non-finite g, naming the field; blocks go to validate.
    """
    if isinstance(document, (bytes, bytearray)):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelValidationError(f"parse failure: {exc}") from exc
    elif isinstance(document, dict):
        doc = document
    else:
        raise ModelValidationError(f"unsupported document type {type(document).__name__}")

    missing = [repr(k) for k in ("m", *_BLOCK_KEYS, "g") if k not in doc]
    if missing:
        raise ModelValidationError(f"missing fields: {', '.join(missing)}")
    m = doc["m"]
    if not isinstance(m, int) or m < 1:
        raise ModelValidationError(f"field 'm' must be a positive integer, got {m!r}")

    model = QbdModel(
        B=_as_matrix(doc, "B", m),
        A_neg=_as_matrix(doc, "A_minus", m),
        A0=_as_matrix(doc, "A0", m),
        A1=_as_matrix(doc, "A1", m),
    )
    try:
        g = np.asarray(doc["g"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"field 'g' is not a numeric vector list: {exc}") from exc
    if g.ndim != 2 or g.shape[1] != m or g.shape[0] < 1:
        raise ModelValidationError(
            f"field 'g' has shape {g.shape}, expected (N+1, {m}) with N >= 0")
    bad = np.flatnonzero(~np.isfinite(g).all(axis=1))
    if bad.size:
        raise ModelValidationError(
            f"field 'g' block {bad[0]} is not finite: {g[bad[0]].tolist()}")
    return model, RhsSpec(blocks=g)


def load_problem(document, stochastic_tol: float = STOCHASTIC_TOL) -> tuple[QbdModel, RhsSpec]:
    """:func:`parse_problem`, then :func:`validate`; raises
    :class:`ModelValidationError` naming the offending field, row or entry."""
    model, rhs = parse_problem(document)
    report = validate(model, tol=stochastic_tol)
    if not report.passed:
        raise ModelValidationError("invalid model: " + "; ".join(report.failures))
    return model, rhs


def serialize_problem(model: QbdModel, rhs: RhsSpec) -> str:
    """Inverse of :func:`load_problem`; numeric values round-trip bit-exactly."""
    doc = {
        "m": model.m,
        "B": model.B.tolist(),
        "A_minus": model.A_neg.tolist(),
        "A0": model.A0.tolist(),
        "A1": model.A1.tolist(),
        "g": rhs.blocks.tolist(),
    }
    return json.dumps(doc, indent=2)
