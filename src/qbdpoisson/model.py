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
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from ._linalg import Array, as_readonly, check_tolerance, frozen, norm_inf
from .exceptions import ModelValidationError

STOCHASTIC_TOL = 1e-12

_BLOCK_KEYS = ("B", "A_minus", "A0", "A1")
_FIELDS = ("B", "A_neg", "A0", "A1")


@dataclass(frozen=True)
class QbdModel:
    """Level-independent QBD transition blocks (m x m each, row-major).

    The container performs only shape coercion; structural invariants
    (entry range, row sums, irreducibility) are checked by :func:`validate`
    and enforced by :func:`load_problem`.  The blocks are read-only copies of
    what the caller passes in, so :func:`~qbdpoisson.poisson.solve_poisson`
    keeps its per-model plan on the instance (a private attribute outside the
    fields), and no later write to the caller's arrays reaches either.
    """

    B: Array
    A_neg: Array
    A0: Array
    A1: Array

    def __post_init__(self):
        self._hold(*(frozen(np.array(getattr(self, name), dtype=float, ndmin=2))
                     for name in _FIELDS))

    @classmethod
    def _adopting(cls, B, A_neg, A0, A1) -> QbdModel:
        """The library's own constructor, for blocks it holds: read-only
        float64 arrays that own their memory (another model's, or what it has
        just computed and frozen) are adopted, not copied (:func:`as_readonly`)."""
        model = object.__new__(cls)
        model._hold(*(as_readonly(a) for a in (B, A_neg, A0, A1)))
        return model

    def _hold(self, *blocks):
        for name, a in zip(_FIELDS, blocks):
            object.__setattr__(self, name, a)
        shapes = {a.shape for a in blocks}
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

    @cached_property
    def minus_identity(self) -> tuple[Array, Array]:
        """(B - I, A0 - I), formed on first use and kept: the blocks are read-only."""
        return tuple(as_readonly(a - np.eye(self.m)) for a in (self.B, self.A0))


@dataclass(frozen=True)
class RhsSpec:
    """Finitely supported right-hand side g_0 ... g_N, one length-m vector per
    level; its blocks are a read-only copy, as a :class:`QbdModel`'s are."""

    blocks: Array

    def __post_init__(self):
        a = np.array(self.blocks, dtype=float)
        if a.ndim != 2 or a.shape[0] < 1:
            raise ModelValidationError(
                f"rhs must be a nonempty list of equal-length vectors, got shape {a.shape}")
        if not np.isfinite(a).all():
            bad = np.flatnonzero(~np.isfinite(a).all(axis=1))[0]
            raise ModelValidationError(
                f"rhs 'g' block {bad} is not finite: {a[bad].tolist()}")
        object.__setattr__(self, "blocks", frozen(a))

    @property
    def N(self) -> int:
        """Index of the last explicitly stored block."""
        return self.blocks.shape[0] - 1

    @property
    def m(self) -> int:
        return self.blocks.shape[1]

    def check_width(self, m: int) -> None:
        """ValueError unless the blocks have width m, the model's."""
        if self.m != m:
            raise ValueError(f"g has width {self.m}, the model has m = {m}")

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
        return {"passed": self.passed, **asdict(self)}


def _strongly_connected(a: Array) -> bool:
    """Every node reaches node 0 and is reached from it along a > 0 (a NaN
    entry is no edge): breadth-first frontiers in the graph and its transpose."""
    adj = a > 0.0
    for edges in (adj, adj.T):
        seen = frontier = np.arange(len(adj)) == 0
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        if not seen.all():
            return False
    return True


def validate(model: QbdModel, tol: float = STOCHASTIC_TOL) -> ValidationReport:
    """Check the structural invariants and report residuals; never mutates.

    Failures: non-finite entries, entries outside [0, 1], row-sum residuals
    above ``tol`` for B + A1 (level 0) and A_neg + A0 + A1 (repeating
    levels; rows with a non-finite sum are left out), and a reducible phase
    graph of A_neg + A0 + A1.  A 3-level truncation of the full chain that
    is not strongly connected is reported as a warning only.  ValueError
    refuses a ``tol`` that is NaN, infinite or negative.
    """
    check_tolerance("stochastic_tol", tol)
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
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ModelValidationError(f"field 'm' must be a positive integer, got {m!r}")

    model = QbdModel(*(_as_matrix(doc, key, m) for key in _BLOCK_KEYS))
    try:
        g = np.asarray(doc["g"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelValidationError(f"field 'g' is not a numeric vector list: {exc}") from exc
    if g.ndim != 2 or g.shape[1] != m or g.shape[0] < 1:
        raise ModelValidationError(
            f"field 'g' has shape {g.shape}, expected (N+1, {m}) with N >= 0")
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
