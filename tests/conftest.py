import numpy as np
import pytest

from qbdpoisson import (Classification, QbdModel, RhsSpec, drift, qme,
                        random_model, validate)


@pytest.fixture
def reduction_calls(monkeypatch):
    """Shapes of the qme._cyclic_reduction calls made while the test runs."""
    calls = []
    reduction = qme._cyclic_reduction

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return reduction(*args, **kwargs)

    monkeypatch.setattr(qme, "_cyclic_reduction", counted)
    return calls


def scalar_model(a_neg: float, a0: float, a1: float, b: float) -> QbdModel:
    return QbdModel(B=[[b]], A_neg=[[a_neg]], A0=[[a0]], A1=[[a1]])


def rhs(*blocks) -> RhsSpec:
    return RhsSpec(np.atleast_2d(np.asarray(blocks, dtype=float).reshape(len(blocks), -1)))


@pytest.fixture
def pr1():
    """Positive recurrent scalar fixture: down 0.6, local 0.2, up 0.2."""
    return scalar_model(0.6, 0.2, 0.2, 0.8)


@pytest.fixture
def pr1_rhs():
    return rhs([1.0], [-3.0])


@pytest.fixture
def tr1():
    """Transient scalar fixture: down 0.2, local 0.2, up 0.6."""
    return scalar_model(0.2, 0.2, 0.6, 0.4)


@pytest.fixture
def tr1_rhs():
    return rhs([1.0])


@pytest.fixture
def nr1():
    """Null recurrent scalar fixture: down 0.4, local 0.2, up 0.4."""
    return scalar_model(0.4, 0.2, 0.4, 0.6)


@pytest.fixture
def nr1_rhs():
    return rhs([1.0], [-2.0])


def minimal_nonneg_root(a_low: float, a_mid: float, a_high: float) -> float:
    """Oracle for scalar quadratic equations: smallest nonnegative root of
    a_low + (a_mid - 1) x + a_high x^2 = 0.

    With a_low + a_mid + a_high = 1 the polynomial factors exactly as
    (x - 1)(a_high x - a_low), so the roots are 1 and a_low / a_high.
    """
    assert a_low + a_mid + a_high == pytest.approx(1.0, abs=1e-14)
    return 1.0 if a_high <= a_low else a_low / a_high


def random_rhs(seed: int, m: int, n_blocks: int = 3) -> RhsSpec:
    gen = np.random.Generator(np.random.Philox(key=seed + 777))
    return RhsSpec(gen.normal(size=(n_blocks, m)))


def with_drift(model: QbdModel, target: float) -> QbdModel:
    """``model`` with A1 and A_neg mixed to drift ``target``.

    A_neg' = (1 - t) A_neg + t A1 and A1' = (1 - t) A1 + t A_neg leave
    A_neg + A0 + A1 unchanged and scale the drift by 1 - 2t; the boundary
    stays reflecting, B = A_neg' + A0.  A t outside [0, 1] can leave
    negative blocks; a mixed model that fails :func:`validate` raises
    ValueError instead of being returned.
    """
    t = 0.5 * (1.0 - target / drift(model))
    A_neg = (1.0 - t) * model.A_neg + t * model.A1
    A1 = (1.0 - t) * model.A1 + t * model.A_neg
    mixed = QbdModel(B=A_neg + model.A0, A_neg=A_neg, A0=model.A0, A1=A1)
    report = validate(mixed)
    if not report.passed:
        raise ValueError(f"drift {target:g} gives an invalid model: "
                         + "; ".join(report.failures))
    return mixed


def nilpotent_model(seed: int, m: int) -> QbdModel:
    """``random_model(seed, m, PR)`` with the mass of A1's first two columns
    moved onto A0's diagonal, and B = A_neg + A0.  A1, and with it Ghat, then
    has rank m - 2; for m in {3, 4, 6} the split of Ghat has p = m - 2 and a
    nilpotent part of index nu = 2."""
    base = random_model(seed, m, Classification.POSITIVE_RECURRENT)
    A1 = base.A1.copy()
    A0 = base.A0 + np.diag(A1[:, :2].sum(axis=1))
    A1[:, :2] = 0.0
    return QbdModel(B=base.A_neg + A0, A_neg=base.A_neg, A0=A0, A1=A1)


def near_singular_model(seed: int, m: int, gap: float) -> QbdModel:
    """``random_model(seed, m, PR)`` with the first two columns of A_neg and
    of A1 proportional up to a relative ``gap`` (m >= 2), and B = A_neg + A0.
    A1, and with it Ghat, is then invertible but has a singular value of
    order gap; :func:`with_drift` keeps that, as it mixes A_neg and A1."""
    base = random_model(seed, m, Classification.POSITIVE_RECURRENT)
    A_neg, A1 = base.A_neg.copy(), base.A1.copy()
    for X in (A_neg, A1):
        pair = X[:, :2].sum(axis=1)
        X[:, 0] = pair * (0.3 + gap * np.arange(m) / m)
        X[:, 1] = pair - X[:, 0]
    return QbdModel(B=A_neg + base.A0, A_neg=A_neg, A0=base.A0, A1=A1)


def balanced_h(m: int, key: int) -> np.ndarray:
    """A random h on levels 0 ... 5, zero on levels 6 and 7."""
    h = np.random.Generator(np.random.Philox(key=key)).normal(size=(6, m))
    return np.vstack([h, np.zeros((2, m))])


def balanced_rhs(model: QbdModel, key: int) -> RhsSpec:
    """g = (I - P) h for h = balanced_h(m, key): the level equations then
    have the exact bounded solution h (continued by zeros)."""
    h = balanced_h(model.m, key)
    g = h - h @ model.A0.T
    g[0] = h[0] - model.B @ h[0]
    g[1:] -= h[:-1] @ model.A_neg.T
    g[:-1] -= h[1:] @ model.A1.T
    return RhsSpec(g)


def scaled_interior_residual(model: QbdModel, g: RhsSpec, u) -> float:
    """Largest interior residual, each scaled by its own levels:
    1 + ||u_r|| + ||u_{r+1}|| + ||u_{r+2}||."""
    u = np.asarray(u)
    full_g = np.zeros_like(u)
    full_g[:g.N + 1] = g.blocks
    norms = np.abs(u).max(axis=1)
    interior = (u[1:-1] - u[1:-1] @ model.A0.T - u[:-2] @ model.A_neg.T
                - u[2:] @ model.A1.T - full_g[1:-1])
    scale = 1.0 + norms[:-2] + norms[1:-1] + norms[2:]
    return float((np.abs(interior).max(axis=1) / scale).max())
