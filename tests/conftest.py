import numpy as np
import pytest

from qbdpoisson import QbdModel, RhsSpec


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
