"""The float text kernel against ``repr``, value for value."""

import warnings

import numpy as np
import pytest

from qbdpoisson._floattext import reprs


def _signed(values):
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate([values, -values])


def _cases():
    rng = np.random.default_rng(20201)
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 2.0**53])
    bits = rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(float)
    return {
        "extremes": _signed([0.0, 5e-324, 1.7976931348623157e308]),
        # every subnormal with a fraction below 2^18: the JDK rescales these
        "subnormals": np.arange(1, 2**18, dtype=np.uint64).view(float),
        # a power of two has a lower neighbour half as far as its upper one
        "powers_of_two": _signed(np.ldexp(1.0, np.arange(-1074, 1024))),
        # the switches between positional and exponent text, and 2^53
        "layout_edges": _signed([edges, np.nextafter(edges, 0.0),
                                 np.nextafter(edges, np.inf)]),
        # +-1 ... 1e5 as decimals, integers and values across 1e16
        "scaled_integers": ((np.arange(1, 100_001) * (-1) ** np.arange(100_000))[:, None]
                           * 10.0 ** np.array([-3, 0, 12])).ravel(),
        "random_bits": bits[np.isfinite(bits)],
    }


CASES = _cases()


@pytest.mark.parametrize("name", CASES)
def test_text_is_repr(name):
    values = CASES[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = reprs(values)
    assert caught == []                 # no uint64 scalar overflow, no warning
    want = [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert bad == [] and len(got) == len(want)


@pytest.mark.parametrize("shape", [(0,), (1,), (2, 3), ()], ids=str)
def test_any_shape_in_ravel_order(shape):
    values = np.arange(1, 1 + int(np.prod(shape))).reshape(shape) / 7.0
    assert reprs(values) == [repr(v) for v in values.ravel().tolist()]
