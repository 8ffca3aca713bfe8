"""Shortest round-trip float text for whole float64 arrays, as ``repr`` writes it.

:func:`reprs` gives each value's ``repr`` without calling it per value.  The
digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm of JDK 19's ``Double.toString``): the shortest
decimal in the value's rounding interval, the one closest to the value when
there are two, the even one on a tie.  Two departures from the JDK code make
them ``repr``'s digits: subnormals are not rescaled (Java writes 4.9E-324,
Python 5e-324), and the one-digit-shorter candidate is tried from s >= 10,
not s >= 100.  The text is laid out as ``repr`` does: positional for a
decimal point -4 < p <= 16 (``0.000123``, ``123.45``, ``1000000000000000.0``),
``d.ddde±XX`` otherwise.  The arithmetic is vectorised in ``uint64``, with
each 64 x 64 -> 128-bit product's high half taken from 32-bit halves.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292      # the decimal exponents k of the table of 10^-k
_WIDTH = 24                     # len("-1.2345678901234567e-308")
# values per pass: small enough that each pass's temporaries are reused from
# the heap, not mapped afresh (9,000 values in one pass page-faulted ~1,000 times)
_CHUNK = 1024
# a value's alphabet: 17 digits at columns 3..19 (a 20-digit field), its
# exponent's magnitude as 4 digits at 20..23, then the constant characters
_DIGIT0, _EXP = 3, 20
_ZERO, _DOT, _MINUS, _E, _PLUS, _NUL = range(24, 30)
_CONSTANTS = np.array([10_000, 10_001])     # "0.-e" and "+" in the quads' table
# 0-d uint64 arrays, which numpy applies faster than uint64 scalars
_1, _2, _10, _32, _52, _63, _10K = (np.array(v, dtype=np.uint64) for v in (
    1, 2, 10, 32, 52, 63, 10_000))
_M32, _M63, _EXP_MASK, _FRACTION = (np.array(v, dtype=np.uint64) for v in (
    2**32 - 1, 2**63 - 1, 0x7FF, 2**52 - 1))
_POWERS = _10 ** np.arange(18, dtype=np.uint64)
_ENDS = np.array([[2**64 - 2], [0], [2]], dtype=np.uint64)   # -2, 0, +2 mod 2^64


def _flog2pow10(e):
    return (e * 913_124_641_741) >> 38                     # floor(e log2 10)


def _layout(n: int, form: int) -> list[int]:
    """Alphabet columns of a nonnegative value's text with ``n`` digits:
    ``form`` 0..19 is positional, with the decimal point after p = form - 3
    digits; 20..23 is the exponent form, its exponent negative when form is
    odd and of three digits from 22 on."""
    digits = list(range(_DIGIT0, _DIGIT0 + n))
    if form < 20:
        p = form - 3
        if p <= 0:
            text = [_ZERO, _DOT] + [_ZERO] * -p + digits
        elif p < n:
            text = digits[:p] + [_DOT] + digits[p:]
        else:
            text = digits + [_ZERO] * (p - n) + [_DOT, _ZERO]
    else:
        three, negative = divmod(form - 20, 2)
        text = digits[:1] + ([_DOT] + digits[1:] if n > 1 else []) + [
            _E, _MINUS if negative else _PLUS, *range(_EXP + 2 - three, _EXP + 4)]
    return text + [_NUL] * (_WIDTH - len(text))


@functools.cache
def _tables():
    """g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1, in [2^125, 2^126],
    as its 63-bit halves (g1, g0) for each k; the 4-digit texts of 0..9999,
    then the constant characters as two more; the alphabet columns of each
    (sign, digit count, form)."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k > 0:
            g.append((1 << shift) // 10 ** k + 1)
        else:
            g.append((10 ** -k << shift if shift >= 0 else 10 ** -k >> -shift) + 1)
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & (2**63 - 1) for v in g], dtype=np.uint64)
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = (digits + ord("0")).astype(np.uint32).view("<U4").ravel()
    plus = np.array([_layout(n, form) for n in range(1, 18) for form in range(24)])
    minus = np.insert(plus[:, :-1], 0, _MINUS, axis=1)
    return g1, g0, np.append(quads, ["0.-e", "+"]), np.concatenate([plus, minus])


def _rop(g1, g0, cp):
    """g cp / 2^127 rounded to odd, g = g1 2^63 + g0, as the JDK computes it:
    each 64 x 64 -> 128-bit product's high half from 32-bit halves."""
    p1, p0 = cp >> _32, cp & _M32

    def mulhi(a):
        a1, a0 = a >> _32, a & _M32
        lo = a0 * p0
        mid = a1 * p0 + (lo >> _32)
        return a1 * p1 + (mid >> _32) + ((a0 * p1 + (mid & _M32)) >> _32)

    z = ((g1 * cp) >> _1) + mulhi(g0)
    return (mulhi(g1) + (z >> _63)) | (((z & _M63) + _M63) >> _63)


def _digits(bits):
    """Schubfach: (f, k) with f 10^k the shortest decimal that rounds to each
    value of the nonzero finite float64 ``bits``."""
    g1s, g0s = _tables()[:2]
    bq = ((bits >> _52) & _EXP_MASK).astype(np.int64)
    t = bits & _FRACTION
    c = t | (bq > 0).astype(np.uint64) << _52
    q = np.maximum(bq, 1) - 1075
    # at a power of two above the smallest normal the lower neighbour is half as far
    boundary = (t == 0) & (bq > 1)
    # floor(q log10 2), on a boundary floor(log10(3/4 2^q))
    k = (q * 661_971_961_083 - 274_743_187_321 * boundary) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    # v_l, v, v_r: 4 10^-k times the interval's ends and the value, rounded to odd
    cps = (c << _2) + _ENDS
    cps[0] += boundary
    cps <<= h
    vbl, vb, vbr = _rop(g1s[k - _K_MIN], g0s[k - _K_MIN], cps)
    out = c & _1                                # an odd c excludes both ends
    s = vb >> _2
    sp10 = s // _10 * _10
    upin = vbl + out <= sp10 << _2
    wpin = ((sp10 + _10) << _2) + out <= vbr
    u = s + _1
    uin = vbl + out <= s << _2
    win = (u << _2) + out <= vbr
    mid = (s + u) << _1
    pick_s = np.where(uin != win, uin,
                      (vb < mid) | ((vb == mid) & (s & _1 == 0)))
    shorter = (s >= _10) & (upin != wpin)
    return np.where(shorter, sp10 + _10 * ~upin, s + ~pick_s), k


def _lay_out(bits, codes):
    """Write the text of each finite float64 of ``bits`` into a row of the
    uint32 ``codes``."""
    quads, layouts = _tables()[2:]
    zero = bits << _1 == 0
    f, k = _digits(bits | zero)                 # a zero runs as 5e-324
    f[zero] = 0
    # f's digits left-aligned in 17 places, the decimal point after ``point``
    count = np.searchsorted(_POWERS, f, side="right")
    f17 = f * _POWERS[17 - count]
    point = np.where(zero, 1, k + count)
    x = point - 1
    # the alphabet: f17 as five quads (3 leading zeros), |x|, the constants
    index = np.empty((len(f), 8), dtype=np.intp)
    index[:, 0] = f17 // _POWERS[16]
    for j, e in enumerate((12, 8, 4, 0), 1):
        index[:, j] = f17 // _POWERS[e] % _10K
    index[:, 5] = np.abs(x)
    index[:, 6:] = _CONSTANTS
    alphabet = quads[index].view(np.uint32).reshape(len(f), 32)
    n = 17 - np.argmax(alphabet[:, 19:_DIGIT0 - 1:-1] != ord("0"), axis=1)
    n[zero] = 1
    positional = (point > -4) & (point <= 16)
    form = np.where(positional, point + 3, 20 + (x < 0) + 2 * (np.abs(x) >= 100))
    key = ((bits >> _63).astype(np.intp) * 17 + n - 1) * 24 + form
    columns = np.take(layouts, key, axis=0)
    columns += np.arange(0, alphabet.size, 32)[:, None]
    np.take(alphabet, columns, out=codes)


def reprs(a) -> list[str]:
    """``repr`` of each value of the finite float64 array ``a``, in the order
    of ``a.ravel()``."""
    bits = np.asarray(a, dtype=np.float64).ravel().view(np.uint64)
    # one chunk's rows of code points, read as <U24 strings
    codes = np.empty((min(len(bits), _CHUNK), _WIDTH), dtype=np.uint32)
    texts = []
    for start in range(0, len(bits), _CHUNK):
        chunk = bits[start:start + _CHUNK]
        rows = codes[:len(chunk)]
        _lay_out(chunk, rows)
        texts += rows.view(f"<U{_WIDTH}").ravel().tolist()
    return texts
