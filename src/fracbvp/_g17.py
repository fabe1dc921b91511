"""``"%.17g"`` of float64 arrays as numpy array operations.

``cli._write_csv`` formats its larger tables here.  A double a > 0 is
m * 2**-e with a 53-bit integer m.  Its 17 significant digits are
d = round(m * 5**s / 2**(e - s)), where s = 16 - X and X is the decimal
exponent of a, so that 10**16 <= d < 10**17.  For s in 1..27, m * 5**s is
below 2**116 and is formed exactly from 32-bit limbs in two uint64 words;
the quotient by 2**(e - s) is rounded half to even from the dropped bits, as
the correctly rounded conversion behind Python's ``%`` rounds (Gay 1990).
The digits are then laid out as ``%g`` lays them out: fixed notation for
-4 <= X < 17, else ``d.ddde-XX``, trailing zeros stripped, by shifts and
masks looked up per layout.  That covers 1e-11 < |a| < 2**51 and +-0; the
other values (subnormal, non-finite or outside that range) of a block are
formatted by one ``%`` over Python floats.
"""

from __future__ import annotations

import functools

import numpy as np

_WIDTH = 32  # bytes per cell: the longest %.17g text, "-1.7976931348623157e+308", a delimiter, zeros
# the window: the least double above 10**-11 (so s <= 27) and 2**51 (so e - s >= 1)
_LO, _HI = 1.0000000000000001e-11, 2.0**51
_XMIN = -11  # X runs from -11 to 15 in the window
_TEXT = 24  # a cell of the window, sign and delimiter included, fits in 3 words
_U32 = np.uint64(0xFFFFFFFF)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The constants of ``cells``, built on first use.

    The low and high 32 bits of 5**s for s in 0..27; the ASCII of
    0000..9999 as uint64; for group j of digits 1..16 and its value g, the
    count of digits up to its last nonzero one (1 when g = 0); and, per
    class (sign, X, count L of digits left after stripping trailing zeros,
    delimiter), the layout of the cell's 24 bytes: 8 times the place of
    digit 0, the cell's other bytes, and masks of the bytes that take digits
    1..16 right after digit 0 (before the point) and one byte further on
    (after it), each as 3 little-endian words.
    """
    pow5 = 5 ** np.arange(28, dtype=np.uint64)
    digit = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()  # of 0000..9999
    quads = (digit + np.uint8(ord("0"))).view(np.uint32).ravel().astype(np.uint64)
    g = np.arange(10_000, dtype=np.int16)
    last = np.sum([g % 10**j != 0 for j in range(1, 5)], axis=0, dtype=np.int8)  # 0 for 0000
    upto = np.where(last > 0, 1 + 4 * np.arange(4, dtype=np.int8)[:, None] + last, 1).astype(np.int8)
    # the text of a positive value by X and L: digit j of the 17 is coded j, a byte b 256 + b
    X = np.arange(_XMIN, 16, dtype=np.int16)[:, None, None]
    L, p = np.arange(1, 18, dtype=np.int16)[:, None], np.arange(_TEXT, dtype=np.int16)
    dot, zero, e, minus, comma = (256 + ord(c) for c in ".0e-,")
    fixed = np.select(  # d.dd or dd.ddd: the point after X + 1 digits
        [p <= X, (p == X + 1) & (L > X + 1)], [p, dot], p - 1)
    lead = 1 - X  # 0.000ddd: "0." and -X - 1 zeros before the digits
    small = np.select([p == 1, p < lead], [dot, zero], p - lead)
    mant = L + (L > 1)  # d.ddd, without the point when one digit is left
    sci = np.select(
        [p == 0, (p == 1) & (L > 1), p < mant, p == mant, p == mant + 1, p == mant + 2],
        [0, dot, p - 1, e, minus, zero + (-X) // 10], zero + (-X) % 10)
    length = np.where(X >= 0, np.where(L > X + 1, L + 1, X + 1), np.where(X >= -4, lead + L, mant + 4))
    text = np.where(X >= 0, fixed, np.where(X >= -4, small, sci))
    text = np.select([p < length, p == length], [text, comma], 256)
    # a negative value's text is one byte further on, after a minus (the last byte is always 0)
    code = np.stack((text, np.concatenate((np.full(text.shape[:-1] + (1,), minus), text[..., :-1]), axis=-1)))
    first = np.argmax(code == 0, axis=-1)[..., None]
    rest = (code >= 1) & (code < 256)
    const = np.where(code >= 256, code - 256, 0).astype(np.uint8)
    const = np.stack((const, np.where(const == ord(","), np.uint8(ord("\n")), const)), axis=-2)
    masks = [(rest & (p - code == at)).view(np.uint8) * np.uint8(0xFF) for at in (first, first + 1)]
    const, before, after = (w.view(np.uint64).reshape(-1, 3) for w in (const, *masks))
    # the masks and the place of digit 0 do not depend on the delimiter
    before, after, first = (np.repeat(w, 2, axis=0) for w in (before, after, 8 * first.ravel()))
    return (pow5 & _U32, pow5 >> np.uint64(32), quads, upto, first.astype(np.uint64),
            const.T.copy(), before.T.copy(), after.T.copy())


def _quotient(m: np.ndarray, s: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(m * 5**s / 2**k) and that quotient rounded half to even, for
    m below 2**53, s in 0..27 and k in 1..63 (every operand uint64)."""
    p0, p1 = _tables()[0].take(s), _tables()[1].take(s)
    m0, m1 = m & _U32, m >> np.uint64(32)
    mid = m0 * p1
    mid += m1 * p0  # below 2**32 * 2**31 + 2**21 * 2**32 < 2**64
    lo = m0 * p0
    low = lo + (mid << np.uint64(32))
    hi = m1 * p1
    hi += mid >> np.uint64(32)
    hi += low < lo  # the carry out of the low word
    trunc = (hi << (np.uint64(64) - k)) | (low >> k)
    # round up when the dropped bits exceed a half, or equal it and trunc is odd
    ones = (np.uint64(1) << k) - np.uint64(1)
    low &= ones
    low += trunc & np.uint64(1)
    return trunc, trunc + (low > (ones >> np.uint64(1)) + np.uint64(1))


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d, the 17 significant digits of each value of ``a`` (in the window) as
    a uint64 10**16 <= d < 10**17, and s = 16 - X, so d = round(a * 10**s)."""
    bits = a.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    e = np.uint64(1075) - (bits >> np.uint64(52))  # a = m / 2**e
    s = np.minimum(16.0 - np.floor(np.log10(a)), 27.0).astype(np.uint64)
    trunc, d = _quotient(m, s, e - s)
    # log10 may land on the wrong side of a power of ten: one more step fixes s
    off = np.flatnonzero((trunc < 10**16) | (trunc >= 10**17))
    if len(off):
        s[off] += np.where(trunc[off] < 10**16, 1, -1).astype(np.uint64)
        d[off] = _quotient(m[off], s[off], e[off] - s[off])[1]
    # rounding never carries d to 10**17: no double lies within a relative
    # 5e-18 below a power of ten, where the gap between doubles is >= 2**-53
    return d, s


def cells(block: np.ndarray) -> np.ndarray:
    """The (rows, cols * _WIDTH) uint8 matrix of a (rows, cols) float64 block:
    each value's ``"%.17g"`` text, then ``,`` (``\\n`` after the last column),
    then zero bytes."""
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    exact = (a >= _LO) & (a < _HI)  # false for nan
    zero = a == 0.0
    a[~exact] = 1.0  # a stand-in for the values formatted below
    d, s = _digits(a)
    d[zero] = 0  # with the stand-in's s = 16 (X = 0), the layout of "0" and "-0"
    *_, quads, upto, first, const, before, after = _tables()
    # d = d0 * 10**16 + four groups of 4 digits, split by divisions by constants
    ten4, ten8 = np.uint64(10**4), np.uint64(10**8)
    top = d // ten8
    bottom = d - top * ten8
    high, low = top // ten4, bottom // ten4
    d0 = high // ten4
    groups = [high - d0 * ten4, top - high * ten4, low, bottom - low * ten4]
    L = np.ones(len(x), dtype=np.int8)
    for j, g in enumerate(groups):
        np.maximum(L, upto[j].take(g), out=L)
    # the class: ((sign * 27 + X - _XMIN) * 17 + L - 1) * 2 + (1 in the last column)
    cls = (np.signbit(x) * 918 + L * 2 + 916).reshape(rows, cols)
    cls -= (s * np.uint64(34)).view(np.int64).reshape(rows, cols)
    cls[:, -1] += 1
    cls = cls.ravel()
    # digits 1..16 in two words, moved up past the sign, any "0.000" and digit 0 (A),
    # and one byte further on, past the point (B)
    q = [quads.take(g) for g in groups]
    g0, g1 = q[0] | (q[1] << np.uint64(32)), q[2] | (q[3] << np.uint64(32))
    at = first.take(cls)
    up, down = at + np.uint64(8), np.uint64(56) - at  # 8..56 each
    A = (g0 << up, (g1 << up) | (g0 >> down), g1 >> down)
    B = (A[0] << np.uint64(8), (A[1] << np.uint64(8)) | (A[0] >> np.uint64(56)),
         (A[2] << np.uint64(8)) | (A[1] >> np.uint64(56)))
    out = np.empty((len(x), _WIDTH // 8), dtype=np.uint64)
    out[:, 3] = 0
    for w in range(3):
        word = const[w].take(cls)
        word |= A[w] & before[w].take(cls)
        word |= B[w] & after[w].take(cls)
        out[:, w] = word
    out[:, 0] |= (d0 + np.uint64(ord("0"))) << at
    out = out.view(np.uint8)
    rest = np.flatnonzero(~(exact | zero))
    if len(rest):
        text = ("%.17g " * len(rest)) % tuple(x[rest].tolist())
        out[rest, :_TEXT] = np.array(text.split(), dtype=f"S{_TEXT}").view(np.uint8).reshape(-1, _TEXT)
        width = np.count_nonzero(out[rest], axis=1)
        out[rest, width] = np.where(rest % cols == cols - 1, ord("\n"), ord(","))
    return out.reshape(rows, cols * _WIDTH)
