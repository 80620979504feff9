"""Block kernel of the series CSV: ``'%.17g'`` text for a table of floats.

:func:`format_block` prints each value followed by its column's separator
byte, which the caller supplies: ',' and '\n' for a plain table, or a
control byte where :mod:`ergodyn.emit` puts a formatted steady run back.
:mod:`ergodyn.emit` imports this module on the first CSV it writes, so the
lookup tables below are built then and not with the package.  The module
docstring of :mod:`ergodyn.emit` explains the arithmetic.
"""

from __future__ import annotations

import numpy as np

#: scales 10^s of the power table.  Veltkamp's split multiplies 10^s and
#: |x| < 10^(17-s) by 2^27 + 1, which must stay below the largest double.
_S_MIN, _S_MAX = -283, 300
#: decimal exponents the kernel formats
_K_MIN, _K_MAX = 16 - _S_MAX, 16 - _S_MIN
_E16, _E17 = 10**16, 10**17
_SPLIT = 134217729.0  # 2^27 + 1
#: bound on the error of the rounded rest where 10^s is not a double: for a
#: product in [1e16, 1e17], |l| <= 8 and |x lo| <= 11.2, so rounding x lo,
#: rounding the rest and the table's own rounding of lo err by < 42 * 2^-53
_REST_ERR = 2.0**-47

#: one value's template: sign, "0." and three zeros (for -4 <= k < 0), d0,
#: the dot, d1..d16, the exponent "e+XXX", the separator and two pad bytes.
#: The bytes a value does not print are zeroed and then deleted.  It is
#: handled as four little-endian words: byte j of a word is bits 8j..8j+7.
_TEMPLATE = b"-0.0000." + b"0" * 16 + b"e+000,\0\0"
_WIDTH = len(_TEMPLATE)
_WORD, _HALF = "<u8", "<u4"
_HEAD = np.frombuffer(_TEMPLATE[:8], _WORD)[0]
_EXP_AT, _SEP_AT = 24, 29
#: layouts: fixed notation for k = -4..16, then d.ddd with a two- or a
#: three-digit exponent
_FIXED_MIN, _FIXED_MAX = -4, 16
_LAYOUTS = _FIXED_MAX - _FIXED_MIN + 3


def _powers():
    """10^s = hi + lo for every s of the table, each rounded to nearest."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        p, q = 10 ** max(s, 0), 10 ** max(-s, 0)  # integer division rounds
        hi.append(p / q)
        n, d = hi[-1].as_integer_ratio()
        lo.append((p * d - n * q) / (q * d))
    return np.array(hi), np.array(lo)


def _digit_at(j: int, dot: int = 0) -> int:
    """Template byte of digit j when the dot follows digit ``dot``.

    d0 sits at 6, the dot at 7 and d1..d16 at 8..23.  A dot after d_k,
    k >= 1, is moved there, and d1..dk move one byte to the left.
    """
    return 6 + j if j <= dot else 7 + j


def _mask(neg: bool, layout: int, nsig: int) -> np.ndarray:
    """Template bytes printed for a sign, a layout and a digit count."""
    m = np.zeros(_WIDTH, bool)
    m[0] = neg
    m[_SEP_AT] = True
    k = layout + _FIXED_MIN
    if 0 <= k <= _FIXED_MAX:  # the dot after d_k, if a digit follows
        m[[_digit_at(j, k) for j in range(max(k + 1, nsig))]] = True
        m[7 + k] = nsig > k + 1
        return m
    m[[_digit_at(j) for j in range(nsig)]] = True
    if k < 0:  # "0." and -k-1 zeros before the digits
        m[1:2 - k] = True
    else:  # d.ddd, then "e", the exponent's sign and two or three digits
        m[7] = nsig > 1
        m[_EXP_AT:_EXP_AT + 4 + (k > _FIXED_MAX + 1)] = True
    return m


def _mask_table():
    """key -> 0xFF on the template bytes printed (four uint64 words), and
    key -> bytes printed, for key = (sign, layout, digits - 1) and a last
    key that prints only the separator."""
    masks = [
        _mask(neg, layout, nsig)
        for neg in (False, True)
        for layout in range(_LAYOUTS)
        for nsig in range(1, 18)
    ]
    only_sep = np.zeros(_WIDTH, bool)
    only_sep[_SEP_AT] = True
    masks = np.array(masks + [only_sep])
    return (masks.astype(np.uint8) * 255).view(_WORD), masks.sum(axis=1)


_HI, _LO = _powers()
_HI_BIG = _SPLIT * _HI - (_SPLIT * _HI - _HI)  # Veltkamp halves of hi
_HI_SMALL = _HI - _HI_BIG
#: k - _K_MIN -> "e+XX" or "e+XXX" in the low bytes of a word
_EXPONENTS = np.frombuffer(
    b"".join((b"e%+03d" % k).ljust(8, b"\0") for k in range(_K_MIN, _K_MAX + 1)),
    _WORD,
)
_QUAD_TEXT = ["%04d" % v for v in range(10000)]
#: 0..9999 -> its four ASCII digits, and -> their trailing zeros
_QUADS = np.frombuffer("".join(_QUAD_TEXT).encode(), _HALF)
_TRAILING = np.array([4] + [len(q) - len(q.rstrip("0")) for q in _QUAD_TEXT[1:]])
#: k -> order of template bytes 6..23 that moves the dot after d_k
_MOVES = np.array(
    [[0, *range(2, k + 2), 1, *range(k + 2, 18)] for k in range(_FIXED_MAX + 1)]
)
_MASKS, _LENGTHS = _mask_table()
_ONLY_SEP = len(_MASKS) - 1
#: k - _K_MIN -> 17 layout + 16, the key of a positive value less its
#: trailing zeros; and -> whether the dot moves (fixed notation, k >= 1)
_KS = np.arange(_K_MIN, _K_MAX + 1)
_KEYS = 17 * np.where(
    (_KS >= _FIXED_MIN) & (_KS <= _FIXED_MAX),
    _KS - _FIXED_MIN,
    _LAYOUTS - 2 + (np.abs(_KS) >= 100),
) + 16
_MOVED = (_KS >= 1) & (_KS <= _FIXED_MAX)
#: the key offset of a negative value
_NEGATIVE = 17 * _LAYOUTS


def _scaled(a, i):
    """D = round_half_even(a 10^s) as int64, s = i + _S_MIN, and the
    remaining fraction d = a 10^s - D.

    h + l = a * hi exactly (Dekker); past 2^53 h is an even integer, so rint
    of the rest l + a * lo rounds the whole product half to even.
    """
    h = np.take(_HI, i)
    h *= a
    t = _SPLIT * a
    a_big = t - a
    np.subtract(t, a_big, out=a_big)
    a_small = np.subtract(a, a_big, out=t)
    big, small = np.take(_HI_BIG, i), np.take(_HI_SMALL, i)
    # l = ((a_big big - h) + a_big small + a_small big) + a_small small
    l = a_big * big
    l -= h
    l += np.multiply(a_big, small, out=a_big)
    l += np.multiply(a_small, big, out=big)
    l += np.multiply(a_small, small, out=small)
    lo = np.take(_LO, i)
    lo *= a
    l += lo  # the rest
    q = np.rint(l)
    l -= q
    D = h.astype(np.int64)
    D += q.astype(np.int64)
    return D, l


def _off_decade(D, d):
    """+1 where the product lies below 1e16 (scale up), -1 where it rounds
    above 1e17 (scale down), 0 where the scale was right."""
    low = (D < _E16) | ((D == _E16) & (d < 0.0))
    return np.where(D > _E17, -1, low.astype(np.int64))


def _decompose(x):
    """(k, D, exact) per value: |x| rounds to D 10^(k-16), 10^16 <= D < 10^17.

    Zeros give k = 0 and D = 0.  Where ``exact`` is False the value needs
    the per-value formatter, and k is 0 or another exponent the kernel has.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the table index of 10^(16-k); log10 may be one off next to 10^k
        i = np.log10(a)
    np.floor(i, out=i)
    np.subtract(16.0 - _S_MIN, i, out=i)
    exact = i >= 0.0
    exact &= i < len(_HI)
    if not exact.all():  # zeros, NaN, infinities and the far decades
        out = np.flatnonzero(~exact)
        a[out], i[out] = 1.0, 16 - _S_MIN
    i = i.astype(np.int64)
    D, d = _scaled(a, i)
    # one test for D <= 10^16 or D > 10^17, then the exact one on the hits
    redo = np.flatnonzero((D - (_E16 + 1)).view(np.uint64) >= np.uint64(_E17 - _E16))
    if redo.size:
        step = _off_decade(D[redo], d[redo])
        redo, step = redo[step != 0], step[step != 0]
    if redo.size:
        i2 = i[redo] + step
        inside = (i2 >= 0) & (i2 < len(_HI))
        a[redo[~inside]] = 1.0  # left to the per-value formatter, as above
        i[redo] = i2 = np.where(inside, i2, 16 - _S_MIN)
        D[redo], d[redo] = _scaled(a[redo], i2)
        exact[redo] &= inside & (_off_decade(D[redo], d[redo]) == 0)
    # the rest is exact where 10^s is a double; elsewhere a fraction within
    # its error bound of a half cannot be decided (0.5 - |d| is exact here)
    near = np.flatnonzero(np.abs(d) >= 0.5 - _REST_ERR)
    if near.size:
        exact[near[_LO[i[near]] != 0.0]] = False
    k = 16 - _S_MIN - i
    carry = np.flatnonzero(D == _E17)  # rounded up into the next decade
    if carry.size:
        D[carry] = _E16
        k[carry] += 1
        past = carry[k[carry] > _K_MAX]
        exact[past], k[past] = False, 0
    zero = np.flatnonzero(x == 0.0)  # its index defaulted to 10^16, so k = 0
    D[zero], exact[zero] = 0, True
    return k, D, exact


def format_block(block: np.ndarray, seps: bytes) -> bytes:
    """CSV rows of a (rows, columns) float block: each value as ``'%.17g'``
    prints it, followed by its column's byte of ``seps``."""
    x = block.ravel()
    k, D, exact = _decompose(x)
    kk = k - _K_MIN
    head = D // 100000000  # d0..d8
    D -= head * 100000000  # d9..d16
    d0 = head // 100000000
    head -= d0 * 100000000
    quads = []
    for part in (head, D):
        q = part // 10000
        part -= q * 10000
        quads += [q, part]
    t = np.empty((x.size, _WIDTH // 8), _WORD)
    d0 = d0.astype(np.uint64)
    d0 <<= np.uint64(48)
    d0 += _HEAD
    t[:, 0] = d0
    for j, q in enumerate(quads):
        t.view(_HALF)[:, 2 + j] = np.take(_QUADS, q)
    sep = np.frombuffer(seps, np.uint8).astype(_WORD) << np.uint64(8 * (_SEP_AT - 24))
    np.add(np.take(_EXPONENTS, kk).reshape(block.shape), sep,
           out=t.reshape(*block.shape, -1)[:, :, 3])
    moved = np.flatnonzero(np.take(_MOVED, kk))
    if moved.size:
        digits = t.view(np.uint8)[moved, 6:24]
        order = np.take(_MOVES, k[moved], axis=0)
        t.view(np.uint8)[moved, 6:24] = np.take_along_axis(digits, order, axis=1)

    # the key: sign, layout and significant digits, 17 less the trailing
    # zeros of D (a zero prints one)
    key = np.take(_KEYS, kk)
    key -= np.take(_TRAILING, quads[3])
    more = np.flatnonzero(quads[3] == 0)
    if more.size:
        run = np.ones(more.size, bool)
        for q in (quads[2], quads[1]):
            qm = q[more]
            key[more] -= run * np.take(_TRAILING, qm)
            run &= qm == 0
        key[more] -= run * np.take(_TRAILING, quads[0][more])
    key += np.signbit(x) * _NEGATIVE
    fallback = np.flatnonzero(~exact)
    key[fallback] = _ONLY_SEP
    t &= np.take(_MASKS, key, axis=0)
    out = t.tobytes().translate(None, b"\0")
    if fallback.size:  # '%.17g' goes in before each separator left alone
        cuts = np.cumsum(np.take(_LENGTHS, key))[fallback] - 1
        pieces, done = [], 0
        for j, cut in zip(fallback.tolist(), cuts.tolist()):
            pieces += [out[done:cut], b"%.17g" % x[j]]
            done = cut
        out = b"".join(pieces + [out[done:]])
    return out
