"""Vectorized ``%.17g``: the bytes ``f"{x:.17g}"`` gives, for float64 arrays.

``cli.write_csv`` formats its rows through :meth:`Encoder.encode`.  The kernel
proves each value's 17-digit decimal form or hands the value back, so the
caller formats it with ``fmt`` (Loitsch's scheme: a fast path plus an exact
bail-out, "Printing floating-point numbers quickly and accurately", PLDI
2010).  For a value x it

1. finds the decimal exponent E = floor(log10 |x|): ``log10`` gives a
   first guess, and a comparison with the least double not below 10**E
   lowers it by one where x sits just below a power of ten and ``log10``
   rounds up to the power.  That comparison is exact, because no double
   lies between 10**E and that double.  A guess one too low would give a
   mantissa of at least 10**17, which step 3 hands back (or, at exactly
   10**17, carries to the right result);
2. forms |x| * 10**(16 - E), a number in [10**16, 10**17), as the
   double-double p + r.  The product of |x| with the table's high part is
   exact (Dekker's two-product, since numpy has no fused multiply-add); the
   low part adds |x| times the table's low part.  p is an integer, because
   every double above 2**53 is, and |r| < 20;
3. rounds p + r to the 17-digit mantissa.  The computed r is within 1e-14
   of the exact one, so rounding is proven unless the fraction of r is
   within ``_TIE_MARGIN`` of 1/2.  A mantissa that rounds up to 10**17
   becomes 10**16 and E grows by one, as ``%g`` takes the exponent after
   rounding;
4. writes the field as four 64-bit words, whole words at a time, not byte
   by byte (as exact table-driven formatters do: Adams, "Ryu revisited:
   printf floating point conversion", OOPSLA 2019).  The digits d1 .. d16
   after the lead become two words through a 4-digit ASCII table; the
   trailing zeros of the mantissa set the digit count nd.  A layout row,
   chosen by sign, exponent class and nd, puts the point in and cuts the
   digits to length in three masked word operations (:func:`_layout`):
   fixed notation for -4 <= E < 17, otherwise scientific.  Word 0 gets the
   row's prefix (sign, and "0." and its zeros below 1) and the lead digit;
   word 3 the exponent (``e+dd`` or ``e-ddd``, from a table by E) and the
   value's separator (``,``, ``\\n``, or ``\\n\\n`` before a gnuplot blank
   line).  The words hold no NUL inside the text, so the chunk's text is
   its nonzero bytes, in order.

Zeros are written by the kernel (``0`` and ``-0``), and an integer-valued
double below 2**53 gets the bytes ``%d`` would give.  Handed back, with only
their separator written, are non-finite values, values outside
1e-190 <= |x| < 1e190 (subnormals included) and near-ties (exact ties such
as 123456789012345.625 included).

The tables are built on the first call (:func:`_tables`), not at import.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

_FAST_MIN, _FAST_MAX = 1e-190, 1e190
# 10**j for the exponents the fast range looks up: E to correct the first
# guess (-192 .. 190), 16 - E for the scaling (-174 .. 208)
_POW10 = range(-192, 209)
_TIE_MARGIN = 2.0 ** -30    # >> 1e-14, the bound on the error of r
_SPLIT = 134217729.0        # 2**27 + 1: Dekker's splitter

# A field is four little-endian 64-bit words, one region each.  NUL bytes
# are dropped from the chunk's text, so a region need not be full:
#   word 0      sign, "0." and its zeros (fixed notation below 1); lead digit in byte 7
#   words 1, 2  the 16 digits after the lead, with the point put in: 17 bytes
#   word 3      byte 0: the 17th of those bytes; 1-5: exponent; 6-7: separator
_CLASSES = 23               # exponent classes: fixed -4 .. 16, then 2- and 3-digit scientific
_ROW_WORDS = 7              # prefix, then LOW, HIGH and POINT of two words each


@functools.cache
def _tables() -> SimpleNamespace:
    # Python integers give 10**j and its residual exactly, and int / int
    # rounds correctly, so hi + lo is 10**j to within 2**-106 relative
    pow10 = []
    for j in _POW10:
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        hi = num / den
        p, q = hi.as_integer_ratio()
        pow10.append((hi, (num * q - p * den) / (den * q)))
    hi, lo = np.array(pow10).T
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    d = np.arange(10)
    digits4 = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1).reshape(10000, 4)
    digits4 = (digits4 + ord("0")).astype(np.uint8).view(np.uint32).ravel().astype(np.uint64)
    n = np.arange(10000)
    zeros4 = sum(n % 10 ** i == 0 for i in range(1, 5))
    e = np.arange(_POW10.start, _POW10.stop)
    cls = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    exponent = b"".join(b"\0" + (f"e{j:+03d}" if c >= 21 else "").encode().ljust(7, b"\0")
                        for j, c in zip(_POW10, cls.tolist()))
    return SimpleNamespace(
        hi=hi,                      # 10**j rounded to double, j in _POW10
        hi_hi=hi_hi,                # Dekker split of ``hi``
        hi_lo=hi - hi_hi,
        lo=lo,                      # 10**j - hi, rounded
        ceil=np.where(lo > 0, np.nextafter(hi, np.inf), hi),   # least double >= 10**j
        digits4=digits4,            # ASCII of 0000 .. 9999 in the low half of a word
        digits4_hi=digits4 << 32,   # the same in the high half
        zeros4=zeros4,              # trailing zeros of 0 .. 9999 (4 for 0)
        row=cls * 17 - 1,           # exponent -> class * 17 - 1: add nd for the layout row
        exponent=np.frombuffer(exponent, np.uint64),   # exponent -> word 3's "e+dd", or 0
        layout=_layout())           # (_ROW_WORDS, rows): each word of each layout row


def _layout() -> np.ndarray:
    """The words of layout row ``(negative * _CLASSES + cls) * 17 + nd - 1``
    for nd significant digits: word 0's prefix, then LOW, HIGH and POINT,
    16 bytes each, over the digits d1 .. d16 that follow the lead.  The
    point goes in at index q of those digits, and k bytes of the 17 are
    kept:

        digits with point = (d & LOW) | POINT | ((d & HIGH) << 8)

    LOW keeps the digits before q, HIGH those that move one byte right and
    stay within k, and POINT is the "." at q when q < k.
    """
    cls, nd = (g.reshape(-1, 1) for g in np.meshgrid(
        np.arange(_CLASSES), np.arange(1, 18), indexing="ij"))
    x = cls - 4                             # the exponent, for fixed notation
    fixed = cls < 21
    q = np.where(fixed & (x < 0), 16, np.where(fixed, x, 0))
    kept = np.maximum(nd - 1, np.where(fixed & (x >= 0), x, 0))
    k = kept + (q < kept)
    u = np.arange(16)
    masks = np.hstack([(u < q) & (u < k), (u >= q) & (u < k - 1)]) * np.uint8(0xFF)
    point = ((u == q) & (q < k)) * np.uint8(ord("."))
    # the lead digit's "0" in byte 7, to which the encoder adds the digit
    prefix = b"".join((b"-" * negative + (b"0." + b"0" * (3 - c) if c < 4 else b""))
                      .ljust(7, b"\0") + b"0" for negative in (0, 1) for c in range(_CLASSES))
    prefix = np.repeat(np.frombuffer(prefix, np.uint8).reshape(-1, 8), 17, axis=0)
    body = np.tile(np.hstack([masks, point]), (2, 1))
    return np.ascontiguousarray(np.hstack([prefix, body]).astype(np.uint8).view(np.uint64).T)


def _divmod(n: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's floor division by a constant is fast; its % and divmod are not
    q = n // d
    return q, n - q * d


def _byte(char: str, position: int) -> np.uint64:
    return np.uint64(ord(char) << 8 * position)


class Encoder:
    """Formats a float64 table of ``cols`` columns chunk by chunk
    (:meth:`encode`).  The buffers for ``max_rows`` rows are allocated once
    and reused by every chunk: fresh arrays of that size cost a page fault
    per 4 KiB, which doubled the time of a field-bump write.
    """

    def __init__(self, cols: int, max_rows: int):
        n = max_rows * cols
        self._digits = np.empty((3, n), np.uint64)
        self._layout = np.empty((_ROW_WORDS, n), np.uint64)
        self._words = np.empty((n, 4), np.uint64)
        self._nonzero = np.empty((n, 32), bool)
        self._sep = np.where(np.arange(cols) < cols - 1, _byte(",", 7), _byte("\n", 7))

    def encode(self, values: np.ndarray, blank_after: np.ndarray):
        """Format a (rows, cols) float64 array, ``rows <= max_rows``, as CSV
        lines; ``blank_after`` marks the rows followed by a blank line.

        Returns the uint8 text, the flat indices of the values handed back,
        and the byte offsets where their text goes, ascending: the caller
        writes ``fmt`` of each there.
        """
        t = _tables()
        rows, cols = values.shape
        x = values.ravel()
        n = x.size
        a = np.abs(x)
        zero = a == 0.0
        fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
        a = np.where(fast, a, 1.0)

        e = np.floor(np.log10(a)).astype(np.intp)
        e -= a < t.ceil[e - _POW10.start]

        k = 16 - e - _POW10.start
        p = a * t.hi[k]
        c = _SPLIT * a
        a_hi = c - (c - a)
        a_lo = a - a_hi
        h_hi, h_lo = t.hi_hi[k], t.hi_lo[k]
        r = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * t.lo[k]
        whole = np.floor(r)
        frac = r - whole
        fast &= np.abs(frac - 0.5) > _TIE_MARGIN
        mant = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
        carry = mant == 10 ** 17
        mant[carry] = 10 ** 16
        e += carry
        fast &= (mant >= 10 ** 16) & (mant < 10 ** 17)
        fallback = ~(fast | zero)

        lead, rest = _divmod(mant, 10 ** 16)
        lead -= zero            # a zero was formatted as 1: mantissa 1 and 16 zeros
        upper, lower = _divmod(rest, 10 ** 8)
        g0, g1 = _divmod(upper, 10 ** 4)
        g2, g3 = _divmod(lower, 10 ** 4)

        # significant digits; most mantissas end in a nonzero 4-digit group
        nd = 17 - t.zeros4[g3]
        short = np.flatnonzero(g3 == 0)
        if short.size:
            z0, z1, z2 = (t.zeros4[g[short]] for g in (g0, g1, g2))
            nd[short] = 13 - z2 - (z2 == 4) * (z1 + (z1 == 4) * z0)
        e -= _POW10.start
        row = t.row[e] + nd
        row += np.signbit(x) * (_CLASSES * 17)

        # d1 .. d16 as two little-endian words, then the point put in at q
        d_lo, d_hi, scratch = self._digits[:, :n]
        np.take(t.digits4, g0, out=d_lo, mode="clip")
        d_lo |= np.take(t.digits4_hi, g1, out=scratch, mode="clip")
        np.take(t.digits4, g2, out=d_hi, mode="clip")
        d_hi |= np.take(t.digits4_hi, g3, out=scratch, mode="clip")
        prefix, low_lo, low_hi, high_lo, high_hi, point_lo, point_hi = np.take(
            t.layout, row, axis=1, out=self._layout[:, :n], mode="clip")
        high_lo &= d_lo
        high_hi &= d_hi
        low_lo &= d_lo
        low_lo |= point_lo
        low_hi &= d_hi
        low_hi |= point_hi
        words = self._words[:n]
        np.right_shift(high_lo, 56, out=words[:, 2])
        np.right_shift(high_hi, 56, out=words[:, 3])
        high_lo <<= 8
        high_hi <<= 8
        np.bitwise_or(low_lo, high_lo, out=words[:, 1])
        words[:, 2] |= low_hi
        words[:, 2] |= high_hi
        # the exponent and the separator after the 17th byte, the lead before d1
        words[:, 3] |= np.take(t.exponent, e, out=scratch, mode="clip")
        last = words[:, 3].reshape(rows, cols)
        last |= self._sep
        last[:, -1] |= blank_after * _byte("\n", 6)
        np.left_shift(lead.view(np.uint64), 56, out=words[:, 0])
        words[:, 0] |= prefix
        slots = np.flatnonzero(fallback)
        if slots.size:          # only their separator stays
            words[slots, :3] = 0
            words[slots, 3] &= np.uint64(0xFFFF << 48)
        text = words.view(np.uint8)
        nonzero = np.not_equal(text, 0, out=self._nonzero[:n])
        offsets = slots         # empty unless values are handed back
        if slots.size:
            length = np.count_nonzero(nonzero, axis=1)
            offsets = (np.cumsum(length) - length)[slots]
        return text[nonzero], slots, offsets
