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
4. turns the mantissa into ASCII through a 4-digit table, strips trailing
   zeros, and places the characters by a layout pattern chosen by sign,
   exponent class and digit count: fixed notation for -4 <= E < 17,
   otherwise scientific with a 2- or 3-digit exponent, then the value's
   separator (``,``, ``\\n``, or ``\\n\\n`` before a gnuplot blank line).

Zeros are written by the kernel (``0`` and ``-0``).  Handed back are
non-finite values, values outside 1e-190 <= |x| < 1e190 (subnormals
included), near-ties (exact ties such as 123456789012345.625 included),
and integers of magnitude 2**53 or more in integer columns: below 2**53 the
float path gives the ``%d`` bytes.

The tables are built on the first call (:func:`_tables`), not at import.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_FAST_MIN, _FAST_MAX = 1e-190, 1e190
# 10**j for the exponents the fast range looks up: E to correct the first
# guess (-192 .. 190), 16 - E for the scaling (-174 .. 208)
_POW10 = range(-192, 209)
_TIE_MARGIN = 2.0 ** -30    # >> 1e-14, the bound on the error of r
_SPLIT = 134217729.0        # 2**27 + 1: Dekker's splitter

# Columns of a value's 32-byte source row; a layout pattern lists, for
# each output byte, the column it copies.  The digits d0 .. d16 sit in
# columns 3 .. 19, so d1 .. d16 fill the 4-byte words 1 .. 4, and the
# exponent's digits end the 4-byte word 6.
_MINUS, _ZERO, _DIGITS = 1, 2, 3
_POINT, _E, _EXP_SIGN, _EXP_DIGITS, _SEP = 20, 21, 22, 25, 28
_SOURCE_WIDTH = 32
_WIDTH = 26                 # longest field, "-1.2345678901234567e-100", plus two separators
_CLASSES = 23               # exponent classes: fixed -4 .. 16, then 2- and 3-digit scientific
_FALLBACK = 2 * _CLASSES * 17   # the pattern of a handed-back value: its separators only


class _Tables(NamedTuple):
    hi: np.ndarray          # 10**j rounded to double, j in _POW10
    hi_hi: np.ndarray       # Dekker split of ``hi``
    hi_lo: np.ndarray
    lo: np.ndarray          # 10**j - hi, rounded
    ceil: np.ndarray        # the least double not below 10**j
    digits4: np.ndarray     # ASCII of 0000 .. 9999, one uint32 word each
    zeros4: np.ndarray      # trailing zeros of 0 .. 9999 (4 for 0)
    pattern: np.ndarray     # exponent j in _POW10 -> pattern of a positive value, less nd
    layout: np.ndarray      # (patterns, _WIDTH) source columns
    layout_len: np.ndarray  # bytes before the separators
    mask: np.ndarray        # (_WIDTH + 1, _WIDTH): the first n output bytes


@functools.cache
def _tables() -> _Tables:
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
    digits4 = (digits4 + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    n = np.arange(10000)
    zeros4 = sum(n % 10 ** i == 0 for i in range(1, 5))
    e = np.arange(_POW10.start, _POW10.stop)
    cls = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    w = np.arange(_WIDTH + 1)
    ceil = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    return _Tables(hi, hi_hi, hi - hi_hi, lo, ceil, digits4, zeros4, cls * 17 - 1, *_layout(),
                   w[:, None] > w[None, :-1])


def _layout() -> tuple[np.ndarray, np.ndarray]:
    """Layout patterns, indexed ``(negative * _CLASSES + cls) * 17 + nd - 1``
    for nd significant digits, plus ``_FALLBACK`` last, and the byte count
    of each before its separators."""
    cls, nd = (g.reshape(-1, 1) for g in np.meshgrid(
        np.arange(_CLASSES), np.arange(1, 18), indexing="ij"))
    x = cls - 4                             # the exponent, for fixed notation
    exp_digits = np.where(cls == 22, 3, 2)
    mant = np.where(nd > 1, nd + 1, 1)      # "d" or "d.ddd"
    zeros = -x - 1                          # after "0." when x < 0
    core = np.select([cls >= 21, x >= 0],
                     [mant + 2 + exp_digits, np.where(nd > x + 1, nd + 1, x + 1)],
                     2 + zeros + nd)
    u = np.arange(_WIDTH)
    sci_col = np.select(
        [u == 0, u < mant, u == mant, u == mant + 1],
        [_DIGITS, np.where(u == 1, _POINT, _DIGITS + u - 1), _E, _EXP_SIGN],
        _EXP_DIGITS + 3 - exp_digits + u - mant - 2)
    fixed_col = np.where(
        x >= 0,
        np.select([u <= x, u == x + 1], [_DIGITS + u, _POINT], _DIGITS + u - 1),
        np.select([u == 1, u < 2 + zeros], [_POINT, _ZERO], _DIGITS + u - 2 - zeros))
    col = np.select([u == core, u == core + 1, cls >= 21], [_SEP, _SEP + 1, sci_col], fixed_col)
    col = np.clip(col, 0, _SOURCE_WIDTH - 1)
    negative = np.hstack([np.full_like(core, _MINUS), col[:, :-1]])
    fallback = np.zeros((1, _WIDTH), col.dtype)
    fallback[0, :2] = _SEP, _SEP + 1
    layout = np.vstack([col, negative, fallback]).astype(np.int32)
    return layout, np.concatenate([core.ravel(), core.ravel() + 1, [0]])


def _divmod(n: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's floor division by a constant is fast; its % and divmod are not
    q = n // d
    return q, n - q * d


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text, np.uint32)[0]


class Encoder:
    """Formats a table chunk by chunk (:meth:`encode`).

    ``int_columns`` marks the columns written as ``%d``.  The byte buffers
    for ``max_rows`` rows are allocated once and reused by every chunk:
    fresh arrays of that size cost a page fault per 4 KiB, which doubled
    the time of a field-bump write.
    """

    def __init__(self, int_columns: np.ndarray, max_rows: int):
        self._int_columns = np.asarray(int_columns, bool)
        cols = self._int_columns.size
        n = max_rows * cols
        self._src = np.empty((n, _SOURCE_WIDTH), np.uint8)
        self._source = np.empty((n, _WIDTH), np.int32)
        self._mask = np.empty((n, _WIDTH), bool)
        self._bytes = np.empty((n, _WIDTH), np.uint8)
        self._row_start = (np.arange(n, dtype=np.int32) * _SOURCE_WIDTH)[:, None]
        self._sep = np.where(np.arange(cols) < cols - 1, _word(b",\n\0\0"), _word(b"\n\n\0\0"))

    def encode(self, values: np.ndarray, blank_after: np.ndarray):
        """Format a (rows, cols) float64 array, ``rows <= max_rows``, as CSV
        lines; ``blank_after`` marks the rows followed by a blank line.

        Returns the uint8 text, the flat indices of the values handed back,
        and the byte offsets where their text goes, ascending: the caller
        writes ``fmt`` of each there.  The text is a view of a buffer that
        the next call overwrites.
        """
        t = _tables()
        rows, cols = values.shape
        x = values.ravel()
        n = x.size
        a = np.abs(x)
        zero = a == 0.0
        fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
        if self._int_columns.any():
            ints = a.reshape(rows, cols)[:, self._int_columns]
            fast.reshape(rows, cols)[:, self._int_columns] &= ints < 2.0 ** 53
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
        groups = [*_divmod(upper, 10 ** 4), *_divmod(lower, 10 ** 4)]

        src = self._src[:n]
        words = src.view(np.uint32)
        words[:, 0] = _word(b"\0-00")
        src[:, _DIGITS] += lead.astype(np.uint8)
        for i, group in enumerate(groups, 1):
            words[:, i] = t.digits4[group]
        words[:, 5] = _word(b".e+\0")
        src[:, _EXP_SIGN] += (e < 0).astype(np.uint8) * (ord("-") - ord("+"))
        words[:, 6] = t.digits4[np.abs(e)]
        words.reshape(rows, cols, -1)[:, :, 7] = self._sep

        # significant digits; most mantissas end in a nonzero 4-digit group
        nd = 17 - t.zeros4[groups[3]]
        short = np.flatnonzero(groups[3] == 0)
        if short.size:
            g = [group[short] for group in groups]
            nd[short] = np.select([g[2] > 0, g[1] > 0, g[0] > 0],
                                  [13 - t.zeros4[g[2]], 9 - t.zeros4[g[1]],
                                   5 - t.zeros4[g[0]]], 1)
        pattern = t.pattern[e - _POW10.start] + nd
        pattern += np.signbit(x) * (_CLASSES * 17)
        pattern[fallback] = _FALLBACK

        sep_len = np.ones((rows, cols), np.intp)
        sep_len[:, -1] += blank_after
        length = t.layout_len[pattern] + sep_len.ravel()
        # mode="clip" lets take write straight into out=; "raise" buffers
        source = np.take(t.layout, pattern, axis=0, out=self._source[:n], mode="clip")
        source += self._row_start[:n]
        text = np.take(src.ravel(), source, out=self._bytes[:n], mode="clip")
        text = text[np.take(t.mask, length, axis=0, out=self._mask[:n], mode="clip")]
        slots = np.flatnonzero(fallback)
        offsets = (np.cumsum(length) - length)[slots]
        return text, slots, offsets
