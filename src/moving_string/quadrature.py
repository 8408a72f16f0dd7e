"""Deterministic composite quadrature with mandatory breakpoints: two rules.

Integrands here are smooth between known breakpoints (extension branch
boundaries, bump knots), so a fixed composite rule beats adaptivity: the
node set is a pure function of the interval, the breakpoints and the rule's
density, and results are reproducible bit-for-bit.  A ``Panelization``
lays out one of two rules:

* composite Simpson at ``panels_per_unit`` panels per unit length, each
  panel spanning two equal sub-intervals; every segment between
  breakpoints gets at least one panel, i.e. an even sub-interval count
  >= 2.  It serves the integrals of raw initial data that declare no rate
  (bump and tabulated data): the coefficient tables, the Parseval forms,
  the initial energies and the t = 0 L2 gap.
* Gauss-Legendre panels of ``_GAUSS_NODES`` nodes sized to a ``band`` the
  caller passes in: a segment of length l gets ceil(band l /
  ``_RAD_PER_PANEL``) panels, so no panel spans more than
  ``_RAD_PER_PANEL`` radians of the highest frequency present.  It serves
  integrands whose band is known: the squared boundary traces and the
  energy densities of the truncated series, which are trigonometric
  polynomials, and the same four raw-data integrals for data that declare
  their rate (``data_layout``, which widens the band so that a panel spans
  at most ``_DATA_RAD_PER_PANEL`` radians).  See Trefethen, "Is Gauss
  quadrature better than Clenshaw-Curtis?", SIAM Review 50, 2008.  Each
  panel is exact to polynomial degree 2 ``_GAUSS_NODES`` - 1, and the
  error falls geometrically as the panels shrink against the band.

An integrand may stack k functions on the same nodes, returning an array
of shape (k, nodes); ``integrate`` then returns the k integrals as an
array, so several functionals of one field evaluation share its cost.
Sums run per segment and then across segments, each along the node axis
by a pairwise tree of error-free additions (Knuth's TwoSum): the rounding
error of every addition is recovered exactly and the errors are summed
beside the tree, as in Ogita, Rump and Oishi's Sum2.  The result is as
accurate as a sum in twice working precision, then rounded:
|result - S| <= eps |S| + O((log2(n) eps)^2) Sum |x| for n terms x of exact
sum S, so it is the exactly rounded sum unless the terms cancel by about
1/eps.  The order is fixed by the row length alone and rows never mix, so
results are reproducible bit for bit and a stacked row sums exactly as
the row alone.

Under either rule a segment's nodes fall into blocks that share their
offsets from the block start: node r of block q is lo + q ``stride`` +
offset_r.  A Simpson segment's blocks hold ``_BLOCK`` uniform nodes,
offset_r = r h; a Gauss-Legendre segment's block is G panels, about
sqrt(panels / 8) of them, whose offsets are their abscissae.  So a sum over modes of e^{i omega_n t}
splits into a block factor e^{i omega_n (lo + q stride)} times an offset
factor e^{i omega_n offset_r}.  ``UniformPhasors`` uses that split for
both directions of a spectral sum: synthesis (a table of coefficients to
values at every node) and analysis (values at every node to one integral
per mode).  Each becomes a (blocks x modes) by (modes x offsets) matrix
product, taken a few blocks at a time.  Block factors cost one ``exp``
each.  A Simpson segment builds the B offset factors of a mode by
doubling from one ``exp`` per power of two, so every kernel is a product
of at most log2(B) + 2 correctly rounded factors; a Gauss-Legendre
segment takes one ``exp`` per offset, so every kernel is a product of two.
Either way a block holds at most ``_BLOCK`` nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DEFAULT_PANELS_PER_UNIT, InitialData, check_memory
from .errors import NumericError

__all__ = ["Panelization", "Segment", "integrate"]

# A layout may hold no more nodes than this.  The largest one in the
# shipped configurations, the plus table of the bump at v = 0.7, has
# 10,744; 1e7 nodes already take 80 MB per float array.
_MAX_NODES = 10_000_000
# nodes per block of the phasor split (a Simpson block's count, a
# Gauss-Legendre block's cap), and blocks per matrix product
_BLOCK = 256
_BLOCKS_PER_CHUNK = 32
# nodes per Gauss-Legendre panel, and the most radians of the band a panel
# may span: 5 keeps the energy of v = 0.99, n_max = 160 conserved to
# 3e-14, where 8 leaves 8e-11
_GAUSS_NODES = 8
_RAD_PER_PANEL = 5.0
# the most radians a panel may span in an integral of raw initial data
# (``data_layout``): on the sine tables, n_max 1..48 and v 0..0.99 against
# an exact mpmath integral, 3 leaves at most 9.4e-16 of max |c|, 4 leaves
# 1.3e-14 and 5 leaves 2.1e-13 (at n_max = 3, where few panels run close
# to their 5 rad)
_DATA_RAD_PER_PANEL = 3.0
# numpy.polynomial.legendre.leggauss(8) to the bit (a test compares them),
# written out so that no run pays for importing numpy.polynomial
_GAUSS_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                     -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                     0.7966664774136267, 0.9602898564975362])
_GAUSS_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                     0.22238103445337443, 0.10122853629037706])


@dataclass(frozen=True, eq=False)
class Segment:
    """Nodes and weights of one smooth piece (lo, hi) of a layout.

    The nodes fall into blocks of ``len(offsets)``: node r of block q is
    lo + q ``stride`` + ``offsets[r]`` (the last block may be short).
    ``step`` is the spacing h of uniform nodes, whose offsets are r h, and
    None on Gauss-Legendre panels.
    """

    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray
    stride: float
    offsets: np.ndarray
    step: float | None


def _simpson_segment(lo: float, hi: float, m: int) -> Segment:
    """Composite Simpson over m (even) equal sub-intervals of (lo, hi)."""
    h = (hi - lo) / m
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (hi - lo) / (3.0 * m)
    b = min(_BLOCK, m + 1)
    return Segment(lo, hi, lo + h * np.arange(m + 1), w, b * h, h * np.arange(b), h)


def _gauss_segment(lo: float, hi: float, panels: int) -> Segment:
    """``panels`` equal Gauss-Legendre panels on (lo, hi), G to a block.

    A mode's kernels then cost 8 G offset ``exp``s and one per block,
    fewest at G = sqrt(panels / 8); G is capped so that a block holds at
    most ``_BLOCK`` nodes, as a Simpson block does.
    """
    width = (hi - lo) / panels
    unit_x, unit_w = (_GAUSS_X + 1.0) / 2.0, _GAUSS_W / 2.0    # the rule on [0, 1]
    g = max(1, min(_BLOCK // _GAUSS_NODES, round(math.sqrt(panels / _GAUSS_NODES))))
    offsets = (width * np.arange(g)[:, None] + width * unit_x).ravel()
    nodes = (lo + width * np.arange(panels))[:, None] + width * unit_x
    return Segment(lo, hi, nodes.ravel(), np.tile(width * unit_w, panels), g * width,
                   offsets, None)


@dataclass(frozen=True, eq=False)
class Panelization:
    """Node/weight layout for (a, b) split at interior breakpoints.

    Without ``band`` the rule is composite Simpson at ``panels_per_unit``;
    with it, Gauss-Legendre panels sized to that band in radians per unit
    length, and ``panels_per_unit`` is not read (see the module
    docstring).  ``min_panels_per_segment`` forces short segments (e.g.
    around narrow bump knots) to still carry enough panels for full-order
    accuracy.  A layout of more than ``_MAX_NODES`` nodes is refused before
    any node is allocated.
    """

    a: float
    b: float
    breakpoints: tuple = ()
    panels_per_unit: int = DEFAULT_PANELS_PER_UNIT
    min_panels_per_segment: int = 1
    band: float | None = None

    def __post_init__(self) -> None:
        if not (self.a < self.b):
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")
        if self.panels_per_unit < 1 or self.min_panels_per_segment < 1:
            raise ValueError("panel densities must be >= 1")
        if self.band is not None and not (math.isfinite(self.band) and self.band > 0.0):
            raise ValueError(f"band must be finite and positive, got {self.band}")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"need a finite interval, got ({self.a}, {self.b})")
        cuts = sorted({float(c) for c in self.breakpoints if self.a < c < self.b})
        object.__setattr__(self, "breakpoints", tuple(cuts))
        edges = [self.a, *cuts, self.b]
        spans = list(zip(edges[:-1], edges[1:]))
        floor = self.min_panels_per_segment
        try:
            if self.band is None:     # Simpson sub-intervals per segment
                counts = [2 * max(floor, math.ceil(self.panels_per_unit * (hi - lo)))
                          for lo, hi in spans]
                total = sum(counts) + len(counts)
            else:                     # Gauss-Legendre panels per segment
                counts = [max(floor, math.ceil(self.band * (hi - lo) / _RAD_PER_PANEL))
                          for lo, hi in spans]
                total = _GAUSS_NODES * sum(counts)
        except OverflowError:   # a panel count past float range
            total = math.inf
        if total > _MAX_NODES:
            from decimal import Decimal   # rounds a count past float range
            shown = f"{Decimal(total):.3g}" if math.inf > total >= 10**15 else total
            knob = "panels_per_unit" if self.band is None else "the band"
            raise ValueError(f"quadrature over ({self.a}, {self.b}) needs {shown} nodes, "
                             f"more than the {_MAX_NODES} allowed; shorten the interval "
                             f"or lower {knob}")
        build = _simpson_segment if self.band is None else _gauss_segment
        segments = tuple(build(lo, hi, m) for (lo, hi), m in zip(spans, counts))
        object.__setattr__(self, "segments", segments)

    @property
    def node_count(self) -> int:
        return sum(len(s.nodes) for s in self.segments)

    @property
    def rule(self) -> str:
        return "simpson" if self.band is None else "gauss-legendre"


def data_layout(data: InitialData, a: float, b: float, breakpoints: tuple,
                panels_per_unit: int, band) -> Panelization:
    """Layout of an integral of the raw initial data over (a, b).

    Data that declare their rate get Gauss-Legendre panels sized to
    ``band(data.rate)``, the integrand's band in radians per unit length,
    at most ``_DATA_RAD_PER_PANEL`` radians of it per panel.  The band is
    floored at one panel over (a, b), so that data of rate 0, whose squares
    have band 0, still get a layout.  Data that declare no rate get
    composite Simpson at ``panels_per_unit``.
    """
    if data.rate is None:
        return Panelization(a, b, breakpoints, panels_per_unit=panels_per_unit)
    widened = band(data.rate) * (_RAD_PER_PANEL / _DATA_RAD_PER_PANEL)
    return Panelization(a, b, breakpoints, band=max(widened, _RAD_PER_PANEL / (b - a)))


def require_finite(nodes: np.ndarray, values: np.ndarray) -> None:
    """Raise NumericError naming the first node at which any stacked row of
    ``values`` is non-finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        at_node = np.any(bad, axis=tuple(range(bad.ndim - 1)))
        node = np.asarray(nodes)[np.argmax(at_node)]
        raise NumericError(f"integrand non-finite at node x = {node!r}")


def _sum_rows(values: np.ndarray, weights=1.0) -> np.ndarray:
    """Sum of ``weights * values`` along the last axis by the TwoSum tree
    of the module docstring; complex parts are summed apart.

    Each level adds the two contiguous halves of the level below; an odd
    last element is folded into the last pair.  The rounding errors of all
    additions are summed per row and added to the root once.  A row of
    length 0 sums to 0.0.
    """
    if np.iscomplexobj(values):
        return _sum_rows(values.real, weights) + 1j * _sum_rows(values.imag, weights)
    x = weights * values                      # a new array: _two_sum may overwrite it
    err = np.zeros(x.shape[:-1])
    while x.shape[-1] > 1:
        half = x.shape[-1] // 2
        s = _two_sum(x[..., :half], x[..., half:2 * half], err)
        if x.shape[-1] % 2:
            s[..., -1:] = _two_sum(s[..., -1:], x[..., -1:], err)
        x = s
    return x[..., 0] + err if x.shape[-1] else err


def _two_sum(a: np.ndarray, b: np.ndarray, err: np.ndarray) -> np.ndarray:
    """s = a + b for arrays of equal shape; the exact rounding errors
    (a - (s - bb)) + (b - bb), bb = s - a, summed over the last axis, are
    added into ``err``.  ``a`` and ``b`` are overwritten, which saves two
    temporaries of their size."""
    s = a + b
    bb = s - a
    b -= bb
    np.subtract(s, bb, out=bb)
    a -= bb
    a += b
    err += a.sum(axis=-1)
    return s


def integrate(f, p: Panelization):
    """Composite Simpson integral of ``f`` over ``p``.

    ``f(x, (lo, hi))`` is called once per smooth segment with the array of
    that segment's nodes; the segment bounds let piecewise integrands
    resolve one-sided limits at shared endpoints.  ``f`` returns the
    values at the nodes, or k stacked rows of them (shape (k, nodes)), in
    which case the result is the length-k array of integrals.  Each sum
    is the TwoSum tree of the module docstring, within eps |S| +
    O((log2(n) eps)^2) Sum |x| of the exact sum S of the n weighted
    values x.  Raises NumericError if any node evaluates non-finite or a
    sum overflows.
    """
    parts = []
    for seg in p.segments:
        vals = np.asarray(f(seg.nodes, (seg.lo, seg.hi)))
        require_finite(seg.nodes, vals)
        parts.append(_sum_rows(vals, seg.weights))
    total = _sum_rows(np.stack(parts, axis=-1))
    if not np.all(np.isfinite(total)):
        raise NumericError("quadrature sum overflowed")
    return total if total.ndim else total.item()


def _expj(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}, formed in one complex array."""
    out = phase * 1j
    return np.exp(out, out=out)


def _doubling_powers(step: np.ndarray, rows: int) -> np.ndarray:
    """Rows e^{i r step} for r = 0..rows-1.  Rows r..2r-1 are rows 0..r-1
    times e^{i r step} for r = 1, 2, 4, ..., so a row is a product of at
    most log2(rows) + 1 correctly rounded exponentials: one ``exp`` per
    power of two instead of one per row."""
    out = np.empty((rows, len(step)), dtype=complex)
    out[0] = 1.0
    r = 1
    while r < rows:
        k = min(r, rows - r)
        np.multiply(out[:k], _expj(r * step), out=out[r:r + k])
        r += k
    return out


def check_phasor_memory(modes: int) -> None:
    """Refuse a mode count whose ``UniformPhasors`` offset table, up to
    ``_BLOCK`` offsets x modes complex, would exceed physical memory."""
    check_memory(16 * _BLOCK * modes, f"a phasor table of {modes} modes")


class UniformPhasors:
    """Kernels e^{i omega_n t_k} at the nodes of one ``Segment``, split into
    block and offset factors (see the module docstring).

    The offset factors, offsets x modes, are built once; block factors are
    built ``_BLOCKS_PER_CHUNK`` blocks at a time, so memory beyond the
    values themselves stays near (B + 3 ``_BLOCKS_PER_CHUNK``) x modes
    complex entries for blocks of B nodes.
    """

    def __init__(self, seg: Segment, omega) -> None:
        self._count = len(seg.nodes)
        self._omega = np.asarray(omega, dtype=float)
        self._lo, self._stride = seg.lo, seg.stride
        self._b = len(seg.offsets)
        if seg.step is None:
            self._offset = _expj(np.outer(seg.offsets, self._omega))
        else:
            self._offset = _doubling_powers(seg.step * self._omega, self._b)

    def _chunks(self):
        """(first node, block factors of shape (blocks, modes)) per chunk."""
        b = self._b
        blocks = -(-self._count // b)
        for q in range(0, blocks, _BLOCKS_PER_CHUNK):
            starts = self._lo + self._stride * np.arange(q, min(q + _BLOCKS_PER_CHUNK, blocks))
            yield q * b, _expj(np.outer(starts, self._omega))

    def synthesize(self, coef: np.ndarray) -> np.ndarray:
        """Sum_j Re Sum_n coef[j, n] e^{i omega_n t_k} at every node, for
        coefficient rows of shape (k, modes).  Each row is summed over the
        modes on its own; only then are the rows' real parts added."""
        coef = np.atleast_2d(coef)
        out = np.empty(self._count)
        for start, block in self._chunks():
            terms = (block * coef[:, None, :]).reshape(-1, len(self._omega))
            vals = (terms @ self._offset.T).real.reshape(len(coef), -1).sum(axis=0)
            vals = vals[:self._count - start]
            out[start:start + len(vals)] = vals
        return out

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Sum_k values[k] e^{i omega_n t_k} for real values at the nodes:
        one sum per mode.  A short last block is padded with zeros."""
        b = self._b
        out = np.zeros(len(self._omega), dtype=complex)
        for start, block in self._chunks():
            span = len(block) * b
            g = values[start:start + span]
            if len(g) < span:
                g = np.pad(g, (0, span - len(g)))
            out += ((g.reshape(-1, b) @ self._offset) * block).sum(axis=0)
        return out
