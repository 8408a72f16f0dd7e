"""Deterministic composite Simpson quadrature with mandatory breakpoints.

Integrands here are smooth between known breakpoints (extension branch
boundaries, bump knots), so a fixed composite rule beats adaptivity: the
node set is a pure function of the interval, the breakpoints and the panel
density, and results are reproducible bit-for-bit.  Each panel spans two
equal sub-intervals; every segment between breakpoints gets at least one
panel, i.e. an even sub-interval count >= 2.

An integrand may stack k functions on the same nodes, returning an array
of shape (k, nodes); ``integrate`` then returns the k integrals as an
array, so several functionals of one field evaluation share its cost.
Sums are accumulated with ``math.fsum`` (exactly rounded, order
independent), per segment and then across segments, which is stronger
than any fixed summation order.

A segment's nodes are uniform, t_k = lo + k h, so a sum over modes of
e^{i omega_n t_k} splits with t_k = lo + (q B + r) h into a block factor
e^{i omega_n (lo + q B h)} times an offset factor e^{i omega_n r h}.
``UniformPhasors`` uses that split for both directions of a spectral
sum: synthesis (a table of coefficients to values at every node) and
analysis (values at every node to one integral per mode).  Each becomes
a (blocks x modes) by (modes x B) matrix product, taken a few blocks at
a time.  Block factors cost one ``exp`` each; the B offset factors of a
mode are built by doubling from one ``exp`` per power of two, so every
kernel is a product of at most log2(B) + 2 correctly rounded factors.
The same split would apply to Gauss-Legendre panels with one block per
panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["Panelization", "Segment", "integrate"]

# A layout may hold no more nodes than this.  The largest one in the
# shipped configurations, the v = 0.99 coefficient table, has 321,704;
# 1e7 nodes already take 80 MB per float array.
_MAX_NODES = 10_000_000
# nodes per block of the phasor split, and nodes per matrix product
_BLOCK = 256
_CHUNK = 8192


@dataclass(frozen=True, eq=False)
class Segment:
    lo: float
    hi: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class Panelization:
    """Simpson node/weight layout for (a, b) split at interior breakpoints.

    ``min_panels_per_segment`` forces short segments (e.g. around narrow
    bump knots) to still carry enough panels for full-order accuracy.  A
    layout of more than ``_MAX_NODES`` nodes is refused before any node is
    allocated.
    """

    a: float
    b: float
    breakpoints: tuple = ()
    panels_per_unit: int = 256
    min_panels_per_segment: int = 1

    def __post_init__(self) -> None:
        if not (self.a < self.b):
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")
        if self.panels_per_unit < 1 or self.min_panels_per_segment < 1:
            raise ValueError("panel densities must be >= 1")
        if not math.isfinite(self.b - self.a):
            raise ValueError(f"need a finite interval, got ({self.a}, {self.b})")
        cuts = sorted({float(c) for c in self.breakpoints if self.a < c < self.b})
        object.__setattr__(self, "breakpoints", tuple(cuts))
        edges = [self.a, *cuts, self.b]
        counts = [2 * max(self.min_panels_per_segment,
                          math.ceil(self.panels_per_unit * (hi - lo)))
                  for lo, hi in zip(edges[:-1], edges[1:])]
        total = sum(counts) + len(counts)
        if total > _MAX_NODES:
            raise ValueError(f"quadrature over ({self.a}, {self.b}) needs {total} nodes, "
                             f"more than the {_MAX_NODES} allowed; shorten the interval "
                             f"or lower panels_per_unit")
        segments = []
        for lo, hi, m in zip(edges[:-1], edges[1:], counts):
            nodes = lo + (hi - lo) / m * np.arange(m + 1)
            w = np.ones(m + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            w *= (hi - lo) / (3.0 * m)
            segments.append(Segment(lo, hi, nodes, w))
        object.__setattr__(self, "segments", tuple(segments))

    @property
    def node_count(self) -> int:
        return sum(len(s.nodes) for s in self.segments)


def require_finite(nodes: np.ndarray, values: np.ndarray) -> None:
    """Raise NumericError naming the first node at which any stacked row of
    ``values`` is non-finite."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        at_node = np.any(bad, axis=tuple(range(bad.ndim - 1)))
        node = np.asarray(nodes)[np.argmax(at_node)]
        raise NumericError(f"integrand non-finite at node x = {node!r}")


def _fsum_rows(values: np.ndarray, weights=1.0) -> np.ndarray:
    """``math.fsum`` of ``weights * values`` along the last axis; complex
    parts are summed apart.

    Each row is weighted and converted to Python floats on its own, so a
    tall stack is never copied whole nor held as one list of boxed floats.
    """
    if np.iscomplexobj(values):
        return _fsum_rows(values.real, weights) + 1j * _fsum_rows(values.imag, weights)
    rows = values.reshape(-1, values.shape[-1])
    return np.array([math.fsum((weights * r).tolist()) for r in rows]).reshape(
        values.shape[:-1])


def integrate(f, p: Panelization):
    """Composite Simpson integral of ``f`` over ``p``.

    ``f(x, (lo, hi))`` is called once per smooth segment with the array of
    that segment's nodes; the segment bounds let piecewise integrands
    resolve one-sided limits at shared endpoints.  ``f`` returns the
    values at the nodes, or k stacked rows of them (shape (k, nodes)), in
    which case the result is the length-k array of integrals.  Raises
    NumericError if any node evaluates non-finite.
    """
    parts = []
    for seg in p.segments:
        vals = np.asarray(f(seg.nodes, (seg.lo, seg.hi)))
        require_finite(seg.nodes, vals)
        parts.append(_fsum_rows(vals, seg.weights))
    total = _fsum_rows(np.stack(parts, axis=-1))
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


class UniformPhasors:
    """Kernels e^{i omega_n t_k} on the uniform nodes of one segment, split
    into block and offset factors (see the module docstring).

    ``nodes`` and ``bounds`` are what ``integrate`` passes an integrand:
    the nodes must be lo + k (hi - lo)/(len(nodes) - 1), as every
    ``Panelization`` segment's are.  The offset factors, B x modes, are
    built once; block factors are built a chunk of blocks at a time, so
    memory beyond the values themselves stays near (B + 3 _CHUNK / B) x
    modes complex entries.
    """

    def __init__(self, nodes: np.ndarray, bounds, omega) -> None:
        lo, hi = bounds
        self._count = len(nodes)
        self._omega = np.asarray(omega, dtype=float)
        self._h = (hi - lo) / (self._count - 1)
        self._lo = lo
        self._b = min(_BLOCK, self._count)
        self._offset = _doubling_powers(self._h * self._omega, self._b)

    def _chunks(self):
        """(first node, block factors of shape (blocks, modes)) per chunk."""
        b = self._b
        blocks = -(-self._count // b)
        step = max(1, _CHUNK // b)
        for q in range(0, blocks, step):
            starts = self._lo + (b * self._h) * np.arange(q, min(q + step, blocks))
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
