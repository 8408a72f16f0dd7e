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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = ["Panelization", "Segment", "integrate"]


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
    bump knots) to still carry enough panels for full-order accuracy.
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
        cuts = sorted({float(c) for c in self.breakpoints if self.a < c < self.b})
        object.__setattr__(self, "breakpoints", tuple(cuts))
        edges = [self.a, *cuts, self.b]
        segments = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            m = 2 * max(self.min_panels_per_segment,
                        math.ceil(self.panels_per_unit * (hi - lo)))
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
