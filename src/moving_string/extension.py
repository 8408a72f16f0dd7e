"""Extended initial slope and velocity fields on (-L1, L2).

The pinned-end boundary conditions let the initial data be continued past
[0, L] by rescaled reflections: arguments contract by gamma_v on the left
and dilate by 1/gamma_v on the right.  The slope picks up factors
(gamma_v, 1, 1/gamma_v) on the three branches and the velocity
(-gamma_v, 1, -1/gamma_v).  These extended fields are exactly what the
coefficient integrals consume.

Branch convention: [-L1, 0) left, [0, L] middle, (L, L2] right.  The
extension is generally discontinuous at 0 and L, so quadrature must split
there; ``on_segment`` evaluates one branch across a whole sub-interval so
that shared endpoints get the correct one-sided limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DerivedConstants, InitialData, edge_slack

__all__ = ["ExtensionField"]


@dataclass(frozen=True)
class ExtensionField:
    """Evaluator for the extended slope or velocity at t = 0."""

    which: str  # "slope" | "velocity"
    data: InitialData
    consts: DerivedConstants

    def __post_init__(self) -> None:
        if self.which not in ("slope", "velocity"):
            raise ValueError(f"which must be 'slope' or 'velocity', got {self.which!r}")

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        c = self.consts
        return (-c.L1, 0.0, c.L, c.L2)

    def _branch(self, x, branch: str):
        c = self.consts
        g = c.gamma_v
        base = self.data.phi0_x if self.which == "slope" else self.data.phi1
        x = np.asarray(x, dtype=float)
        if branch == "left":
            val = g * base(-g * x)
            return val if self.which == "slope" else -val
        if branch == "middle":
            return np.asarray(base(x), dtype=float) + np.zeros_like(x)
        if branch == "right":
            val = base(-x / g + 2.0 * c.L / (1.0 + c.v)) / g
            return val if self.which == "slope" else -val
        raise ValueError(f"unknown branch {branch!r}")

    def branch_of(self, x: float) -> str:
        if x < 0.0:
            return "left"
        if x <= self.consts.L:
            return "middle"
        return "right"

    def __call__(self, x):
        """Pointwise evaluation with the half-open branch convention."""
        c = self.consts
        arr = np.asarray(x, dtype=float)
        slack = edge_slack(c.L)
        if np.any(arr < -c.L1 - slack) or np.any(arr > c.L2 + slack):
            raise ValueError(
                f"extension argument outside [-L1, L2] = [{-c.L1}, {c.L2}]"
            )
        out = np.where(
            arr < 0.0,
            self._branch(arr, "left"),
            np.where(arr <= c.L, self._branch(arr, "middle"), self._branch(arr, "right")),
        )
        return out if out.shape else float(out)

    def on_segment(self, x, segment: tuple[float, float]):
        """Evaluate the branch containing ``segment`` at every node of ``x``.

        Segments must not straddle a breakpoint; the branch is picked from
        the segment midpoint, so nodes sitting exactly on 0 or L receive the
        one-sided limit from inside the segment.
        """
        lo, hi = segment
        return self._branch(x, self.branch_of(0.5 * (lo + hi)))
