"""Series coefficients c_n computed from the extended initial data.

Two independent integral formulas produce the same table:

    c_n = 1/(4 n pi i) * int_0^{L2}   (slope~ + velocity~) e^{-n pi i (1-v) x / L} dx
        = 1/(4 n pi i) * int_{-L1}^{L} (slope~ - velocity~) e^{+n pi i (1+v) x / L} dx

where slope~/velocity~ are the reflected extensions at t = 0.  Both are
always computed and cross-checked; the residual is the cheapest end-to-end
test of the extension module and guards against sign or normalization
slips.  Quadrature splits at the branch boundaries (x = L for the first
form, x = 0 for the second) plus any data knots mapped through the branch
argument maps.

The weighted integrand is evaluated once per segment of the layout that
``quadrature.data_layout`` picks.  Data that declare their rate
(``InitialData.rate``: the sine presets and ``zero``) get Gauss-Legendre
panels sized to the integrand's band (see ``_formula``).  At v = 0.99 and
n_max = 40 a table takes 2,352 nodes where Simpson took 321,704 on the
plus axis, and the two formulas agree to 1.8e-18 where Simpson left
2.6e-8.  Bump and tabulated data declare no rate and keep composite
Simpson at the config's ``panels_per_unit``.
Either way a segment's nodes fall into blocks that share their offsets,
so its integrals against e^{i omega n x} for every mode, n = -n_max..-1
and 1..n_max each with its own phasors, are one blocked matrix product
(``quadrature.UniformPhasors.analyze``): kernels are split into a block
factor and an offset factor, and the node sums run in BLAS.  A kernel's
phase error is about eps * (|omega n x| + log2 256), so an integral
carries at most about n_max * eps * Sum |weight * integrand| of absolute
error, as stepping one phasor per node did.  Memory stays linear in the
node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DerivedConstants, InitialData, StringConfig, derive_constants, initial_data
from .extension import ExtensionField
from .quadrature import (UniformPhasors, check_phasor_memory, data_layout, integrate,
                         require_finite)

__all__ = [
    "SpectralSolution",
    "ParsevalSums",
    "solve",
    "parseval_sum",
]


def mode_numbers(n_max: int) -> np.ndarray:
    """Mode index order used everywhere: -n_max..-1 then 1..n_max (no 0)."""
    return np.concatenate([np.arange(-n_max, 0), np.arange(1, n_max + 1)])


def _mapped_knots(data: InitialData, consts: DerivedConstants, side: str) -> list[float]:
    """Preimages of data knots under the branch argument maps (quadrature cuts)."""
    g, L, v = consts.gamma_v, consts.L, consts.v
    cuts = []
    for k in data.knots:
        if side == "plus":
            cuts.append(k)                              # middle branch
            cuts.append(g * (2.0 * L / (1.0 + v) - k))  # right branch preimage
        else:
            cuts.append(k)
            cuts.append(-k / g)                         # left branch preimage
    return cuts


def _formula(data: InitialData, consts: DerivedConstants, panels_per_unit: int,
             side: str, n_max: int | None):
    """Layout, extended integrand slope~ +- velocity~ and kernel frequency
    unit of one coefficient formula.

    The layout is sized for the table of ``n_max`` modes, whose integrand
    times kernel has band |omega_unit| n_max plus the data's rate on this
    formula, or, with ``n_max`` None, for the squared integrand of the
    Parseval form, of band twice that rate.  The left branch contracts the
    data by gamma_v, so on the minus formula their rate is gamma_v times
    their rate on [0, L]; the right branch dilates it.
    """
    if side == "plus":
        a, b, cut, scale = 0.0, consts.L2, consts.L, 1.0
        sign_vel, omega_unit = +1.0, -math.pi * (1.0 - consts.v) / consts.L
    else:
        a, b, cut, scale = -consts.L1, consts.L, 0.0, consts.gamma_v
        sign_vel, omega_unit = -1.0, +math.pi * (1.0 + consts.v) / consts.L
    slope = ExtensionField("slope", data, consts)
    velocity = ExtensionField("velocity", data, consts)
    cuts = (cut, *_mapped_knots(data, consts, side))
    if n_max is None:
        p = data_layout(data, a, b, cuts, panels_per_unit, lambda rate: 2.0 * scale * rate)
    else:
        p = data_layout(data, a, b, cuts, panels_per_unit,
                        lambda rate: abs(omega_unit) * n_max + scale * rate)

    def integrand(x, seg):
        return slope.on_segment(x, seg) + sign_vel * velocity.on_segment(x, seg)

    return p, integrand, omega_unit


def _table(data: InitialData, consts: DerivedConstants, n_max: int,
           panels_per_unit: int, side: str) -> np.ndarray:
    """Coefficient table for one formula, ordered by mode_numbers(n_max):
    ``side`` "plus" is the right-extended formula over (0, L2), split at
    x = L, and "minus" the left-extended one over (-L1, L), split at x = 0."""
    check_phasor_memory(2 * n_max)
    p, integrand, omega_unit = _formula(data, consts, panels_per_unit, side, n_max)
    n = mode_numbers(n_max)
    integrals = np.zeros(len(n), dtype=complex)
    for seg in p.segments:
        g = integrand(seg.nodes, (seg.lo, seg.hi))
        require_finite(seg.nodes, g)
        integrals += UniformPhasors(seg, omega_unit * n).analyze(seg.weights * g)
    return integrals / (4.0 * math.pi * 1j * n)


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Truncated coefficient table plus everything needed to evaluate it.

    ``c`` is the canonical table (the right-extended formula);
    ``cross_check_residual`` is max_n |c_n - c_minus_n|.
    """

    cfg: StringConfig
    consts: DerivedConstants
    data: InitialData
    n: np.ndarray
    c: np.ndarray
    c_minus: np.ndarray
    cross_check_residual: float

    @property
    def n_max(self) -> int:
        return int(self.n[-1])

    def table_layout(self) -> dict:
        """The rule that laid out the two coefficient tables (``simpson`` or
        ``gauss-legendre``) and each formula's node count."""
        layouts = {side: _formula(self.data, self.consts, self.cfg.panels_per_unit, side,
                                  self.n_max)[0] for side in ("plus", "minus")}
        return {"rule": layouts["plus"].rule,
                "nodes": {side: p.node_count for side, p in layouts.items()}}

    def coefficient(self, n: int) -> complex:
        idx = n + self.n_max if n < 0 else n + self.n_max - 1
        if n == 0 or not (0 <= idx < len(self.n)):
            raise ValueError(f"mode {n} outside table (|n| in 1..{self.n_max})")
        return complex(self.c[idx])

    def weighted_square_sum(self) -> float:
        """Sum |n c_n|^2 over the table, exactly rounded (``math.fsum``)."""
        return math.fsum((np.abs(self.n * self.c) ** 2).tolist())


def solve(cfg: StringConfig) -> SpectralSolution:
    """Build the truncated spectral solution for a configuration."""
    consts = derive_constants(cfg.L, cfg.v)
    data = initial_data(cfg)
    cp = _table(data, consts, cfg.n_max, cfg.panels_per_unit, "plus")
    cm = _table(data, consts, cfg.n_max, cfg.panels_per_unit, "minus")
    return SpectralSolution(
        cfg=cfg,
        consts=consts,
        data=data,
        n=mode_numbers(cfg.n_max),
        c=cp,
        c_minus=cm,
        cross_check_residual=float(np.max(np.abs(cp - cm))),
    )


@dataclass(frozen=True)
class ParsevalSums:
    """The weighted coefficient sum and its two integral forms.

    ``table_sum`` is Sum |n c_n|^2 over the truncated table; the integral
    forms are computed from the raw extended data and therefore carry the
    full spectrum.  Their difference is the truncation tail, reported, not
    asserted away.
    """

    table_sum: float
    integral_plus: float
    integral_minus: float

    @property
    def truncation_fraction(self) -> float:
        if self.integral_plus == 0.0:
            return 0.0
        return abs(self.integral_plus - self.table_sum) / self.integral_plus


def parseval_sum(sol: SpectralSolution) -> ParsevalSums:
    """Sum |n c_n|^2 from the table and from both extended-data integrals."""
    L, v = sol.consts.L, sol.consts.v

    def squared(side):
        p, integrand, _ = _formula(sol.data, sol.consts, sol.cfg.panels_per_unit, side, None)
        return integrate(lambda x, seg: integrand(x, seg) ** 2, p)

    plus = L / (8.0 * math.pi ** 2 * (1.0 - v)) * squared("plus")
    minus = L / (8.0 * math.pi ** 2 * (1.0 + v)) * squared("minus")
    return ParsevalSums(table_sum=sol.weighted_square_sum(), integral_plus=plus,
                        integral_minus=minus)
