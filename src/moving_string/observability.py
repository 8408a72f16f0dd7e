"""Boundary observation integrals and the sharp identities they satisfy.

For the truncated solution the squared slope trace integrates exactly:

    int_0^{M T_v} phi_x^2(x_b + v t, t) dt = 4 M / (1 - v^2)^2 * calE(0)

at either support, and with both supports observed the horizons shorten to
L/(1+v) on the left and L/(1-v) on the right with the same right-hand side
at M = 1.  Trace integrals are computed by quadrature of the evaluated
trace, not via the coefficient-table shortcut, so each identity is an
end-to-end test; the reference energy is the table's conserved value.
A squared trace is a trigonometric polynomial of band 2 (2 pi n_max/T_v),
so (0, T) is laid out as Gauss-Legendre panels sized to that band
(``quadrature.Panelization`` with ``band``), whatever the data: 808
nodes per period at n_max = 40, where Simpson at 256 panels per unit
took 161,659 at v = 0.99.  The trace is
synthesized from its Fourier coefficient rows in e^{2 pi i n t/T_v}
(``series.slope_trace_rows``, ``series.velocity_trace_rows``) at all the
segment's nodes at once, as blocked matrix products over blocks of
panels (``quadrature.UniformPhasors``).

``sharpness_probe`` demonstrates that two-endpoint observability fails for
horizons below L/(1-v): a narrow bump released next to the left support
cannot reach the right support in time (finite propagation speed), so the
right trace vanishes identically.  The probe evaluates traces with the
characteristics solver, which honors finite propagation exactly; a
truncated series would leak ~1/n_max tails ahead of the front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import SpectralSolution
from .domain import (
    DEFAULT_TOL,
    InitialDataSpec,
    StringConfig,
    build_initial_data,
    check_tolerance,
    derive_constants,
)
from .energy import densities, spectral_energy
from .errors import ConfigurationError
from .oracle import CharacteristicSolver
from .quadrature import Panelization, Segment, UniformPhasors, integrate
from .series import slope_trace_rows, velocity_trace_rows

# Unused here: the benchmark's span tracer (perfbench/spans.py) wraps these
# names in this module, so they stay bound until it traces the trace sums.
from .series import _trace_values, field_components  # noqa: F401

__all__ = [
    "ObservabilityReport",
    "SharpnessReport",
    "observe_one_endpoint",
    "observe_both_endpoints",
    "observe_horizon",
    "velocity_trace_equivalent",
    "sharpness_probe",
]


@dataclass(frozen=True)
class ObservabilityReport:
    """Outcome of one observation experiment.

    ``identity_residual`` is the relative gap against the closed-form
    right-hand side (None when no exact identity applies, e.g. fractional
    horizons).  ``direct_constant`` is the empirical ratio
    integral / calE(0).  ``trace_ratio`` carries int phi_t^2 / int phi_x^2
    for the velocity-trace variant.  ``vacuous`` flags zero-data runs.
    """

    endpoint_mode: str          # "left" | "right" | "both"
    T: float
    M: int | None
    integral: float
    identity_residual: float | None
    inverse_constant_check: bool
    direct_constant: float
    energy0: float
    trace_ratio: float | None = None
    vacuous: bool = False


def _trace_band(sol: SpectralSolution) -> float:
    """Highest frequency of a squared support trace: twice the top mode's
    2 pi n_max / T_v."""
    return 4.0 * math.pi * sol.n_max / sol.consts.T_v


def _support_trace(sol: SpectralSolution, rows: np.ndarray, seg: Segment) -> np.ndarray:
    """A support trace at the nodes of one quadrature segment: the sum of
    the real parts of the coefficient ``rows`` of e^{2 pi i n t/T_v} (from
    ``slope_trace_rows`` or ``velocity_trace_rows``), each row synthesized
    by blocked matrix products."""
    omega = (2.0 * math.pi / sol.consts.T_v) * sol.n
    return UniformPhasors(seg, omega).synthesize(rows)


def _squared_trace_integral(sol: SpectralSolution, rows: np.ndarray, T: float,
                            name: str | None = None) -> float:
    """int_0^T trace(t)^2 dt for the trace with coefficient ``rows``, on
    Gauss-Legendre panels sized to the squared trace's band; a layout
    past the node bound is refused naming ``name``, the input that set T."""
    p = Panelization(0.0, T, band=_trace_band(sol), name=name)
    (seg,) = p.segments

    def sq(t, bounds):
        trace = _support_trace(sol, rows, seg)
        return np.square(trace, out=trace)

    return integrate(sq, p)


def _slope_trace_integral(sol: SpectralSolution, endpoint: str, T: float,
                          name: str | None = None) -> float:
    return _squared_trace_integral(sol, slope_trace_rows(sol, endpoint), T, name)


def _velocity_trace_integral(sol: SpectralSolution, endpoint: str, T: float) -> float:
    return _squared_trace_integral(sol, velocity_trace_rows(sol, endpoint), T)


def check_observation(periods: int | None = None, horizon: float | None = None,
                      prefix: str = "") -> None:
    """Refuse fewer than one whole period, or a horizon (None: not given)
    that is not positive and finite."""
    if periods is not None and periods < 1:
        raise ConfigurationError(f"{prefix}periods must be at least 1, got {periods}")
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        raise ConfigurationError(f"{prefix}horizon must be positive and finite, got {horizon}")


def _whole_periods(sol: SpectralSolution, M: int) -> float:
    """The horizon M T_v of M >= 1 whole periods."""
    check_observation(periods=M)
    try:
        return M * sol.consts.T_v
    except OverflowError:   # an integer M past float range
        raise ConfigurationError(
            "period count M is too large: M T_v is past float range") from None


def _report(sol, mode, T, M, integral, rhs, tol):
    """Report against the identity's right-hand side ``rhs``; None where no
    exact identity applies."""
    e0 = spectral_energy(sol)
    factor = (1.0 - sol.consts.v ** 2) ** 2 / 4.0
    if rhs is None:
        residual, vacuous = None, e0 == 0.0
    elif rhs > 0.0:
        residual, vacuous = abs(integral - rhs) / rhs, False
    else:
        residual, vacuous = abs(integral), True
    return ObservabilityReport(
        endpoint_mode=mode,
        T=T,
        M=M,
        integral=integral,
        identity_residual=residual,
        inverse_constant_check=bool(e0 <= factor * integral * (1.0 + tol) + tol * e0),
        direct_constant=integral / e0 if e0 > 0 else 0.0,
        energy0=e0,
        vacuous=vacuous,
    )


def observe_one_endpoint(sol: SpectralSolution, endpoint: str, M: int,
                         tol: float = DEFAULT_TOL, prefix: str = "") -> ObservabilityReport:
    """Slope-trace integral over M whole periods at one moving support.  Too
    many periods for the quadrature's node bound are refused, naming
    ``{prefix}periods``."""
    check_tolerance(tol)
    T = _whole_periods(sol, M)
    integral = _slope_trace_integral(sol, endpoint, T, f"{prefix}periods")
    rhs = 4.0 * M / (1.0 - sol.consts.v ** 2) ** 2 * spectral_energy(sol)
    return _report(sol, endpoint, T, M, integral, rhs, tol)


def observe_both_endpoints(sol: SpectralSolution,
                           tol: float = DEFAULT_TOL) -> ObservabilityReport:
    """Two-endpoint observation over the shortened horizons L/(1+v), L/(1-v)."""
    check_tolerance(tol)
    c = sol.consts
    left = _slope_trace_integral(sol, "left", c.L / (1.0 + c.v))
    right = _slope_trace_integral(sol, "right", c.L / (1.0 - c.v))
    rhs = 4.0 / (1.0 - c.v ** 2) ** 2 * spectral_energy(sol)
    return _report(sol, "both", c.T_tilde_v, None, left + right, rhs, tol)


def observe_horizon(sol: SpectralSolution, endpoint: str, T: float,
                    tol: float = DEFAULT_TOL, prefix: str = "") -> ObservabilityReport:
    """Fractional-horizon observation: only the direct inequality applies,
    with constant 4 ceil(T/T_v) / (1 - v^2)^2.  A horizon too long for the
    quadrature's node bound is refused, naming ``{prefix}horizon``."""
    check_tolerance(tol)
    check_observation(horizon=T)
    integral = _slope_trace_integral(sol, endpoint, T, f"{prefix}horizon")
    return _report(sol, endpoint, T, math.ceil(T / sol.consts.T_v), integral, None, tol)


def velocity_trace_equivalent(sol: SpectralSolution, endpoint: str, M: int,
                              tol: float = DEFAULT_TOL) -> ObservabilityReport:
    """Observation with the velocity trace phi_t / v^2 in place of phi_x.

    Along either support phi_t = -v phi_x, so int phi_t^2 = v^2 int phi_x^2
    (the reported ``trace_ratio``) and the substituted integral exceeds the
    slope integral by 1/v^2.  The inverse observability bound therefore
    carries over with the same constant, while the exact identity picks up
    the factor v^2: ``identity_residual`` is measured against
    4 M calE(0) / (v (1 - v^2))^2, the value the trace relation implies.
    """
    check_tolerance(tol)
    T = _whole_periods(sol, M)
    v = sol.consts.v
    if v == 0.0:
        raise ConfigurationError("velocity-trace observation needs v > 0 (divides by v^2)")
    int_t = _velocity_trace_integral(sol, endpoint, T)
    int_x = _slope_trace_integral(sol, endpoint, T)
    integral = int_t / v ** 4
    rhs = 4.0 * M / (v * (1.0 - v ** 2)) ** 2 * spectral_energy(sol)
    rep = _report(sol, endpoint, T, M, integral, rhs, tol)
    ratio = int_t / int_x if int_x > 0.0 else None
    return replace(rep, trace_ratio=ratio, vacuous=rep.vacuous or int_x == 0.0)


@dataclass(frozen=True)
class SharpnessReport:
    """Two-endpoint observation of a narrow bump over a short horizon."""

    T: float
    T_tilde_v: float
    support: tuple[float, float]
    energy0: float
    left_integral: float
    right_integral: float
    ratio: float            # (left + right) / energy0
    inverse_constant_check: bool


def sharpness_probe(cfg: StringConfig, T: float, width: float | None = None,
                    center: float | None = None, tol: float = DEFAULT_TOL) -> SharpnessReport:
    """Show two-endpoint observability failing for T below L/(1-v).

    Releases a unit-energy cubic-spline bump of support ``width`` centered
    at ``center`` (default: hugging the left support) and integrates both
    squared slope traces over [0, T] with the characteristics solver.  For
    a bump near x = 0 the right-hand trace stays identically zero until
    t = (L - width)/(1 - v), so no horizon-T constant can bound the energy.
    """
    check_tolerance(tol)
    consts = derive_constants(cfg.L, cfg.v)
    if not (0.0 < T < consts.T_tilde_v):
        raise ConfigurationError(
            f"probe horizon must lie in (0, T_tilde_v) = (0, {consts.T_tilde_v}); got {T}"
        )
    if width is None:
        width = cfg.L / 64.0
    if center is None:
        center = width / 2.0

    def unit_energy_bump(amplitude):
        return build_initial_data(
            InitialDataSpec.preset("bump", center=center, width=width,
                                   amplitude=amplitude), cfg.L
        )

    # normalize to unit conserved energy.  Between its knots the bump is a
    # cubic, so the density and both squared traces below are quartics
    # between their cuts: band 0, one Gauss-Legendre panel per piece, is
    # exact on them
    data = unit_energy_bump(1.0)
    v = consts.v
    p0 = Panelization(0.0, cfg.L, breakpoints=tuple(data.knots), band=0.0)
    calE0 = integrate(
        lambda x, seg: densities(v, np.asarray(data.phi0_x(x)), np.asarray(data.phi1(x)))[0],
        p0)
    data = unit_energy_bump(1.0 / math.sqrt(calE0))
    cs = CharacteristicSolver(data, consts)

    # trace kinks sit at knot preimages under s = (1+v) t and
    # s = L - (1-v) t; both traces take them all as panel boundaries
    cuts = tuple(c for k in data.knots for c in (k / (1.0 + v), (consts.L - k) / (1.0 - v)))
    p = Panelization(0.0, T, breakpoints=cuts, band=0.0)

    def trace_sq(xb):
        return integrate(lambda t, seg: cs._support_slope(xb, t) ** 2, p)

    left = trace_sq(0.0)
    right = trace_sq(consts.L)
    total = left + right
    factor = (1.0 - v ** 2) ** 2 / 4.0
    return SharpnessReport(
        T=T,
        T_tilde_v=consts.T_tilde_v,
        support=(center - width / 2.0, center + width / 2.0),
        energy0=1.0,
        left_integral=left,
        right_integral=right,
        ratio=total,
        inverse_constant_check=bool(1.0 <= factor * total * (1.0 + tol)),
    )
