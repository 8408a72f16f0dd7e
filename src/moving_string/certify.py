"""The identity suite: every certified statement about one solution.

``certify`` runs twenty checks in a fixed order and returns them as
``Check`` records: algebraic identities of the derived constants, the two
coefficient formulas and Parseval sums, the Dirichlet traces, energy
conservation and bounds, the boundary-observability identities, shift
periodicity and agreement with the characteristics oracle.  The support
checks read the grid evaluator at s = 0 and s = L of x = v t + s, so no
support point is rounded.  A check is vacuous when zero initial data
leave its energy normalization undefined; a vacuous check counts as passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng   # numpy loads it lazily; load it with the program

from .coefficients import SpectralSolution, parseval_sum
from .domain import DEFAULT_TOL, check_tolerance
from .energy import energy_report, spectral_energy
from .observability import (
    _velocity_trace_integral,
    observe_both_endpoints,
    observe_one_endpoint,
)
from .oracle import CharacteristicSolver
from .quadrature import data_layout, integrate
from .series import check_periodicity, field_components, field_on_moving_grid

__all__ = ["Check", "certify"]


@dataclass(frozen=True)
class Check:
    """Outcome of one check; vacuous checks count as passed.  ``residual`` is
    None where nothing was measured, ``tol`` None for informational entries."""

    name: str
    passed: bool
    residual: float | None
    tol: float | None
    vacuous: bool = False
    note: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "vacuous", bool(self.vacuous))
        object.__setattr__(self, "passed", bool(self.passed) or self.vacuous)


def certify(sol: SpectralSolution, tol: float = DEFAULT_TOL, seed: int = 0) -> list[Check]:
    """Run the identity suite on ``sol``; ``seed`` draws the sample points."""
    check_tolerance(tol)
    c = sol.consts
    zero_data = bool(np.all(np.abs(sol.c) == 0.0))
    checks = []

    # machine-level algebraic identities of the derived constants
    ident = max(
        abs(c.L1 * c.gamma_v - c.L) / c.L,
        abs(c.L2 * (1.0 - c.v) - 2.0 * c.L) / (2.0 * c.L),
        abs(c.T_v * (1.0 - c.v ** 2) - 2.0 * c.L) / (2.0 * c.L),
        abs(c.T_tilde_v * (1.0 - c.v) - c.L) / c.L,
    )
    checks.append(Check("constants_identities", ident < 1e-12, ident, 1e-12))

    checks.append(Check("coefficient_formula_equivalence", sol.cross_check_residual < 1e-8,
                        sol.cross_check_residual, 1e-8, vacuous=zero_data))
    conj = float(np.max(np.abs(sol.c[::-1].conj() - sol.c)))
    checks.append(Check("coefficient_conjugate_symmetry", conj < 1e-12, conj, 1e-12,
                        vacuous=zero_data))

    ps = parseval_sum(sol)
    pres = abs(ps.integral_plus - ps.integral_minus) / max(ps.integral_plus, 1e-300)
    checks.append(Check("parseval_integral_equivalence", pres < tol, pres, tol,
                        vacuous=zero_data))
    checks.append(Check("parseval_truncation_fraction", True, ps.truncation_fraction, None,
                        vacuous=zero_data,
                        note="informational: spectral tail beyond n_max, not an identity"))

    spec_e = spectral_energy(sol)
    # the supports s = 0 and s = L of the frame x = v t + s, read exactly
    phi, phx, pht, _ = field_on_moving_grid(sol, np.linspace(0.0, c.T_v, 33), [0.0, c.L])
    for j, side in enumerate(("left", "right")):
        sup = float(np.max(np.abs(phi[:, j])))
        checks.append(Check(f"dirichlet_trace_{side}", sup < 1e-8, sup, 1e-8))
    dres = float(np.max(np.abs(pht + c.v * phx))) / max(math.sqrt(spec_e), 1e-300)
    checks.append(Check("boundary_total_derivative", dres < 1e-6, dres, 1e-6,
                        vacuous=zero_data,
                        note="sup |phi_t + v phi_x| at the supports, energy-normalized"))

    rng = default_rng(seed)
    ts = rng.uniform(0.0, c.T_v, 64)
    xs = c.v * ts + rng.uniform(0.0, 1.0, 64) * c.L
    phi_pts, _, _, imag_resid = field_components(sol, xs, ts)
    checks.append(Check("field_reality", imag_resid < tol, imag_resid, tol))

    erep = energy_report(sol, np.linspace(0.0, 2.0 * c.T_v, 33), tol=tol)
    checks.append(Check("energy_conservation", erep.residual_conservation <= tol,
                        erep.residual_conservation, tol, vacuous=erep.vacuous))
    checks.append(Check("energy_bounds_ES0_stab", erep.bound_violations == 0,
                        float(erep.bound_violations), 0.0, vacuous=erep.vacuous))

    # the mixed-term identity calE = E + v int phi_x phi_t and E(t + T_v) = E(t)
    # at t = k T_v/8: sweep indices 0, 2, .., 16, partners 16, 18, .., 32
    now, later = slice(0, 17, 2), slice(16, 33, 2)
    scale = max(spec_e, 1e-300)
    mixed = float(np.max(np.abs(erep.E[now] + c.v * erep.cross[now] - erep.calE[now]))) / scale
    eper = float(np.max(np.abs(erep.E[later] - erep.E[now]))) / scale
    checks.append(Check("energy_mixed_term_identity", mixed < tol, mixed, tol,
                        vacuous=zero_data))
    checks.append(Check("energy_T_v_periodicity", eper < tol, eper, tol, vacuous=zero_data))

    reports = [(f"observability_one_endpoint_{side}", observe_one_endpoint(sol, side, 1, tol))
               for side in ("left", "right")]
    reports.append(("observability_two_endpoint", observe_both_endpoints(sol, tol)))
    for name, rep in reports:
        checks.append(Check(name, rep.identity_residual <= tol, rep.identity_residual, tol,
                            vacuous=rep.vacuous))

    # int phi_t^2 / int phi_x^2 over T_v at the left support, phi_x^2 from its report
    int_x = reports[0][1].integral
    if c.v > 0.0 and int_x > 0.0:
        diff = abs(_velocity_trace_integral(sol, "left", c.T_v) / int_x - c.v ** 2)
        checks.append(Check("velocity_trace_ratio", diff < tol, diff, tol))
    else:
        note = ("v = 0: velocity trace vanishes identically" if c.v == 0.0
                else "empty observation (zero trace)")
        checks.append(Check("velocity_trace_ratio", True, None, tol, vacuous=True, note=note))

    per = check_periodicity(sol, np.column_stack([xs, ts]))
    checks.append(Check("series_periodicity", per < 1e-12, per, 1e-12))

    # Horner sums point by point: these are a 50-point call's values, bit for bit
    char_vals = CharacteristicSolver(sol.data, c).value(xs[:50], ts[:50])
    char_diff = float(np.max(np.abs(phi_pts[:50] - char_vals)))
    checks.append(Check("characteristics_agreement", char_diff < 1e-2, char_diff, 1e-2,
                        note="smoke-level cross-solver agreement; the gap is the "
                             "series truncation, which grows with v and shrinks "
                             "with n_max"))

    # t = 0 data reproduction in L^2, truncation/Gibbs limited
    def squares(x, seg):
        phi, _, _, _ = field_components(sol, x, 0.0)
        p0 = np.asarray(sol.data.phi0(x), float)
        return [(phi - p0) ** 2, p0 ** 2]

    # the series at t = 0 holds frequencies up to n_max pi (1 + v) / L
    p = data_layout(sol.data, 0.0, c.L, sol.data.knots, sol.cfg.panels_per_unit,
                    lambda rate: 2.0 * (sol.n_max * math.pi * (1.0 + c.v) / c.L + rate))
    l2, ref = np.sqrt(integrate(squares, p)).tolist()
    if ref > 0:
        checks.append(Check("initial_data_reproduction", l2 / ref < 5e-2, l2 / ref, 5e-2,
                            note="relative L2 gap at t = 0; truncation/Gibbs limited"))
    else:
        checks.append(Check("initial_data_reproduction", l2 < 1e-10, l2, 1e-10,
                            vacuous=zero_data))
    return checks
