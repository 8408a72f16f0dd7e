"""Energy functionals on the moving interval and their identities.

Two quadratic functionals are tracked:

* ``calE`` = 1/2 int (phi_t + v phi_x)^2 + (1 - v^2) phi_x^2 dx — built on
  the material derivative, positive definite for 0 <= v < 1 and conserved
  in time; it also equals 2 pi^2 (1 - v^2)/L * sum |n c_n|^2.
* ``E``    = 1/2 int phi_t^2 + phi_x^2 dx — the usual wave energy; not
  conserved for v > 0 but T_v-periodic and sandwiched between
  calE/(1+v) and calE/(1-v); over time it stays within a factor gamma_v
  of its initial value.

``energy_at`` integrates the series evaluator on a fresh quadrature grid,
so conservation checks genuinely cross the coefficient and series modules
instead of restating Parseval.  ``initial_energies`` integrates the raw
initial data; it is the exact t = 0 reference that a truncated table can
only approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import SpectralSolution
from .domain import DerivedConstants, InitialData, QuadratureSpec
from .quadrature import Panelization, integrate
from .series import field_components

__all__ = [
    "EnergyReport",
    "energy_at",
    "spectral_energy",
    "initial_energies",
    "energy_report",
]


def _energy_integrals(sol: SpectralSolution, t: float):
    """(calE, E, cross) at time t, cross = int phi_x phi_t dx."""
    c = sol.consts
    p = Panelization(c.v * t, c.L + c.v * t,
                     panels_per_unit=sol.cfg.quadrature.panels_per_unit)

    def densities(x, seg):
        _, phx, pht, _ = field_components(sol, x, t)
        return [0.5 * ((pht + c.v * phx) ** 2 + (1.0 - c.v ** 2) * phx ** 2),
                0.5 * (pht ** 2 + phx ** 2),
                phx * pht]

    return tuple(integrate(densities, p).tolist())


def energy_at(sol: SpectralSolution, t: float) -> tuple[float, float]:
    """(calE, E) by quadrature of the series fields over (v t, L + v t)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    calE, E, _ = _energy_integrals(sol, float(t))
    return calE, E


def spectral_energy(sol: SpectralSolution) -> float:
    """Conserved energy from the coefficient table alone."""
    s = math.fsum((np.abs(sol.n * sol.c) ** 2).tolist())
    c = sol.consts
    return 2.0 * math.pi ** 2 * (1.0 - c.v ** 2) / c.L * s


def initial_energies(data: InitialData, consts: DerivedConstants,
                     quad: QuadratureSpec = QuadratureSpec()) -> tuple[float, float]:
    """Exact (calE(0), E(0)) by quadrature of the raw initial data."""
    p = Panelization(0.0, consts.L, breakpoints=tuple(data.knots),
                     panels_per_unit=quad.panels_per_unit)
    v = consts.v

    def densities(x, seg):
        p0x = np.asarray(data.phi0_x(x), dtype=float)
        p1 = np.asarray(data.phi1(x), dtype=float)
        return [0.5 * ((p1 + v * p0x) ** 2 + (1.0 - v * v) * p0x ** 2),
                0.5 * (p1 ** 2 + p0x ** 2)]

    return tuple(integrate(densities, p).tolist())


@dataclass(frozen=True, eq=False)
class EnergyReport:
    """Energy sweep over a time grid with conservation and bound checks."""

    times: np.ndarray
    calE: np.ndarray
    E: np.ndarray
    spectral: float
    residual_conservation: float
    bound_violations: int
    vacuous: bool = False


def energy_report(sol: SpectralSolution, times, tol: float = 1e-6) -> EnergyReport:
    """Sweep calE and E over ``times``; count violations of the two-sided
    bounds calE/(1+v) <= E <= calE/(1-v) and E(0)/gamma <= E <= gamma E(0)
    beyond relative slack ``tol``."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(times < 0):
        raise ValueError("times must be nonempty and nonnegative")
    vals = np.array([_energy_integrals(sol, t)[:2] for t in times])
    calE, E = vals[:, 0], vals[:, 1]
    spec = spectral_energy(sol)
    c = sol.consts
    E0 = E[0] if times[0] == 0.0 else energy_at(sol, 0.0)[1]

    if spec > 0.0:
        residual = float(np.max(np.abs(calE - spec)) / spec)
        vacuous = False
    else:
        residual = float(np.max(np.abs(calE)))
        vacuous = True
    slack = tol * max(spec, 1e-300)
    violations = int(np.sum(
        (E < calE / (1.0 + c.v) - slack)
        | (E > calE / (1.0 - c.v) + slack)
        | (E < E0 / c.gamma_v - slack)
        | (E > E0 * c.gamma_v + slack)
    ))
    return EnergyReport(
        times=times,
        calE=calE,
        E=E,
        spectral=spec,
        residual_conservation=residual,
        bound_violations=violations,
        vacuous=vacuous,
    )
