"""Energy functionals on the moving interval and their identities.

Two quadratic functionals are tracked:

* ``calE`` = 1/2 int (phi_t + v phi_x)^2 + (1 - v^2) phi_x^2 dx — built on
  the material derivative, positive definite for 0 <= v < 1 and conserved
  in time; it also equals 2 pi^2 (1 - v^2)/L * sum |n c_n|^2.
* ``E``    = 1/2 int phi_t^2 + phi_x^2 dx — the usual wave energy; not
  conserved for v > 0 but T_v-periodic and sandwiched between
  calE/(1+v) and calE/(1-v); over time it stays within a factor gamma_v
  of its initial value.

``energy_report`` integrates the series evaluator on a quadrature grid,
so conservation checks genuinely cross the coefficient and series
modules instead of restating Parseval.  The integral over the
moving interval (v t, L + v t) is taken by the exact change of variables
x = v t + s over the relative nodes s of one fixed panelization of
(0, L).  Every time then shares the same nodes, so a whole sweep is one
call of ``series.field_on_moving_grid``: one (times x modes) by
(modes x nodes) product per node block, in which each mode's time factor
e^{2 pi i n t/T_v} carries the T_v-periodicity of E.  In s the densities
are trigonometric polynomials of band 2 n_max pi (1 + v)/L, the top mode
shape's frequency doubled by the squares, so the panelization is
Gauss-Legendre panels sized to that band (``quadrature.Panelization``
with ``band``), whatever the config's ``panels_per_unit``; conservation
then holds to rounding, where Simpson at 256 panels per unit left up to
1.4e-6 at v = 0.99.  At high n_max and small v this spends more nodes
than Simpson did (6,120 against 1,611 at v = 0.9, n_max = 320).
``initial_energies`` integrates the raw initial data on the layout of
``quadrature.data_layout`` (Gauss-Legendre panels sized to twice the
data's declared rate, else Simpson at ``panels_per_unit``); it is the
exact t = 0 reference that a truncated table can only approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import SpectralSolution
from .domain import DEFAULT_TOL, StringConfig, check_tolerance, initial_data
from .quadrature import Panelization, data_layout, integrate
from .series import field_on_moving_grid

# Unused here: the benchmark's span tracer (perfbench/spans.py) wraps this
# name in this module, so it stays bound until the tracer follows the grid
# evaluator instead.
from .series import field_components  # noqa: F401

__all__ = [
    "EnergyReport",
    "spectral_energy",
    "initial_energies",
    "energy_report",
]


_TIMES_PER_PASS = 12  # a pass holds a few (times x nodes) arrays of doubles


def _density_band(sol: SpectralSolution) -> float:
    """Highest frequency in s of the energy densities on x = v t + s: twice
    the top mode shape's n_max pi (1 + v) / L."""
    return 2.0 * math.pi * sol.n_max * (1.0 + sol.consts.v) / sol.consts.L


def _energy_integrals(sol: SpectralSolution, times):
    """(calE, E, cross) at each of ``times``, cross = int phi_x phi_t dx;
    each is an array of the shape of ``times``.

    The times go through in a few even passes of at most
    ``_TIMES_PER_PASS``, which bounds the working set of a long sweep.
    """
    c = sol.consts
    times = np.asarray(times, dtype=float)
    p = Panelization(0.0, c.L, band=_density_band(sol))

    def densities(ts, s):
        _, phx, pht, _ = field_on_moving_grid(sol, ts, s)
        return np.stack([0.5 * ((pht + c.v * phx) ** 2 + (1.0 - c.v ** 2) * phx ** 2),
                         0.5 * (pht ** 2 + phx ** 2),
                         phx * pht])

    passes = max(1, math.ceil(times.size / _TIMES_PER_PASS))
    out = np.concatenate([integrate(lambda s, seg: densities(ts, s), p)
                          for ts in np.array_split(times.ravel(), passes)], axis=1)
    return tuple(out.reshape((3,) + times.shape))


def spectral_energy(sol: SpectralSolution) -> float:
    """Conserved energy from the coefficient table alone."""
    c = sol.consts
    return 2.0 * math.pi ** 2 * (1.0 - c.v ** 2) / c.L * sol.weighted_square_sum()


def initial_energies(cfg: StringConfig) -> tuple[float, float]:
    """Exact (calE(0), E(0)) by quadrature of the raw initial data."""
    data = initial_data(cfg)
    p = data_layout(data, 0.0, cfg.L, data.knots, cfg.panels_per_unit,
                    lambda rate: 2.0 * rate)
    v = cfg.v

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
    cross: np.ndarray  # int phi_x phi_t dx, the mixed term calE - E = v cross
    spectral: float
    residual_conservation: float
    bound_violations: int
    vacuous: bool = False


def energy_report(sol: SpectralSolution, times, tol: float = DEFAULT_TOL) -> EnergyReport:
    """Sweep calE and E over ``times``; count violations of the two-sided
    bounds calE/(1+v) <= E <= calE/(1-v) and E(0)/gamma <= E <= gamma E(0)
    beyond relative slack ``tol``."""
    check_tolerance(tol)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be nonempty, finite and nonnegative")
    calE, E, cross = _energy_integrals(sol, times)
    spec = spectral_energy(sol)
    c = sol.consts
    E0 = E[0] if times[0] == 0.0 else float(_energy_integrals(sol, 0.0)[1])

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
        cross=cross,
        spectral=spec,
        residual_conservation=residual,
        bound_violations=violations,
        vacuous=vacuous,
    )
