"""Two series-independent solvers used to cross-validate the spectral path.

Characteristics.  With unit wave speed, phi(x, t) = F(x + t) + G(x - t)
where on [0, L] the profiles are F = (phi0 + int phi1)/2 and
G = (phi0 - int phi1)/2.  The pinned moving supports extend the profiles by
the functional equations

    G(s) = -F(-gamma_v s)              for s < 0   (left support),
    F(s) = -G(L - (s - L)/gamma_v)     for s > L   (right support),

each reflection rescaling the argument by gamma_v or 1/gamma_v.  Evaluation
reduces the argument through these maps until it lands in [0, L]; the
recursion depth is finite for bounded time and guarded.  Derivative
profiles follow the same maps with chain-rule factors gamma_v^{+-1}.  This
solver is exact up to the accuracy of the phi1 antiderivative, precomputed
by cell-wise Simpson on a dense grid and interpolated with a cubic spline.

Frozen-frame finite differences.  The substitution eta = x - v t, tau = t
maps the moving interval onto (0, L) and turns the wave equation into

    u_tautau - 2 v u_etatau - (1 - v^2) u_etaeta = 0,

discretized with centered second differences in tau and eta and the
centered cross stencil
(u_{j+1}^{n+1} - u_{j-1}^{n+1} - u_{j+1}^{n-1} + u_{j-1}^{n-1})/(4 de dt)
for the mixed term.  Each step solves a constant tridiagonal system; the
first step is seeded by a Taylor expansion with u_tau(eta, 0) =
phi1(eta) + v phi0_x(eta) (chain rule through eta = x - v t).  The scheme
shares nothing with the reflection geometry, guarding against common-mode
errors in the extension maps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from .coefficients import SpectralSolution
from .domain import DerivedConstants, InitialData, StringConfig, derive_constants, initial_data
from .errors import ConfigurationError
from .series import field_components

__all__ = [
    "CharacteristicSolver",
    "FrozenFrameFD",
    "fd_solve",
    "CrossValidation",
    "cross_validate",
]

MAX_REFLECTIONS = 64
_ANTIDERIV_CELLS = 4096


def _cumulative_simpson(fn, a: float, b: float, cells: int) -> CubicSpline:
    """Antiderivative of ``fn`` on [a, b]: per-cell Simpson with midpoints,
    cubic-spline interpolated between the cell boundaries."""
    edges = np.linspace(a, b, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (b - a) / cells
    f_edges = np.asarray(fn(edges), dtype=float)
    f_mids = np.asarray(fn(mids), dtype=float)
    increments = h / 6.0 * (f_edges[:-1] + 4.0 * f_mids + f_edges[1:])
    values = np.concatenate([[0.0], np.cumsum(increments)])
    return CubicSpline(edges, values)


class CharacteristicSolver:
    """Exact d'Alembert solution with boundary-reflection recursion."""

    def __init__(self, data: InitialData, consts: DerivedConstants,
                 antiderivative_cells: int = _ANTIDERIV_CELLS):
        self.data = data
        self.consts = consts
        self._psi = _cumulative_simpson(data.phi1, 0.0, consts.L, antiderivative_cells)
        self._slack = 1e-9 * max(1.0, consts.L)

    # profile values on the data range [0, L]
    def _F0(self, s: float) -> float:
        return 0.5 * (float(self.data.phi0(s)) + float(self._psi(s)))

    def _G0(self, s: float) -> float:
        return 0.5 * (float(self.data.phi0(s)) - float(self._psi(s)))

    def _F0d(self, s: float) -> float:
        return 0.5 * (float(self.data.phi0_x(s)) + float(self.data.phi1(s)))

    def _G0d(self, s: float) -> float:
        return 0.5 * (float(self.data.phi0_x(s)) - float(self.data.phi1(s)))

    def _reduce(self, kind: str, s: float):
        """Map (kind, s) into the data range; returns (kind, s, sign, dscale).

        ``sign`` multiplies profile values (one flip per reflection);
        ``dscale`` is the full chain-rule factor for derivatives, where the
        value flip and the negative slope of each argument map cancel, so
        derivatives only rescale by gamma_v^{+-1}.
        """
        g = self.consts.gamma_v
        L = self.consts.L
        sign, dscale = 1.0, 1.0
        for _ in range(MAX_REFLECTIONS):
            if kind == "F":
                if s <= L + self._slack:
                    if s < -self._slack:
                        raise ValueError(f"forward profile argument {s} < 0")
                    return kind, min(max(s, 0.0), L), sign, dscale
                kind, s = "G", L - (s - L) / g
                sign, dscale = -sign, dscale / g
            else:
                if s >= -self._slack:
                    if s > L + self._slack:
                        raise ValueError(f"backward profile argument {s} > L")
                    return kind, min(max(s, 0.0), L), sign, dscale
                kind, s = "F", -g * s
                sign, dscale = -sign, dscale * g
        raise RecursionError(
            f"more than {MAX_REFLECTIONS} boundary reflections; time too large"
        )

    def _profile(self, kind: str, s: float) -> float:
        kind, s, sign, _ = self._reduce(kind, s)
        return sign * (self._F0(s) if kind == "F" else self._G0(s))

    def _profile_d(self, kind: str, s: float) -> float:
        kind, s, _, dscale = self._reduce(kind, s)
        return dscale * (self._F0d(s) if kind == "F" else self._G0d(s))

    def _check_point(self, x: float, t: float) -> None:
        c = self.consts
        if t < -self._slack:
            raise ValueError("time must be nonnegative")
        if not (c.v * t - self._slack <= x <= c.L + c.v * t + self._slack):
            raise ValueError("x outside the moving interval (v t, L + v t)")

    def value(self, x: float, t: float) -> float:
        self._check_point(x, t)
        return self._profile("F", x + t) + self._profile("G", x - t)

    def slope(self, x: float, t: float) -> float:
        self._check_point(x, t)
        return self._profile_d("F", x + t) + self._profile_d("G", x - t)

    def velocity(self, x: float, t: float) -> float:
        self._check_point(x, t)
        return self._profile_d("F", x + t) - self._profile_d("G", x - t)

    def value_many(self, x, t) -> np.ndarray:
        x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        return np.array([self.value(xi, ti) for xi, ti in zip(x.ravel(), t.ravel())]
                        ).reshape(x.shape)


@dataclass(frozen=True, eq=False)
class FrozenFrameFD:
    """FD history in frozen coordinates: u[k, j] ~ phi(eta_j + v tau_k, tau_k)."""

    eta: np.ndarray
    tau: np.ndarray
    u: np.ndarray
    v: float
    L: float

    def eval(self, x: float, t: float) -> float:
        """Bilinear interpolation, mapped back through x = eta + v t."""
        e = x - self.v * t
        slack = 1e-9 * max(1.0, self.L)
        if not (-slack <= e <= self.L + slack) or not (-slack <= t <= self.tau[-1] + slack):
            raise ValueError(f"point (x={x}, t={t}) outside the computed slab")
        e = min(max(e, 0.0), self.L)
        t = min(max(t, 0.0), float(self.tau[-1]))
        k = min(int(t / (self.tau[1] - self.tau[0])), len(self.tau) - 2)
        j = min(int(e / (self.eta[1] - self.eta[0])), len(self.eta) - 2)
        wt = (t - self.tau[k]) / (self.tau[k + 1] - self.tau[k])
        we = (e - self.eta[j]) / (self.eta[j + 1] - self.eta[j])
        u = self.u
        return float((1 - wt) * ((1 - we) * u[k, j] + we * u[k, j + 1])
                     + wt * ((1 - we) * u[k + 1, j] + we * u[k + 1, j + 1]))

    def energy_series(self):
        """Material-derivative energy at interior time levels (drift probe)."""
        dtau = self.tau[1] - self.tau[0]
        times, energies = [], []
        for k in range(1, len(self.tau) - 1):
            u_tau = (self.u[k + 1] - self.u[k - 1]) / (2.0 * dtau)
            u_eta = np.gradient(self.u[k], self.eta)
            dens = 0.5 * (u_tau ** 2 + (1.0 - self.v ** 2) * u_eta ** 2)
            times.append(float(self.tau[k]))
            energies.append(float(np.trapezoid(dens, self.eta)))
        return np.array(times), np.array(energies)


def fd_solve(cfg: StringConfig, nx: int, cfl: float = 0.4,
             t_final: float | None = None) -> FrozenFrameFD:
    """March the implicit frozen-frame scheme to ``t_final`` (default T_v)."""
    if nx < 32:
        raise ConfigurationError(f"nx must be >= 32, got {nx}")
    if not (0.0 < cfl <= 0.5):
        raise ConfigurationError(f"cfl must lie in (0, 0.5], got {cfl}")
    consts = derive_constants(cfg)
    data = initial_data(cfg)
    L, v = consts.L, consts.v
    if t_final is None:
        t_final = consts.T_v
    if t_final <= 0:
        raise ConfigurationError(f"t_final must be positive, got {t_final}")

    deta = L / nx
    n_steps = max(2, math.ceil(t_final / (cfl * (1.0 - v) * deta)))
    dtau = t_final / n_steps
    beta = v * dtau / (2.0 * deta)
    lam2 = (1.0 - v * v) * (dtau / deta) ** 2
    if 2.0 * beta >= 1.0:
        raise ConfigurationError(
            f"time step dtau={dtau} breaks tridiagonal diagonal dominance; "
            f"reduce cfl (needs v dtau / deta < 1)"
        )

    history = (n_steps + 1) * (nx + 1) * 8
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if history > memory:
        raise ConfigurationError(
            f"FD history of {history / 2**30:.3g} GiB exceeds physical memory "
            f"({memory / 2**30:.3g} GiB); lower nx or use --method characteristics")
    eta = np.linspace(0.0, L, nx + 1)
    u = np.zeros((n_steps + 1, nx + 1))
    u[0] = np.asarray(data.phi0(eta), dtype=float)
    u[0, 0] = u[0, -1] = 0.0
    rate = np.asarray(data.phi1(eta), float) + v * np.asarray(data.phi0_x(eta), float)
    # second-order first step: u_tautau(0) from the PDE with discrete
    # derivatives of the sampled data (keeps the oracle self-contained)
    d_rate = np.zeros_like(rate)
    d_rate[1:-1] = (rate[2:] - rate[:-2]) / (2.0 * deta)
    d2u = np.zeros_like(rate)
    d2u[1:-1] = (u[0, 2:] - 2.0 * u[0, 1:-1] + u[0, :-2]) / deta ** 2
    u[1] = u[0] + dtau * rate + 0.5 * dtau ** 2 * (2.0 * v * d_rate + (1.0 - v * v) * d2u)
    u[1, 0] = u[1, -1] = 0.0

    m = nx - 1
    ab = np.zeros((3, m))
    ab[0, 1:] = -beta   # superdiagonal
    ab[1, :] = 1.0
    ab[2, :-1] = beta   # subdiagonal
    for k in range(1, n_steps):
        un, um = u[k], u[k - 1]
        rhs = (2.0 * un[1:-1] - um[1:-1]
               + lam2 * (un[2:] - 2.0 * un[1:-1] + un[:-2])
               - beta * (um[2:] - um[:-2]))
        u[k + 1, 1:-1] = solve_banded((1, 1), ab, rhs)
    tau = np.linspace(0.0, t_final, n_steps + 1)
    return FrozenFrameFD(eta=eta, tau=tau, u=u, v=v, L=L)


@dataclass(frozen=True)
class CrossValidation:
    """Max pointwise discrepancies between the series and each oracle
    (None for oracles that were not requested)."""

    sample_count: int
    seed: int
    nx: int
    cfl: float
    max_characteristics: float | None
    max_fd: float | None


def cross_validate(sol: SpectralSolution, cfg: StringConfig, sample_count: int,
                   seed: int = 0, nx: int = 1024, cfl: float = 0.4,
                   methods: tuple = ("characteristics", "fd")) -> CrossValidation:
    """Compare the series against the oracles at seeded points in the
    space-time slab t in [0, T_v]."""
    if sample_count < 1:
        raise ConfigurationError("sample_count must be >= 1")
    unknown = set(methods) - {"characteristics", "fd"}
    if unknown or not methods:
        raise ConfigurationError(f"unknown oracle methods {sorted(unknown)}")
    consts = derive_constants(cfg)
    data = initial_data(cfg)

    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, consts.T_v, sample_count)
    x = consts.v * t + rng.uniform(0.0, 1.0, sample_count) * consts.L
    phi, _, _, _ = field_components(sol, x, t)

    max_char = max_fd = None
    if "characteristics" in methods:
        vals = CharacteristicSolver(data, consts).value_many(x, t)
        max_char = float(np.max(np.abs(phi - vals)))
    if "fd" in methods:
        fd = fd_solve(cfg, nx=nx, cfl=cfl, t_final=consts.T_v)
        vals = np.array([fd.eval(xi, ti) for xi, ti in zip(x, t)])
        max_fd = float(np.max(np.abs(phi - vals)))
    return CrossValidation(
        sample_count=sample_count,
        seed=seed,
        nx=nx,
        cfl=cfl,
        max_characteristics=max_char,
        max_fd=max_fd,
    )
