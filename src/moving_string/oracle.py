"""Two series-independent solvers used to cross-validate the spectral path.

Characteristics.  With unit wave speed, phi(x, t) = F(x + t) + G(x - t)
where on [0, L] the profiles are F = (phi0 + int phi1)/2 and
G = (phi0 - int phi1)/2.  The pinned moving supports extend the profiles by
the functional equations

    G(s) = -F(-gamma_v s)              for s < 0   (left support),
    F(s) = -G(L - (s - L)/gamma_v)     for s > L   (right support),

each reflection rescaling the argument by gamma_v or 1/gamma_v.  Evaluation
reduces the argument through these maps until it lands in [0, L]; the
number of reflections is finite for bounded time and guarded.  Derivative
profiles follow the same maps with chain-rule factors gamma_v^{+-1}.  This
solver is exact up to the accuracy of the phi1 antiderivative psi: cell-wise
Simpson sums on a dense grid give psi at the cell edges, and psi(s) is the
value at the edge e below s plus one Simpson step over [e, s].

Frozen-frame finite differences.  The substitution eta = x - v t, tau = t
maps the moving interval onto (0, L) and turns the wave equation into

    u_tautau - 2 v u_etatau - (1 - v^2) u_etaeta = 0,

discretized with centered second differences in tau and eta and the
centered cross stencil
(u_{j+1}^{n+1} - u_{j-1}^{n+1} - u_{j+1}^{n-1} + u_{j-1}^{n-1})/(4 de dt)
for the mixed term.  On the m = nx - 1 interior nodes each step solves
M u^{n+1} = A u^n + C u^{n-1}, with the same tridiagonal M = tridiag(beta,
1, -beta) at every step and beta = v dtau / (2 deta).  It is applied as the
explicit step u^{n+1} = P u^n + Q u^{n-1}, P = M^-1 A and Q = M^-1 C.  The
step rule keeps beta <= cfl v (1 - v) / 2 <= cfl / 8 <= 1/16, and the
entries of M^-1 fall off like beta^d at d nodes from the diagonal, so at
beta = 1/16 a row of P or Q holds about 1.3e-20 beyond 16 nodes.  Each
block of ``_BAND`` = 16 outputs therefore reads only its own block and the
two next to it, and a step is a matrix product over all blocks
(``_BandedStep``).  The weights are cut once per run from P and Q of a
small copy of the system (``numpy.linalg.solve``), and a run whose dropped
tail exceeds ``_TAIL_BOUND`` (eps / 1024 per row) is refused.  The
first step is seeded by a Taylor expansion with u_tau(eta, 0) = phi1(eta) +
v phi0_x(eta) (chain rule through eta = x - v t).  The scheme shares nothing
with the reflection geometry, guarding against common-mode errors in the
extension maps.

One generator, ``_march``, steps the scheme and hands out overlapping
blocks of time levels.  ``fd_solve`` takes one block as long as the whole
history (for the energy probe and library callers); ``fd_sample``, which
``cross_validate`` uses, locates each sample's cell before marching and
gathers its four corners from a window of ``_SAMPLE_WINDOW`` levels, so its
memory is O(nx) and its bound is the work n_steps * (nx + 1), not the
history's size.  Both interpolate with the same cell arithmetic, so the
sampled values equal ``fd_solve(...).eval`` bit for bit.

Both oracles evaluate whole arrays of sample points in one call: the
reflection reduction runs elementwise with per-point reflection counts, and
the FD values come from vectorized bilinear interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng   # numpy loads it lazily; load it with the program

from .coefficients import SpectralSolution
from .domain import (DerivedConstants, InitialData, StringConfig, check_memory,
                     check_moving_interval, derive_constants, edge_slack, initial_data)
from .errors import ConfigurationError
from .series import field_components

__all__ = [
    "CharacteristicSolver",
    "FrozenFrameFD",
    "fd_solve",
    "fd_sample",
    "CrossValidation",
    "cross_validate",
]

DEFAULT_FD_NX = 512   # FD intervals across the frozen frame
DEFAULT_FD_CFL = 0.4  # FD time step: dtau <= cfl (1 - v) deta
MAX_REFLECTIONS = 64
_ANTIDERIV_CELLS = 4096
_ENERGY_BLOCK = 256   # time levels per energy_series block
_SAMPLE_WINDOW = 64   # time levels fd_sample holds at once
_MAX_NODE_STEPS = 10**10   # fd_sample work bound, n_steps * (nx + 1)
_BAND = 16            # nodes per block of the banded FD step
_COPY_BLOCKS = 6      # blocks in the copy of the system the weights come from
_INNER_BLOCK = 2      # the copy block whose weights all inner blocks share
_TAIL_BOUND = 2.0 ** -62   # largest row mass the banded step may drop (eps / 1024)


def _cumulative_simpson(fn, a: float, b: float, cells: int):
    """Antiderivative of ``fn`` on [a, b], zero at a: cumulative per-cell
    Simpson sums at the cell edges, plus one Simpson step over the partial
    cell [e, s] from the edge e below each argument s."""
    edges = np.linspace(a, b, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (b - a) / cells
    f_edges = np.asarray(fn(edges), dtype=float)
    f_mids = np.asarray(fn(mids), dtype=float)
    increments = h / 6.0 * (f_edges[:-1] + 4.0 * f_mids + f_edges[1:])
    values = np.concatenate([[0.0], np.cumsum(increments)])

    def psi(s):
        s = np.asarray(s, dtype=float)
        i = np.clip(np.floor((s - a) / h).astype(int), 0, cells - 1)
        e = edges[i]
        f_mid = np.asarray(fn(0.5 * (e + s)), dtype=float)
        f_s = np.asarray(fn(s), dtype=float)
        return values[i] + (s - e) / 6.0 * (f_edges[i] + 4.0 * f_mid + f_s)

    return psi


class CharacteristicSolver:
    """Exact d'Alembert solution with boundary-reflection recursion."""

    def __init__(self, data: InitialData, consts: DerivedConstants):
        self.data = data
        self.consts = consts
        self._psi = _cumulative_simpson(data.phi1, 0.0, consts.L, _ANTIDERIV_CELLS)

    def _reduce(self, s: np.ndarray, forward: np.ndarray):
        """Map profile arguments into the data range, elementwise.

        ``s`` holds the arguments and ``forward`` is True where the profile
        is F, False where it is G.  Returns the reduced (s, forward, sign,
        dscale): ``sign`` multiplies profile values (one flip per
        reflection); ``dscale`` is the full chain-rule factor for
        derivatives, where the value flip and the negative slope of each
        argument map cancel, so derivatives only rescale by gamma_v^{+-1}.
        A reflection lands F arguments above 0 and G arguments below L, so
        only the incoming arguments can leave the profile domain.
        """
        g = self.consts.gamma_v
        L = self.consts.L
        slack = edge_slack(L)
        if np.any(forward & (s < -slack)):
            raise ValueError(f"forward profile argument {s[forward].min()} < 0")
        if np.any(~forward & (s > L + slack)):
            raise ValueError(f"backward profile argument {s[~forward].max()} > L")
        s, forward = s.copy(), forward.copy()
        sign, dscale = np.ones_like(s), np.ones_like(s)
        for _ in range(MAX_REFLECTIONS):
            right = forward & (s > L + slack)   # F past the right support
            left = ~forward & (s < -slack)      # G past the left support
            flip = right | left
            if not flip.any():
                break
            s[right] = L - (s[right] - L) / g
            s[left] = -g * s[left]
            forward ^= flip
            sign[flip] *= -1.0
            dscale[right] /= g
            dscale[left] *= g
        else:
            raise RecursionError(
                f"more than {MAX_REFLECTIONS} boundary reflections; time too large"
            )
        return np.clip(s, 0.0, L), forward, sign, dscale

    def _waves(self, x, t, derivative: bool):
        """Forward (x + t) and backward (x - t) profile terms at the points:
        values, or their derivatives when ``derivative`` is set."""
        c = self.consts
        x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
        check_moving_interval(c.L, c.v, x, t)
        n = x.size
        args = np.concatenate([(x + t).ravel(), (x - t).ravel()])
        s, forward, sign, dscale = self._reduce(args, np.arange(2 * n) < n)
        d = self.data
        if derivative:
            p1 = np.asarray(d.phi1(s), float)
            prof = dscale * (0.5 * (np.asarray(d.phi0_x(s), float) + np.where(forward, p1, -p1)))
        else:
            psi = self._psi(s)
            prof = sign * (0.5 * (np.asarray(d.phi0(s), float) + np.where(forward, psi, -psi)))
        return prof[:n].reshape(x.shape), prof[n:].reshape(x.shape)

    def value(self, x, t):
        """phi at points (x, t) inside the moving interval, t >= 0; a float
        for scalar input, an array of the broadcast shape otherwise."""
        f, b = self._waves(x, t, derivative=False)
        return _as_output(f + b)

    def slope(self, x, t):
        f, b = self._waves(x, t, derivative=True)
        return _as_output(f + b)

    def velocity(self, x, t):
        f, b = self._waves(x, t, derivative=True)
        return _as_output(f - b)


def _as_output(a: np.ndarray):
    return float(a) if a.ndim == 0 else a


def _level_time(t_final: float, n_steps: int, k):
    """tau_k of the uniform levels, rounded as np.linspace(0, t_final,
    n_steps + 1) rounds them: k (t_final / n_steps), and t_final at the end."""
    return np.where(k == n_steps, t_final, k * (t_final / n_steps))


def _cells(x, t, v: float, L: float, eta: np.ndarray, t_final: float, n_steps: int):
    """Bilinear cell of each point (x, t) in frozen coordinates e = x - v t:
    the level k and node j below it, and the weights wt, we toward k + 1 and
    j + 1, on the levels ``_level_time(t_final, n_steps, k)``.  Raises
    ValueError for a point outside the computed slab."""
    x, t = np.broadcast_arrays(np.asarray(x, float), np.asarray(t, float))
    e = x - v * t
    slack = edge_slack(L)
    inside = (-slack <= e) & (e <= L + slack) & (-slack <= t) & (t <= t_final + slack)
    if not np.all(inside):
        i = np.argmin(inside.ravel())
        raise ValueError(f"point (x={x.flat[i]}, t={t.flat[i]}) outside the computed slab")
    e = np.clip(e, 0.0, L)
    t = np.clip(t, 0.0, t_final)
    k = np.minimum((t / (t_final / n_steps)).astype(int), n_steps - 1)
    j = np.minimum((e / (eta[1] - eta[0])).astype(int), len(eta) - 2)
    tau_k, tau_next = _level_time(t_final, n_steps, k), _level_time(t_final, n_steps, k + 1)
    wt = (t - tau_k) / (tau_next - tau_k)
    we = (e - eta[j]) / (eta[j + 1] - eta[j])
    return k, j, wt, we


def _bilinear(u00, u01, u10, u11, wt, we):
    """Interpolate the corners u[k, j], u[k, j + 1], u[k + 1, j], u[k + 1, j + 1]."""
    return (1 - wt) * ((1 - we) * u00 + we * u01) + wt * ((1 - we) * u10 + we * u11)


@dataclass(frozen=True, eq=False)
class FrozenFrameFD:
    """FD history in frozen coordinates: u[k, j] ~ phi(eta_j + v tau_k, tau_k)."""

    eta: np.ndarray
    tau: np.ndarray
    u: np.ndarray
    v: float
    L: float

    def eval(self, x, t):
        """Bilinear interpolation, mapped back through x = eta + v t; a float
        for scalar input, an array of the broadcast shape otherwise."""
        k, j, wt, we = _cells(x, t, self.v, self.L, self.eta, self.tau[-1],
                              len(self.tau) - 1)
        u = self.u
        return _as_output(_bilinear(u[k, j], u[k, j + 1], u[k + 1, j], u[k + 1, j + 1],
                                    wt, we))

    def energy_series(self):
        """Material-derivative energy at interior time levels (drift probe),
        computed ``_ENERGY_BLOCK`` levels at a time to bound the temporaries."""
        dtau = self.tau[1] - self.tau[0]
        last = len(self.tau) - 1
        energies = []
        for k in range(1, last, _ENERGY_BLOCK):
            stop = min(k + _ENERGY_BLOCK, last)
            u_tau = (self.u[k + 1:stop + 1] - self.u[k - 1:stop - 1]) / (2.0 * dtau)
            u_eta = np.gradient(self.u[k:stop], self.eta, axis=1)
            dens = 0.5 * (u_tau ** 2 + (1.0 - self.v ** 2) * u_eta ** 2)
            energies.append(np.trapezoid(dens, self.eta, axis=1))
        return self.tau[1:-1].copy(), np.concatenate(energies)


@dataclass(frozen=True)
class _Scheme:
    """Grid and stencil constants of one frozen-frame FD run."""

    data: InitialData
    L: float
    v: float
    nx: int
    n_steps: int
    t_final: float
    deta: float
    dtau: float
    beta: float
    lam2: float

    def eta(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 1)


def _scheme(cfg: StringConfig, nx: int, cfl: float, t_final: float | None) -> _Scheme:
    """Validate the FD parameters and size the grid; allocates no grid arrays."""
    if nx < 32:
        raise ConfigurationError(f"nx must be >= 32, got {nx}")
    check_memory(8 * (nx + 1), f"one FD level of {nx + 1} nodes", "; lower nx")
    if not (0.0 < cfl <= 0.5):
        raise ConfigurationError(f"cfl must lie in (0, 0.5], got {cfl}")
    consts = derive_constants(cfg.L, cfg.v)
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
    return _Scheme(data=initial_data(cfg), L=L, v=v, nx=nx, n_steps=n_steps,
                   t_final=t_final, deta=deta, dtau=dtau, beta=beta, lam2=lam2)


def _step_operators(m: int, beta: float, lam2: float):
    """Dense P = M^-1 A and Q = M^-1 C of the scheme on m interior nodes."""
    eye, sub, sup = np.eye(m), np.eye(m, k=-1), np.eye(m, k=1)
    M = eye + beta * (sub - sup)
    A = (2.0 - 2.0 * lam2) * eye + lam2 * (sub + sup)
    PQ = np.linalg.solve(M, np.hstack([A, M - 2.0 * eye]))
    return PQ[:, :m], PQ[:, m:]


class _BandedStep:
    """The step u^{n+1} = P u^n + Q u^{n-1} on the m interior nodes, applied
    block by block.

    The nodes fall into nb blocks of ``band`` = ``_BAND``, the last one
    padded with zeros.  The outputs of block b read blocks b - 1, b and
    b + 1 of both levels: 6 band inputs, held in row b of ``_s`` as
    [neighbour, slot, node] with level k in slot k % 2.  Each new level is
    stored three times, as every block's own values and as both of its
    neighbours', so a step is a product (nb x 6 band) (6 band x band) over
    contiguous rows: one call for the inner blocks, which share weights, and
    one for the blocks at each boundary, which have their own.

    The weights are cut from P and Q of a copy of the system with
    ``_COPY_BLOCKS`` blocks and the same padding, or of the whole system
    when it has no more blocks than that.  The blocks next to a boundary
    take the weights of the copy's blocks at the same place: the first, and
    the last one, or the last two when the last is partial and the boundary
    sits inside it.  All other blocks share the weights of copy block
    ``_INNER_BLOCK``, two blocks or more from either end of the copy.
    Raises ConfigurationError when the mass a row drops outside its three
    blocks exceeds ``_TAIL_BOUND``.
    """

    def __init__(self, m: int, beta: float, lam2: float):
        band = _BAND
        nb = -(-m // band)
        pad = nb * band - m
        if nb <= _COPY_BLOCKS:
            copy, left, right = nb, nb, 0
        else:
            copy, left, right = _COPY_BLOCKS, 1, 1 if pad == 0 else 2
        size = copy * band - pad
        # P and Q with one zero block of columns on either side, and zero
        # rows for the padding
        ops = np.zeros((2, copy * band, (copy + 2) * band))
        ops[:, :size, band:band + size] = _step_operators(size, beta, lam2)
        weights = np.zeros((copy, 2, 3, 2, band, band))   # [block, parity, nbr, slot, in, out]
        tail = 0.0
        for c in range(copy):
            rows = ops[:, c * band:(c + 1) * band]
            block = rows[:, :, c * band:(c + 3) * band]   # [op, out, in]
            dropped = (np.abs(rows[:, :, :c * band]).sum(axis=2)
                       + np.abs(rows[:, :, (c + 3) * band:]).sum(axis=2))
            tail = max(tail, float(dropped.sum(axis=0).max()))
            win = block.reshape(2, band, 3, band).transpose(0, 2, 3, 1)  # [op, nbr, in, out]
            for p in range(2):   # level k in slot p is u^n and reads P
                weights[c, p, :, p] = win[0]
                weights[c, p, :, 1 - p] = win[1]
        if tail > _TAIL_BOUND:
            raise ConfigurationError(
                f"banded FD step would drop a row tail of {tail:.3g} at beta={beta:.4g}, "
                f"above {_TAIL_BOUND:.3g}; reduce cfl")
        weights = weights.reshape(copy, 2, 6 * band, band)

        self._s = np.zeros((nb, 3, 2, band))
        x = self._s.reshape(nb, 6 * band)
        self._y = np.zeros((nb, band))
        self._out = self._y.reshape(-1)[:m]
        y = self._y
        self._groups = []   # per parity: (inputs, weights, outputs) of each product
        for p in range(2):
            groups = [(x[:left, None], np.ascontiguousarray(weights[:left, p]), y[:left, None])]
            if nb - right > left:
                groups.append((x[left:nb - right],
                               np.ascontiguousarray(weights[_INNER_BLOCK, p]),
                               y[left:nb - right]))
            if right:
                groups.append((x[nb - right:, None],
                               np.ascontiguousarray(weights[copy - right:, p]),
                               y[nb - right:, None]))
            self._groups.append(groups)

    def _write(self, level: np.ndarray, slot: int) -> None:
        """Store a padded level (nb x band) as own and neighbour values."""
        s = self._s
        s[:, 1, slot] = level
        s[1:, 0, slot] = level[:-1]
        s[:-1, 2, slot] = level[1:]

    def load(self, level: np.ndarray, k: int) -> None:
        """Take the interior values of level k (the padding of ``_y`` stays
        zero: the weights give padded outputs none)."""
        self._out[:] = level
        self._write(self._y, k % 2)

    def advance(self, k: int) -> np.ndarray:
        """Level k + 1 from the stored levels k and k - 1.  Returns a view of
        its m interior values that the next call overwrites."""
        p = k % 2
        for x, w, y in self._groups[p]:
            np.matmul(x, w, out=y)
        self._write(self._y, 1 - p)
        return self._out


def _march(s: _Scheme, eta: np.ndarray, window: int):
    """March the scheme from tau = 0 to t_final, holding ``window`` (>= 3)
    time levels at a time.

    Yields ``(k0, block)`` with ``block[r]`` the level k0 + r.  Consecutive
    blocks overlap by the two levels the stencil reads, so every pair of
    adjacent levels lies in one block.  A block is overwritten when the
    generator resumes.  With ``window > n_steps`` the one block is the whole
    history.
    """
    v, deta, dtau, beta, lam2 = s.v, s.deta, s.dtau, s.beta, s.lam2
    data = s.data
    u = np.zeros((min(window, s.n_steps + 1), s.nx + 1))
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

    step = _BandedStep(s.nx - 1, beta, lam2)
    step.load(u[0, 1:-1], 0)
    step.load(u[1, 1:-1], 1)
    k0, r = 0, 1             # level k sits in row r = k - k0
    for k in range(1, s.n_steps):
        if r + 1 == len(u):
            yield k0, u
            u[:2] = u[-2:]   # boundary columns stay zero in every row
            k0, r = k - 1, 1
        u[r + 1, 1:-1] = step.advance(k)
        r += 1
    yield k0, u[:r + 1]


def fd_solve(cfg: StringConfig, nx: int = DEFAULT_FD_NX, cfl: float = DEFAULT_FD_CFL,
             t_final: float | None = None) -> FrozenFrameFD:
    """March the implicit frozen-frame scheme to ``t_final`` (default T_v),
    keeping every time level."""
    s = _scheme(cfg, nx, cfl, t_final)
    check_memory((s.n_steps + 1) * (nx + 1) * 8, "the FD history",
                 "; lower nx or use --method characteristics")
    eta = s.eta()
    (_, u), = _march(s, eta, s.n_steps + 1)
    tau = _level_time(s.t_final, s.n_steps, np.arange(s.n_steps + 1))
    return FrozenFrameFD(eta=eta, tau=tau, u=u, v=s.v, L=s.L)


def fd_sample(cfg: StringConfig, x, t, nx: int = DEFAULT_FD_NX, cfl: float = DEFAULT_FD_CFL,
              t_final: float | None = None):
    """``fd_solve(cfg, nx, cfl, t_final).eval(x, t)``, bit for bit, read
    while the scheme marches: only ``_SAMPLE_WINDOW`` time levels are held
    at once, so memory is O(nx) whatever the step count.  The work
    n_steps * (nx + 1) is bounded by ``_MAX_NODE_STEPS`` instead."""
    s = _scheme(cfg, nx, cfl, t_final)
    work = s.n_steps * (nx + 1)
    if work > _MAX_NODE_STEPS:
        raise ConfigurationError(
            f"FD oracle needs {s.n_steps} time steps x {nx + 1} nodes = {work:.3g} "
            f"node-steps, above the bound of {_MAX_NODE_STEPS:.3g}; "
            f"lower nx or use --method characteristics")
    eta = s.eta()
    k, j, wt, we = _cells(x, t, s.v, s.L, eta, s.t_final, s.n_steps)
    shape, k, j = k.shape, k.ravel(), j.ravel()
    order = np.argsort(k)
    k_sorted = k[order]
    corners = np.empty((4, k.size))
    done = 0
    for k0, block in _march(s, eta, _SAMPLE_WINDOW):
        # points whose levels k and k + 1 both lie in this block
        stop = int(np.searchsorted(k_sorted, k0 + len(block) - 1))
        idx = order[done:stop]
        r, c = k[idx] - k0, j[idx]
        corners[:, idx] = block[r, c], block[r, c + 1], block[r + 1, c], block[r + 1, c + 1]
        done = stop
    return _as_output(_bilinear(*corners, wt.ravel(), we.ravel()).reshape(shape))


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


def cross_validate(sol: SpectralSolution, sample_count: int, seed: int = 0,
                   nx: int = DEFAULT_FD_NX, cfl: float = DEFAULT_FD_CFL,
                   methods: tuple = ("characteristics", "fd")) -> CrossValidation:
    """Compare the series against the oracles, on ``sol``'s own problem, at
    seeded points in the space-time slab t in [0, T_v]."""
    if sample_count < 1:
        raise ConfigurationError("sample_count must be >= 1")
    unknown = set(methods) - {"characteristics", "fd"}
    if unknown or not methods:
        raise ConfigurationError(f"unknown oracle methods {sorted(unknown)}")
    check_memory(3 * 8 * sample_count, f"x, t and the series at {sample_count} samples")
    consts = sol.consts
    rng = default_rng(seed)
    t = rng.uniform(0.0, consts.T_v, sample_count)
    x = consts.v * t + rng.uniform(0.0, 1.0, sample_count) * consts.L
    phi, _, _, _ = field_components(sol, x, t)

    max_char = max_fd = None
    if "characteristics" in methods:
        vals = CharacteristicSolver(sol.data, consts).value(x, t)
        max_char = float(np.max(np.abs(phi - vals)))
    if "fd" in methods:
        vals = fd_sample(sol.cfg, x, t, nx=nx, cfl=cfl)
        max_fd = float(np.max(np.abs(phi - vals)))
    return CrossValidation(
        sample_count=sample_count,
        seed=seed,
        nx=nx,
        cfl=cfl,
        max_characteristics=max_char,
        max_fd=max_fd,
    )
