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
1, -beta) at every step and beta = v dtau / (2 deta).  The first step is
seeded by a Taylor expansion with u_tau(eta, 0) = phi1(eta) + v phi0_x(eta)
(chain rule through eta = x - v t).  The scheme shares nothing with the
reflection geometry, guarding against common-mode errors in the extension
maps.

The march carries u^k and the increment d^k = u^k - u^{k-1}, in which the
step reads d^{n+1} = M^-1 (lam2 Delta u^n + 2 d^n) - d^n and u^{n+1} =
u^n + d^{n+1} (Delta the second difference, lam2 = (1 - v^2)
(dtau / deta)^2).  Marching (u^k, u^{k-1}) instead rounds like n_steps^2
eps, because the two-level recurrence is nearly a Jordan block; carrying
the increment (Henrici's summed form) keeps the growth linear.  One matrix
product advances the state ``_LEVELS`` = 10 levels (``_Propagator``).  The
step rule keeps beta <= cfl v (1 - v) / 2 <= cfl / 8 <= 1/16, so M is
diagonally dominant with no check, and the entries of M^-1 fall off like
beta^d at d nodes from the diagonal, so every level of a block of
``_BAND`` = 16 nodes reads only the ``_REACH`` = 2 blocks on either side:
a row drops at most 3.6e-28 of its mass over the admissible (v, cfl).  The weights are cut once per run from the exact level
maps of a small copy of the system (``numpy.linalg.solve``), and a run whose
dropped tail exceeds ``_TAIL_BOUND`` (eps / 1024 per row) is refused.

One generator, ``_march``, hands out the levels the propagator holds: 0,
then 1, 1 + K, 1 + 2 K, ...; the levels between are read from the one
before them through per-level rows of the weights.  ``fd_solve`` reads every
node of every level into the history (for the energy probe); ``_sample``,
which ``cross_validate`` runs, locates each sample's cell before marching
and reads only its four corners, so its memory is O(nx) and its bound is
the work n_steps * (nx + 1), not the history's size.  Both form each value
as the same sum and interpolate with the same cell arithmetic, so the
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
    "check_fd_grid",
    "fd_solve",
    "CrossValidation",
    "cross_validate",
]

DEFAULT_FD_NX = 512   # FD intervals across the frozen frame
DEFAULT_FD_CFL = 0.4  # FD time step: dtau <= cfl (1 - v) deta
MAX_REFLECTIONS = 64
_ANTIDERIV_CELLS = 4096
_ENERGY_BLOCK = 256   # time levels per energy_series block
_MAX_NODE_STEPS = 10**10   # _sample work bound, n_steps * (nx + 1)
_LEVELS = 10          # time levels one FD product advances
_BAND = 16            # nodes per block of the FD propagator
_REACH = 2            # neighbour blocks on each side that a block's window reads
_TAIL_BOUND = 2.0 ** -62   # largest row mass the propagator may drop (eps / 1024)


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


def check_fd_grid(nx: int, cfl: float, prefix: str = "") -> None:
    """Refuse fewer than 32 FD intervals or a ``cfl`` outside (0, 0.5],
    naming ``prefix`` + "nx" or ``prefix`` + "cfl"."""
    if nx < 32:
        raise ConfigurationError(f"{prefix}nx must be >= 32, got {nx}")
    if not (0.0 < cfl <= 0.5):
        raise ConfigurationError(f"{prefix}cfl must lie in (0, 0.5], got {cfl}")


def _scheme(cfg: StringConfig, nx: int, cfl: float, t_final: float | None) -> _Scheme:
    """Validate the FD parameters and size the grid; allocates no grid arrays."""
    check_fd_grid(nx, cfl)
    check_memory(8 * (nx + 1), f"one FD level of {nx + 1} nodes", "; lower nx")
    consts = derive_constants(cfg.L, cfg.v)
    L, v = consts.L, consts.v
    if t_final is None:
        t_final = consts.T_v
    if not 0.0 < t_final < math.inf:
        raise ConfigurationError(f"t_final must be positive and finite, got {t_final}")

    deta = L / nx
    step = cfl * (1.0 - v) * deta   # the largest dtau the rule admits
    if not (step > 0.0 and math.isfinite(t_final / step)):
        raise ConfigurationError(
            f"cfl={cfl} is too small: the FD step count t_final / (cfl (1 - v) deta) "
            f"is past float range; raise cfl")
    n_steps = max(2, math.ceil(t_final / step))
    dtau = t_final / n_steps
    beta = v * dtau / (2.0 * deta)
    lam2 = (1.0 - v * v) * (dtau / deta) ** 2
    return _Scheme(data=initial_data(cfg), L=L, v=v, nx=nx, n_steps=n_steps,
                   t_final=t_final, deta=deta, dtau=dtau, beta=beta, lam2=lam2)


def _layout(m: int):
    """Blocks of the m interior nodes: (nb, pad, copy, kinds, groups).

    nb blocks of ``_BAND`` nodes, the last padded with ``pad`` zeros; the
    weights come from a copy of the system with ``copy`` blocks; block b
    takes those of copy block ``kinds[b]``.  ``groups`` lists the (blocks,
    copy blocks) of each product: the blocks whose window reaches past a
    support or into the partial last block own their weights, the others
    share those of copy block ``_REACH``.
    """
    band, reach = _BAND, _REACH
    nb = -(-m // band)
    pad = nb * band - m
    if nb <= 2 * reach + 2:
        copy, left, right = nb, nb, 0
    else:
        copy, left, right = 2 * reach + 2, reach, reach + (pad > 0)
    kinds = np.full(nb, reach)
    kinds[:left] = np.arange(left)
    kinds[nb - right:] = np.arange(copy - right, copy)
    groups = [(slice(0, left), slice(0, left))]
    if nb - right > left:
        groups.append((slice(left, nb - right), reach))
    if right:
        groups.append((slice(nb - right, nb), slice(copy - right, copy)))
    return nb, pad, copy, kinds, groups


class _Propagator:
    """The scheme in increment form, advanced ``_LEVELS`` = K levels per
    product, block by block.

    The state of level k is u^k and d^k = u^k - u^{k-1} on the m interior
    nodes.  Rewritten in d, the step M u^{n+1} = A u^n + C u^{n-1} reads

        d^{n+1} = M^-1 (lam2 Delta u^n + 2 d^n) - d^n,    u^{n+1} = u^n + d^{n+1},

    with Delta the second difference (zero supports), so every level k + r
    is u^k plus a linear map of w = Delta u^k and d^k.  Carrying d instead
    of u^{k-1} keeps the rounding of a long march linear in the step count
    (the two-level recurrence is nearly a Jordan block), and w, formed as a
    difference of first differences, carries the small second difference
    without the cancellation a map of u itself would round.

    The nodes fall into nb blocks of ``_BAND``, the last one padded with
    zeros.  Block b's window holds [w, d] of blocks b - ``_REACH`` .. b +
    ``_REACH`` (zero past either end).  ``weights[c]`` (window x 2 band)
    maps a window to [u^{k+K} - u^k, d^{k+K}] of its block, so one product
    over all windows advances the state K levels; ``rows[c, r - 1]`` (band
    x window) maps it to u^{k+r} - u^k for 0 < r < K, read only where a
    caller asks.  The weights are cut once from the exact increment maps of
    a copy of the system with 2 ``_REACH`` + 2 blocks and the same padding,
    or of the whole system when it has no more blocks than that.  A block
    whose window reaches past a support or into the partial last block
    takes the weights of the copy's block at the same place (``_layout``);
    all others share those of copy block ``_REACH``.  Raises
    ConfigurationError when the mass a row drops outside its window exceeds
    ``_TAIL_BOUND``; ``tail`` is the largest such mass.
    """

    def __init__(self, m: int, beta: float, lam2: float):
        band, reach, K = _BAND, _REACH, _LEVELS
        span = 2 * reach + 1          # blocks in a window
        width = span * 2 * band
        nb, pad, copy, _, self._groups = _layout(m)
        size = copy * band - pad
        eye = np.eye(size)
        Minv = np.linalg.solve(eye + beta * (np.eye(size, k=-1) - np.eye(size, k=1)), eye)
        del eye
        rows = np.zeros((copy, K - 1, band, span, 2, band))        # [.., out, block, w|d, in]
        weights = np.zeros((copy, span, 2, band, 2, band))         # [.., block, w|d, in, u|d, out]
        dropped = np.zeros((copy, K + 1, band))   # per row: u^{k+1} .. u^{k+K}, then d^{k+K}
        E, D, Y, Z = (np.empty((size, size)) for _ in range(4))
        for part in range(2):
            # u^{k+r} - u^k (E) and d^{k+r} (D) as maps of w, then of d^k,
            # one level at a time; every column evolves on its own
            E[:] = 0.0
            D[:] = 0.0
            if part:
                D.flat[::size + 1] = 1.0
            for r in range(1, K + 1):
                # Y = lam2 Delta u^{k+r-1} + 2 d^{k+r-1}, with Delta u^{k+r-1} = w + Delta E
                np.multiply(E, -2.0, out=Y)
                Y[1:] += E[:-1]
                Y[:-1] += E[1:]
                if not part:
                    Y.flat[::size + 1] += 1.0
                Y *= lam2
                np.multiply(D, 2.0, out=Z)
                Y += Z
                np.matmul(Minv, Y, out=Z)
                np.subtract(Z, D, out=D)
                E += D
                for c in range(copy):
                    out = slice(c * band, min((c + 1) * band, size))
                    first = (c - reach) * band      # node of the window's first column
                    lo, hi = max(first, 0), min(first + span * band, size)
                    for i, op in enumerate((E, D) if r == K else (E,)):
                        cols = op[out]
                        dropped[c, r - 1 + i, :len(cols)] += (np.abs(cols[:, :lo]).sum(axis=1)
                                                              + np.abs(cols[:, hi:]).sum(axis=1))
                        win = np.zeros((band, span * band))
                        win[:len(cols), lo - first:hi - first] = cols[:, lo:hi]
                        win = win.reshape(band, span, band)
                        if r < K:
                            rows[c, r - 1, :, :, part] = win
                        else:
                            weights[c, :, part, :, i] = win.transpose(1, 2, 0)
        del Minv, E, D, Y, Z
        self.rows = rows.reshape(copy, K - 1, band, width)
        self.weights = weights.reshape(copy, width, 2 * band)
        self.tail = float(dropped.max())
        if self.tail > _TAIL_BOUND:
            raise ConfigurationError(
                f"FD propagator would drop a row tail of {self.tail:.3g} at beta={beta:.4g}, "
                f"above {_TAIL_BOUND:.3g}; reduce cfl")
        self.m, self.nb = m, nb
        self.u = np.zeros(nb * band)                          # u^k, zero padded
        self._blocks = self.u.reshape(nb, band)
        self._state = np.zeros((nb + 2 * reach, 2 * band))    # [w, d] per block
        self._live = self._state[reach:reach + nb]
        self._ext = np.zeros(m + 2)                            # u^k with its supports
        self._diff = np.empty(m + 1)
        self._flat = np.zeros(nb * band)
        self.win = np.empty((nb, width))
        self._windows = np.lib.stride_tricks.sliding_window_view(
            self._state.reshape(-1), width)[::2 * band]

    def _refresh(self) -> None:
        """w from u^k, then every block's window."""
        m = self.m
        self._ext[1:-1] = self.u[:m]
        np.subtract(self._ext[1:], self._ext[:-1], out=self._diff)
        np.subtract(self._diff[1:], self._diff[:-1], out=self._flat[:m])
        self._live[:, :_BAND] = self._flat.reshape(self.nb, _BAND)
        np.copyto(self.win, self._windows)

    def start(self, u: np.ndarray, d: np.ndarray) -> None:
        """Load u^k and d^k (interior values)."""
        m = self.m
        self.u[:m] = u
        self._flat[:m] = d
        self._live[:, _BAND:] = self._flat.reshape(self.nb, _BAND)
        self._refresh()

    def advance(self) -> None:
        """Move the state K levels on."""
        for blocks, w in self._groups:
            w = self.weights[w]
            if w.ndim == 3:
                np.matmul(self.win[blocks, None], w, out=self._live[blocks, None])
            else:
                np.matmul(self.win[blocks], w, out=self._live[blocks])
        self._blocks += self._live[:, :_BAND]
        self._refresh()

    def levels(self, count: int) -> np.ndarray:
        """u^k .. u^{k+count}, count < K, at every interior node: each one
        u^k + rows . window, the sum ``_sample`` forms, bit for bit."""
        inc = np.empty((self.nb, count, _BAND))
        for blocks, w in self._groups:
            inc[blocks] = np.vecdot(self.rows[w, :count], self.win[blocks, None, None, :])
        inc += self._blocks[:, None, :]
        out = np.empty((count + 1, self.nb * _BAND))
        out[0] = self.u
        out[1:] = inc.transpose(1, 0, 2).reshape(count, self.nb * _BAND)
        return out[:, :self.m]


def _march(s: _Scheme, eta: np.ndarray, prop: _Propagator):
    """March the scheme from tau = 0 to t_final in ``prop``, ``_LEVELS``
    levels per product.

    Yields each level k0 that ``prop`` holds: 0 (with d = 0, to be read
    alone), then 1, 1 + K, 1 + 2 K, ... up to n_steps; levels k0 + r,
    0 <= r < K, are read from it.
    """
    v, deta, dtau = s.v, s.deta, s.dtau
    data = s.data
    u0 = np.asarray(data.phi0(eta), dtype=float)
    u0[0] = u0[-1] = 0.0
    rate = np.asarray(data.phi1(eta), float) + v * np.asarray(data.phi0_x(eta), float)
    # second-order first step: u_tautau(0) from the PDE with discrete
    # derivatives of the sampled data (keeps the oracle self-contained)
    d_rate = np.zeros_like(rate)
    d_rate[1:-1] = (rate[2:] - rate[:-2]) / (2.0 * deta)
    d2u = np.zeros_like(rate)
    d2u[1:-1] = (u0[2:] - 2.0 * u0[1:-1] + u0[:-2]) / deta ** 2
    u1 = u0 + dtau * rate + 0.5 * dtau ** 2 * (2.0 * v * d_rate + (1.0 - v * v) * d2u)
    u1[0] = u1[-1] = 0.0

    prop.start(u0[1:-1], np.zeros(s.nx - 1))
    yield 0
    prop.start(u1[1:-1], u1[1:-1] - u0[1:-1])
    k0 = 1
    while True:
        yield k0
        if k0 + _LEVELS > s.n_steps:
            return
        prop.advance()
        k0 += _LEVELS


def fd_solve(cfg: StringConfig, nx: int = DEFAULT_FD_NX, cfl: float = DEFAULT_FD_CFL,
             t_final: float | None = None) -> FrozenFrameFD:
    """March the implicit frozen-frame scheme to ``t_final`` (default T_v),
    keeping every time level."""
    s = _scheme(cfg, nx, cfl, t_final)
    check_memory((s.n_steps + 1) * (nx + 1) * 8, "the FD history",
                 "; lower nx or use --method characteristics")
    eta = s.eta()
    u = np.zeros((s.n_steps + 1, nx + 1))
    prop = _Propagator(nx - 1, s.beta, s.lam2)
    for k0 in _march(s, eta, prop):
        count = min(_LEVELS - 1, s.n_steps - k0) if k0 else 0
        u[k0:k0 + count + 1, 1:-1] = prop.levels(count)
    tau = _level_time(s.t_final, s.n_steps, np.arange(s.n_steps + 1))
    return FrozenFrameFD(eta=eta, tau=tau, u=u, v=s.v, L=s.L)


def _corner_reads(k: np.ndarray, j: np.ndarray, m: int):
    """The corners u[k, j], u[k, j + 1], u[k + 1, j], u[k + 1, j + 1] of the
    points with cells (k, j) that lie off the supports (those read 0), in
    level order: (flat index into the (4, n) corners, interior node, level,
    row of ``_Propagator.rows`` flattened to (rows, window))."""
    level = np.concatenate([k, k, k + 1, k + 1])
    node = np.concatenate([j, j + 1, j, j + 1]) - 1
    dest = np.flatnonzero((node >= 0) & (node < m))
    order = np.argsort(level[dest], kind="stable")
    dest = dest[order]
    level, node = level[dest], node[dest]
    # level k0 + r is read from level k0 = 0, 1, 1 + K, 1 + 2 K, ... of the march
    r = np.where(level > 0, (level - 1) % _LEVELS, 0)
    block, offset = np.divmod(node, _BAND)
    row = (_layout(m)[3][block] * (_LEVELS - 1) + r - 1) * _BAND + offset
    index = np.int32 if max(4 * k.size, m) < 2 ** 31 else np.intp
    return dest.astype(index), node.astype(index), level, row.astype(index)


def _sample(s: _Scheme, x, t):
    """The scheme ``s`` at (x, t), read while it marches, in O(nx) memory and
    at most ``_MAX_NODE_STEPS`` node-steps: the values, bit for bit those of
    ``fd_solve(...).eval``, and the largest row mass the propagator dropped."""
    work = float(s.n_steps) * (s.nx + 1)
    if work > _MAX_NODE_STEPS:
        raise ConfigurationError(
            f"FD oracle needs {s.n_steps:.3g} time steps x {s.nx + 1} nodes = {work:.3g} "
            f"node-steps, above the bound of {_MAX_NODE_STEPS:.3g}; "
            f"lower nx or use --method characteristics")
    eta = s.eta()
    k, j, wt, we = _cells(x, t, s.v, s.L, eta, s.t_final, s.n_steps)
    shape = k.shape
    dest, node, level, row = _corner_reads(k.ravel(), j.ravel(), s.nx - 1)
    # the reads of march level i: [bounds[i], held[i]) at the level itself,
    # [held[i], bounds[i + 1]) at the levels after it
    starts = np.concatenate([[0], np.arange(1, s.n_steps + 1, _LEVELS)])
    bounds = np.append(np.searchsorted(level, starts), level.size)
    held = np.searchsorted(level, starts, side="right")
    del k, j, level   # before the propagator's tables: they set the peak memory
    prop = _Propagator(s.nx - 1, s.beta, s.lam2)
    rows = prop.rows.reshape(-1, prop.rows.shape[-1])
    corners = np.zeros((4, wt.size))
    flat = corners.reshape(-1)
    for i, _ in enumerate(_march(s, eta, prop)):
        u = prop.u
        now, later = slice(bounds[i], held[i]), slice(held[i], bounds[i + 1])
        flat[dest[now]] = u[node[now]]
        if later.start < later.stop:
            at = node[later]
            vals = np.vecdot(rows[row[later]], prop.win[at // _BAND])
            vals += u[at]
            flat[dest[later]] = vals
        if later.stop == dest.size:
            break
    values = _bilinear(*corners, wt.ravel(), we.ravel()).reshape(shape)
    return _as_output(values), prop.tail


@dataclass(frozen=True)
class CrossValidation:
    """Max pointwise discrepancies between the series and each oracle
    (None for oracles that were not requested), and the FD run's step count
    and the largest row mass its propagator dropped (None without FD)."""

    sample_count: int
    seed: int
    nx: int
    cfl: float
    max_characteristics: float | None
    max_fd: float | None
    fd_steps: int | None = None
    fd_dropped_tail: float | None = None


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

    max_char = max_fd = fd_steps = tail = None
    if "characteristics" in methods:
        vals = CharacteristicSolver(sol.data, consts).value(x, t)
        max_char = float(np.max(np.abs(phi - vals)))
    if "fd" in methods:
        s = _scheme(sol.cfg, nx, cfl, None)
        vals, tail = _sample(s, x, t)
        max_fd = float(np.max(np.abs(phi - vals)))
        fd_steps = s.n_steps
    return CrossValidation(
        sample_count=sample_count,
        seed=seed,
        nx=nx,
        cfl=cfl,
        max_characteristics=max_char,
        max_fd=max_fd,
        fd_steps=fd_steps,
        fd_dropped_tail=tail,
    )
