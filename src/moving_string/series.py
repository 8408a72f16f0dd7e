"""Evaluate the truncated series solution and its boundary traces.

The displacement and its derivatives are sums over modes n != 0 of two
exponential families, e^{i n pi (1-v)(t+x)/L} travelling left-to-right and
e^{i n pi (1+v)(t-x)/L} travelling right-to-left.  Each family is a power
series in one unit phasor z per point, so a sum costs one ``exp`` per point
and one Horner step per mode: the n > 0 half is a polynomial in z and the
n < 0 half a polynomial in conj(z), each taken with its own coefficients
from the table.  On |z| = 1 every Horner step rounds once at the size of
the partial sum, so the error grows like n_max * eps * Sum |c_n| (times
|n| for the derivatives); memory stays linear in the number of points.
Results are real for real data; the discarded imaginary part, which also
picks up any conjugate asymmetry of the table, is monitored and reported
with every sample instead of silently dropped.

On the moving interval x = v t + s both phases split into a time part and
a space part: pi (1-v)(t+x)/L = 2 pi t/T_v + pi (1-v) s/L and
pi (1+v)(t-x)/L = 2 pi t/T_v - pi (1+v) s/L.  Every mode of both families
therefore carries the same factor e^{2 pi i n t/T_v}, the source of the
T_v-periodicity of the energies, times a mode shape in s.  On a grid of
times x relative abscissae the sums become one (times x modes) by
(modes x abscissae) matrix product: ``field_on_moving_grid`` folds the
table (each family with its own entries c_n, never conj(c_{-n})) into
the time factors and multiplies by the mode shapes e^{i n pi (1-v) s/L}
and e^{-i n pi (1+v) s/L}, built as powers of one phasor per abscissa,
block by block.

Structured sets go through that grid at exact s, never through a rounded
x: the energy sweep, the ``simulate`` grid and the supports s = 0, L that
``certify`` reads.  Along a support, x = x_b + v t, each trace is a single
Fourier series in t (``slope_trace_rows``, ``velocity_trace_rows``), which
the observability integrals sum on Gauss-Legendre nodes as blocked
products (``quadrature.UniformPhasors``).  Horner's rule serves scattered points
only: ``field_components`` (``check_periodicity``, ``cross_validate``,
``certify``'s seeded checks and its ``initial_data_reproduction``, which
sums on the nodes of its raw-data layout at t = 0, where x = s exactly).
"""

from __future__ import annotations

import math

import numpy as np

from .coefficients import SpectralSolution
from .domain import check_memory, check_moving_interval, edge_slack

__all__ = [
    "field_components",
    "field_on_moving_grid",
    "check_periodicity",
]

# points per Horner pass (a field block works in about 1.5 MB), and modes x
# abscissae per family in a grid block's phasor table
_BLOCK = 8192


def _halves(wc: np.ndarray) -> np.ndarray:
    """k coefficient sets of shape (2 n_max, k) in mode order as an
    (n_max, k, 2) array: [..., 0] runs over n = 1..n_max and [..., 1] over
    n = -1..-n_max."""
    m = len(wc) // 2
    return np.stack([wc[m:], wc[m - 1::-1]], axis=-1)


def _power_sum(coef: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Sum_{m=1..N} coef[m-1, :, 0] z^m + coef[m-1, :, 1] conj(z)^m at
    z = e^{i theta}, by Horner's rule in z and in conj(z).

    ``coef`` comes from ``_halves``: k coefficient sets share each phasor.
    ``theta`` has shape (r, P); the result has shape (k, r, P).  Points go
    through in blocks so the accumulators stay small.
    """
    coef = coef[::-1, :, None, :, None]                       # (N, k, 1, 2, 1)
    k, (r, npts) = coef.shape[1], theta.shape
    out = np.empty((k, r, npts), dtype=complex)
    for lo in range(0, npts, _BLOCK):
        z = np.exp(1j * theta[:, lo:lo + _BLOCK])
        zz = np.stack([z, z.conj()], axis=1)                      # (r, 2, b)
        acc = np.zeros((k,) + zz.shape, dtype=complex)
        for row in coef:
            acc += row
            acc *= zz
        np.add(acc[:, :, 0], acc[:, :, 1], out=out[:, :, lo:lo + _BLOCK])
    return out


def field_components(sol: SpectralSolution, x, t):
    """Vectorized (phi, phi_x, phi_t, imag_residual) at broadcastable x, t.

    Returns real arrays; ``imag_residual`` is the max |Im| over the three
    sums, a free consistency diagnostic for real initial data.
    """
    c = sol.consts
    L, v = c.L, c.v
    check_moving_interval(L, v, x, t)
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    theta = np.stack([(math.pi * (1.0 - v) / L) * (t + x).ravel(),
                      (math.pi * (1.0 + v) / L) * (t - x).ravel()])
    n = sol.n.astype(float)
    coef = _halves(np.column_stack([np.ones_like(n), n]) * sol.c[:, None])  # P: c_n, Q: n c_n
    (p1, p2), (q1, q2) = _power_sum(coef, theta)
    d = 1j * math.pi / L
    phi = p1 - p2
    phx = d * ((1.0 - v) * q1 + (1.0 + v) * q2)
    pht = d * ((1.0 - v) * q1 - (1.0 + v) * q2)
    resid = max(
        float(np.max(np.abs(phi.imag))),
        float(np.max(np.abs(phx.imag))),
        float(np.max(np.abs(pht.imag))),
    ) if phi.size else 0.0
    shape = x.shape
    return phi.real.reshape(shape), phx.real.reshape(shape), pht.real.reshape(shape), resid


def _mode_powers(z: np.ndarray, m: int) -> np.ndarray:
    """Rows z^n for n = -m..-1, 1..m (the mode order) at unit phasors z."""
    pos = np.cumprod(np.broadcast_to(z, (m, z.size)), axis=0)
    return np.concatenate([pos[::-1].conj(), pos])


def field_on_moving_grid(sol: SpectralSolution, times, s):
    """(phi, phi_x, phi_t, imag_residual) at x = v t_k + s_j.

    ``times`` and ``s`` are 1-D; each field has shape (len(times), len(s)).
    Times must be finite and nonnegative and every s must lie in [0, L].
    ``imag_residual`` is the max |Im| over the three sums, as in
    ``field_components``.  The abscissae go through in blocks so that the
    mode-shape tables stay about as small as a Horner block.
    """
    c = sol.consts
    L, v = c.L, c.v
    times = np.atleast_1d(np.asarray(times, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    slack = edge_slack(L)
    if times.ndim != 1 or s.ndim != 1:
        raise ValueError("times and s must be one-dimensional")
    if not np.all(np.isfinite(times) & (times >= -slack)):
        raise ValueError("time must be finite and nonnegative")
    if not np.all(np.isfinite(s) & (s >= -slack) & (s <= L + slack)):
        raise ValueError("s outside the reference interval [0, L]")
    m, k = sol.n_max, times.size
    n = sol.n.astype(float)
    # rows 0..k-1: c_n e^{2 pi i n t/T_v} (phi); rows k..2k-1: the same rows
    # times i pi n / L (phi_x and phi_t)
    wc = np.exp((2j * math.pi / c.T_v) * np.outer(times, n)) * sol.c
    w = np.concatenate([wc, wc * ((1j * math.pi / L) * n)])
    out = np.empty((3, k, s.size))
    resid = 0.0
    step = max(1, _BLOCK // len(n))
    for lo in range(0, s.size, step):
        sb = s[lo:lo + step]
        b = sb.size
        # columns: the block's abscissae in family 1, then in family 2
        z = np.exp((1j * math.pi / L) * np.concatenate([(1.0 - v) * sb, -(1.0 + v) * sb]))
        f = w @ _mode_powers(z, m)
        p1, p2, q1, q2 = f[:k, :b], f[:k, b:], f[k:, :b], f[k:, b:]
        blk = np.stack([p1 - p2, (1.0 - v) * q1 + (1.0 + v) * q2,
                        (1.0 - v) * q1 - (1.0 + v) * q2])
        out[:, :, lo:lo + step] = blk.real
        if blk.size:
            resid = max(resid, float(np.max(np.abs(blk.imag))))
    return out[0], out[1], out[2], resid


def _check_endpoint(endpoint: str) -> None:
    if endpoint not in ("left", "right"):
        raise ValueError(f"endpoint must be 'left' or 'right', got {endpoint!r}")


def slope_trace_rows(sol: SpectralSolution, endpoint: str) -> np.ndarray:
    """Coefficients d_n, shape (1, 2 n_max), of the closed-form slope trace
    phi_x(x_b + v t, t) = Sum_n d_n e^{2 pi i n t/T_v}:
    d_n = (2 pi i / L) n c_n, times e^{-n pi i (1+v)} at the right support."""
    _check_endpoint(endpoint)
    c = sol.consts
    weights = (2j * math.pi / c.L) * sol.n
    if endpoint == "right":
        weights = weights * np.exp(-1j * math.pi * (1.0 + c.v) * sol.n)
    return (weights * sol.c)[None]


def velocity_trace_rows(sol: SpectralSolution, endpoint: str) -> np.ndarray:
    """The two families of the velocity trace phi_t(x_b + v t, t) as
    coefficient rows of e^{2 pi i n t/T_v}, shape (2, 2 n_max).

    On x = x_b + v t the phases of ``field_components`` become
    2 pi t/T_v + pi (1-v) x_b/L and 2 pi t/T_v - pi (1+v) x_b/L, so row 0
    is (i pi / L)(1-v) n c_n e^{i n pi (1-v) x_b/L} and row 1 is
    -(i pi / L)(1+v) n c_n e^{-i n pi (1+v) x_b/L}.  phi_t is the sum of
    the two rows' real parts, each row summed on its own; the rows are not
    merged through phi_t = -v phi_x.
    """
    _check_endpoint(endpoint)
    L, v = sol.consts.L, sol.consts.v
    frac = 0.0 if endpoint == "left" else 1.0          # x_b / L
    d = (1j * math.pi / L) * sol.n * sol.c
    return np.stack([(1.0 - v) * d * np.exp((1j * math.pi * (1.0 - v) * frac) * sol.n),
                     -(1.0 + v) * d * np.exp((-1j * math.pi * (1.0 + v) * frac) * sol.n)])


def _trace_values(sol: SpectralSolution, endpoint: str, times: np.ndarray):
    """Closed-form slope trace at scattered times by Horner's rule (complex;
    the imaginary part measures the table's conjugate asymmetry)."""
    times = np.asarray(times, dtype=float)
    theta = (2.0 * math.pi / sol.consts.T_v) * times.reshape(1, -1)
    return _power_sum(_halves(slope_trace_rows(sol, endpoint).T), theta)[0, 0].reshape(times.shape)


def check_periodicity(sol: SpectralSolution, samples) -> float:
    """max |phi(x + v T_v, t + T_v) - phi(x, t)| over (x, t) sample pairs."""
    pts = np.asarray(samples, dtype=float).reshape(-1, 2)
    x, t = pts[:, 0], pts[:, 1]
    p0, _, _, _ = field_components(sol, x, t)
    p1, _, _, _ = field_components(
        sol, x + sol.consts.v * sol.consts.T_v, t + sol.consts.T_v
    )
    return float(np.max(np.abs(p1 - p0))) if len(pts) else 0.0


def sample_moving_grid(sol: SpectralSolution, nx: int, nt: int, t_final: float):
    """Fields on an (nx x nt) grid of the moving interval.

    Row i holds the fixed relative abscissa i/(nx-1); x(i, j) = v t_j +
    (i/(nx-1)) L.  Returns (x, t, phi, phi_x, phi_t) arrays of shape
    (nx, nt).
    """
    if nx < 2 or nt < 2:
        raise ValueError("grid needs nx >= 2 and nt >= 2")
    if not math.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    check_memory(5 * 8 * nx * nt, f"five fields on the {nx} x {nt} grid")
    c = sol.consts
    tg = np.linspace(0.0, t_final, nt)
    frac = np.linspace(0.0, 1.0, nx)
    X = c.v * tg[None, :] + frac[:, None] * c.L
    T = np.broadcast_to(tg[None, :], X.shape)
    phi, phx, pht, _ = field_on_moving_grid(sol, tg, frac * c.L)
    return X, np.array(T), phi.T, phx.T, pht.T
