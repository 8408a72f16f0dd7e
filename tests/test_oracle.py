"""Characteristics and frozen-frame FD oracles, and cross-validation."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_banded

from moving_string import (
    CharacteristicSolver,
    ConfigurationError,
    InitialDataSpec,
    build_initial_data,
    check_periodicity,
    cross_validate,
    derive_constants,
    fd_solve,
    field_components,
    initial_data,
)

from moving_string import oracle
from moving_string.domain import edge_slack
from moving_string.oracle import _cumulative_simpson

from conftest import get_solution, make_config


def char_solver(v, preset="sine_mode", **params):
    cfg = make_config(v, preset=preset, **params)
    return CharacteristicSolver(initial_data(cfg), derive_constants(cfg.L, cfg.v))


def _mp_march(u0, u1, beta, lam2, n_steps, dps=30):
    """The FD scheme marched in ``dps``-digit arithmetic from levels u0, u1
    (boundary nodes included), solving each step by tridiagonal elimination;
    returns every level rounded to float."""
    with mpmath.workdps(dps):
        b, l2 = mpmath.mpf(beta), mpmath.mpf(lam2)
        m = len(u0) - 2
        # elimination of diag 1, sub b, super -b: pivots and scaled supers
        piv, sup = [], []
        for _ in range(m):
            piv.append(1 - b * sup[-1] if sup else mpmath.mpf(1))
            sup.append(-b / piv[-1])
        um = [mpmath.mpf(float(z)) for z in u0]
        un = [mpmath.mpf(float(z)) for z in u1]
        out = [list(u0), list(u1)]
        for _ in range(1, n_steps):
            y = []
            for j in range(1, m + 1):
                r = (2 * un[j] - um[j] + l2 * (un[j + 1] - 2 * un[j] + un[j - 1])
                     - b * (um[j + 1] - um[j - 1]))
                y.append((r - b * y[-1]) / piv[j - 1] if y else r / piv[0])
            for i in range(m - 2, -1, -1):
                y[i] -= sup[i] * y[i + 1]
            um, un = un, [mpmath.mpf(0)] + y + [mpmath.mpf(0)]
            out.append([float(z) for z in un])
    return np.array(out)


def _ld_march(u0, u1, beta, lam2, n_steps):
    """The FD scheme marched in long double from levels u0, u1 (boundary
    nodes included), in increment form: d' = M^-1 (lam2 Delta u + 2 d) - d,
    u' = u + d', with M^-1 from Gauss-Jordan elimination in long double.
    Returns every level rounded to float."""
    ld = np.longdouble
    m = len(u0) - 2
    b = ld(beta)
    # M = tridiag(b, 1, -b): eliminate below the diagonal, then above
    rows, piv = np.eye(m, dtype=ld), np.ones(m, dtype=ld)
    for i in range(1, m):
        piv[i] = 1 + b * b / piv[i - 1]
        rows[i] -= b / piv[i - 1] * rows[i - 1]
    rows[m - 1] /= piv[m - 1]
    for i in range(m - 2, -1, -1):
        rows[i] = (rows[i] + b * rows[i + 1]) / piv[i]
    u, l2 = u1[1:-1].astype(ld), ld(lam2)
    d = u - u0[1:-1].astype(ld)
    out = np.zeros((n_steps + 1, m + 2))
    out[0], out[1] = u0, u1
    for k in range(2, n_steps + 1):
        lap = -2 * u
        lap[1:] += u[:-1]
        lap[:-1] += u[1:]
        d = rows @ (l2 * lap + 2 * d) - d
        u = u + d
        out[k, 1:-1] = u
    return out


class TestCharacteristicsExactCases:
    def test_standing_wave(self):
        cs = char_solver(0.0)
        for x, t in [(1.0, 0.0), (2.0, 1.5), (0.7, 11.0), (3.0, 4.4)]:
            assert cs.value(x, t) == pytest.approx(
                math.sin(x) * math.cos(t) / 10, abs=1e-10
            )

    def test_standing_wave_derivatives(self):
        # at v = 0 the supports stay at x = 0 and x = L = pi
        cs = char_solver(0.0)
        for x, t in [(0.0, 0.4), (math.pi, 3.0), (0.0, 7.5)]:
            assert float(cs._support_slope(x, t)) == pytest.approx(
                math.cos(x) * math.cos(t) / 10, abs=1e-10
            )

    def test_velocity_data_standing_wave(self):
        # phi0 = 0, phi1 = sin => phi = sin(x) sin(t); exercises the
        # precomputed antiderivative of phi1
        cs = char_solver(0.0, preset="sine_velocity", amplitude=1.0, mode=1)
        for x, t in [(1.0, 0.5), (2.0, 2.0), (0.5, 7.0)]:
            assert cs.value(x, t) == pytest.approx(
                math.sin(x) * math.sin(t), abs=1e-9
            )

    def test_zero_data(self):
        cs = char_solver(0.3, preset="zero")
        assert cs.value(2.0, 2.0) == 0.0


class TestAntiderivative:
    """psi = int_0^s phi1 for phi1 = sin(k pi x / L): edge sums plus one
    Simpson step over the partial cell, against (1 - cos(w s)) / w."""

    L = math.pi

    @pytest.mark.parametrize("k, tol", [(1, 1e-13), (20, 1e-11)])
    def test_sine_antiderivative(self, k, tol):
        w = k * math.pi / self.L
        cells = 4096
        psi = _cumulative_simpson(lambda x: np.sin(w * x), 0.0, self.L, cells)
        rng = np.random.default_rng(11)
        s = np.concatenate([[0.0, self.L], np.linspace(0.0, self.L, cells + 1),
                            rng.uniform(0.0, self.L, 20000)])
        err = np.max(np.abs(psi(s) - (1.0 - np.cos(w * s)) / w))
        assert err < tol
        assert psi(np.array(0.0)) == 0.0

    def test_velocity_data_many_reflections(self):
        # phi1 = sin(3x), v = 0: phi = sin(3x) sin(3t) / 3 at every depth
        cs = char_solver(0.0, preset="sine_velocity", amplitude=1.0, mode=3)
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, 20.0, 500)
        x = rng.uniform(0.0, math.pi, 500)
        exact = np.sin(3 * x) * np.sin(3 * t) / 3
        assert np.max(np.abs(cs.value(x, t) - exact)) < 1e-13

    def test_moving_traveling_wave_before_reflection(self):
        # phi1 = -phi0_x makes F = (phi0 + psi)/2 vanish on [0, L], so until
        # the wave meets a support phi(x, t) = phi0(x - t): psi must cancel
        # phi0 to rounding
        cs = char_solver(0.3, preset="traveling_sine", amplitude=0.1, mode=2, sign=-1)
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, math.pi / 2, 2000)
        x = rng.uniform(0.0, math.pi, 2000)
        keep = (x >= t) & (x + t <= math.pi)
        x, t = x[keep], t[keep]
        assert x.size > 200
        exact = 0.1 * np.sin(2 * (x - t))
        assert np.max(np.abs(cs.value(x, t) - exact)) < 1e-14


class TestCharacteristicsMovingCase:
    def test_matches_series_away_from_kinks(self):
        # agreement is truncation-limited; these points sit away from the
        # characteristic lines through the t=0 support corners
        sol = get_solution(0.3, n_max=80)
        cs = char_solver(0.3)
        for x, t in [(2.0, 4.0), (2.5, 1.3), (3.0, 5.5)]:
            assert cs.value(x, t) == pytest.approx(
                float(field_components(sol, x, t)[0]), abs=1e-5
            )

    def test_boundary_values_vanish(self):
        cs = char_solver(0.3)
        c = derive_constants(L=math.pi, v=0.3)
        for t in np.linspace(0.0, 2 * c.T_v, 17):
            assert abs(cs.value(c.v * t, t)) < 1e-14
            assert abs(cs.value(c.L + c.v * t, t)) < 1e-14

    def test_periodicity(self):
        cs = char_solver(0.3)
        c = derive_constants(L=math.pi, v=0.3)
        rng = np.random.default_rng(3)
        t = rng.uniform(0, c.T_v, 40)
        x = c.v * t + rng.uniform(0, 1, 40) * c.L
        before = cs.value(x, t)
        after = cs.value(x + c.v * c.T_v, t + c.T_v)
        assert np.max(np.abs(after - before)) < 1e-6

    def test_domain_validated(self):
        cs = char_solver(0.3)
        with pytest.raises(ValueError):
            cs.value(0.0, 1.0)  # left support has moved past x=0

    @pytest.mark.parametrize("xb", [0.0, math.pi], ids=["left", "right"])
    def test_support_slope_reflected_right_after_arrival(self, xb):
        # within slack / (1 - v) of t = 0 the argument that crosses the
        # support lies within edge_slack of it; it is already reflected, so
        # phi_x reads (1 + gamma_v) / 2 phi0_x(0) on the left support and
        # (1 + 1/gamma_v) / 2 phi0_x(L) on the right (phi1 = 0)
        cs = char_solver(0.3)
        c = cs.consts
        t = 0.5 * edge_slack(c.L) / (1.0 - c.v)
        gain = c.gamma_v if xb == 0.0 else 1.0 / c.gamma_v
        expected = 0.5 * (1.0 + gain) * float(cs.data.phi0_x(xb))
        assert float(cs._support_slope(xb, t)) == pytest.approx(expected, rel=1e-15)

    def test_reflection_depth_guard(self):
        cs = char_solver(0.3)
        c = derive_constants(L=math.pi, v=0.3)
        t = 300 * c.T_v
        with pytest.raises(RecursionError):
            cs.value(c.v * t + 1.0, t)


def reflection_count(s, forward, L, g):
    """Support reflections that carry a profile argument into [0, L]."""
    count = 0
    while (forward and s > L) or (not forward and s < 0.0):
        s, forward = (L - (s - L) / g, False) if forward else (-g * s, True)
        count += 1
    return count


class TestCharacteristicsOnArrays:
    # spline-tabulated data with phi1 != 0, so the F and G profiles differ
    # and every profile evaluation is plain per-element arithmetic
    L, V = math.pi, 0.5

    @pytest.fixture(scope="class")
    def cs(self):
        x = np.linspace(0.0, self.L, 41)
        spec = InitialDataSpec.tabulated(x, 0.1 * np.sin(x) ** 2, 0.05 * np.cos(3 * x) + 0.02 * x)
        return CharacteristicSolver(build_initial_data(spec, self.L),
                                    derive_constants(L=self.L, v=self.V))

    @pytest.fixture(scope="class")
    def mixed_points(self, cs):
        c = cs.consts
        rng = np.random.default_rng(7)
        t = np.concatenate([np.zeros(5), rng.uniform(0.0, 3.0 * c.T_v, 60),
                            [0.0, 0.0, 0.4 * c.T_v, 2.5 * c.T_v]])
        x = c.v * t + np.concatenate([np.linspace(0.0, c.L, 5), rng.uniform(0.0, c.L, 60),
                                      [0.0, c.L, 0.0, c.L]])
        return x, t

    def test_mixed_array_has_every_reflection_depth(self, cs, mixed_points):
        c = cs.consts
        x, t = mixed_points
        counts = [reflection_count(xi + ti, True, c.L, c.gamma_v)
                  + reflection_count(xi - ti, False, c.L, c.gamma_v) for xi, ti in zip(x, t)]
        assert {0, 1} <= set(counts)
        assert max(counts) >= 2

    @pytest.mark.parametrize("method", ["value"])
    def test_array_equals_pointwise(self, cs, mixed_points, method):
        x, t = mixed_points
        fn = getattr(cs, method)
        pointwise = [fn(xi, ti) for xi, ti in zip(x, t)]
        assert all(isinstance(p, float) for p in pointwise)
        out = fn(x, t)
        assert out.shape == x.shape
        np.testing.assert_array_equal(out, pointwise)
        # broadcasting a scalar time against an array of positions
        c = cs.consts
        xs = c.v * t[7] + np.linspace(0.0, c.L, 9)
        np.testing.assert_array_equal(fn(xs, t[7]), [fn(xi, t[7]) for xi in xs])

    def test_one_point_outside_interval_rejected(self, cs, mixed_points):
        x, t = mixed_points
        x = x.copy()
        x[17] = cs.consts.v * t[17] - 0.5
        with pytest.raises(ValueError):
            cs.value(x, t)

    def test_one_point_too_deep_rejected(self, cs, mixed_points):
        c = cs.consts
        x, t = mixed_points
        x, t = x.copy(), t.copy()
        t[23] = 300 * c.T_v
        x[23] = c.v * t[23] + 1.0
        with pytest.raises(RecursionError):
            cs.value(x, t)
        with pytest.raises(RecursionError):
            cs._support_slope(0.0, t)

    @pytest.mark.parametrize("xb", [0.0, math.pi], ids=["left", "right"])
    def test_support_slope_array_equals_pointwise(self, cs, mixed_points, xb):
        _, t = mixed_points
        pointwise = [float(cs._support_slope(xb, ti)) for ti in t]
        np.testing.assert_array_equal(cs._support_slope(xb, t), pointwise)


class TestFrozenFrameFD:
    def test_history_matches_reference_banded_march(self):
        # the propagator marches the implicit scheme: from the same two
        # seeded levels its history lies within n_steps^2 eps max|u| of a
        # per-step banded solve and of a 30-digit march (measured: 9.3e-13
        # and 1.6e-14 of max|u|, against a bound of 9.2e-12; the per-step
        # solve itself is 9.2e-13 from the 30-digit march)
        cfg = make_config(0.5)
        nx, t_final, v = 64, 2.0, 0.5
        fd = fd_solve(cfg, nx=nx, t_final=t_final)
        n_steps = len(fd.tau) - 1
        deta = cfg.L / nx
        dtau = t_final / n_steps
        beta = v * dtau / (2.0 * deta)
        lam2 = (1.0 - v * v) * (dtau / deta) ** 2
        ab = np.zeros((3, nx - 1))
        ab[0, 1:] = -beta
        ab[1, :] = 1.0
        ab[2, :-1] = beta
        ref = np.zeros_like(fd.u)
        ref[:2] = fd.u[:2]
        for k in range(1, n_steps):
            un, um = ref[k], ref[k - 1]
            rhs = (2.0 * un[1:-1] - um[1:-1]
                   + lam2 * (un[2:] - 2.0 * un[1:-1] + un[:-2])
                   - beta * (um[2:] - um[:-2]))
            ref[k + 1, 1:-1] = solve_banded((1, 1), ab, rhs)
        exact = _mp_march(fd.u[0], fd.u[1], beta, lam2, n_steps)
        assert n_steps == 204
        bound = n_steps ** 2 * np.finfo(float).eps * np.max(np.abs(fd.u))
        assert np.max(np.abs(fd.u - ref)) <= bound
        assert np.max(np.abs(fd.u - exact)) <= bound

    def test_eval_on_arrays(self):
        fd = fd_solve(make_config(0.3), nx=64, t_final=1.0)
        rng = np.random.default_rng(5)
        t = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 1.0, 0.0, 1.0]])
        x = 0.3 * t + np.concatenate([rng.uniform(0.0, fd.L, 200), [0.0, 0.0, fd.L, fd.L]])
        pointwise = [fd.eval(xi, ti) for xi, ti in zip(x, t)]
        assert all(isinstance(p, float) for p in pointwise)
        np.testing.assert_array_equal(fd.eval(x, t), pointwise)
        t[100] = 2.0
        with pytest.raises(ValueError, match="outside the computed slab"):
            fd.eval(x, t)

    def test_second_order_convergence(self):
        # standing wave, error measured in L^2 at t=1; doubling nx should
        # cut the error by ~4
        cfg = make_config(0.0)
        errs = []
        for nx in (64, 128, 256):
            fd = fd_solve(cfg, nx=nx, cfl=0.4, t_final=1.0)
            exact = np.sin(fd.eta) * math.cos(1.0) / 10
            errs.append(math.sqrt(np.trapezoid((fd.u[-1] - exact) ** 2, fd.eta)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_supports_pinned(self):
        fd = fd_solve(make_config(0.5), nx=64, t_final=2.0)
        assert np.all(fd.u[:, 0] == 0.0)
        assert np.all(fd.u[:, -1] == 0.0)

    def test_matches_series_in_L2(self):
        # moving case at half a period, space profile against the series
        sol = get_solution(0.3, n_max=80)
        cfg = make_config(0.3)
        c = sol.consts
        t = c.T_v / 2
        fd = fd_solve(cfg, nx=512, cfl=0.4, t_final=t)
        x = fd.eta + c.v * t
        from moving_string import field_components
        phi, _, _, _ = field_components(sol, x, t)
        err = math.sqrt(np.trapezoid((fd.u[-1] - phi) ** 2, fd.eta))
        assert err < 1e-3

    def test_energy_drift_below_one_percent(self):
        fd = fd_solve(make_config(0.3), nx=1024, cfl=0.4)
        _, calE = fd.energy_series()
        drift = (calE.max() - calE.min()) / calE.mean()
        assert drift < 0.01

    @pytest.mark.parametrize("block", [7, 256])
    def test_energy_series_matches_per_level_loop(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "_ENERGY_BLOCK", block)
        fd = fd_solve(make_config(0.5), nx=64, t_final=6.0)
        assert len(fd.tau) > 2 * 256
        dtau = fd.tau[1] - fd.tau[0]
        times, energies = [], []
        for k in range(1, len(fd.tau) - 1):
            u_tau = (fd.u[k + 1] - fd.u[k - 1]) / (2.0 * dtau)
            u_eta = np.gradient(fd.u[k], fd.eta)
            dens = 0.5 * (u_tau ** 2 + (1.0 - fd.v ** 2) * u_eta ** 2)
            times.append(float(fd.tau[k]))
            energies.append(float(np.trapezoid(dens, fd.eta)))
        got_times, got = fd.energy_series()
        np.testing.assert_array_equal(got_times, times)
        np.testing.assert_array_equal(got, energies)

    def test_zero_data_stays_zero(self):
        fd = fd_solve(make_config(0.7, preset="zero"), nx=64, t_final=1.0)
        assert np.max(np.abs(fd.u)) == 0.0

    def test_parameter_validation(self):
        cfg = make_config(0.3)
        with pytest.raises(ConfigurationError):
            fd_solve(cfg, nx=16)
        with pytest.raises(ConfigurationError):
            fd_solve(cfg, nx=64, cfl=0.8)
        for t_final in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="t_final must be positive and finite"):
                fd_solve(cfg, nx=64, t_final=t_final)
        # ~1e8 steps x 4097 nodes: a 3 TiB history is refused before allocating
        with pytest.raises(ConfigurationError, match="--method characteristics"):
            fd_solve(make_config(0.99), nx=4096)

    def test_step_rule_bounds_beta(self):
        # dtau <= cfl (1 - v) deta gives beta = v dtau / (2 deta) <=
        # cfl v (1 - v) / 2 <= cfl / 8 <= 1/16, far from the beta = 1/2
        # where M = tridiag(beta, 1, -beta) stops being diagonally dominant
        for v in [0.05 * i for i in range(20)] + [0.99, 0.999]:
            cfg = make_config(v)
            for cfl in (0.1, 0.25, 0.4, 0.5):
                for nx in (32, 1024):
                    for t_final in (1e-3, 0.1, 1.0, 2 * math.pi, 9.87, None):
                        s = oracle._scheme(cfg, nx, cfl, t_final)
                        assert 0.0 <= s.beta <= cfl / 8

    @pytest.mark.parametrize("t_final, n_steps", [(1.0, 2), (2 * math.pi, 321), (9.87, 13654)])
    def test_levels_are_linspace(self, t_final, n_steps):
        k = np.arange(n_steps + 1)
        np.testing.assert_array_equal(oracle._level_time(t_final, n_steps, k),
                                      np.linspace(0.0, t_final, n_steps + 1))

    def test_eval_outside_slab_rejected(self):
        fd = fd_solve(make_config(0.3), nx=64, t_final=1.0)
        with pytest.raises(ValueError):
            fd.eval(1.0, 2.0)


class TestPropagator:
    """The propagator's tables against the increment maps of the two-level
    step u^{n+1} = P u^n + Q u^{n-1}, P = M^-1 A and Q = M^-1 C, at the
    largest beta the step rule allows (v = 0.5, cfl = 0.5: beta = 1/16)."""

    BETA = 1.0 / 16
    LAM2 = (1.0 - 0.5 ** 2) * (0.5 * (1.0 - 0.5)) ** 2

    def _step(self, m):
        """Dense P and Q on m interior nodes."""
        eye, sub, sup = np.eye(m), np.eye(m, k=-1), np.eye(m, k=1)
        M = eye + self.BETA * (sub - sup)
        A = (2.0 - 2.0 * self.LAM2) * eye + self.LAM2 * (sub + sup)
        PQ = np.linalg.solve(M, np.hstack([A, M - 2.0 * eye]))
        return PQ[:, :m], PQ[:, m:]

    @staticmethod
    def _dense_rows(P, Q, nodes):
        """Rows ``nodes`` of u^{k+r} - u^k, r = 1 .. K, and of d^{k+K}, as
        maps of (u^k, d^k): rows of [I 0] T^r with T = [[P, Q], [I, 0]]
        acting on (u^k, u^{k-1}) = (u^k, u^k - d^k)."""
        pick = np.eye(len(P))[nodes]
        y1, y2 = pick, np.zeros_like(pick)
        levels = []
        for _ in range(oracle._LEVELS):
            y1, y2 = y1 @ P + y2, y1 @ Q
            levels.append(np.hstack([y1 + y2 - pick, -y2]))
        return levels, levels[-1] - levels[-2]

    @staticmethod
    def _in_u_basis(table, b, m):
        """A table's (band x window) rows for block b as maps of (u^k, d^k):
        the columns of w = Delta u^k composed with Delta.  Columns past
        either support must be exactly zero."""
        band, span = oracle._BAND, 2 * oracle._REACH + 1
        nodes = (b - oracle._REACH) * band + np.arange(span * band)
        inside = (nodes >= 0) & (nodes < m)
        w_d = np.zeros((2, band, m))
        for part in range(2):
            cols = table.reshape(band, span, 2, band)[:, :, part].reshape(band, -1)
            assert np.all(cols[:, ~inside] == 0.0)
            w_d[part][:, nodes[inside]] = cols[:, inside]
        w = w_d[0]
        u = -2.0 * w
        u[:, 1:] += w[:, :-1]
        u[:, :-1] += w[:, 1:]
        return np.hstack([u, w_d[1]])

    # m < 2 blocks, m a multiple of the block, a partial last block, and
    # more blocks than the copy the weights come from
    @pytest.mark.parametrize("nx", [32, 33, 47, 64, 97, 100, 1024])
    def test_tables_are_the_dense_increment_maps(self, nx):
        # every level 1 .. K of every kind of block; per row, level r lies
        # within 4 r eps of the row's largest entry and d^{k+K} (levels K
        # minus K - 1) within 4 (K + 1) eps.  Measured: 1.2 eps at r = 1,
        # 34 eps at r = 17, 42 eps at r = K = 18 and 68 eps for d^{k+K},
        # about the rounding of the powers of P and Q themselves
        m = nx - 1
        band, K = oracle._BAND, oracle._LEVELS
        prop = oracle._Propagator(m, self.BETA, self.LAM2)
        nb, _, _, kinds, _ = oracle._layout(m)
        blocks = range(nb) if nb <= 8 else [0, 1, 2, nb // 2, nb - 4, nb - 3, nb - 2, nb - 1]
        nodes = np.concatenate([np.arange(b * band, min(b * band + band, m)) for b in blocks])
        P, Q = self._step(m)
        levels, d_last = self._dense_rows(P, Q, nodes)
        eps = np.finfo(float).eps
        start = 0
        for b in blocks:
            c = kinds[b]
            n = min(b * band + band, m) - b * band
            tables = [*prop.rows[c], prop.weights[c][:, :band].T, prop.weights[c][:, band:].T]
            dense = [*levels, d_last]
            bounds = [4 * r * eps for r in range(1, K + 1)] + [4 * (K + 1) * eps]
            for table, rows, bound in zip(tables, dense, bounds):
                got = self._in_u_basis(table, b, m)
                assert np.all(got[n:] == 0.0)        # padded nodes
                rows = rows[start:start + n]
                row_err = np.max(np.abs(got[:n] - rows), axis=1)
                assert np.all(row_err <= bound * np.max(np.abs(rows), axis=1))
            start += n
        # every node of every block: levels 1 .. K + 1 read from a random
        # state against the two-level march of it, within 4 (K + 1) eps of
        # max|u| (measured: at most 29 eps, at nx = 33)
        rng = np.random.default_rng(nx)
        u, d = rng.uniform(-1.0, 1.0, (2, m))
        prop.start(u, d)
        got = list(prop.levels(K - 1)[1:])
        prop.advance()
        got += list(prop.levels(1))
        now, before = u, u - d
        for level in got:
            now, before = P @ now + Q @ before, now
            assert np.max(np.abs(level - now)) <= 4 * (K + 1) * eps * np.max(np.abs(now))

    def test_too_narrow_window_refused(self, monkeypatch):
        oracle._Propagator(1023, self.BETA, self.LAM2)
        monkeypatch.setattr(oracle, "_REACH", 1)
        with pytest.raises(ConfigurationError, match="row tail of .* above"):
            oracle._Propagator(1023, self.BETA, self.LAM2)

    def test_dropped_tail_below_bound_on_admissible_box(self):
        # the step rule dtau <= cfl (1 - v) deta, cfl <= 1/2, at its largest
        # step: no run it admits is refused (worst measured 1.9e-25, at
        # m = 64, v = 0.4, cfl = 0.5; v in steps of 0.01 puts 2.0e-25 at
        # v = 0.41; 27 levels per product would be refused at cfl = 0.5)
        worst = 0.0
        for m in (31, 32, 64, 65, 99, 1023):
            for v in [0.05 * i for i in range(20)] + [0.99, 0.999]:
                for cfl in (0.1, 0.25, 0.4, 0.5):
                    ratio = cfl * (1.0 - v)
                    prop = oracle._Propagator(m, v * ratio / 2.0, (1.0 - v * v) * ratio ** 2)
                    worst = max(worst, prop.tail)
        assert 0.0 < worst < 1e-24 < oracle._TAIL_BOUND


BUMP = {"center": 1.2, "width": 1.0, "amplitude": 0.1}


def slab_points(cfg, t_final, n, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, t_final, n)
    return cfg.v * t + rng.uniform(0.0, 1.0, n) * cfg.L, t


class TestFDSampler:
    """The sampler ``_sample``, which cross_validate runs, reads each corner
    from the level of the march that covers it; every value must carry the
    bits of fd_solve(...).eval at the same point."""

    # nx = 250: more blocks than the copy the weights come from, the last
    # one partial, so inner blocks are read too
    @pytest.mark.parametrize("nx", [64, 250])
    @pytest.mark.parametrize("v, preset, params", [
        (0.0, "sine_mode", {}),
        (0.5, "bump", BUMP),
        (0.7, "bump", BUMP),
        (0.3, "zero", {}),
    ])
    def test_bitwise_equal_to_history(self, v, preset, params, nx):
        cfg = make_config(v, preset=preset, **params)
        t_final = derive_constants(cfg.L, cfg.v).T_v
        x, t = slab_points(cfg, t_final, 400)
        expected = fd_solve(cfg, nx=nx, t_final=t_final).eval(x, t)
        s = oracle._scheme(cfg, nx, oracle.DEFAULT_FD_CFL, t_final)
        np.testing.assert_array_equal(oracle._sample(s, x, t)[0], expected)

    def test_edges_and_shared_cells(self):
        cfg = make_config(0.5, preset="bump", **BUMP)
        t_final, nx = 3.0, 64
        fd = fd_solve(cfg, nx=nx, t_final=t_final)
        L, v = cfg.L, cfg.v
        deta, dtau = fd.eta[1], fd.tau[1]
        t = np.array([0.0, 0.0, 0.0, t_final, t_final, t_final,
                      t_final - 0.3 * dtau, t_final - 0.7 * dtau])
        s = np.array([0.0, L, 0.4 * L, 0.0, L, 0.6 * L, L - 0.2 * deta, L - 0.9 * deta])
        # 50 points inside one interior cell
        rng = np.random.default_rng(3)
        t = np.concatenate([t, (17 + rng.uniform(0, 1, 50)) * dtau])
        s = np.concatenate([s, (5 + rng.uniform(0, 1, 50)) * deta])
        x = s + v * t
        scheme = oracle._scheme(cfg, nx, oracle.DEFAULT_FD_CFL, t_final)
        np.testing.assert_array_equal(oracle._sample(scheme, x, t)[0], fd.eval(x, t))
        assert oracle._sample(scheme, L, 0.0)[0] == fd.eval(L, 0.0)
        grid = (x.reshape(2, -1), t.reshape(2, -1))
        np.testing.assert_array_equal(oracle._sample(scheme, *grid)[0], fd.eval(*grid))

    @pytest.mark.parametrize("levels", [1, 2, 3, 7])
    def test_samples_straddle_windows(self, monkeypatch, levels):
        # levels per product: a cell's two levels often come from two
        # levels of the march
        monkeypatch.setattr(oracle, "_LEVELS", levels)
        cfg = make_config(0.7, preset="bump", **BUMP)
        t_final = 2.0
        fd = fd_solve(cfg, nx=64, t_final=t_final)
        # one point in every level interval, plus random points
        dtau = fd.tau[1]
        t = np.concatenate([(np.arange(len(fd.tau) - 1) + 0.5) * dtau, fd.tau[[0, -1]]])
        s = np.linspace(0.0, cfg.L, t.size)
        x = s + cfg.v * t
        xr, tr = slab_points(cfg, t_final, 300, seed=2)
        x, t = np.concatenate([x, xr]), np.concatenate([t, tr])
        s = oracle._scheme(cfg, 64, oracle.DEFAULT_FD_CFL, t_final)
        np.testing.assert_array_equal(oracle._sample(s, x, t)[0], fd.eval(x, t))

    def test_near_critical_rounding_is_linear(self):
        # at v = 0.99, lam2 ~ 3e-7 makes the two-level recurrence nearly a
        # Jordan block, and a march that carries u^{k-1} rounds like
        # n_steps^2 eps.  Against a long-double march of the same scheme
        # from the same two levels, the samples lie within 8 n_steps eps
        # max|u| (measured: 0.04 n_steps eps; a per-step march of
        # (u^k, u^{k-1}) read 147 n_steps eps)
        cfg = make_config(0.99, preset="bump", **BUMP)
        nx, t_final = 128, 0.3
        fd = fd_solve(cfg, nx=nx, t_final=t_final)
        s = oracle._scheme(cfg, nx, oracle.DEFAULT_FD_CFL, t_final)
        assert s.n_steps == 3056
        ref = _ld_march(fd.u[0], fd.u[1], s.beta, s.lam2, s.n_steps)
        x, t = slab_points(cfg, t_final, 2000)
        exact = oracle.FrozenFrameFD(eta=fd.eta, tau=fd.tau, u=ref, v=fd.v, L=fd.L).eval(x, t)
        err = np.max(np.abs(oracle._sample(s, x, t)[0] - exact))
        assert err <= 8 * s.n_steps * np.finfo(float).eps * np.max(np.abs(ref))

    def test_outside_slab_rejected_before_march(self, monkeypatch):
        def no_march(*args):
            raise AssertionError("marched before checking the points")

        monkeypatch.setattr(oracle, "_march", no_march)
        s = oracle._scheme(make_config(0.3), 64, oracle.DEFAULT_FD_CFL, 1.0)
        for x, t in [(1.0, 2.0), (0.0, 0.5), (1.0, -0.1)]:
            with pytest.raises(ValueError, match="outside the computed slab"):
                oracle._sample(s, x, t)

    def test_work_bound_before_march(self, monkeypatch):
        monkeypatch.setattr(oracle, "_march", None)
        # ~1e8 steps x 4097 nodes, far above the node-step bound; the
        # counts are printed to 3 significant digits
        s = oracle._scheme(make_config(0.99), 4096, oracle.DEFAULT_FD_CFL, None)
        assert s.n_steps == 102914573
        with pytest.raises(ConfigurationError, match="--method characteristics") as err:
            oracle._sample(s, 1.0, 1.0)
        assert "needs 1.03e+08 time steps x 4097 nodes = 4.22e+11 node-steps" in str(err.value)

    def test_memory_is_a_window_not_the_history(self):
        # the FD part of cross_validate on the oracle-bump workload
        cfg = make_config(0.5, preset="bump", n_max=160, **BUMP)
        t_final = derive_constants(cfg.L, cfg.v).T_v
        x, t = slab_points(cfg, t_final, 4000)
        s = oracle._scheme(cfg, 1024, 0.4, t_final)
        history = (s.n_steps + 1) * (s.nx + 1) * 8
        assert history > 110e6
        tracemalloc.start()
        try:
            oracle._sample(oracle._scheme(cfg, 1024, 0.4, t_final), x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < history / 20


class TestCrossValidation:
    def test_fixed_string_all_three_agree(self, sine_v0):
        rep = cross_validate(sine_v0, 100, seed=0, nx=1024)
        assert rep.max_characteristics < 1e-6
        assert rep.max_fd < 1e-6

    def test_zero_data(self):
        sol = get_solution(0.3, preset="zero")
        rep = cross_validate(sol, 50, nx=64)
        assert rep.max_characteristics == 0.0
        assert rep.max_fd == 0.0

    def test_method_selection(self, sine_v03):
        rep = cross_validate(sine_v03, 20, methods=("characteristics",))
        assert rep.max_fd is None
        assert rep.max_characteristics is not None
        with pytest.raises(ConfigurationError):
            cross_validate(sine_v03, 20, methods=("nope",))

    def test_seeded_reproducibility(self, sine_v03):
        a = cross_validate(sine_v03, 30, seed=5, methods=("characteristics",))
        b = cross_validate(sine_v03, 30, seed=5, methods=("characteristics",))
        assert a.max_characteristics == b.max_characteristics


class TestSeriesPeriodicityViaOracleGrid:
    def test_fd_field_roughly_periodic(self):
        # discrete shadow of the exact shift-periodicity, desk-scale grid
        cfg = make_config(0.3)
        c = derive_constants(cfg.L, cfg.v)
        fd = fd_solve(cfg, nx=256, cfl=0.4, t_final=c.T_v)
        start = fd.u[0]
        end = fd.u[-1]
        assert np.max(np.abs(end - start)) < 1e-2

    def test_series_periodicity_for_reference(self, sine_v03):
        rng = np.random.default_rng(1)
        c = sine_v03.consts
        t = rng.uniform(0, c.T_v, 25)
        x = c.v * t + rng.uniform(0, 1, 25) * c.L
        assert check_periodicity(sine_v03, np.column_stack([x, t])) < 1e-12
