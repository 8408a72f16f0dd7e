"""Series evaluation: fields, traces, derivative consistency, periodicity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from moving_string import check_periodicity, field_components
from moving_string.observability import _support_trace, _trace_band
from moving_string.quadrature import Panelization, _gauss_segment
from moving_string.series import (
    _trace_values,
    field_on_moving_grid,
    sample_moving_grid,
    slope_trace_rows,
    velocity_trace_rows,
)

from conftest import get_solution


class TestStandingWave:
    """v=0 sine case: phi = sin(x) cos(t)/10 exactly."""

    def test_field_values(self, sine_v0):
        phi, phx, pht, _ = field_components(sine_v0, 1.0, 2.0)
        assert float(phi) == pytest.approx(math.sin(1.0) * math.cos(2.0) / 10, abs=1e-12)
        assert float(phx) == pytest.approx(math.cos(1.0) * math.cos(2.0) / 10, abs=1e-12)
        assert float(pht) == pytest.approx(-math.sin(1.0) * math.sin(2.0) / 10, abs=1e-12)

    def test_left_trace_is_cos_over_10(self, sine_v0):
        t = np.linspace(0.0, 2 * math.pi, 17)
        phx = field_on_moving_grid(sine_v0, t, [0.0, sine_v0.consts.L])[1]
        np.testing.assert_allclose(phx[:, 0], np.cos(t) / 10, atol=1e-12)

    def test_right_trace_is_minus_cos_over_10(self, sine_v0):
        t = np.linspace(0.0, 2 * math.pi, 17)
        phx = field_on_moving_grid(sine_v0, t, [0.0, sine_v0.consts.L])[1]
        np.testing.assert_allclose(phx[:, 1], -np.cos(t) / 10, atol=1e-12)


class TestZeroData:
    def test_everything_vanishes(self):
        sol = get_solution(0.3, preset="zero")
        phi, phx, pht, _ = field_components(sol, 1.0, 1.0)
        assert phi == 0.0 and phx == 0.0 and pht == 0.0
        phx = field_on_moving_grid(sol, [0.0, 1.0], [0.0, sol.consts.L])[1]
        assert np.all(phx == 0.0)
        assert check_periodicity(sol, [(1.0, 0.5)]) == 0.0


class TestDomainValidation:
    def test_outside_moving_interval_rejected(self, sine_v03):
        with pytest.raises(ValueError, match="moving interval"):
            field_components(sine_v03, 0.05, 1.0)  # left support is at 0.3 by t=1

    def test_negative_time_rejected(self, sine_v03):
        with pytest.raises(ValueError):
            field_components(sine_v03, 1.0, -0.5)

    def test_endpoints_admitted(self, sine_v03):
        c = sine_v03.consts
        t = 1.7
        field_components(sine_v03, c.v * t, t)
        field_components(sine_v03, c.L + c.v * t, t)


class TestDirichletAndTotalDerivative:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    def test_traces_vanish_at_supports(self, v):
        sol = get_solution(v)
        c = sol.consts
        ts = np.linspace(0.0, c.T_v, 33)
        for xb in (0.0, c.L):
            phi, _, _, _ = field_components(sol, xb + c.v * ts, ts)
            assert np.max(np.abs(phi)) < 1e-8

    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_material_derivative_vanishes_at_supports(self, v):
        sol = get_solution(v)
        c = sol.consts
        ts = np.linspace(0.0, c.T_v, 33)
        for xb in (0.0, c.L):
            _, phx, pht, _ = field_components(sol, xb + c.v * ts, ts)
            assert np.max(np.abs(pht + c.v * phx)) < 1e-6
            # equivalently phi_t^2 = v^2 phi_x^2 along the support
            assert np.max(np.abs(pht ** 2 - v ** 2 * phx ** 2)) < 1e-8


class TestDerivativeConsistency:
    def test_central_differences_match_reported_derivatives(self, sine_v03):
        c = sine_v03.consts
        h = 1e-5
        for (x, t) in [(1.2, 0.9), (2.0, 3.3), (1.7, 5.1)]:
            _, phx, pht, _ = field_components(sine_v03, x, t)
            fx = (field_components(sine_v03, x + h, t)[0]
                  - field_components(sine_v03, x - h, t)[0]) / (2 * h)
            ft = (field_components(sine_v03, x + c.v * h, t + h)[0]
                  - field_components(sine_v03, x - c.v * h, t - h)[0]) / (2 * h)
            # the time difference follows the moving frame; convert back
            assert float(fx) == pytest.approx(float(phx), abs=5e-6)
            assert float(ft) == pytest.approx(float(pht + c.v * phx), abs=5e-6)


class TestRealityMonitoring:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    def test_imaginary_residue_small_for_real_data(self, v):
        sol = get_solution(v)
        c = sol.consts
        rng = np.random.default_rng(7)
        t = rng.uniform(0, c.T_v, 50)
        x = c.v * t + rng.uniform(0, 1, 50) * c.L
        _, _, _, resid = field_components(sol, x, t)
        assert resid < 1e-12

    def test_trace_reality(self, sine_v07):
        tr = _trace_values(sine_v07, "right", np.linspace(0, 5, 11))
        assert np.max(np.abs(tr.imag)) < 1e-12


class TestTraceClosedForm:
    @pytest.mark.parametrize("endpoint", ["left", "right"])
    def test_trace_matches_field_slope_at_support(self, sine_v03, endpoint):
        # the reduced single-frequency trace must equal the two-family sum
        c = sine_v03.consts
        ts = np.linspace(0.0, c.T_v, 23)
        xb = 0.0 if endpoint == "left" else c.L
        tr = _trace_values(sine_v03, endpoint, ts).real
        _, phx, _, _ = field_components(sine_v03, xb + c.v * ts, ts)
        np.testing.assert_allclose(tr, phx, atol=1e-12)

    def test_velocity_trace_is_minus_v_times_slope(self, sine_v03):
        # the two velocity families, each summed on its own, against the
        # slope trace: a floating-point check of phi_t = -v phi_x there
        # on the nodes of the observability integral over (0, T_v)
        seg = _trace_segment(sine_v03, sine_v03.consts.T_v)
        vt = _support_trace(sine_v03, velocity_trace_rows(sine_v03, "left"), seg)
        tr = _support_trace(sine_v03, slope_trace_rows(sine_v03, "left"), seg)
        np.testing.assert_allclose(vt, -sine_v03.consts.v * tr, atol=1e-10)

    @pytest.mark.parametrize("rows", [slope_trace_rows, velocity_trace_rows])
    def test_trace_rows_refuse_unknown_endpoint(self, sine_v03, rows):
        # every support trace is built by these two; "Right" names no support
        with pytest.raises(ValueError, match="endpoint must be 'left' or 'right'"):
            rows(sine_v03, "Right")


class TestPeriodicity:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    def test_shift_by_one_period(self, v):
        sol = get_solution(v)
        c = sol.consts
        rng = np.random.default_rng(0)
        t = rng.uniform(0, c.T_v, 100)
        x = c.v * t + rng.uniform(0, 1, 100) * c.L
        assert check_periodicity(sol, np.column_stack([x, t])) < 1e-12


class TestInitialDataReproduction:
    def test_l2_error_at_t0_is_truncation_limited(self, sine_v03):
        # L^2 distance between the series at t=0 and the raw data
        xs = np.linspace(0.0, math.pi, 801)
        phi, _, pht, _ = field_components(sine_v03, xs, 0.0)
        p0 = 0.1 * np.sin(xs)
        l2_phi = math.sqrt(np.trapezoid((phi - p0) ** 2, xs))
        l2_vel = math.sqrt(np.trapezoid(pht ** 2, xs))  # phi1 = 0
        assert l2_phi < 1e-3
        assert l2_vel < 1e-2


class TestMovingGrid:
    """The grid evaluator against the scattered-point Horner sums.

    Horner forms x = v t + s in floating point, so its own error grows with
    the horizon and with v; the near-critical accuracy of the grid is
    pinned against mpmath in ``TestAgainstHighPrecision`` instead.
    """

    @pytest.mark.parametrize("v,preset,params,periods", [
        (0.3, "sine_mode", {}, 2.0),
        (0.7, "bump", {"center": 1.2, "width": 1.0, "amplitude": 0.1}, 1.0),
    ])
    def test_agrees_with_field_components(self, v, preset, params, periods):
        sol = get_solution(v, preset=preset, n_max=80, **params)
        c = sol.consts
        times = np.linspace(0.0, periods * c.T_v, 13)
        s = np.linspace(0.0, c.L, 301)
        got = field_on_moving_grid(sol, times, s)
        X = c.v * times[:, None] + s[None, :]
        T = np.broadcast_to(times[:, None], X.shape)
        ref = field_components(sol, X, T)
        for component, exact in zip(got[:3], ref[:3]):
            assert component.shape == (13, 301)
            assert np.max(np.abs(component - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert got[3] < 1e-14

    @pytest.mark.parametrize("times,s", [
        ([-0.5], [1.0]),
        ([math.nan], [1.0]),
        ([math.inf], [1.0]),
        ([1.0], [-0.01]),
        ([1.0], [math.pi + 0.01]),
        ([1.0], [math.nan]),
        ([[1.0]], [1.0]),
    ])
    def test_domain_rejected(self, sine_v03, times, s):
        with pytest.raises(ValueError):
            field_on_moving_grid(sine_v03, times, s)

    def test_interval_ends_admitted(self, sine_v03):
        phi, _, _, _ = field_on_moving_grid(sine_v03, [0.0, 2.5], [0.0, sine_v03.consts.L])
        assert np.max(np.abs(phi)) < 1e-8


class TestGridSampler:
    def test_grid_shape_and_domain(self, sine_v03):
        X, T, phi, phx, pht = sample_moving_grid(sine_v03, 8, 5, 2.0)
        assert X.shape == (8, 5)
        c = sine_v03.consts
        np.testing.assert_allclose(X[0], c.v * T[0], atol=1e-12)
        np.testing.assert_allclose(X[-1], c.v * T[-1] + c.L, atol=1e-12)

    def test_tiny_grid_rejected(self, sine_v03):
        with pytest.raises(ValueError):
            sample_moving_grid(sine_v03, 1, 5, 1.0)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -1.0])
    def test_bad_horizon_rejected(self, sine_v03, t_final):
        with pytest.raises(ValueError):
            sample_moving_grid(sine_v03, 4, 5, t_final)


def _mp_field(sol, x, t, s=None):
    """(phi, phi_x, phi_t) at one point from the table by 40-digit mpmath,
    straight from the two-family definition.  Given ``s``, the point is
    x = v t + s, formed at 40 digits (``x`` is then ignored)."""
    import mpmath as mp

    c = sol.consts
    L, v, t = (mp.mpf(float(a)) for a in (c.L, c.v, t))
    x = mp.mpf(float(x)) if s is None else v * t + mp.mpf(float(s))
    th1 = mp.pi * (1 - v) * (t + x) / L
    th2 = mp.pi * (1 + v) * (t - x) / L
    phi = phx = pht = mp.mpc(0)
    for n, cn in zip(sol.n, sol.c):
        e1, e2 = mp.expj(int(n) * th1), mp.expj(int(n) * th2)
        cn = mp.mpc(cn.real, cn.imag)
        phi += cn * (e1 - e2)
        d = 1j * mp.pi / L * int(n) * cn
        phx += d * ((1 - v) * e1 + (1 + v) * e2)
        pht += d * ((1 - v) * e1 - (1 + v) * e2)
    return phi, phx, pht


def _mp_trace(sol, endpoint, t):
    import mpmath as mp

    c = sol.consts
    L, v, T, t = (mp.mpf(float(a)) for a in (c.L, c.v, c.T_v, t))
    total = mp.mpc(0)
    for n, cn in zip(sol.n, sol.c):
        n, cn = int(n), mp.mpc(cn.real, cn.imag)
        term = 2j * mp.pi / L * n * cn * mp.expj(2 * mp.pi * n * t / T)
        if endpoint == "right":
            term *= mp.expj(-n * mp.pi * (1 + v))
        total += term
    return total


def _rel_dev(new, ref):
    ref = np.array([complex(r) for r in ref])
    return np.max(np.abs(np.asarray(new) - ref)) / np.max(np.abs(ref))


class TestAgainstHighPrecision:
    """The series sums against a 40-digit evaluation of the same table.

    n_max = 160 and times up to 3 T_v; the error bound is about
    n_max * eps * Sum |c_n| (times |n| for the derivatives).
    """

    @pytest.fixture(autouse=True)
    def _precision(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            yield

    @staticmethod
    def _points(sol):
        c = sol.consts
        rng = np.random.default_rng(11)
        t = np.concatenate([[0.0, 3 * c.T_v], rng.uniform(0, 3 * c.T_v, 10)])
        frac = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 10)])
        return c.v * t + frac * c.L, t

    @pytest.mark.parametrize("v", [0.3, 0.99])
    def test_field_components(self, v):
        sol = get_solution(v, n_max=160, ppu=32)
        x, t = self._points(sol)
        got = field_components(sol, x, t)
        ref = list(zip(*(_mp_field(sol, xi, ti) for xi, ti in zip(x, t))))
        for component, exact in zip(got[:3], ref):
            assert _rel_dev(component, exact) <= 1e-12

    @pytest.mark.parametrize("v", [0.3, 0.99])
    def test_moving_grid(self, v):
        # the grid's diagonal holds the points (t_i, s_i) of the scattered test
        sol = get_solution(v, n_max=160, ppu=32)
        x, t = self._points(sol)
        s = np.clip(x - sol.consts.v * t, 0.0, sol.consts.L)
        got = field_on_moving_grid(sol, t, s)
        ref = list(zip(*(_mp_field(sol, None, ti, si) for ti, si in zip(t, s))))
        for component, exact in zip(got[:3], ref):
            assert _rel_dev(np.diag(component), exact) <= 1e-12

    @pytest.mark.parametrize("endpoint", ["left", "right"])
    def test_velocity_trace(self, endpoint):
        # x = x_b + v t formed in floating point puts 1.5 (left) and 4.3
        # (right) times this bound into phi_t over 2 T_v at v = 0.9; the
        # two families synthesized in t, as the observability integrals
        # sum them, stay within 0.32 and 0.81 of it
        sol = get_solution(0.9, preset="sine_velocity", n_max=80, amplitude=1.0, mode=1)
        c = sol.consts
        seg = _gauss_segment(0.0, 2 * c.T_v, 13)              # 104 nodes
        t = seg.nodes
        got = _support_trace(sol, velocity_trace_rows(sol, endpoint), seg)
        xb = 0.0 if endpoint == "left" else c.L
        ref = np.array([float(_mp_field(sol, None, ti, xb)[2].real) for ti in t])
        bound = sol.n_max * np.finfo(float).eps * np.abs(velocity_trace_rows(sol, endpoint)).sum()
        assert np.max(np.abs(got - ref)) <= bound

    @pytest.mark.parametrize("v", [0.3, 0.99])
    @pytest.mark.parametrize("endpoint", ["left", "right"])
    def test_trace_values(self, v, endpoint):
        sol = get_solution(v, n_max=160, ppu=32)
        t = np.linspace(0.0, 3 * sol.consts.T_v, 13)
        got = _trace_values(sol, endpoint, t)
        assert _rel_dev(got, [_mp_trace(sol, endpoint, ti) for ti in t]) <= 1e-12


def _trace_segment(sol, T):
    """The Gauss-Legendre segment of the observability integral over (0, T)."""
    (seg,) = Panelization(0.0, T, band=_trace_band(sol)).segments
    return seg


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedTraces:
    """The support traces that the observability integrals square, summed
    on a segment's Gauss-Legendre nodes by the blocked matrix product
    (``observability._support_trace``): G panels of 8 nodes to a block,
    32 blocks to a chunk."""

    @pytest.mark.parametrize("v", [0.3, 0.99])
    @pytest.mark.parametrize("endpoint", ["left", "right"])
    def test_against_high_precision(self, v, endpoint):
        # the integral's nodes over 3 T_v: 302 panels in blocks of 6, one
        # whole chunk and a short one ending in a block of 2 panels; the
        # checked nodes sit on both sides of block and chunk edges.  The
        # reference velocity forms x = v t + x_b at 40 digits.
        mp = pytest.importorskip("mpmath")
        sol = get_solution(v)
        c = sol.consts
        seg = _trace_segment(sol, 3 * c.T_v)
        t = seg.nodes
        b = len(seg.offsets)
        assert (len(t), b) == (2416, 48)
        idx = [0, 1, b - 1, b, b + 1, 32 * b - 1, 32 * b, 32 * b + 1, 50 * b - 1, 50 * b,
               len(t) - 2, len(t) - 1]
        xb = 0.0 if endpoint == "left" else c.L
        slope = _support_trace(sol, slope_trace_rows(sol, endpoint), seg)[idx]
        vel = _support_trace(sol, velocity_trace_rows(sol, endpoint), seg)[idx]
        with mp.workdps(40):
            ref_slope = [_mp_trace(sol, endpoint, t[i]).real for i in idx]
            ref_vel = [_mp_field(sol, None, t[i], s=xb)[2].real for i in idx]
        assert _rel_dev(slope, ref_slope) <= 1e-12
        assert _rel_dev(vel, ref_vel) <= 1e-12

    # one panel, a short last block, exactly two chunks, a block of one
    # panel past them, and several chunks of 25-panel blocks
    PANELS = [1, 31, 512, 513, 5001]

    @pytest.mark.parametrize("panels", PANELS)
    @pytest.mark.parametrize("v", [0.3, 0.99])
    def test_slope_agrees_with_horner(self, v, panels):
        sol = get_solution(v)
        seg = _gauss_segment(0.0, sol.consts.T_v, panels)
        for endpoint in ("left", "right"):
            got = _support_trace(sol, slope_trace_rows(sol, endpoint), seg)
            ref = _trace_values(sol, endpoint, seg.nodes).real
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("panels", PANELS)
    def test_velocity_agrees_with_two_family_sum(self, panels):
        # at v = 0.3: near v = 1 the scattered sum's own error, from forming
        # x = v t + x_b in floating point, reaches about 1e-12
        sol = get_solution(0.3)
        c = sol.consts
        seg = _gauss_segment(0.0, c.T_v, panels)
        t = seg.nodes
        for endpoint, xb in (("left", 0.0), ("right", c.L)):
            got = _support_trace(sol, velocity_trace_rows(sol, endpoint), seg)
            ref = field_components(sol, xb + c.v * t, t)[2]
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n_max, periods", [(40, 1000), (160, 250)])
    def test_peak_memory_within_horner_integrand(self, n_max, periods):
        # a long horizon at v = 0.99: 804,248 nodes in 99 chunks of
        # 32-panel blocks
        sol = get_solution(0.99, n_max=n_max, ppu=32)
        c = sol.consts
        seg = _trace_segment(sol, periods * c.T_v)
        t = seg.nodes
        assert len(t) == 804_248
        slope = slope_trace_rows(sol, "left")
        vel = velocity_trace_rows(sol, "left")
        assert (_peak_bytes(lambda: _support_trace(sol, slope, seg))
                <= _peak_bytes(lambda: _trace_values(sol, "left", t).real ** 2))
        assert (_peak_bytes(lambda: _support_trace(sol, vel, seg))
                <= _peak_bytes(lambda: field_components(sol, c.v * t, t)[2] ** 2))


class TestConjugateAsymmetryIsMeasured:
    def test_perturbed_negative_mode_shows_imaginary_residual(self, sine_v03):
        # imag_residual must measure the table, not be zero by construction
        c = sine_v03.c.copy()
        c[sine_v03.n_max - 3] += 1e-6            # c_{-3} off conj(c_3)
        sol = dataclasses.replace(sine_v03, c=c)
        rng = np.random.default_rng(3)
        t = rng.uniform(0, sol.consts.T_v, 20)
        x = sol.consts.v * t + rng.uniform(0, 1, 20) * sol.consts.L
        assert field_components(sine_v03, x, t)[3] < 1e-15
        assert field_components(sol, x, t)[3] > 1e-7
        assert np.max(np.abs(_trace_values(sol, "left", t).imag)) > 1e-7
        s = x - sol.consts.v * t
        assert field_on_moving_grid(sine_v03, t, s)[3] < 1e-15
        assert field_on_moving_grid(sol, t, s)[3] > 1e-7
