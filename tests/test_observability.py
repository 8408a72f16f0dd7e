"""Boundary observation identities, inequalities and the sharpness probe."""

import math

import numpy as np
import pytest

from moving_string import (
    ConfigurationError,
    derive_constants,
    observe_both_endpoints,
    observe_horizon,
    observe_one_endpoint,
    sharpness_probe,
    spectral_energy,
    velocity_trace_equivalent,
)
from moving_string.observability import _slope_trace_integral, _velocity_trace_integral
from moving_string.series import slope_trace_rows, velocity_trace_rows

from conftest import get_solution, make_config


class TestOneEndpointIdentity:
    def test_v0_closed_form(self, sine_v0):
        # trace is cos(t)/10: integral over one period 2 pi is pi/100,
        # which equals 4 * calE(0) = 4 * pi/400
        rep = observe_one_endpoint(sine_v0, "left", 1)
        assert rep.integral == pytest.approx(math.pi / 100, rel=1e-10)
        assert rep.identity_residual < 1e-10
        assert rep.inverse_constant_check

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("endpoint", ["left", "right"])
    @pytest.mark.parametrize("M", [1, 2])
    def test_identity_over_sweep(self, v, endpoint, M):
        rep = observe_one_endpoint(get_solution(v), endpoint, M)
        assert rep.identity_residual < 1e-6
        assert rep.M == M
        assert rep.T == pytest.approx(M * derive_constants(L=math.pi, v=v).T_v)

    def test_period_scaling(self, sine_v03):
        # doubling the horizon doubles the integral (T_v-periodic trace)
        r1 = observe_one_endpoint(sine_v03, "left", 1)
        r2 = observe_one_endpoint(sine_v03, "left", 2)
        assert r2.integral == pytest.approx(2 * r1.integral, rel=1e-9)

    def test_zero_data_trivially_satisfied(self):
        rep = observe_one_endpoint(get_solution(0.3, preset="zero"), "left", 1)
        assert rep.integral == 0.0
        assert rep.vacuous

    def test_invalid_args(self, sine_v03):
        with pytest.raises(ValueError):
            observe_one_endpoint(sine_v03, "left", 0)
        with pytest.raises(ValueError):
            observe_one_endpoint(sine_v03, "middle", 1)

    @pytest.mark.parametrize("observe", [observe_one_endpoint, velocity_trace_equivalent])
    def test_period_count_past_float_range(self, sine_v03, observe):
        with pytest.raises(ValueError, match="period count M is too large"):
            observe(sine_v03, "left", 10**400)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("observe", [
    lambda sol, tol: observe_one_endpoint(sol, "left", 1, tol),
    lambda sol, tol: observe_both_endpoints(sol, tol),
    lambda sol, tol: observe_horizon(sol, "right", 2.5, tol),
    lambda sol, tol: velocity_trace_equivalent(sol, "left", 1, tol),
    lambda sol, tol: sharpness_probe(sol.cfg, 0.5 * sol.consts.T_tilde_v, tol=tol),
], ids=["one_endpoint", "both_endpoints", "horizon", "velocity_trace", "sharpness_probe"])
def test_invalid_tolerance_rejected(sine_v03, observe, tol):
    with pytest.raises(ValueError, match="tolerance"):
        observe(sine_v03, tol)


class TestTwoEndpointIdentity:
    def test_v0_closed_form(self, sine_v0):
        # both traces are +-cos(t)/10 over horizons L/(1+v) = L/(1-v) = pi:
        # pi/200 each side, pi/100 total = 4 calE(0)
        rep = observe_both_endpoints(sine_v0)
        assert rep.integral == pytest.approx(math.pi / 100, rel=1e-9)
        assert rep.identity_residual < 1e-9

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    def test_identity_over_sweep(self, v):
        rep = observe_both_endpoints(get_solution(v))
        assert rep.identity_residual < 1e-6
        assert rep.inverse_constant_check
        assert rep.endpoint_mode == "both"

    def test_left_right_symmetry_at_v0(self, sine_v0):
        # same-length horizons and symmetric data: equal one-endpoint
        # integrals over [0, 2L]
        left = observe_one_endpoint(sine_v0, "left", 1)
        right = observe_one_endpoint(sine_v0, "right", 1)
        assert left.integral == pytest.approx(right.integral, abs=1e-8)


def _bump(v, n_max):
    """The benchmark's bump, which fills every mode of the table."""
    return get_solution(v, preset="bump", n_max=n_max,
                        center=1.2, width=1.0, amplitude=0.1)


def _trace_coefficients(rows):
    """a_k, k = -n_max..-1, 1..n_max, of the real trace Sum_k a_k
    e^{2 pi i k t/T_v} whose coefficient ``rows`` d (summed over rows)
    give the trace Re Sum_n d_n e^{2 pi i n t/T_v}: a_k = (d_k +
    conj(d_{-k}))/2."""
    d = rows.sum(axis=0)
    return (d + d[::-1].conj()) / 2.0


def _mp_square_integral(sol, a, T):
    """int_0^T (Sum_k a_k e^{i k w t})^2 dt, w = 2 pi/T_v, term by term at
    the working precision of mpmath."""
    import mpmath as mp
    w = 2 * mp.pi / mp.mpf(sol.consts.T_v)
    T = mp.mpf(T)
    ak = [(int(k), mp.mpc(complex(x))) for k, x in zip(sol.n, a)]
    pieces = {}
    for j, aj in ak:
        for k, ak_ in ak:
            pieces[j + k] = pieces.get(j + k, 0) + aj * ak_
    total = mp.mpc(0)
    for m, coef in pieces.items():
        total += coef * (T if m == 0 else (mp.expj(m * w * T) - 1) / (1j * m * w))
    return float(total.real)


class TestTraceIntegralsExact:
    """The squared trace integrals on band-sized Gauss-Legendre panels
    against the closed forms of the same trigonometric polynomial."""

    @pytest.mark.parametrize("n_max", [8, 40, 160])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.9, 0.99])
    @pytest.mark.parametrize("endpoint", ["left", "right"])
    def test_whole_periods_match_parseval(self, v, n_max, endpoint):
        # over M T_v the integral is M T_v Sum_k |a_k|^2 exactly; at v = 0
        # the velocity trace vanishes identically and has no relative gap
        sol = _bump(v, n_max)
        pairs = [(_slope_trace_integral, slope_trace_rows)]
        if v > 0.0:
            pairs.append((_velocity_trace_integral, velocity_trace_rows))
        for M in (1, 3):
            T = M * sol.consts.T_v
            for integral, rows in pairs:
                a = _trace_coefficients(rows(sol, endpoint))
                exact = T * math.fsum((np.abs(a) ** 2).tolist())
                assert abs(integral(sol, endpoint, T) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("n_max", [8, 40])
    @pytest.mark.parametrize("v", [0.3, 0.9, 0.99])
    def test_two_endpoint_horizons_match_high_precision(self, v, n_max):
        # L/(1+v) and L/(1-v) are no whole number of periods
        mp = pytest.importorskip("mpmath")
        sol = _bump(v, n_max)
        c = sol.consts
        for endpoint, T in (("left", c.L / (1.0 + v)), ("right", c.L / (1.0 - v))):
            a = _trace_coefficients(slope_trace_rows(sol, endpoint))
            with mp.workdps(40):
                exact = _mp_square_integral(sol, a, T)
            assert abs(_slope_trace_integral(sol, endpoint, T) - exact) <= 1e-13 * exact


class TestDirectInequality:
    @pytest.mark.parametrize("T", [0.8, 2.5, 7.0, 9.3])
    def test_fractional_horizons_bounded(self, sine_v03, T):
        rep = observe_horizon(sine_v03, "left", T)
        M = math.ceil(T / sine_v03.consts.T_v)
        bound = 4 * M / (1 - 0.3 ** 2) ** 2
        assert rep.M == M
        assert rep.identity_residual is None
        assert rep.direct_constant <= bound * (1 + 1e-9)

    def test_integral_monotone_in_horizon(self, sine_v03):
        vals = [observe_horizon(sine_v03, "right", T).integral
                for T in (1.0, 2.0, 4.0, 6.9)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
    def test_invalid_horizon_rejected(self, sine_v03, T):
        with pytest.raises(ValueError, match="horizon"):
            observe_horizon(sine_v03, "left", T)

    def test_inverse_holds_at_full_period(self, sine_v03):
        rep = observe_horizon(sine_v03, "left", sine_v03.consts.T_v)
        assert rep.inverse_constant_check
        # at T = T_v the direct constant matches the identity constant
        assert rep.direct_constant == pytest.approx(
            4 / (1 - 0.3 ** 2) ** 2, rel=1e-6
        )


class TestVelocityTraceEquivalent:
    @pytest.mark.parametrize("v,expected", [(0.3, 0.09), (0.7, 0.49)])
    def test_trace_ratio_is_v_squared(self, v, expected):
        rep = velocity_trace_equivalent(get_solution(v), "left", 1)
        assert rep.trace_ratio == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_velocity_form_identity_and_inverse_bound(self, v):
        # int (phi_t/v^2)^2 = 4 M calE(0) / (v(1-v^2))^2 by the trace
        # relation; the inverse bound holds with the unchanged constant
        rep = velocity_trace_equivalent(get_solution(v), "right", 1)
        assert rep.identity_residual < 1e-6
        assert rep.inverse_constant_check

    def test_v0_rejected(self, sine_v0):
        with pytest.raises(ValueError, match="v > 0"):
            velocity_trace_equivalent(sine_v0, "left", 1)

    def test_zero_data_flagged(self):
        rep = velocity_trace_equivalent(get_solution(0.3, preset="zero"), "left", 1)
        assert rep.vacuous
        assert rep.trace_ratio is None


class TestSharpnessProbe:
    def test_disturbance_cannot_reach_far_support(self):
        # bump in (0, L/64), horizon half of L/(1-v): the right trace is
        # identically zero by finite propagation speed
        cfg = make_config(0.3)
        c = derive_constants(cfg.L, cfg.v)
        rep = sharpness_probe(cfg, 0.5 * c.T_tilde_v)
        assert rep.energy0 == 1.0
        assert rep.right_integral < 1e-10
        assert rep.left_integral > 0.0
        # ... so no uniform two-endpoint inverse constant can hold
        assert not rep.inverse_constant_check

    def test_left_integral_matches_reflection_formula(self):
        # for phi1 = 0 the left trace is (1 + gamma) phi0_x((1+v)t)/2, so
        # the integral tends to (1+gamma)^2/(2(1+v)) * calE(0) once the
        # bump has fully crossed the left support
        cfg = make_config(0.3)
        c = derive_constants(cfg.L, cfg.v)
        rep = sharpness_probe(cfg, 0.5 * c.T_tilde_v)
        g = c.gamma_v
        assert rep.left_integral == pytest.approx(
            (1 + g) ** 2 / (2 * (1 + 0.3)), rel=1e-6
        )

    @pytest.mark.parametrize("L", [1.0, math.pi])
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7, 0.9, 0.99])
    def test_left_integral_exact_on_band_zero(self, v, L):
        # the squared traces are quartics between the knot-arrival cuts,
        # and one Gauss-Legendre panel per piece is exact on them: the left
        # integral sits within 1e-13 of (1+gamma)^2/(2(1+v)) (measured at
        # most 1.14e-14, at v = 0.99, L = 1: the characteristics solver's
        # rounding), and the right trace is zero at every node
        cfg = make_config(v, L=L)
        c = derive_constants(cfg.L, cfg.v)
        rep = sharpness_probe(cfg, 0.5 * c.T_tilde_v)
        exact = (1 + c.gamma_v) ** 2 / (2 * (1 + v))
        assert abs(rep.left_integral - exact) <= 1e-13 * exact
        assert rep.right_integral == 0.0

    def test_centered_bump_silent_until_waves_arrive(self):
        # v=0: bump of width L/8 at the center; both traces stay zero for
        # t < L/2 - L/16
        cfg = make_config(0.0)
        L = cfg.L
        rep = sharpness_probe(cfg, T=L / 2 - L / 16 - 1e-6,
                              width=L / 8, center=L / 2)
        assert rep.left_integral < 1e-12
        assert rep.right_integral < 1e-12

    def test_zero_and_long_horizons_rejected(self):
        cfg = make_config(0.3)
        c = derive_constants(cfg.L, cfg.v)
        with pytest.raises(ConfigurationError):
            sharpness_probe(cfg, c.T_tilde_v)
        with pytest.raises(ConfigurationError):
            sharpness_probe(cfg, 0.0)


class TestIntermediateHorizonProbe:
    def test_one_endpoint_between_sharp_times_reported_not_asserted(self, sine_v03):
        # between T_tilde_v and T_v at a single endpoint no identity is
        # available; record the empirical constant for the report only
        c = sine_v03.consts
        T = 0.5 * (c.T_tilde_v + c.T_v)
        rep = observe_horizon(sine_v03, "left", T)
        e0 = spectral_energy(sine_v03)
        empirical = (e0 / rep.integral if rep.integral > 0 else float("inf"))
        print(f"\nempirical one-endpoint constant at T=(T~+Tv)/2: C(T)={empirical:.6g} "
              f"(identity constant at T_v: {(1 - 0.3**2)**2 / 4:.6g})")
        assert np.isfinite(rep.integral)
