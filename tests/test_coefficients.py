"""Coefficient tables: analytic values, formula equivalence, Parseval sums."""

import math

import numpy as np
import pytest

from moving_string import (InitialDataSpec, StringConfig, derive_constants, initial_data,
                           parseval_sum, solve)
from moving_string.coefficients import _formula, _mapped_knots, _table
from moving_string.quadrature import Panelization

from conftest import get_solution, make_config


class TestAnalyticStandingWave:
    """v=0, phi0 = sin(x)/10, phi1 = 0  =>  phi = sin(x) cos(t)/10.

    Expanding sin(x) cos(t)/10 in the two exponential families gives
    c_{+1} = -i/40, c_{-1} = +i/40 and nothing else.
    """

    def test_fundamental_pair(self, sine_v0):
        assert sine_v0.c[sine_v0.n == 1].item() == pytest.approx(-1j / 40, abs=1e-12)
        assert sine_v0.c[sine_v0.n == -1].item() == pytest.approx(1j / 40, abs=1e-12)

    def test_all_other_modes_vanish(self, sine_v0):
        mask = np.abs(sine_v0.n) != 1
        assert np.max(np.abs(sine_v0.c[mask])) < 1e-10

    def test_both_formulas_agree_to_machine_level(self, sine_v0):
        # at v=0 the extended data are smooth and periodic: quadrature is
        # spectrally accurate and the two formulas coincide almost exactly
        assert sine_v0.cross_check_residual < 1e-14


class TestAnalyticVelocityData:
    def test_pure_velocity_mode(self):
        # v=0, phi0 = 0, phi1 = sin(x)  =>  phi = sin(x) sin(t), and by the
        # same expansion c_{+1} = c_{-1} = -1/4
        sol = get_solution(0.0, preset="sine_velocity", amplitude=1.0, mode=1)
        assert sol.c[sol.n == 1].item() == pytest.approx(-0.25, abs=1e-12)
        assert sol.c[sol.n == -1].item() == pytest.approx(-0.25, abs=1e-12)


class TestZeroData:
    def test_all_coefficients_vanish(self):
        sol = get_solution(0.3, preset="zero")
        assert np.max(np.abs(sol.c)) == 0.0
        assert np.max(np.abs(sol.c_minus)) == 0.0
        ps = parseval_sum(sol)
        assert ps.table_sum == 0.0
        assert ps.integral_plus == 0.0
        assert ps.integral_minus == 0.0


class TestFormulaEquivalence:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize(
        "preset,params",
        [
            ("sine_mode", {"amplitude": 0.1, "mode": 1}),
            ("sine_mode", {"amplitude": 0.1, "mode": 2}),
            ("bump", {"center": math.pi / 2, "width": math.pi / 2, "amplitude": 0.1}),
        ],
    )
    def test_cross_residual_below_default_tolerance(self, v, preset, params):
        sol = get_solution(v, preset=preset, **params)
        assert sol.cross_check_residual < 1e-8

    def test_velocity_data_equivalence(self):
        sol = get_solution(0.5, preset="sine_velocity", amplitude=0.5, mode=2)
        assert sol.cross_check_residual < 1e-8


class TestConjugateSymmetry:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7])
    def test_real_data_gives_conjugate_pairs(self, v):
        sol = get_solution(v)
        # table order is -n_max..-1, 1..n_max: reversing pairs n with -n
        resid = np.max(np.abs(sol.c[::-1].conj() - sol.c))
        assert resid < 1e-14


class TestParseval:
    def test_v0_sum_is_1_over_800(self, sine_v0):
        # |1*c_1|^2 + |1*c_-1|^2 = 2 (1/40)^2 = 1/800
        ps = parseval_sum(sine_v0)
        assert ps.table_sum == pytest.approx(1 / 800, rel=1e-12)
        assert ps.integral_plus == pytest.approx(1 / 800, rel=1e-12)
        assert ps.integral_minus == pytest.approx(1 / 800, rel=1e-12)

    def test_integral_forms_agree(self, sine_v03):
        # the two extended-data integrals carry the full spectrum and agree
        # with each other to quadrature accuracy
        ps = parseval_sum(sine_v03)
        assert ps.integral_plus == pytest.approx(ps.integral_minus, rel=1e-10)

    def test_v03_integral_value(self, sine_v03):
        # closed form: L * calE(0) / (2 pi^2 (1 - v^2)) with calE(0) = pi/400
        expected = math.pi * (math.pi / 400) / (2 * math.pi ** 2 * 0.91)
        ps = parseval_sum(sine_v03)
        assert ps.integral_plus == pytest.approx(expected, rel=1e-10)
        # the truncated table reaches it up to the spectral tail (~0.2%)
        assert ps.table_sum == pytest.approx(expected, rel=5e-3)
        assert 0.0 < ps.truncation_fraction < 5e-3

    def test_table_never_exceeds_integral(self, sine_v07):
        ps = parseval_sum(sine_v07)
        assert ps.table_sum <= ps.integral_plus * (1 + 1e-12)


class TestDecay:
    @staticmethod
    def _tail_fraction(sol, cut):
        power = np.abs(sol.c) ** 2
        total = power.sum()
        return power[np.abs(sol.n) > cut].sum() / total

    def test_tail_small_at_low_speed(self, sine_v03):
        assert self._tail_fraction(sine_v03, 4) < 1e-2

    def test_tail_small_for_second_mode(self):
        sol = get_solution(0.3, preset="sine_mode", amplitude=0.1, mode=2)
        assert self._tail_fraction(sol, 8) < 1e-2

    def test_tail_bounded_at_v07(self, sine_v07):
        # reflection jumps grow with gamma_v and slow the decay: the
        # measured tail beyond 4x the mode number is ~3% here
        assert self._tail_fraction(sine_v07, 4) < 5e-2

    def test_tail_decreases_with_cutoff(self, sine_v07):
        fr = [self._tail_fraction(sine_v07, k) for k in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(fr, fr[1:]))


class TestTruncationConsistency:
    def test_enlarging_n_max_preserves_entries(self):
        # bump data declare no rate, so the Simpson layout does not depend
        # on n_max and the per-mode integrals are bit-identical
        bump = {"center": 1.2, "width": 1.0, "amplitude": 0.1}
        small = get_solution(0.3, preset="bump", n_max=12, **bump)
        large = get_solution(0.3, preset="bump", n_max=24, **bump)
        sel = np.abs(large.n) <= 12
        np.testing.assert_array_equal(large.c[sel], small.c)

    def test_enlarging_n_max_moves_sine_entries_by_rounding(self):
        # sine data size the layout to |omega| n_max + rate, so n_max = 24
        # integrates on more panels than 12; both are exact to rounding,
        # which reads 2.7e-16 of max |c| here (5.6e-16 at v = 0.99)
        small = get_solution(0.3, n_max=12)
        large = get_solution(0.3, n_max=24)
        sel = np.abs(large.n) <= 12
        scale = np.max(np.abs(small.c))
        assert np.max(np.abs(large.c[sel] - small.c)) <= 1e-14 * scale


class TestSolutionContainer:
    def test_mode_order_and_no_zero(self, sine_v03):
        n = sine_v03.n
        assert n[0] == -40 and n[-1] == 40
        assert 0 not in n
        assert np.all(np.diff(n) >= 1)

    def test_solve_is_deterministic(self):
        cfg = make_config(0.3, n_max=8, ppu=32)
        a = solve(cfg)
        b = solve(cfg)
        np.testing.assert_array_equal(a.c, b.c)


class TestTableAgainstHighPrecision:
    """The blocked table against a 40-digit sum over the table's own
    layout (``_formula``): at v = 0.99, where the right-extended axis
    reaches L2 ~ 628 on Gauss-Legendre panels sized to the band, and on a
    narrow bump whose knots cut both axes into short Simpson segments (3 to
    633 nodes, shorter and longer than a block).  A coarse Simpson density
    keeps the bump's reference cheap; the summation error does not depend
    on it."""

    @staticmethod
    def _reference(mp, cfg, n_max, ppu, side):
        consts, data = derive_constants(cfg.L, cfg.v), initial_data(cfg)
        L, v = consts.L, consts.v
        omega = -(1 - mp.mpf(v)) if side == "plus" else 1 + mp.mpf(v)
        p, integrand, _ = _formula(data, consts, ppu, side, n_max)
        nodes = np.concatenate([s.nodes for s in p.segments])
        wg = np.concatenate([s.weights * integrand(s.nodes, (s.lo, s.hi))
                             for s in p.segments])
        with mp.workdps(40):
            pos = []
            for n in range(1, n_max + 1):
                k = omega * mp.pi * n / mp.mpf(L)
                total = mp.fsum(mp.mpf(w) * mp.expj(k * mp.mpf(x)) for x, w in zip(nodes, wg))
                pos.append(complex(total / (4 * n * mp.pi * 1j)))
        # real integrand: c_{-n} is exactly conj(c_n)
        return np.concatenate([np.conj(pos[::-1]), pos])

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_table(self, side):
        mp = pytest.importorskip("mpmath")
        cfg = make_config(0.99)
        got = _table(initial_data(cfg), derive_constants(cfg.L, cfg.v), 24, 1, side)
        ref = self._reference(mp, cfg, 24, 1, side)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_bump_table(self, side):
        mp = pytest.importorskip("mpmath")
        cfg = make_config(0.7, preset="bump", center=1.2, width=0.4, amplitude=0.1)
        got = _table(initial_data(cfg), derive_constants(cfg.L, cfg.v), 24, 32, side)
        ref = self._reference(mp, cfg, 24, 32, side)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 1e-12


def _mp_exact_table(mp, cfg, n_max, side):
    """c_n, |n| <= n_max, of a sine preset by ``mpmath.quad`` of the exact
    extended integrand, branch by branch, on pieces of at most 8 rad of
    its band: no layout of the program enters."""
    params = cfg.initial.params
    with mp.workdps(20):
        L, v, a = mp.mpf(cfg.L), mp.mpf(cfg.v), mp.mpf(params["amplitude"])
        g, w = (1 + v) / (1 - v), params["mode"] * mp.pi / L
        if cfg.initial.name == "sine_mode":
            slope, velocity = (lambda y: a * w * mp.cos(w * y)), (lambda y: 0)
        else:
            slope, velocity = (lambda y: 0), (lambda y: a * mp.sin(w * y))
        # (lo, hi, map to the data's argument, slope factor, velocity factor)
        middle = (lambda x: x, 1, 1)
        if side == "plus":
            sign, omega = 1, -mp.pi * (1 - v) / L
            branches = [(0, L, *middle),
                        (L, 2 * L / (1 - v), lambda x: -x / g + 2 * L / (1 + v), 1 / g, -1 / g)]
        else:
            sign, omega = -1, mp.pi * (1 + v) / L
            branches = [(-L / g, 0, lambda x: -g * x, g, -g), (0, L, *middle)]
        pos = []
        for n in range(1, n_max + 1):
            total = 0
            for lo, hi, arg, fs, fv in branches:
                rate = abs(arg(mp.mpf(1)) - arg(mp.mpf(0))) * w
                pieces = max(1, int(mp.ceil((abs(omega) * n + rate) * (hi - lo) / 8)))

                def f(x):
                    y = arg(x)
                    return (fs * slope(y) + sign * fv * velocity(y)) * mp.expj(omega * n * x)

                total += mp.quad(f, mp.linspace(lo, hi, pieces + 1), method="gauss-legendre")
            pos.append(complex(total / (4 * n * mp.pi * 1j)))
    return np.concatenate([np.conj(pos[::-1]), pos])


class TestTableAgainstExactIntegral:
    """Sine tables against the exact coefficient integrals: band-sized
    Gauss-Legendre panels leave rounding, at most 9.4e-16 of max |c| over
    n_max 1..48, where Simpson at 256 panels per unit left about 1e-8 at
    v = 0.99."""

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("v, preset, params", [
        (0.3, "sine_mode", {"amplitude": 0.1, "mode": 1}),
        (0.99, "sine_mode", {"amplitude": 0.1, "mode": 1}),
        (0.99, "sine_velocity", {"amplitude": 1.0, "mode": 2}),
    ], ids=["sine_mode-0.3", "sine_mode-0.99", "sine_velocity-0.99"])
    def test_table(self, v, preset, params, side):
        mp = pytest.importorskip("mpmath")
        cfg = make_config(v, preset=preset, **params)
        got = _table(initial_data(cfg), derive_constants(cfg.L, cfg.v), 24,
                     cfg.panels_per_unit, side)
        ref = _mp_exact_table(mp, cfg, 24, side)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestTableLayout:
    @pytest.mark.parametrize("n_max", [40, None], ids=["table", "parseval"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_near_critical_layout_is_small(self, side, n_max):
        # Simpson at 256 panels per unit took 321,704 nodes on the plus axis
        cfg = make_config(0.99)
        p, _, _ = _formula(initial_data(cfg), derive_constants(cfg.L, cfg.v),
                           cfg.panels_per_unit, side, n_max)
        assert p.rule == "gauss-legendre"
        assert p.node_count <= 5000

    @pytest.mark.parametrize("n_max", [24, None], ids=["table", "parseval"])
    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("kind", ["bump", "table"])
    def test_undeclared_rate_keeps_simpson(self, kind, side, n_max):
        if kind == "bump":
            spec = InitialDataSpec.preset("bump", center=1.2, width=1.0, amplitude=0.1)
        else:
            x = np.linspace(0.0, math.pi, 41)
            spec = InitialDataSpec.tabulated(x, 0.1 * np.sin(x), 0.0 * x)
        cfg = StringConfig(L=math.pi, v=0.7, initial=spec, n_max=24, panels_per_unit=48)
        data, consts = initial_data(cfg), derive_constants(cfg.L, cfg.v)
        p, _, _ = _formula(data, consts, cfg.panels_per_unit, side, n_max)
        a, b, cut = (0.0, consts.L2, consts.L) if side == "plus" else (-consts.L1, consts.L, 0.0)
        simpson = Panelization(a, b, breakpoints=(cut, *_mapped_knots(data, consts, side)),
                               panels_per_unit=48)
        assert p.rule == "simpson" and p.band is None and p.panels_per_unit == 48
        assert len(p.segments) == len(simpson.segments)
        for got, want in zip(p.segments, simpson.segments):
            np.testing.assert_array_equal(got.nodes, want.nodes)
            np.testing.assert_array_equal(got.weights, want.weights)

    def test_zero_rate_gets_one_panel_per_segment(self):
        # the squares of rate-0 data have band 0; the layout floors it
        cfg = make_config(0.3, preset="zero")
        for side in ("plus", "minus"):
            p, _, _ = _formula(initial_data(cfg), derive_constants(cfg.L, cfg.v),
                               cfg.panels_per_unit, side, None)
            assert p.rule == "gauss-legendre"
            assert p.node_count == 8 * len(p.segments)
