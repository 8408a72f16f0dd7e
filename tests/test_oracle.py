"""Characteristics and frozen-frame FD oracles, and cross-validation."""

import math

import numpy as np
import pytest

from moving_string import (
    CharacteristicSolver,
    ConfigurationError,
    check_periodicity,
    cross_validate,
    derive_constants,
    eval_field,
    fd_solve,
    initial_data,
)

from conftest import get_solution, make_config


def char_solver(v, preset="sine_mode", **params):
    cfg = make_config(v, preset=preset, **params)
    return CharacteristicSolver(initial_data(cfg), derive_constants(cfg))


class TestCharacteristicsExactCases:
    def test_standing_wave(self):
        cs = char_solver(0.0)
        for x, t in [(1.0, 0.0), (2.0, 1.5), (0.7, 11.0), (3.0, 4.4)]:
            assert cs.value(x, t) == pytest.approx(
                math.sin(x) * math.cos(t) / 10, abs=1e-10
            )

    def test_standing_wave_derivatives(self):
        cs = char_solver(0.0)
        for x, t in [(1.1, 0.4), (2.3, 3.0)]:
            assert cs.slope(x, t) == pytest.approx(
                math.cos(x) * math.cos(t) / 10, abs=1e-10
            )
            assert cs.velocity(x, t) == pytest.approx(
                -math.sin(x) * math.sin(t) / 10, abs=1e-10
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


class TestCharacteristicsMovingCase:
    def test_matches_series_away_from_kinks(self):
        # agreement is truncation-limited; these points sit away from the
        # characteristic lines through the t=0 support corners
        sol = get_solution(0.3, n_max=80)
        cs = char_solver(0.3)
        for x, t in [(2.0, 4.0), (2.5, 1.3), (3.0, 5.5)]:
            assert cs.value(x, t) == pytest.approx(
                eval_field(sol, x, t).phi, abs=1e-5
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
        before = cs.value_many(x, t)
        after = cs.value_many(x + c.v * c.T_v, t + c.T_v)
        assert np.max(np.abs(after - before)) < 1e-6

    def test_domain_validated(self):
        cs = char_solver(0.3)
        with pytest.raises(ValueError):
            cs.value(0.0, 1.0)  # left support has moved past x=0

    def test_reflection_depth_guard(self):
        cs = char_solver(0.3)
        c = derive_constants(L=math.pi, v=0.3)
        t = 300 * c.T_v
        with pytest.raises(RecursionError):
            cs.value(c.v * t + 1.0, t)


class TestFrozenFrameFD:
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

    def test_zero_data_stays_zero(self):
        fd = fd_solve(make_config(0.7, preset="zero"), nx=64, t_final=1.0)
        assert np.max(np.abs(fd.u)) == 0.0

    def test_parameter_validation(self):
        cfg = make_config(0.3)
        with pytest.raises(ConfigurationError):
            fd_solve(cfg, nx=16)
        with pytest.raises(ConfigurationError):
            fd_solve(cfg, nx=64, cfl=0.8)
        with pytest.raises(ConfigurationError):
            fd_solve(cfg, nx=64, t_final=-1.0)
        # ~1e8 steps x 4097 nodes: a 3 TiB history is refused before allocating
        with pytest.raises(ConfigurationError, match="--method characteristics"):
            fd_solve(make_config(0.99), nx=4096)

    def test_eval_outside_slab_rejected(self):
        fd = fd_solve(make_config(0.3), nx=64, t_final=1.0)
        with pytest.raises(ValueError):
            fd.eval(1.0, 2.0)


class TestCrossValidation:
    def test_fixed_string_all_three_agree(self, sine_v0):
        cfg = make_config(0.0)
        rep = cross_validate(sine_v0, cfg, 100, seed=0, nx=1024)
        assert rep.max_characteristics < 1e-6
        assert rep.max_fd < 1e-6

    def test_zero_data(self):
        cfg = make_config(0.3, preset="zero")
        sol = get_solution(0.3, preset="zero")
        rep = cross_validate(sol, cfg, 50, nx=64)
        assert rep.max_characteristics == 0.0
        assert rep.max_fd == 0.0

    def test_method_selection(self, sine_v03):
        cfg = make_config(0.3)
        rep = cross_validate(sine_v03, cfg, 20, methods=("characteristics",))
        assert rep.max_fd is None
        assert rep.max_characteristics is not None
        with pytest.raises(ConfigurationError):
            cross_validate(sine_v03, cfg, 20, methods=("nope",))

    def test_seeded_reproducibility(self, sine_v03):
        cfg = make_config(0.3)
        a = cross_validate(sine_v03, cfg, 30, seed=5, methods=("characteristics",))
        b = cross_validate(sine_v03, cfg, 30, seed=5, methods=("characteristics",))
        assert a.max_characteristics == b.max_characteristics


class TestSeriesPeriodicityViaOracleGrid:
    def test_fd_field_roughly_periodic(self):
        # discrete shadow of the exact shift-periodicity, desk-scale grid
        cfg = make_config(0.3)
        c = derive_constants(cfg)
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
