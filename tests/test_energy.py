"""Energy functionals: conservation, spectral identity, two-sided bounds."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moving_string import (
    ConfigurationError,
    derive_constants,
    energy_report,
    initial_energies,
    load_config,
    solve,
    spectral_energy,
)
from moving_string.energy import _energy_integrals

from conftest import get_solution


class TestInitialEnergies:
    @pytest.mark.parametrize("v", [0.0, 0.3, 0.7, 0.9])
    def test_sine_case_is_pi_over_400(self, v):
        # with phi1 = 0 the material term contributes v^2 phi_x^2 and the
        # elastic term (1-v^2) phi_x^2: together just phi_x^2, independent
        # of v, so calE(0) = 1/2 int_0^pi cos^2(x)/100 dx = pi/400
        sol = get_solution(v)
        calE0, E0 = initial_energies(sol.cfg)
        assert calE0 == pytest.approx(math.pi / 400, abs=1e-12)
        assert E0 == pytest.approx(math.pi / 400, abs=1e-12)

    def test_zero_data(self):
        sol = get_solution(0.3, preset="zero")
        calE0, E0 = initial_energies(sol.cfg)
        assert calE0 == 0.0 and E0 == 0.0

    @pytest.mark.parametrize("v,sign", [(0.3, 1), (0.7, 1), (0.3, -1)])
    def test_equality_case(self, v, sign):
        # phi1 = sign * phi0_x makes E(0) = calE(0)/(1 + sign*v) exactly
        sol = get_solution(v, preset="traveling_sine",
                           amplitude=0.1, mode=1, sign=sign)
        calE0, E0 = initial_energies(sol.cfg)
        assert E0 == pytest.approx(calE0 / (1 + sign * v), rel=1e-12)


class TestSpectralIdentity:
    def test_v0_value(self, sine_v0):
        # 2 pi^2 / pi * (1/800) = pi/400
        assert spectral_energy(sine_v0) == pytest.approx(math.pi / 400, rel=1e-12)

    def test_zero_data(self):
        assert spectral_energy(get_solution(0.3, preset="zero")) == 0.0

    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_matches_quadrature_energy_at_t0(self, v):
        sol = get_solution(v)
        calE = energy_report(sol, [0.0]).calE[0]
        assert calE == pytest.approx(spectral_energy(sol), rel=1e-6)


class TestConservation:
    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_calE_constant_over_two_periods(self, v):
        sol = get_solution(v)
        times = np.linspace(0.0, 2 * sol.consts.T_v, 64)
        rep = energy_report(sol, times)
        assert rep.residual_conservation < 1e-6
        assert not rep.vacuous

    @pytest.mark.parametrize("config", [
        "configs/sine_v03.json",
        "configs/sine_v09.json",
        "perfbench/configs/sine_v099.json",
        "perfbench/configs/bump_v05_n160.json",
        "perfbench/configs/bump_v07_n80.json",
    ])
    def test_conserved_to_rounding(self, config):
        # the certificate's sweep; the densities are trigonometric
        # polynomials in s, integrated on panels sized to their band.
        # Simpson at 256 panels per unit left 1.3e-9, 2.2e-7, 1.4e-6,
        # 6.1e-9 and 5.2e-7 here
        sol = solve(load_config(Path(__file__).resolve().parents[1] / config))
        rep = energy_report(sol, np.linspace(0.0, 2.0 * sol.consts.T_v, 33))
        assert rep.residual_conservation <= 1e-12

    def test_v0_energies_coincide(self, sine_v0):
        rep = energy_report(sine_v0, [0.0, 1.3, 4.1])
        for calE, E in zip(rep.calE, rep.E):
            assert E == pytest.approx(calE, rel=1e-10)
            assert calE == pytest.approx(math.pi / 400, rel=1e-10)

    def test_time_derivative_vanishes(self, sine_v03):
        # centered differences of calE(t), h = T_v/1024
        h = sine_v03.consts.T_v / 1024
        for t in (0.5, 2.0, 5.0):
            bwd, fwd = energy_report(sine_v03, [t - h, t + h]).calE
            assert abs(fwd - bwd) / (2 * h) < 1e-5


class TestBounds:
    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_no_violations_over_sweep(self, v):
        sol = get_solution(v)
        times = np.linspace(0.0, 2 * sol.consts.T_v, 64)
        rep = energy_report(sol, times)
        assert rep.bound_violations == 0

    def test_sandwich_is_nontrivial_for_moving_string(self, sine_v07):
        # E genuinely oscillates between the two bounds for v > 0
        times = np.linspace(0.0, sine_v07.consts.T_v, 32)
        rep = energy_report(sine_v07, times)
        assert rep.E.max() / rep.E.min() > 1.5

    def test_report_requires_valid_times(self, sine_v03):
        for times in ([], [-1.0], [0.0, math.nan], [math.inf]):
            with pytest.raises(ValueError):
                energy_report(sine_v03, times)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
    def test_report_requires_valid_tolerance(self, sine_v03, tol):
        with pytest.raises(ConfigurationError, match="tolerance"):
            energy_report(sine_v03, [0.0, 1.0], tol=tol)

    def test_zero_data_vacuous(self):
        sol = get_solution(0.3, preset="zero")
        rep = energy_report(sol, np.linspace(0, 1, 5))
        assert rep.vacuous
        assert rep.bound_violations == 0
        assert rep.residual_conservation == 0.0


class TestMixedTermIdentity:
    @pytest.mark.parametrize("v", [0.3, 0.7])
    def test_E_plus_v_cross_equals_calE(self, v):
        sol = get_solution(v)
        for t in (0.0, 1.0, 3.7):
            calE, E, cross = _energy_integrals(sol, t)
            assert E + v * cross == pytest.approx(calE, rel=1e-10)


class TestSweep:
    def test_one_sweep_matches_single_times(self, sine_v07):
        times = np.linspace(0.0, 2 * sine_v07.consts.T_v, 29)
        sweep = _energy_integrals(sine_v07, times)
        for k in (0, 5, 28):
            single = _energy_integrals(sine_v07, times[k])
            for a, b in zip(sweep, single):
                assert np.shape(b) == ()
                assert a[k] == pytest.approx(float(b), rel=1e-12)

    def test_report_carries_the_cross_term(self, sine_v07):
        rep = energy_report(sine_v07, np.linspace(0.0, sine_v07.consts.T_v, 9))
        assert rep.cross.shape == rep.E.shape == (9,)
        np.testing.assert_allclose(rep.E + sine_v07.consts.v * rep.cross, rep.calE,
                                   rtol=1e-10)

    def test_sweep_working_set_stays_small(self, sine_v03):
        # the certificate's 33-time sweep: the grid runs in node blocks, the
        # times in passes of at most 12, and the sums convert one row at a
        # time (about 1.3 MB traced; one 33-time pass read 2.6 MB)
        times = np.linspace(0.0, 2 * sine_v03.consts.T_v, 33)
        energy_report(sine_v03, times)
        tracemalloc.start()
        try:
            energy_report(sine_v03, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestPeriodicityOfE:
    def test_E_returns_after_one_period(self, sine_v03):
        c = sine_v03.consts
        scale = spectral_energy(sine_v03)
        for t in (0.0, 0.7, 2.2):
            E0, E1 = energy_report(sine_v03, [t, t + c.T_v]).E
            assert abs(E1 - E0) < 1e-6 * scale


class TestNearCriticalGrowth:
    def test_layer_regime_energy_excursion(self):
        # at v=0.9 the usual energy goes on a large, bounded excursion:
        # visibly above 2x, capped by gamma_v = 19
        sol = get_solution(0.9)
        g = derive_constants(L=math.pi, v=0.9).gamma_v
        times = np.linspace(0.0, sol.consts.T_v, 64)
        rep = energy_report(sol, times)
        ratio = rep.E.max() / rep.E.min()
        assert 2.0 <= ratio <= g * (1 + 1e-9)
        assert rep.bound_violations == 0
