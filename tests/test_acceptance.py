"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test computes its residuals, prints the verdict, then
asserts, so the printed table is complete even on failure.
"""

import math

import numpy as np
import pytest

from moving_string import (
    CharacteristicSolver,
    check_periodicity,
    cross_validate,
    derive_constants,
    energy_report,
    fd_solve,
    field_components,
    initial_data,
    initial_energies,
    observe_both_endpoints,
    observe_one_endpoint,
    sharpness_probe,
    spectral_energy,
    velocity_trace_equivalent,
)
from moving_string.series import sample_moving_grid

from conftest import get_solution, make_config

PI = math.pi


def verdict(num, ok, detail):
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


class TestCriterion1Periods:
    def test_period_reproduction(self):
        expected = {0.3: 6.9052, 0.7: 12.3200, 0.9: 33.0694}
        worst = 0.0
        for v, ref in expected.items():
            worst = max(worst, abs(derive_constants(L=PI, v=v).T_v - ref))
        ok = verdict(1, worst < 0.01,
                     f"T_v matches 6.9052/12.3200/33.0694 within 0.01 "
                     f"(worst gap {worst:.2e})")
        assert ok


class TestCriterion2FormulaEquivalence:
    CASES = [
        ("sine_mode", {"amplitude": 0.1, "mode": 1}),
        ("sine_mode", {"amplitude": 0.1, "mode": 2}),
        ("bump", {"center": PI / 2, "width": PI / 2, "amplitude": 0.1}),
    ]

    def test_both_formulas_agree(self):
        worst = 0.0
        for v in (0.0, 0.3, 0.7):
            for preset, params in self.CASES:
                sol = get_solution(v, preset=preset, n_max=40, **params)
                worst = max(worst, sol.cross_check_residual)
        ok = verdict(2, worst < 1e-8,
                     f"max |c_n(+) - c_n(-)| over presets x speeds = {worst:.2e} "
                     f"(tol 1e-8, n_max=40, panels 256)")
        assert ok


class TestCriterion3AnalyticCoefficients:
    def test_fixed_string_sine(self):
        sol = get_solution(0.0)
        e1 = abs(sol.c[sol.n == 1].item() - (-1j / 40))
        e2 = abs(sol.c[sol.n == -1].item() - (1j / 40))
        others = float(np.max(np.abs(sol.c[np.abs(sol.n) != 1])))
        worst = max(e1, e2, others)
        ok = verdict(3, worst < 1e-9,
                     f"c(+-1) = -+i/40 and all other modes vanish "
                     f"(worst {worst:.2e}, tol 1e-9)")
        assert ok


class TestCriterion4EnergyConservation:
    def test_conservation_and_initial_value(self):
        worst_resid = 0.0
        worst_init = 0.0
        for v in (0.3, 0.7):
            sol = get_solution(v)
            times = np.linspace(0.0, 2 * sol.consts.T_v, 64)
            rep = energy_report(sol, times)
            worst_resid = max(worst_resid, rep.residual_conservation)
            calE0, _ = initial_energies(sol.cfg)
            worst_init = max(worst_init, abs(calE0 - PI / 400))
        ok_a = worst_resid < 1e-6
        ok_b = worst_init < 1e-8
        ok = verdict(4, ok_a and ok_b,
                     f"conserved-energy residual {worst_resid:.2e} (tol 1e-6); "
                     f"|calE(0) - pi/400| = {worst_init:.2e} (tol 1e-8)")
        assert ok


class TestCriterion5EnergyBounds:
    def test_bounds_and_equality_case(self):
        violations = 0
        for v in (0.3, 0.7):
            sol = get_solution(v)
            times = np.linspace(0.0, 2 * sol.consts.T_v, 64)
            violations += energy_report(sol, times).bound_violations
        worst_eq = 0.0
        for v in (0.3, 0.7):
            sol = get_solution(v, preset="traveling_sine",
                               amplitude=0.1, mode=1, sign=1)
            calE0, E0 = initial_energies(sol.cfg)
            worst_eq = max(worst_eq, abs(E0 - calE0 / (1 + v)) / calE0)
        ok = verdict(5, violations == 0 and worst_eq < 1e-8,
                     f"{violations} two-sided bound violations; equality case "
                     f"|E(0) - calE(0)/(1+v)| / calE(0) = {worst_eq:.2e} (tol 1e-8)")
        assert ok


class TestCriterion6OneEndpointIdentity:
    def test_identity_sweep_and_closed_form(self):
        worst = 0.0
        for v in (0.0, 0.3, 0.7):
            sol = get_solution(v)
            for endpoint in ("left", "right"):
                for M in (1, 2):
                    rep = observe_one_endpoint(sol, endpoint, M)
                    worst = max(worst, rep.identity_residual)
        closed = abs(observe_one_endpoint(get_solution(0.0), "left", 1).integral
                     - PI / 100) / (PI / 100)
        ok = verdict(6, worst < 1e-6 and closed < 1e-6,
                     f"one-endpoint identity residual {worst:.2e} over "
                     f"endpoints x M in {{1,2}} x speeds (tol 1e-6); "
                     f"v=0 closed form pi/100 gap {closed:.2e}")
        assert ok


class TestCriterion7TwoEndpointIdentity:
    def test_identity_sweep(self):
        worst = 0.0
        for v in (0.0, 0.3, 0.7):
            rep = observe_both_endpoints(get_solution(v))
            worst = max(worst, rep.identity_residual)
        ok = verdict(7, worst < 1e-6,
                     f"two-endpoint identity residual {worst:.2e} (tol 1e-6)")
        assert ok


class TestCriterion8TraceRelation:
    def test_velocity_to_slope_ratio(self):
        worst = 0.0
        for v in (0.3, 0.7):
            rep = velocity_trace_equivalent(get_solution(v), "left", 1)
            worst = max(worst, abs(rep.trace_ratio - v * v))
        ok = verdict(8, worst < 1e-6,
                     f"int phi_t^2 / int phi_x^2 over one period deviates from "
                     f"v^2 by {worst:.2e} (tol 1e-6)")
        assert ok


class TestCriterion9Periodicity:
    def test_series_and_characteristics(self):
        sol = get_solution(0.3)
        c = sol.consts
        rng = np.random.default_rng(0)
        t = rng.uniform(0.0, c.T_v, 100)
        x = c.v * t + rng.uniform(0.0, 1.0, 100) * c.L
        series_resid = check_periodicity(sol, np.column_stack([x, t]))
        cs = CharacteristicSolver(sol.data, c)
        before = cs.value(x, t)
        after = cs.value(x + c.v * c.T_v, t + c.T_v)
        char_resid = float(np.max(np.abs(after - before)))
        ok = verdict(9, series_resid < 1e-12 and char_resid < 1e-6,
                     f"shift-periodicity residuals: series {series_resid:.2e} "
                     f"(tol 1e-12), characteristics {char_resid:.2e} (tol 1e-6)")
        assert ok


@pytest.fixture(scope="module")
def oracle_report():
    sol = get_solution(0.3, n_max=80)
    return cross_validate(sol, 200, seed=0, nx=1024, cfl=0.4)


class TestCriterion10OracleAgreement:
    """v=0.3 sine, n_max=80, nx=1024, 200 points seeded with the tool
    default (seed 0)."""

    def test_characteristics_agreement(self, oracle_report):
        report = oracle_report
        ok = verdict(10, report.max_characteristics < 1e-4,
                     f"max |series - characteristics| on 200 seeded points = "
                     f"{report.max_characteristics:.3e} (tol 1e-4); truncation "
                     f"error peaks on kink characteristics, see decisions ledger")
        assert ok

    def test_fd_agreement(self, oracle_report):
        ok = verdict(10, oracle_report.max_fd < 1e-3,
                     f"max |series - FD| on 200 seeded points = "
                     f"{oracle_report.max_fd:.3e} (tol 1e-3, nx=1024)")
        assert ok

    def test_fd_convergence_order(self):
        cfg = make_config(0.0)
        errs = []
        for nx in (128, 256):
            fd = fd_solve(cfg, nx=nx, cfl=0.4, t_final=1.0)
            exact = np.sin(fd.eta) * math.cos(1.0) / 10
            errs.append(math.sqrt(np.trapezoid((fd.u[-1] - exact) ** 2, fd.eta)))
        ratio = errs[0] / errs[1]
        ok = verdict(10, 3.0 <= ratio <= 5.0,
                     f"FD error ratio on doubling nx = {ratio:.2f} "
                     f"(second order, window [3, 5])")
        assert ok


class TestCriterion11Sharpness:
    def test_short_horizon_observability_fails(self):
        cfg = make_config(0.3)
        c = derive_constants(cfg.L, cfg.v)
        rep = sharpness_probe(cfg, 0.5 * c.T_tilde_v, width=PI / 64)
        ok = verdict(11, rep.right_integral < 1e-10 and not rep.inverse_constant_check,
                     f"right-endpoint trace integral {rep.right_integral:.2e} "
                     f"(tol 1e-10) for a unit-energy bump in (0, L/64) over "
                     f"T = T_tilde_v / 2; inverse bound fails as expected "
                     f"(captures {rep.ratio * (1 - 0.3**2)**2 / 4:.2f} of calE(0))")
        assert ok


class TestCriterion12LayerEffect:
    def test_slope_amplification_and_energy_excursion(self):
        sol = get_solution(0.9)  # figure-6 configuration
        c = sol.consts
        _, _, _, phx, _ = sample_moving_grid(sol, 200, 200, c.T_v)
        slab_max = float(np.max(np.abs(phx)))
        xs = np.linspace(0.0, PI, 2001)
        data_max = float(np.max(np.abs(sol.data.phi0_x(xs))))
        amp = slab_max / data_max
        rep = energy_report(sol, np.linspace(0.0, c.T_v, 64))
        exc = float(rep.E.max() / rep.E.min())
        g = c.gamma_v
        ok = verdict(12, amp >= 5.0 and 2.0 <= exc <= g * (1 + 1e-9),
                     f"slope layer amplification {amp:.2f}x (needs >= 5); "
                     f"usual-energy excursion {exc:.2f} within [2, gamma_v={g:.0f}]")
        assert ok
