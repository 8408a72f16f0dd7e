"""The identity suite: fixed check list, input checks, one energy sweep."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from moving_string import (
    ConfigurationError,
    certify,
    energy_report,
    load_config,
    solve,
    spectral_energy,
    velocity_trace_equivalent,
)

from conftest import get_solution

NAMES = [
    "constants_identities",
    "coefficient_formula_equivalence",
    "coefficient_conjugate_symmetry",
    "parseval_integral_equivalence",
    "parseval_truncation_fraction",
    "dirichlet_trace_left",
    "dirichlet_trace_right",
    "boundary_total_derivative",
    "field_reality",
    "energy_conservation",
    "energy_bounds_ES0_stab",
    "energy_mixed_term_identity",
    "energy_T_v_periodicity",
    "observability_one_endpoint_left",
    "observability_one_endpoint_right",
    "observability_two_endpoint",
    "velocity_trace_ratio",
    "series_periodicity",
    "characteristics_agreement",
    "initial_data_reproduction",
]


def test_twenty_checks_in_fixed_order(sine_v03):
    checks = certify(sine_v03)
    assert [c.name for c in checks] == NAMES
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_invalid_tolerance_rejected(sine_v03, tol):
    with pytest.raises(ConfigurationError, match="tolerance"):
        certify(sine_v03, tol)


@pytest.mark.parametrize("v", [0.3, 0.7])
def test_mixed_term_and_period_read_from_the_energy_sweep(v):
    # t = k T_v/8 and t + T_v, k = 0..8, are points of the 33-time sweep
    sol = get_solution(v)
    c = sol.consts
    rep = energy_report(sol, np.linspace(0.0, 2.0 * c.T_v, 33))
    k = np.arange(9)
    np.testing.assert_array_equal(rep.times[2 * k], np.linspace(0.0, c.T_v, 9))
    np.testing.assert_allclose(rep.times[2 * k + 16], rep.times[2 * k] + c.T_v,
                               rtol=1e-15, atol=0.0)
    spec = spectral_energy(sol)
    mixed = np.max(np.abs(rep.E[2 * k] + v * rep.cross[2 * k] - rep.calE[2 * k])) / spec
    period = np.max(np.abs(rep.E[2 * k + 16] - rep.E[2 * k])) / spec
    checks = {ch.name: ch for ch in certify(sol)}
    assert checks["energy_mixed_term_identity"].residual == mixed
    assert checks["energy_T_v_periodicity"].residual == period
    assert mixed < 1e-10 and period < 1e-6


def test_supports_read_on_the_exact_frame():
    # at v = 0.99 the supports x = v t and L + v t reach ~313 within T_v;
    # forming x in floating point put 3.0e-15, 5.4e-15 and 4.5e-13 here
    checks = {ch.name: ch for ch in certify(get_solution(0.99))}
    assert checks["dirichlet_trace_left"].residual == 0.0
    assert checks["dirichlet_trace_right"].residual <= 1e-15
    assert checks["boundary_total_derivative"].residual <= 1e-14


def test_each_trace_integral_taken_once(monkeypatch):
    # the velocity-trace ratio divides by the slope integral of the left
    # one-endpoint report, so five trace integrals remain: four slope traces
    # (each support over T_v, then over its two-endpoint horizon) and one
    # velocity trace
    sol = get_solution(0.3)
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(sol, endpoint, T, *name_of_T):
            calls.append((name, endpoint, T))
            return original(sol, endpoint, T, *name_of_T)

        monkeypatch.setattr(module, name, counted)

    count(importlib.import_module("moving_string.observability"), "_slope_trace_integral")
    count(importlib.import_module("moving_string.certify"), "_velocity_trace_integral")
    checks = {ch.name: ch for ch in certify(sol)}
    c = sol.consts
    assert sorted(calls) == sorted([
        ("_slope_trace_integral", "left", c.T_v),
        ("_slope_trace_integral", "right", c.T_v),
        ("_slope_trace_integral", "left", c.L / (1.0 + c.v)),
        ("_slope_trace_integral", "right", c.L / (1.0 - c.v)),
        ("_velocity_trace_integral", "left", c.T_v),
    ])
    monkeypatch.undo()
    ratio = velocity_trace_equivalent(sol, "left", 1).trace_ratio
    assert checks["velocity_trace_ratio"].residual == abs(ratio - c.v ** 2)


def test_near_critical_energy_conservation_certified():
    # v = 0.99, n_max = 40: Simpson at 256 panels per unit left 1.4e-6
    # against the 1e-6 tolerance; band-sized panels leave rounding
    cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                      / "sine_v099.json")
    checks = {ch.name: ch for ch in certify(solve(cfg))}
    assert checks["energy_conservation"].passed
    assert checks["energy_conservation"].residual <= 1e-12


def test_near_critical_formula_equivalence_certified():
    # v = 0.99, n_max = 40: Simpson at 256 panels per unit left the two
    # coefficient formulas 2.6e-8 apart against the 1e-8 tolerance; panels
    # sized to the sine data's band leave rounding
    cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                      / "sine_v099.json")
    checks = {ch.name: ch for ch in certify(solve(cfg))}
    assert checks["coefficient_formula_equivalence"].passed
    assert checks["coefficient_formula_equivalence"].residual <= 1e-15
