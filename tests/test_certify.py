"""The identity suite: fixed check list, input checks, one energy sweep."""

import math

import numpy as np
import pytest

from moving_string import certify, energy_report, spectral_energy

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
    with pytest.raises(ValueError, match="tolerance"):
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
