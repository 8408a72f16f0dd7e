"""Shared fixtures: cached problem configurations and spectral solutions."""

import math
from functools import lru_cache

import pytest

from moving_string import InitialDataSpec, StringConfig, solve

L_PI = math.pi


def make_config(v, preset="sine_mode", n_max=40, L=L_PI, **params):
    if preset == "sine_mode" and not params:
        params = {"amplitude": 0.1, "mode": 1}
    return StringConfig(
        L=L,
        v=v,
        initial=InitialDataSpec.preset(preset, **params),
        n_max=n_max,
    )


@lru_cache(maxsize=32)
def _cached_solution(v, preset, n_max, params_key):
    cfg = make_config(v, preset=preset, n_max=n_max, **dict(params_key))
    return solve(cfg)


def get_solution(v, preset="sine_mode", n_max=40, **params):
    """Memoized solve() so expensive tables are built once per session."""
    if preset == "sine_mode" and not params:
        params = {"amplitude": 0.1, "mode": 1}
    return _cached_solution(v, preset, n_max, tuple(sorted(params.items())))


@pytest.fixture(scope="session")
def sine_v0():
    """Standing wave: phi = sin(x) cos(t) / 10 on (0, pi)."""
    return get_solution(0.0)


@pytest.fixture(scope="session")
def sine_v03():
    return get_solution(0.3)


@pytest.fixture(scope="session")
def sine_v07():
    return get_solution(0.7)
