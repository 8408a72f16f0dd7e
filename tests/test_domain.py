"""Derived constants, config validation, presets and file ingestion."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moving_string import (
    CharacteristicSolver,
    ConfigurationError,
    ExtensionField,
    InitialDataSpec,
    StringConfig,
    build_initial_data,
    derive_constants,
    fd_sample,
    field_components,
    field_on_moving_grid,
    initial_data,
    load_config,
)
from moving_string.domain import check_moving_interval, edge_slack

from conftest import get_solution, make_config

speeds = st.floats(min_value=0.0, max_value=0.99, allow_nan=False)
lengths = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)


class TestDerivedConstants:
    def test_v0_collapses_to_fixed_string(self):
        c = derive_constants(L=math.pi, v=0.0)
        assert c.gamma_v == 1.0
        assert c.L1 == math.pi
        assert c.L2 == 2 * math.pi
        assert c.T_v == 2 * math.pi
        assert c.T_tilde_v == math.pi

    @pytest.mark.parametrize(
        "v,expected",
        [(0.3, 6.9052), (0.7, 12.3200), (0.9, 33.0694)],
    )
    def test_period_values(self, v, expected):
        c = derive_constants(L=math.pi, v=v)
        assert c.T_v == pytest.approx(expected, abs=1e-3)

    @given(L=lengths, v=speeds)
    def test_algebraic_identities(self, L, v):
        c = derive_constants(L=L, v=v)
        assert c.L1 * c.gamma_v == pytest.approx(L, rel=1e-14)
        assert c.L2 * (1 - v) == pytest.approx(2 * L, rel=1e-14)
        assert c.T_v * (1 - v * v) == pytest.approx(2 * L, rel=1e-14)
        assert c.T_tilde_v * (1 - v) == pytest.approx(L, rel=1e-14)
        assert c.T_v == pytest.approx(c.T_tilde_v * 2 / (1 + v), rel=1e-14)

    @given(L=lengths, v=speeds)
    def test_ordering_invariants(self, L, v):
        c = derive_constants(L=L, v=v)
        assert c.gamma_v >= 1.0
        assert 0 < c.L1 <= L < c.L2 / 2 + 1e-12 * L
        assert c.T_v >= 2 * L - 1e-12 * L

    @given(L=lengths, v1=speeds, v2=speeds)
    def test_period_monotone_in_speed(self, L, v1, v2):
        # T_v = 2 L / (1 - v * v) in float64.  Correctly rounded division
        # is monotone, so the period never decreases with v.  Strict order
        # needs the denominators apart: below v ~ 1e-8, v * v vanishes
        # against 1 and both periods are exactly 2 L.  Denominators one
        # ulp apart can still round to the same quotient; two ulps apart
        # differ by a relative 2^-52 or more, beyond one rounding step.
        lo, hi = sorted((v1, v2))
        t_lo = derive_constants(L=L, v=lo).T_v
        t_hi = derive_constants(L=L, v=hi).T_v
        assert t_lo <= t_hi
        if 1.0 - hi * hi < math.nextafter(1.0 - lo * lo, 0.0):
            assert t_lo < t_hi

    @pytest.mark.parametrize("v", [1.0, 1.2, -0.1, 2.0])
    def test_ill_posed_speeds_rejected(self, v):
        with pytest.raises(ConfigurationError, match="ill-posed|well-posedness"):
            derive_constants(L=1.0, v=v)


class TestMovingInterval:
    """``check_moving_interval`` admits the interval (v t, L + v t) at t >= 0
    and refuses a point twice ``edge_slack(L)`` beyond either edge."""

    @staticmethod
    def assert_interval(v, t, left, right):
        slack = edge_slack(math.pi)
        check_moving_interval(math.pi, v, [left, right], t)
        for x in (left - 2.0 * slack, right + 2.0 * slack):
            with pytest.raises(ValueError, match="outside the moving interval"):
                check_moving_interval(math.pi, v, x, t)

    def test_initial_interval(self):
        self.assert_interval(0.3, 0.0, 0.0, math.pi)

    def test_translation(self):
        self.assert_interval(0.3, 1.0, 0.3, math.pi + 0.3)

    def test_fixed_at_v0(self):
        self.assert_interval(0.0, 5.0, 0.0, math.pi)

    @given(t=st.floats(min_value=0, max_value=100, allow_nan=False))
    def test_width_always_L(self, t):
        self.assert_interval(0.7, t, 0.7 * t, math.pi + 0.7 * t)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            check_moving_interval(math.pi, 0.3, 0.0, -1.0)


def _outside(entry, d, upper):
    """``entry`` at t = 1, a distance d below the lower or above the upper
    edge of the interval it reads: the moving interval (v t, L + v t), or
    (-L1, L2) for the extension."""
    cfg = make_config(0.3)
    c = derive_constants(cfg.L, cfg.v)
    t = 1.0
    s = c.L + d if upper else -d          # on the frame x = v t + s
    if entry == "field_components":
        return field_components(get_solution(0.3), c.v * t + s, t)[0]
    if entry == "field_on_moving_grid":
        return field_on_moving_grid(get_solution(0.3), [t], [s])[0]
    if entry == "CharacteristicSolver.value":
        return CharacteristicSolver(initial_data(cfg), c).value(c.v * t + s, t)
    if entry == "ExtensionField":
        return ExtensionField("slope", initial_data(cfg), c)(c.L2 + d if upper else -c.L1 - d)
    return fd_sample(cfg, c.v * t + s, t, nx=32, t_final=2.0)


class TestSharedEdgeSlack:
    """Every evaluator admits a point within ``edge_slack(L)`` of an edge
    and refuses one beyond it, each with its own message."""

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("entry, message", [
        ("field_components", "x outside the moving interval"),
        ("field_on_moving_grid", "s outside the reference interval"),
        ("CharacteristicSolver.value", "x outside the moving interval"),
        ("ExtensionField", "extension argument outside"),
        ("fd_sample", "outside the computed slab"),
    ])
    def test_half_a_slack_admitted_two_refused(self, entry, message, upper):
        slack = edge_slack(math.pi)
        assert np.all(np.isfinite(_outside(entry, 0.5 * slack, upper)))
        with pytest.raises(ValueError, match=message):
            _outside(entry, 2.0 * slack, upper)


class TestConfigValidation:
    def test_bad_L(self):
        with pytest.raises(ConfigurationError):
            StringConfig(L=0.0, v=0.3, initial=InitialDataSpec.preset("zero"))

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_L_in_derive_constants(self, L):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            derive_constants(L=L, v=0.3)

    def test_bad_n_max(self):
        with pytest.raises(ConfigurationError):
            make_config(0.3, n_max=0)

    def test_quadrature_floor(self):
        with pytest.raises(ConfigurationError):
            make_config(0.3, ppu=4)


class TestPresets:
    def test_sine_mode_values(self):
        data = build_initial_data(
            InitialDataSpec.preset("sine_mode", amplitude=0.1, mode=1), math.pi
        )
        x = np.linspace(0, math.pi, 7)
        np.testing.assert_allclose(data.phi0(x), 0.1 * np.sin(x), atol=1e-15)
        np.testing.assert_allclose(data.phi0_x(x), 0.1 * np.cos(x), atol=1e-15)
        np.testing.assert_allclose(data.phi1(x), 0.0, atol=0)

    def test_traveling_sine_velocity_is_slope(self):
        data = build_initial_data(
            InitialDataSpec.preset("traveling_sine", amplitude=0.1, mode=1, sign=1),
            math.pi,
        )
        x = np.linspace(0, math.pi, 11)
        np.testing.assert_allclose(data.phi1(x), data.phi0_x(x), rtol=0, atol=0)

    def test_bump_support_and_smoothness(self):
        data = build_initial_data(
            InitialDataSpec.preset("bump", center=1.0, width=1.0, amplitude=2.0),
            math.pi,
        )
        assert float(data.phi0(0.49)) == 0.0
        assert float(data.phi0(1.51)) == 0.0
        assert float(data.phi0(1.0)) == pytest.approx(2.0 * 2.0 / 3.0)
        # derivative matches a central difference (kernel is C^1 at knots)
        for x in (0.6, 0.875, 1.0, 1.3):
            h = 1e-6
            fd = (float(data.phi0(x + h)) - float(data.phi0(x - h))) / (2 * h)
            assert float(data.phi0_x(x)) == pytest.approx(fd, abs=1e-8)

    def test_bump_must_fit_inside_domain(self):
        with pytest.raises(ConfigurationError):
            build_initial_data(
                InitialDataSpec.preset("bump", center=0.1, width=1.0), math.pi
            )

    @pytest.mark.parametrize("name", ["sine_mode", "sine_velocity", "traveling_sine"])
    @pytest.mark.parametrize("mode", [1.5, 1.0, math.inf, 0, True])
    def test_sine_mode_must_be_an_integer(self, name, mode):
        # a fractional mode was rounded down (k=1) and an infinite one raised
        # OverflowError
        with pytest.raises(ConfigurationError, match=f"{name} mode must be an integer >= 1"):
            build_initial_data(InitialDataSpec.preset(name, mode=mode), math.pi)

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="unknown preset"):
            build_initial_data(InitialDataSpec.preset("nope"), 1.0)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("sine_mode", {"amplitud": 0.1}),                  # misspelled
            ("sine_mode", {"amplitude": "big"}),               # mistyped
            ("sine_velocity", {"amplitude": "big"}),           # mistyped, phi1 only
            ("bump", {"center": "x", "width": 1.0}),
        ],
    )
    def test_bad_preset_parameters(self, name, params):
        with pytest.raises(ConfigurationError, match=f"bad parameters for preset '{name}'"):
            build_initial_data(InitialDataSpec.preset(name, **params), math.pi)


class TestTabulatedData:
    def _table(self, n=41):
        x = np.linspace(0, math.pi, n)
        return x, 0.1 * np.sin(x), np.zeros(n)

    def test_spline_matches_samples(self):
        x, p0, p1 = self._table()
        data = build_initial_data(InitialDataSpec.tabulated(x, p0, p1), math.pi)
        np.testing.assert_allclose(data.phi0(x), p0, atol=1e-12)
        # derivative from the spline tracks the analytic slope away from ends
        mid = np.linspace(0.5, math.pi - 0.5, 9)
        np.testing.assert_allclose(data.phi0_x(mid), 0.1 * np.cos(mid), atol=1e-5)

    def test_requires_exact_cover(self):
        x, p0, p1 = self._table()
        with pytest.raises(ConfigurationError, match="cover"):
            build_initial_data(
                InitialDataSpec.tabulated(x[1:], p0[1:], p1[1:]), math.pi
            )

    def test_requires_sorted(self):
        x, p0, p1 = self._table()
        x2 = x.copy()
        x2[3], x2[4] = x2[4], x2[3]
        with pytest.raises(ConfigurationError, match="increasing"):
            build_initial_data(InitialDataSpec.tabulated(x2, p0, p1), math.pi)

    def test_requires_pinned_ends(self):
        x, p0, p1 = self._table()
        p0 = p0 + 0.05
        with pytest.raises(ConfigurationError):
            build_initial_data(InitialDataSpec.tabulated(x, p0, p1), math.pi)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        doc = {
            "L": math.pi,
            "v": 0.3,
            "n_max": 12,
            "initial": {"preset": {"name": "sine_mode",
                                   "params": {"amplitude": 0.1, "mode": 1}}},
            "quadrature": {"panels_per_unit": 64},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.v == 0.3
        assert cfg.n_max == 12
        assert cfg.panels_per_unit == 64

    def test_table_config(self, tmp_path):
        x = np.linspace(0, 2.0, 21)
        rows = "\n".join(f"{xi},{0.2 * xi * (2.0 - xi)},{0.0}" for xi in x)
        (tmp_path / "data.csv").write_text("x,phi0,phi1\n" + rows + "\n")
        doc = {"L": 2.0, "v": 0.5, "n_max": 8, "initial": {"table": "data.csv"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.initial.kind == "table"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"L": 1.0,,}')
        with pytest.raises(ConfigurationError, match="line 1"):
            load_config(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"L": 1.0, "v": 0.3}')
        with pytest.raises(ConfigurationError, match="n_max"):
            load_config(path)

    def test_ill_posed_speed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "L": 1.0, "v": 1.2, "n_max": 4,
            "initial": {"preset": {"name": "zero"}},
        }))
        with pytest.raises(ConfigurationError, match="ill-posed"):
            load_config(path)
