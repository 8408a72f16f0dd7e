"""Derived constants, config validation, presets and file ingestion."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moving_string import (
    CharacteristicSolver,
    ConfigurationError,
    InitialDataSpec,
    StringConfig,
    build_initial_data,
    derive_constants,
    field_components,
    field_on_moving_grid,
    initial_data,
    load_config,
    oracle,
)
from moving_string.domain import _NaturalSpline, check_moving_interval, edge_slack

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
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            check_moving_interval(math.pi, 0.3, 0.0, -1.0)


def _outside(entry, d, upper):
    """``entry`` at t = 1, a distance d below the lower or above the upper
    edge of the moving interval (v t, L + v t)."""
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
    scheme = oracle._scheme(cfg, 32, oracle.DEFAULT_FD_CFL, 2.0)
    return oracle._sample(scheme, c.v * t + s, t)[0]


class TestSharedEdgeSlack:
    """Every evaluator admits a point within ``edge_slack(L)`` of an edge
    and refuses one beyond it, each with its own message."""

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("entry, message", [
        ("field_components", "x outside the moving interval"),
        ("field_on_moving_grid", "s outside the reference interval"),
        ("CharacteristicSolver.value", "x outside the moving interval"),
        ("oracle._sample", "outside the computed slab"),
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

    @pytest.mark.parametrize("L, v", [(1e308, 0.3), (9e307, 0.0), (5e-324, 0.3), (1e-308, 0.0)])
    def test_L_past_float_range_named(self, L, v):
        # 2L/(1-v), the extension interval, or 2 pi/L overflows; the
        # quadrature refused it without naming L
        with pytest.raises(ConfigurationError, match=r"support separation L = .* past float"):
            derive_constants(L, v)
        with pytest.raises(ConfigurationError, match="support separation L = "):
            StringConfig(L=L, v=v, initial=InitialDataSpec.preset("zero"))


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

    def test_bump_support_refusal_names_center_width_and_L(self):
        with pytest.raises(ConfigurationError, match=r"bump support \(center - width/2, "
                                                     r"center \+ width/2\) = \(-0\.4, 0\.6\) "
                                                     r"must lie inside \[0, L\] = \[0, 1\.5\]"):
            build_initial_data(InitialDataSpec.preset("bump", center=0.1, width=1.0), 1.5)

    @pytest.mark.parametrize("name, params, key", [
        ("sine_mode", {"amplitude": math.nan}, "amplitude"),
        ("traveling_sine", {"amplitude": -math.inf}, "amplitude"),
        ("bump", {"center": math.nan, "width": 1.0}, "center"),
    ])
    def test_non_finite_parameter_named(self, name, params, key):
        # a NaN amplitude or center passed every check and failed the solve
        # with a numeric error (exit 3)
        with pytest.raises(ConfigurationError,
                           match=f"preset '{name}' parameter '{key}' must be finite"):
            build_initial_data(InitialDataSpec.preset(name, **params), math.pi)

    @pytest.mark.parametrize("amplitude", [1e7, -1e300])
    def test_large_amplitude_sine_accepted(self, amplitude):
        # phi0(L) = amplitude sin(pi) rounds to 1.2e-16 amplitude, which an
        # absolute 1e-10 pinned-end tolerance refused; a preset vanishes at
        # both supports by construction
        data = build_initial_data(InitialDataSpec.preset("sine_mode", amplitude=amplitude),
                                  math.pi)
        assert abs(float(data.phi0(math.pi))) < 1e-15 * abs(amplitude)

    @pytest.mark.parametrize("sign", [1.0, -1.0, "1", 0, 2])
    def test_traveling_sine_sign_must_be_an_integer(self, sign):
        # a float sign of 1.0 was refused only because a display label
        # formatted it with :+d
        with pytest.raises(ConfigurationError, match="traveling_sine sign must be"):
            build_initial_data(InitialDataSpec.preset("traveling_sine", sign=sign), math.pi)

    @pytest.mark.parametrize("width", [5e-324, 4e-308, 0.0, -1.0, math.nan])
    def test_bump_width_quarter_must_be_normal(self, width):
        # the evaluators divide by width / 4, which underflows to 0 at 5e-324
        with pytest.raises(ConfigurationError, match="bump width must be positive"):
            initial_data(StringConfig(L=3.5, v=0.3, n_max=8, initial=InitialDataSpec.preset(
                "bump", center=1.0, width=width)))

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

    @pytest.mark.parametrize("column", [1, 2], ids=["phi0", "phi1"])
    @pytest.mark.parametrize("shape", ["short", "2-D"])
    def test_refuses_unequal_columns(self, column, shape):
        table = list(self._table())
        table[column] = table[column][:-1] if shape == "short" else table[column][:, None]
        with pytest.raises(ConfigurationError, match="table columns x, phi0, phi1 must be "
                                                     "1-D and equal length"):
            build_initial_data(InitialDataSpec.tabulated(*table), math.pi)

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["x", "phi0", "phi1"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_refuses_non_finite_sample_naming_column(self, column, bad):
        table = [a.copy() for a in self._table()]
        table[column][17] = bad
        name = ("x", "phi0", "phi1")[column]
        with pytest.raises(ConfigurationError, match=f"table column {name} holds a non-finite"):
            build_initial_data(InitialDataSpec.tabulated(*table), math.pi)


EPS = np.finfo(float).eps


def _spline_samples(n, spacing):
    """A smooth profile whose curvature does not vanish at the ends, on
    ``n`` uniform or random (seeded) samples of [0, 3]."""
    if spacing == "uniform":
        x = np.linspace(0.0, 3.0, n)
    else:
        inner = np.random.default_rng(n).uniform(0.0, 3.0, n - 2)
        x = np.concatenate([[0.0], np.sort(inner), [3.0]])
    return x, 0.1 * np.sin(x) * (3.0 - x) + 0.02 * np.cos(5.0 * x)


SPLINE_CASES = pytest.mark.parametrize("n", [4, 201, 2001, 10001])
SPACINGS = pytest.mark.parametrize("spacing", ["uniform", "random"])


class TestNaturalSpline:
    """The table spline by its defining properties.  Each residual is bounded
    by a stated multiple of eps times its column's scale: max|y| for values,
    max|y'| over the knots for slopes and max|y''| over the knots for
    curvatures."""

    @staticmethod
    def _ends(x, y):
        """Spline, knot slopes and curvatures from the right-hand pieces, and
        the left-hand pieces' value, slope and curvature at their right ends."""
        s = _NaturalSpline(x, y)
        d, c, b, a = s.coef
        h = np.diff(x)
        left = (((d * h + c) * h + b) * h + a, (3.0 * d * h + 2.0 * c) * h + b,
                6.0 * d * h + 2.0 * c)
        slopes, curvatures = np.append(b, left[1][-1]), np.append(2.0 * c, left[2][-1])
        return s, slopes, curvatures, left

    @SPLINE_CASES
    @SPACINGS
    def test_interpolates_every_sample(self, n, spacing):
        x, y = _spline_samples(n, spacing)
        s = _NaturalSpline(x, y)
        assert np.max(np.abs(s(x) - y)) <= 4 * EPS * np.max(np.abs(y))

    @SPLINE_CASES
    @SPACINGS
    def test_c2_at_every_interior_knot(self, n, spacing):
        x, y = _spline_samples(n, spacing)
        _, slopes, curvatures, (value, slope, curvature) = self._ends(x, y)
        assert np.max(np.abs(value - y[1:])) <= 4 * EPS * np.max(np.abs(y))
        assert np.max(np.abs(slope[:-1] - slopes[1:-1])) <= 4 * EPS * np.max(np.abs(slopes))
        assert (np.max(np.abs(curvature[:-1] - curvatures[1:-1]))
                <= 4 * EPS * np.max(np.abs(curvatures)))

    @SPLINE_CASES
    @SPACINGS
    def test_second_derivative_vanishes_at_both_ends(self, n, spacing):
        x, y = _spline_samples(n, spacing)
        _, _, curvatures, _ = self._ends(x, y)
        assert curvatures[0] == 0.0
        assert abs(curvatures[-1]) <= 4 * EPS * np.max(np.abs(curvatures))

    def test_outside_the_samples_takes_the_end_pieces(self):
        x, y = _spline_samples(201, "random")
        s = _NaturalSpline(x, y)
        d, c, b, a = s.coef
        for xq, k, start in ((-0.05, 0, x[0]), (3.05, -1, x[-2])):
            t = xq - start
            assert s(xq) == ((d[k] * t + c[k]) * t + b[k]) * t + a[k]
            assert s.slope(xq) == (3.0 * d[k] * t + 2.0 * c[k]) * t + b[k]

    @SPLINE_CASES
    @SPACINGS
    def test_matches_scipy_natural_cubic_spline(self, n, spacing):
        CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
        x, y = _spline_samples(n, spacing)
        s, ref = _NaturalSpline(x, y), CubicSpline(x, y, bc_type="natural")
        # half an end interval outside: the end pieces' extrapolation
        outside = [x[0] - (x[1] - x[0]) / 2, x[-1] + (x[-1] - x[-2]) / 2]
        xq = np.concatenate([np.linspace(0.0, 3.0, 20001), x, outside])
        slope = ref.derivative()(xq)
        assert np.max(np.abs(s(xq) - ref(xq))) <= 4 * EPS * np.max(np.abs(y))
        # the slope gap is scipy's: on random 10,001 samples its knot slopes
        # differ from a long-double solve by 84 eps max|y'|, these by < 1 eps
        assert np.max(np.abs(s.slope(xq) - slope)) <= 128 * EPS * np.max(np.abs(slope))


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
        # the quadrature key is accepted and has no effect
        del doc["quadrature"]
        path.write_text(json.dumps(doc))
        assert load_config(path) == cfg

    def test_table_config(self, tmp_path):
        x = np.linspace(0, 2.0, 21)
        rows = "\n".join(f"{xi},{0.2 * xi * (2.0 - xi)},{0.0}" for xi in x)
        (tmp_path / "data.csv").write_text("x,phi0,phi1\n" + rows + "\n")
        doc = {"L": 2.0, "v": 0.5, "n_max": 8, "initial": {"table": "data.csv"}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        spec = load_config(path).initial
        assert spec.name == "" and spec.params == {}
        np.testing.assert_array_equal(spec.table[0], x)

    @pytest.mark.parametrize("fields, rows_bad", [(2, [3]), (4, [3]), (2, range(21))],
                             ids=["ragged-2", "ragged-4", "all-2"])
    def test_table_row_width_names_line(self, tmp_path, fields, rows_bad):
        # a row of the wrong width is named by its line (the header is
        # line 1), whether or not the other rows are right
        x = np.linspace(0, 2.0, 21)
        rows = [[f"{xi}", f"{0.2 * xi * (2.0 - xi)}", "0.0"] for xi in x]
        for k in rows_bad:
            rows[k] = (rows[k] + ["0.0"])[:fields]
        (tmp_path / "data.csv").write_text(
            "x,phi0,phi1\n" + "\n".join(",".join(r) for r in rows) + "\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"L": 2.0, "v": 0.5, "n_max": 8, "initial": {"table": "data.csv"}}))
        line = rows_bad[0] + 2
        with pytest.raises(ConfigurationError, match=f"data.csv: line {line} has {fields} "
                                                     f"fields; every row needs exactly 3 "
                                                     f"columns$"):
            load_config(path)

    def test_table_without_rows_refused(self, tmp_path):
        (tmp_path / "data.csv").write_text("x,phi0,phi1\n\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"L": 2.0, "v": 0.5, "n_max": 8, "initial": {"table": "data.csv"}}))
        with pytest.raises(ConfigurationError, match="data.csv: the table has no rows below "
                                                     "its header"):
            load_config(path)

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
