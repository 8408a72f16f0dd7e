"""Branch formulas and symmetries of the extended slope/velocity fields."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moving_string import (
    ExtensionField,
    InitialDataSpec,
    build_initial_data,
    derive_constants,
)

L = math.pi


def sine_data(amplitude=0.1, mode=1):
    return build_initial_data(
        InitialDataSpec.preset("sine_mode", amplitude=amplitude, mode=mode), L
    )


def sine_velocity_data(amplitude=1.0):
    return build_initial_data(
        InitialDataSpec.preset("sine_velocity", amplitude=amplitude, mode=1), L
    )


class TestSlopeBranches:
    def test_middle_branch_is_identity(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.4)
        x = np.linspace(0.05, L - 0.05, 9)
        np.testing.assert_allclose(
            ExtensionField("slope", data, consts)(x), data.phi0_x(x), rtol=0, atol=0
        )

    def test_v0_even_reflection(self):
        # phi0 = sin(x)/10: the slope extension is even about 0
        data = sine_data()
        consts = derive_constants(L=L, v=0.0)
        assert ExtensionField("slope", data, consts)(-0.5) == pytest.approx(
            math.cos(0.5) / 10, rel=1e-14
        )
        assert ExtensionField("slope", data, consts)(-0.5) == pytest.approx(
            ExtensionField("slope", data, consts)(0.5), rel=1e-14
        )

    def test_v0_even_about_right_support(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.0)
        for d in (0.2, 0.7, 1.4):
            assert ExtensionField("slope", data, consts)(L + d) == pytest.approx(
                ExtensionField("slope", data, consts)(L - d), rel=1e-13
            )

    def test_left_branch_scaling(self):
        # direct substitution into the left-branch formula at v=0.3
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        assert g == pytest.approx(13 / 7, rel=1e-14)
        expected = g * math.cos(g * 0.5) / 10
        assert ExtensionField("slope", data, consts)(-0.5) == pytest.approx(
            expected, rel=1e-13
        )

    def test_right_branch_scaling(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        x = L + 0.1
        expected = (1 / g) * math.cos(-x / g + 2 * L / 1.3) / 10
        assert ExtensionField("slope", data, consts)(x) == pytest.approx(expected, rel=1e-13)

    def test_endpoints_map_to_reflected_images(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        # x = -L1 reflects the image of L; x = L2 the image of 0
        assert ExtensionField("slope", data, consts)(-consts.L1) == pytest.approx(
            g * float(data.phi0_x(L)), rel=1e-12
        )
        assert ExtensionField("slope", data, consts)(consts.L2) == pytest.approx(
            (1 / g) * float(data.phi0_x(0.0)), rel=1e-12
        )

    def test_out_of_range_rejected(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        with pytest.raises(ValueError):
            ExtensionField("slope", data, consts)(consts.L2 + 0.1)
        with pytest.raises(ValueError):
            ExtensionField("slope", data, consts)(-consts.L1 - 0.1)


class TestVelocityBranches:
    def test_zero_velocity_stays_zero(self):
        data = sine_data()  # phi1 = 0
        consts = derive_constants(L=L, v=0.5)
        x = np.linspace(-consts.L1, consts.L2, 33)
        np.testing.assert_allclose(ExtensionField("velocity", data, consts)(x), 0.0, atol=0)

    def test_v0_odd_reflection(self):
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.0)
        assert ExtensionField("velocity", data, consts)(-0.5) == pytest.approx(
            -math.sin(0.5), rel=1e-14
        )

    def test_v0_odd_about_right_support(self):
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.0)
        for d in (0.2, 0.7, 1.4):
            assert ExtensionField("velocity", data, consts)(L + d) == pytest.approx(
                -ExtensionField("velocity", data, consts)(L - d), rel=1e-13, abs=1e-300
            )

    def test_right_branch_formula(self):
        # direct substitution into the right-branch velocity map at v=0.3
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        x = L + 0.1
        expected = -(1 / g) * math.sin(-x / g + 2 * L / 1.3)
        assert ExtensionField("velocity", data, consts)(x) == pytest.approx(
            expected, rel=1e-13
        )

    def test_left_branch_formula(self):
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        expected = -g * math.sin(g * 0.5)
        assert ExtensionField("velocity", data, consts)(-0.5) == pytest.approx(
            expected, rel=1e-13
        )


class TestEvaluatorPlumbing:
    def test_breakpoints_listed_in_order(self):
        consts = derive_constants(L=L, v=0.3)
        f = ExtensionField("slope", sine_data(), consts)
        bp = f.breakpoints
        assert bp == (-consts.L1, 0.0, consts.L, consts.L2)
        assert list(bp) == sorted(bp)

    def test_segment_evaluation_takes_one_sided_limits(self):
        # at x = 0 the pointwise value uses the middle branch; a segment
        # ending at 0 from the left must see the left-branch limit
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        f = ExtensionField("slope", data, consts)
        g = consts.gamma_v
        left_limit = f.on_segment(np.array([0.0]), (-consts.L1, 0.0))[0]
        assert left_limit == pytest.approx(g * 0.1, rel=1e-13)
        assert f(0.0) == pytest.approx(0.1, rel=1e-13)

    @given(x=st.floats(min_value=1e-6, max_value=L - 1e-6), v=st.floats(0, 0.9))
    def test_pointwise_matches_segment_on_middle(self, x, v):
        consts = derive_constants(L=L, v=v)
        f = ExtensionField("velocity", sine_velocity_data(), consts)
        seg_val = f.on_segment(np.array([x]), (0.0, L))[0]
        assert f(x) == pytest.approx(seg_val, rel=1e-14, abs=1e-300)

    def test_slope_antiderivative_vanishes_at_supports(self):
        # integral of the slope over (0, L) recovers phi0(L) - phi0(0) = 0
        from moving_string import Panelization, integrate

        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        f = ExtensionField("slope", data, consts)
        val = integrate(lambda x, seg: f.on_segment(x, seg), Panelization(0.0, L))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_which_validated(self):
        with pytest.raises(ValueError):
            ExtensionField("gradient", sine_data(), derive_constants(L=L, v=0.3))
