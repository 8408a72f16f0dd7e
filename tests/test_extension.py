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
            ExtensionField("slope", data, consts).on_segment(x, (0.0, L)), data.phi0_x(x),
            rtol=0, atol=0
        )

    def test_v0_even_reflection(self):
        # phi0 = sin(x)/10: the slope extension is even about 0
        data = sine_data()
        consts = derive_constants(L=L, v=0.0)
        f = ExtensionField("slope", data, consts)
        assert f.on_segment(-0.5, (-consts.L1, 0.0)) == pytest.approx(
            math.cos(0.5) / 10, rel=1e-14
        )
        assert f.on_segment(-0.5, (-consts.L1, 0.0)) == pytest.approx(
            f.on_segment(0.5, (0.0, L)), rel=1e-14
        )

    def test_v0_even_about_right_support(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.0)
        f = ExtensionField("slope", data, consts)
        for d in (0.2, 0.7, 1.4):
            assert f.on_segment(L + d, (L, consts.L2)) == pytest.approx(
                f.on_segment(L - d, (0.0, L)), rel=1e-13
            )

    def test_left_branch_scaling(self):
        # direct substitution into the left-branch formula at v=0.3
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        assert g == pytest.approx(13 / 7, rel=1e-14)
        expected = g * math.cos(g * 0.5) / 10
        assert ExtensionField("slope", data, consts).on_segment(
            -0.5, (-consts.L1, 0.0)) == pytest.approx(expected, rel=1e-13)

    def test_right_branch_scaling(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        x = L + 0.1
        expected = (1 / g) * math.cos(-x / g + 2 * L / 1.3) / 10
        assert ExtensionField("slope", data, consts).on_segment(
            x, (L, consts.L2)) == pytest.approx(expected, rel=1e-13)

    def test_endpoints_map_to_reflected_images(self):
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        # x = -L1 reflects the image of L; x = L2 the image of 0
        f = ExtensionField("slope", data, consts)
        assert f.on_segment(-consts.L1, (-consts.L1, 0.0)) == pytest.approx(
            g * float(data.phi0_x(L)), rel=1e-12
        )
        assert f.on_segment(consts.L2, (L, consts.L2)) == pytest.approx(
            (1 / g) * float(data.phi0_x(0.0)), rel=1e-12
        )


class TestVelocityBranches:
    def test_zero_velocity_stays_zero(self):
        data = sine_data()  # phi1 = 0
        consts = derive_constants(L=L, v=0.5)
        f = ExtensionField("velocity", data, consts)
        for segment in [(-consts.L1, 0.0), (0.0, L), (L, consts.L2)]:
            x = np.linspace(*segment, 33)
            np.testing.assert_allclose(f.on_segment(x, segment), 0.0, atol=0)

    def test_v0_odd_reflection(self):
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.0)
        assert ExtensionField("velocity", data, consts).on_segment(
            -0.5, (-consts.L1, 0.0)) == pytest.approx(-math.sin(0.5), rel=1e-14)

    def test_v0_odd_about_right_support(self):
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.0)
        f = ExtensionField("velocity", data, consts)
        for d in (0.2, 0.7, 1.4):
            assert f.on_segment(L + d, (L, consts.L2)) == pytest.approx(
                -f.on_segment(L - d, (0.0, L)), rel=1e-13, abs=1e-300
            )

    def test_right_branch_formula(self):
        # direct substitution into the right-branch velocity map at v=0.3
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        x = L + 0.1
        expected = -(1 / g) * math.sin(-x / g + 2 * L / 1.3)
        assert ExtensionField("velocity", data, consts).on_segment(
            x, (L, consts.L2)) == pytest.approx(expected, rel=1e-13)

    def test_left_branch_formula(self):
        data = sine_velocity_data()
        consts = derive_constants(L=L, v=0.3)
        g = consts.gamma_v
        expected = -g * math.sin(g * 0.5)
        assert ExtensionField("velocity", data, consts).on_segment(
            -0.5, (-consts.L1, 0.0)) == pytest.approx(expected, rel=1e-13)


class TestEvaluatorPlumbing:
    def test_segment_evaluation_takes_one_sided_limits(self):
        # a node on x = 0 or x = L takes the branch of its segment: the
        # left-branch limit from a segment ending at 0, the middle branch
        # from one starting there, and likewise at L
        data = sine_data()
        consts = derive_constants(L=L, v=0.3)
        f = ExtensionField("slope", data, consts)
        g = consts.gamma_v
        left_limit = f.on_segment(np.array([0.0]), (-consts.L1, 0.0))[0]
        assert left_limit == pytest.approx(g * 0.1, rel=1e-13)
        assert f.on_segment(np.array([0.0]), (0.0, L))[0] == pytest.approx(0.1, rel=1e-13)
        assert f.on_segment(np.array([L]), (0.0, L))[0] == pytest.approx(-0.1, rel=1e-13)
        right_limit = f.on_segment(np.array([L]), (L, consts.L2))[0]
        assert right_limit == pytest.approx(-0.1 / g, rel=1e-13)

    @given(x=st.floats(min_value=1e-6, max_value=L - 1e-6), v=st.floats(0, 0.9))
    def test_pointwise_matches_segment_on_middle(self, x, v):
        # any segment inside [0, L] gives the data themselves, bit for bit
        data = sine_velocity_data()
        f = ExtensionField("velocity", data, derive_constants(L=L, v=v))
        seg_val = f.on_segment(np.array([x]), (0.0, L))[0]
        assert seg_val == f.on_segment(np.array([x]), (x / 2, (x + L) / 2))[0]
        assert seg_val == data.phi1(np.array([x]))[0]

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
