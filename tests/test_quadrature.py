"""Composite Simpson layout, accuracy order and determinism; the node
bound; the blocked phasor sums on uniform nodes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moving_string import NumericError, Panelization, integrate
from moving_string.quadrature import _MAX_NODES, UniformPhasors


def plain(fn):
    """Adapt a plain function to the (nodes, segment) integrand signature."""
    return lambda x, seg: fn(x)


class TestKnownIntegrals:
    def test_sine_half_period(self):
        p = Panelization(0.0, math.pi, panels_per_unit=64)
        assert integrate(plain(np.sin), p) == pytest.approx(2.0, abs=1e-10)

    def test_full_period_complex_exponential(self):
        p = Panelization(0.0, 2 * math.pi, panels_per_unit=64)
        val = integrate(plain(lambda x: np.exp(1j * x)), p)
        assert abs(val) < 1e-10

    def test_cos_squared_over_period(self):
        # the one-endpoint observation integrand of the fixed-string sine case
        p = Panelization(0.0, 2 * math.pi, panels_per_unit=64)
        val = integrate(plain(lambda x: np.cos(x) ** 2 / 100), p)
        assert val == pytest.approx(math.pi / 100, abs=1e-10)


class TestPanelLayout:
    def test_breakpoints_become_panel_boundaries(self):
        p = Panelization(0.0, 2.0, breakpoints=(0.7,), panels_per_unit=16)
        assert p.breakpoints == (0.7,)
        assert [s.lo for s in p.segments] == [0.0, 0.7]
        assert [s.hi for s in p.segments] == [0.7, 2.0]
        for seg in p.segments:
            assert seg.nodes[0] == seg.lo and seg.nodes[-1] == seg.hi

    def test_subinterval_counts_even_and_at_least_two(self):
        p = Panelization(0.0, 1.0, breakpoints=(1e-4,), panels_per_unit=8)
        for seg in p.segments:
            m = len(seg.nodes) - 1
            assert m >= 2 and m % 2 == 0

    def test_exterior_breakpoints_ignored(self):
        p = Panelization(0.0, 1.0, breakpoints=(-1.0, 0.5, 2.0), panels_per_unit=8)
        assert p.breakpoints == (0.5,)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Panelization(1.0, 1.0)

    def test_weights_sum_to_length(self):
        p = Panelization(0.0, 3.0, breakpoints=(1.1, 2.2), panels_per_unit=16)
        total = sum(math.fsum(s.weights.tolist()) for s in p.segments)
        assert total == pytest.approx(3.0, rel=1e-14)


class TestAccuracy:
    def test_fourth_order_convergence_on_sine(self):
        # halving the panel width cuts the error by ~16
        errs = []
        for ppu in (16, 32):
            p = Panelization(0.0, math.pi, panels_per_unit=ppu)
            errs.append(abs(integrate(plain(np.sin), p) - 2.0))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_split_integral_handles_jump_exactly(self):
        # piecewise-constant integrand: exact when the jump is a breakpoint
        def f(x, seg):
            mid = 0.5 * (seg[0] + seg[1])
            return np.full_like(x, 1.0 if mid < 1.0 else 3.0)

        p = Panelization(0.0, 2.0, breakpoints=(1.0,), panels_per_unit=8)
        assert integrate(f, p) == pytest.approx(4.0, rel=1e-15)


class TestProperties:
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, a, b):
        p = Panelization(0.0, 1.5, breakpoints=(0.4,), panels_per_unit=16)
        f = plain(np.sin)
        g = plain(np.cos)
        combo = integrate(lambda x, s: a * np.sin(x) + b * np.cos(x), p)
        parts = a * integrate(f, p) + b * integrate(g, p)
        assert combo == pytest.approx(parts, abs=1e-13)
        stacked = integrate(lambda x, s: np.stack([np.sin(x), np.cos(x)]), p)
        assert stacked.shape == (2,)
        assert stacked[0] == integrate(f, p) and stacked[1] == integrate(g, p)

    def test_determinism(self):
        p = Panelization(0.0, math.pi, breakpoints=(1.0,), panels_per_unit=32)
        vals = {integrate(plain(np.sin), p) for _ in range(5)}
        assert len(vals) == 1

    def test_nonfinite_integrand_names_node(self):
        def f(x, seg):
            out = np.asarray(np.sin(x))
            out = np.where(np.abs(x - 0.5) < 1e-9, np.nan, out)
            return out

        # force a node at exactly 0.5
        p = Panelization(0.0, 1.0, breakpoints=(0.5,), panels_per_unit=8)
        with pytest.raises(NumericError, match="0.5"):
            integrate(f, p)
        # NaN in the second row only: the named node must still be x = 0.5
        with pytest.raises(NumericError, match="0.5"):
            integrate(lambda x, seg: np.stack([np.cos(x), f(x, seg)]), p)


class TestNodeBound:
    def test_oversized_layouts_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"needs {_MAX_NODES + 1} nodes"):
                Panelization(0.0, _MAX_NODES / 2, panels_per_unit=1)
            with pytest.raises(ValueError, match="needs 5120000001 nodes"):
                Panelization(0.0, 1e7)
            with pytest.raises(ValueError, match="nodes, more than"):
                Panelization(0.0, 1e300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_configured_layout_admitted(self):
        # the right-extended axis (0, L2) of the v = 0.99 coefficient table
        p = Panelization(0.0, 2 * math.pi / 0.01, breakpoints=(math.pi,))
        assert p.node_count == 321_704 < _MAX_NODES

    def test_infinite_interval_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Panelization(0.0, math.inf)


class TestUniformPhasors:
    """Both directions of the blocked sum against every kernel evaluated
    at the segment's own nodes.  The counts give a segment shorter than a
    block, exactly one block, one node past it, a short last block and
    several chunks of blocks."""

    COUNTS = [3, 100, 256, 257, 1001, 20001]

    @staticmethod
    def case(count, lo=-1.5, hi=7.0):
        nodes = lo + (hi - lo) / (count - 1) * np.arange(count)
        omega = 1.7 * np.concatenate([np.arange(-12, 0), np.arange(1, 13)])
        dense = np.exp(1j * np.outer(nodes, omega))          # (nodes, modes)
        return UniformPhasors(nodes, (lo, hi), omega), dense, np.random.default_rng(count)

    @pytest.mark.parametrize("count", COUNTS)
    def test_synthesis(self, count):
        phasors, dense, rng = self.case(count)
        coef = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
        ref = (dense @ coef.T).real.sum(axis=1)
        got = phasors.synthesize(coef)
        assert got.shape == (count,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(coef).sum()

    @pytest.mark.parametrize("count", COUNTS)
    def test_analysis(self, count):
        phasors, dense, rng = self.case(count)
        values = rng.standard_normal(count)
        ref = values @ dense
        got = phasors.analyze(values)
        assert got.shape == (24,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(values).sum()
