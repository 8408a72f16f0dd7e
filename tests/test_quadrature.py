"""Both layout rules (composite Simpson and band-sized Gauss-Legendre
panels): layout, accuracy order and determinism; the node bound; the
TwoSum row sums; the blocked phasor sums on both rules' blocks."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from moving_string import ConfigurationError, NumericError, Panelization, integrate
from moving_string.domain import InitialData
from moving_string.quadrature import (
    _BLOCK,
    _DATA_RAD_PER_PANEL,
    _GAUSS_NODES,
    _GAUSS_W,
    _GAUSS_X,
    _MAX_NODES,
    _RAD_PER_PANEL,
    _SIMPSON_PANELS_PER_UNIT,
    Segment,
    UniformPhasors,
    _gauss_segment,
    _simpson_segment,
    _sum_rows,
    data_layout,
)


def plain(fn):
    """Adapt a plain function to the (nodes, segment) integrand signature."""
    return lambda x, seg: fn(x)


class TestKnownIntegrals:
    def test_sine_half_period(self):
        p = Panelization(0.0, math.pi)
        assert integrate(plain(np.sin), p) == pytest.approx(2.0, abs=1e-10)

    def test_full_period_complex_exponential(self):
        p = Panelization(0.0, 2 * math.pi)
        val = integrate(plain(lambda x: np.exp(1j * x)), p)
        assert abs(val) < 1e-10

    def test_cos_squared_over_period(self):
        # the one-endpoint observation integrand of the fixed-string sine case
        p = Panelization(0.0, 2 * math.pi)
        val = integrate(plain(lambda x: np.cos(x) ** 2 / 100), p)
        assert val == pytest.approx(math.pi / 100, abs=1e-10)


class TestPanelLayout:
    def test_breakpoints_become_panel_boundaries(self):
        p = Panelization(0.0, 2.0, breakpoints=(0.7,))
        assert p.breakpoints == (0.7,)
        assert [s.lo for s in p.segments] == [0.0, 0.7]
        assert [s.hi for s in p.segments] == [0.7, 2.0]
        for seg in p.segments:
            assert seg.nodes[0] == seg.lo and seg.nodes[-1] == seg.hi

    def test_subinterval_counts_even_and_at_least_two(self):
        p = Panelization(0.0, 1.0, breakpoints=(1e-4,))
        for seg in p.segments:
            m = len(seg.nodes) - 1
            assert m >= 2 and m % 2 == 0

    def test_exterior_breakpoints_ignored(self):
        p = Panelization(0.0, 1.0, breakpoints=(-1.0, 0.5, 2.0))
        assert p.breakpoints == (0.5,)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Panelization(1.0, 1.0)

    def test_weights_sum_to_length(self):
        p = Panelization(0.0, 3.0, breakpoints=(1.1, 2.2))
        total = sum(math.fsum(s.weights.tolist()) for s in p.segments)
        assert total == pytest.approx(3.0, rel=1e-14)


class TestAccuracy:
    def test_fourth_order_convergence_on_cosine(self):
        # halving the panel width cuts the error by ~16.  The density is
        # fixed at 256 panels per unit, so 512 and 1024 panels span
        # (0, L) for L = 2 and 4; cos(50 x / L) over (0, L) is L times
        # cos(50 y) over (0, 1), with the same phase per panel
        errs = []
        for panels in (512, 1024):
            L = panels / _SIMPSON_PANELS_PER_UNIT
            p = Panelization(0.0, L)
            assert len(p.segments[0].nodes) == 2 * panels + 1
            errs.append(abs(integrate(plain(lambda x: np.cos(50.0 * x / L)), p)
                            - L * math.sin(50.0) / 50.0) / L)
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_split_integral_handles_jump_exactly(self):
        # piecewise-constant integrand: exact when the jump is a breakpoint
        def f(x, seg):
            mid = 0.5 * (seg[0] + seg[1])
            return np.full_like(x, 1.0 if mid < 1.0 else 3.0)

        p = Panelization(0.0, 2.0, breakpoints=(1.0,))
        assert integrate(f, p) == pytest.approx(4.0, rel=1e-15)


class TestGaussLegendreLayout:
    """The band-sized rule: ceil(band l / 5) panels of 8 nodes per segment."""

    def test_rule_is_numpys_leggauss(self):
        from numpy.polynomial.legendre import leggauss
        x, w = leggauss(_GAUSS_NODES)
        assert _bits(_GAUSS_X).tolist() == _bits(x).tolist()
        assert _bits(_GAUSS_W).tolist() == _bits(w).tolist()

    def test_panel_count_follows_band(self):
        p = Panelization(0.0, 2.0, breakpoints=(0.7,), band=40.0)
        assert [len(s.nodes) for s in p.segments] == [
            _GAUSS_NODES * math.ceil(40.0 * 0.7 / _RAD_PER_PANEL),
            _GAUSS_NODES * math.ceil(40.0 * 1.3 / _RAD_PER_PANEL)]
        assert p.node_count == _GAUSS_NODES * (6 + 11)

    def test_panels_stay_inside_their_segment(self):
        p = Panelization(0.0, 2.0, breakpoints=(0.7,), band=40.0)
        assert p.breakpoints == (0.7,)
        for seg in p.segments:
            panels = seg.nodes.reshape(-1, _GAUSS_NODES)
            edges = np.linspace(seg.lo, seg.hi, len(panels) + 1)
            assert np.all(panels > edges[:-1, None]) and np.all(panels < edges[1:, None])

    @pytest.mark.parametrize("panels, group", [
        (1, 1), (7, 1), (31, 2), (100, 4), (513, 8), (8000, 32), (10000, 32)])
    def test_blocks_group_panels(self, panels, group):
        # G = sqrt(panels / 8) panels to a block, at most 32 (256 nodes);
        # node r of block q is lo + q stride + offsets[r]
        seg = _gauss_segment(-1.5, 7.0, panels)
        width = 8.5 / panels
        assert len(seg.offsets) == _GAUSS_NODES * group
        assert seg.stride == pytest.approx(group * width, rel=1e-15)
        blocks = -(-panels // group)
        starts = -1.5 + seg.stride * np.arange(blocks)
        layout = (starts[:, None] + seg.offsets).ravel()[:len(seg.nodes)]
        assert np.max(np.abs(layout - seg.nodes)) <= 1e-14

    @pytest.mark.parametrize("band", [0.0, 5e-324, 1.0])
    def test_band_zero_one_panel_per_segment_and_weights(self, band):
        # band 0 (or any band under 5 rad per segment) is one panel per
        # segment, however short the segment
        p = Panelization(0.0, 3.0, breakpoints=(1e-4, 2.2), band=band)
        assert p.rule == "gauss-legendre"
        assert [len(s.nodes) for s in p.segments] == [_GAUSS_NODES] * 3
        for seg in p.segments:
            assert seg.lo < seg.nodes[0] and seg.nodes[-1] < seg.hi
        total = sum(math.fsum(s.weights.tolist()) for s in p.segments)
        assert total == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("band", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_bad_band_rejected(self, band):
        with pytest.raises(ValueError, match="band must be finite and non-negative"):
            Panelization(0.0, 1.0, band=band)


class TestDataLayout:
    """Raw-data integrals of data that declare their rate: Gauss-Legendre
    panels of at most 3 rad of the band (data that declare none keep
    Simpson: ``test_coefficients.TestTableLayout``)."""

    @staticmethod
    def _data(rate):
        return InitialData(np.sin, np.cos, np.sin, rate=rate)

    def test_declared_rate_sizes_gauss_panels(self):
        p = data_layout(self._data(2.0), 0.0, 2.0, (0.7,), lambda rate: 10.0 * rate)
        assert p.rule == "gauss-legendre"
        assert [len(s.nodes) for s in p.segments] == [
            _GAUSS_NODES * math.ceil(20.0 * 0.7 / _DATA_RAD_PER_PANEL),
            _GAUSS_NODES * math.ceil(20.0 * 1.3 / _DATA_RAD_PER_PANEL)]

    def test_zero_rate_gets_band_zero(self):
        # rate 0 squared is band 0: one panel per segment
        p = data_layout(self._data(0.0), 0.0, 2.0, (0.7,), lambda rate: 2.0 * rate)
        assert p.rule == "gauss-legendre"
        assert [len(s.nodes) for s in p.segments] == [_GAUSS_NODES, _GAUSS_NODES]
        assert integrate(lambda x, seg: np.full_like(x, 3.0), p) == pytest.approx(6.0, rel=1e-15)


class TestGaussLegendreAccuracy:
    @pytest.mark.parametrize("degree", range(16))
    def test_exact_through_degree_15(self, degree):
        # one panel integrates x^d exactly for d <= 2 q - 1 = 15
        p = Panelization(0.0, 1.0, band=1.0)
        assert len(p.segments[0].nodes) == _GAUSS_NODES
        assert integrate(plain(lambda x: x ** degree), p) == pytest.approx(
            1.0 / (degree + 1), rel=4e-15)

    def test_not_exact_at_degree_16(self):
        p = Panelization(0.0, 1.0, band=1.0)
        assert abs(integrate(plain(lambda x: x ** 16), p) - 1.0 / 17) > 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_band_zero_exact_on_piecewise_degree_15(self, seed):
        # a continuous piecewise polynomial of degree 15 whose slope turns
        # from rising to falling at each breakpoint, on band 0 (one panel
        # per piece), against its exact rational integral: within 4 eps
        # relative (it stays positive; 200 seeds measured at most 1.3 eps).
        # Without the breakpoints one panel straddles the kinks and misses
        # by 4.6e-4 relative or more
        edges = [0.0, 0.3, 1.1, 1.7, 2.0]
        coef = np.random.default_rng(seed).uniform(0.5, 1.5, size=(4, 16))  # t^15 first
        coef[1:, -2] *= -1.0

        def piece(j, t):
            out = np.zeros_like(t)
            for k in range(16):
                out = out * t + coef[j, k]
            return out

        for j in range(1, 4):      # continuous: each piece starts where the last ends
            coef[j, -1] = piece(j - 1, np.float64(edges[j] - edges[j - 1]))

        def f(x, seg):
            j = np.searchsorted(edges[1:-1], x)
            return piece(j, x - np.take(edges, j))

        exact = float(sum(Fraction(c) * (Fraction(hi) - Fraction(lo)) ** (16 - k) / (16 - k)
                          for row, lo, hi in zip(coef, edges, edges[1:])
                          for k, c in enumerate(row)))
        p = Panelization(0.0, 2.0, breakpoints=tuple(edges[1:-1]), band=0.0)
        assert p.node_count == 4 * _GAUSS_NODES
        assert abs(integrate(f, p) - exact) <= 4 * np.finfo(float).eps * exact
        straddled = integrate(f, Panelization(0.0, 2.0, band=0.0))
        assert abs(straddled - exact) > 1e-6 * exact

    def test_geometric_convergence(self):
        # cos(24 x) over (0, 1) on m = 1, 2, 3 panels (band 5 m gives m):
        # each panel added cuts the error by three orders of magnitude or
        # more, where Simpson's doubling gains 16; at 24 rad over 5 panels
        # (the rule's 5 rad per panel) it is at rounding level
        errs = [abs(integrate(plain(lambda x: np.cos(24.0 * x)),
                              Panelization(0.0, 1.0, band=5.0 * m))
                    - math.sin(24.0) / 24.0) for m in (1, 2, 3, 5)]
        assert errs[0] > 1e3 * errs[1] > 1e6 * errs[2]
        assert errs[3] < 2e-13

    @pytest.mark.parametrize("omega", [1.0, 7.3, 40.0, 333.0])
    def test_band_limited_square_to_rounding(self, omega):
        # cos(omega x)^2 has band 2 omega; over a length that is no whole
        # number of periods the band-sized rule is exact to rounding
        b = 3.7
        p = Panelization(0.0, b, band=2.0 * omega)
        exact = b / 2.0 + math.sin(2.0 * omega * b) / (4.0 * omega)
        assert integrate(plain(lambda x: np.cos(omega * x) ** 2), p) == pytest.approx(
            exact, rel=2e-15)


class TestProperties:
    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, a, b):
        p = Panelization(0.0, 1.5, breakpoints=(0.4,))
        f = plain(np.sin)
        g = plain(np.cos)
        combo = integrate(lambda x, s: a * np.sin(x) + b * np.cos(x), p)
        parts = a * integrate(f, p) + b * integrate(g, p)
        assert combo == pytest.approx(parts, abs=1e-13)
        stacked = integrate(lambda x, s: np.stack([np.sin(x), np.cos(x)]), p)
        assert stacked.shape == (2,)
        assert stacked[0] == integrate(f, p) and stacked[1] == integrate(g, p)

    def test_determinism(self):
        p = Panelization(0.0, math.pi, breakpoints=(1.0,))
        vals = {integrate(plain(np.sin), p) for _ in range(5)}
        assert len(vals) == 1

    def test_nonfinite_integrand_names_node(self):
        def f(x, seg):
            out = np.asarray(np.sin(x))
            out = np.where(np.abs(x - 0.5) < 1e-9, np.nan, out)
            return out

        # force a node at exactly 0.5
        # as a plain number, not numpy's repr np.float64(0.5)
        p = Panelization(0.0, 1.0, breakpoints=(0.5,))
        message = r"^integrand non-finite at node x = 0\.5$"
        with pytest.raises(NumericError, match=message):
            integrate(f, p)
        # NaN in the second row only: the named node must still be x = 0.5
        with pytest.raises(NumericError, match=message):
            integrate(lambda x, seg: np.stack([np.cos(x), f(x, seg)]), p)


class TestNodeBound:
    def test_oversized_layouts_refused_before_allocation(self):
        tracemalloc.start()
        try:
            # one node past the bound: 5,000,000 panels of two sub-intervals
            with pytest.raises(ValueError, match=f"needs {_MAX_NODES + 1} nodes, more than "
                                                 f"the {_MAX_NODES} allowed; shorten the "
                                                 f"interval$"):
                Panelization(0.0, _MAX_NODES / (2 * _SIMPSON_PANELS_PER_UNIT))
            with pytest.raises(ValueError, match="needs 5120000001 nodes"):
                Panelization(0.0, 1e7)
            with pytest.raises(ValueError, match="nodes, more than"):
                Panelization(0.0, 1e300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_configured_layout_admitted(self):
        # the right-extended axis (0, L2) of a v = 0.99 coefficient table on
        # Simpson panels, as data that declare no rate would take it
        p = Panelization(0.0, 2 * math.pi / 0.01, breakpoints=(math.pi,))
        assert p.node_count == 321_704 < _MAX_NODES

    def test_oversized_gauss_layouts_refused_before_allocation(self):
        tracemalloc.start()
        try:
            # one node past the bound: 1,250,001 panels of 8
            with pytest.raises(ValueError, match=f"needs {_MAX_NODES + 8} nodes"):
                Panelization(0.0, _MAX_NODES / _GAUSS_NODES + 1.0, band=_RAD_PER_PANEL)
            with pytest.raises(ValueError, match=r"needs 1\.60e\+301 nodes, more than the "
                                                 r"10000000 allowed; shorten the interval "
                                                 r"or lower the band"):
                Panelization(0.0, 1e300, band=10.0)
            with pytest.raises(ValueError, match="needs inf nodes, more than"):
                Panelization(0.0, 1e300, band=1e300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("b, band", [(1e7, None), (1e300, 10.0)], ids=["simpson", "gauss"])
    def test_node_bound_is_a_configuration_error(self, b, band):
        # a caller's interval or band, refused by name in the CLI (exit 2)
        with pytest.raises(ConfigurationError, match="nodes, more than the 10000000 allowed"):
            Panelization(0.0, b, band=band)

    def test_largest_gauss_layout_admitted(self):
        p = Panelization(0.0, _MAX_NODES / _GAUSS_NODES, band=_RAD_PER_PANEL)
        assert p.node_count == _MAX_NODES

    def test_infinite_interval_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Panelization(0.0, math.inf)


def _fsum_bound(x):
    """math.fsum of x and the bound eps |S| + 4 (log2(n) eps)^2 Sum |x| on a
    sum's distance from it."""
    eps = np.finfo(float).eps
    n = max(len(x), 1)
    exact = math.fsum(x.tolist())
    return exact, eps * abs(exact) + 4 * (math.log2(n) * eps) ** 2 * math.fsum(np.abs(x).tolist())


def _row_cases(rng, n):
    """Random-sign, same-sign and ill-conditioned rows of length n, all with
    magnitudes spanning 16 decades.  The ill-conditioned row is shuffled
    pairs a, -a + j ulp(a) with |j| <= 4, so its sum is a few ulps of the
    largest pair (or 0) against Sum |x|: condition numbers up to 1e16 n
    and beyond."""
    mags = rng.uniform(1.0, 2.0, n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    yield rng.choice([-1.0, 1.0], n) * mags
    yield mags
    half = rng.choice([-1.0, 1.0], n // 2) * mags[:n // 2]
    partners = -half + np.spacing(half) * rng.integers(-4, 5, n // 2)
    yield rng.permutation(np.concatenate([half, partners, mags[2 * (n // 2):]]))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestRowSum:
    """The TwoSum tree against the exactly rounded ``math.fsum``."""

    LENGTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 129,
               1000, 1001, 4095, 4096, 4097, 5000, 5001]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_within_bound_of_fsum(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            for x in _row_cases(rng, n):
                exact, bound = _fsum_bound(x)
                assert abs(float(_sum_rows(x)) - exact) <= bound

    def test_weights_multiply_first(self):
        # the sum sees the same rounded products weights * values as fsum would
        rng = np.random.default_rng(3)
        values, weights = rng.standard_normal(1001), rng.uniform(0.0, 1.0, 1001)
        exact, bound = _fsum_bound(weights * values)
        assert abs(float(_sum_rows(values, weights)) - exact) <= bound

    @given(st.lists(st.floats(-1e300, 1e300), max_size=300))
    def test_arbitrary_floats_within_bound(self, xs):
        x = np.array(xs, dtype=float)
        exact, bound = _fsum_bound(x)
        assert abs(float(_sum_rows(x)) - exact) <= bound

    @pytest.mark.parametrize("shape", [(4,), (3, 5)])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1001, 4096])
    def test_stacked_rows_sum_alone(self, shape, n):
        # the energy sweep stacks (3, times, nodes); every row of a stack must
        # give the bits it gives alone
        rng = np.random.default_rng(n)
        values = rng.standard_normal(shape + (n,)) * 10.0 ** rng.uniform(-8, 8, shape + (n,))
        weights = rng.uniform(0.0, 1.0, n)
        stacked = _sum_rows(values, weights)
        assert stacked.shape == shape
        for idx in np.ndindex(shape):
            assert _bits(_sum_rows(values[idx], weights)) == _bits(stacked[idx])

    @pytest.mark.parametrize("n", [1, 2, 999, 1024])
    def test_complex_rows(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)) * 1e-9
        weights = rng.uniform(0.0, 1.0, n)
        got = _sum_rows(values, weights)
        assert got.shape == (2,) and got.dtype == complex
        for row, total in zip(values, got):
            for part, value in ((row.real, total.real), (row.imag, total.imag)):
                exact, bound = _fsum_bound(weights * part)
                assert abs(value - exact) <= bound
            alone = _sum_rows(row, weights)
            assert _bits(alone.real) == _bits(total.real)
            assert _bits(alone.imag) == _bits(total.imag)

    def test_empty_rows_sum_to_zero(self):
        assert _sum_rows(np.zeros(0)) == 0.0 == math.fsum([])
        empty = _sum_rows(np.zeros((2, 3, 0)))
        assert empty.shape == (2, 3) and not np.any(empty)

    def test_overflowing_sum_raises(self):
        p = Panelization(0.0, 4.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="overflow"):
                integrate(plain(lambda x: np.full_like(x, 1e308)), p)


def uniform_segment(lo, hi, count):
    """``count`` uniform nodes on [lo, hi] in the block layout of a Simpson
    segment, at any count (a Simpson segment's is odd): blocks of
    round(sqrt(count)) nodes, at most 256."""
    h = (hi - lo) / (count - 1)
    b = min(256, round(math.sqrt(count)))
    return Segment(lo, hi, lo + h * np.arange(count), np.ones(count), b * h, h * np.arange(b))


# uniform counts, blocks of about sqrt(count) nodes (32 blocks to a chunk):
# two blocks, the second short; whole blocks; a short last block; exactly
# one chunk; a few chunks; and blocks at the 256-node cap.
# Gauss-Legendre panel counts (G panels to a block): one panel, blocks of
# one panel, a short last block, exactly two chunks, a block of one panel
# past them, and several chunks of 32-panel blocks
GAUSS_PANELS = (1, 7, 31, 512, 513, 10000)
# Simpson sub-interval counts, whose segments hold one node more
SIMPSON_INTERVALS = (2, 100, 256, 1000, 20000)
PHASOR_SEGMENTS = [
    *[pytest.param(uniform_segment(-1.5, 7.0, count), id=f"uniform-{count}")
      for count in (3, 100, 257, 1024, 20001, 70001)],
    *[pytest.param(_gauss_segment(-1.5, 7.0, panels), id=f"gauss-{panels}")
      for panels in GAUSS_PANELS],
]
KERNEL_SEGMENTS = [
    *[pytest.param(_simpson_segment(-1.5, 7.0, m), id=f"simpson-{m}")
      for m in SIMPSON_INTERVALS],
    *[pytest.param(_gauss_segment(-1.5, 7.0, panels), id=f"gauss-{panels}")
      for panels in GAUSS_PANELS],
]


class TestUniformPhasors:
    """Both directions of the blocked sum against every kernel evaluated
    at the segment's own nodes, on both rules' block layouts."""

    OMEGA = 1.7 * np.concatenate([np.arange(-12, 0), np.arange(1, 13)])

    @classmethod
    def case(cls, seg):
        dense = np.exp(1j * np.outer(seg.nodes, cls.OMEGA))      # (nodes, modes)
        rng = np.random.default_rng(len(seg.nodes))
        return UniformPhasors(seg, cls.OMEGA), dense, rng

    @pytest.mark.parametrize("seg", PHASOR_SEGMENTS)
    def test_synthesis(self, seg):
        phasors, dense, rng = self.case(seg)
        coef = rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24))
        ref = (dense @ coef.T).real.sum(axis=1)
        got = phasors.synthesize(coef)
        assert got.shape == (len(seg.nodes),)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(coef).sum()

    @pytest.mark.parametrize("seg", PHASOR_SEGMENTS)
    def test_analysis(self, seg):
        phasors, dense, rng = self.case(seg)
        values = rng.standard_normal(len(seg.nodes))
        ref = values @ dense
        got = phasors.analyze(values)
        assert got.shape == (24,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(values).sum()

    @pytest.mark.parametrize("seg", KERNEL_SEGMENTS)
    def test_kernel_at_every_node(self, seg):
        # each kernel alone, real and imaginary part, at every node on both
        # sides of the block and chunk edges, against a direct exp: both
        # sides round phases of up to |omega t| = 143 rad
        phasors, dense, _ = self.case(seg)
        bound = 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(np.outer(seg.nodes, self.OMEGA))))
        for n, unit in enumerate(np.eye(len(self.OMEGA))):
            assert np.max(np.abs(phasors.synthesize(unit) - dense[:, n].real)) <= bound
            assert np.max(np.abs(phasors.synthesize(-1j * unit) - dense[:, n].imag)) <= bound

    def test_simpson_segments_keep_their_layout(self):
        # a Panelization's Simpson segment carries the uniform block layout
        seg = Panelization(-1.5, 7.0).segments[0]
        ref = uniform_segment(-1.5, 7.0, len(seg.nodes))
        assert np.array_equal(seg.nodes, ref.nodes)
        assert seg.stride == ref.stride
        assert np.array_equal(seg.offsets, ref.offsets)

    @pytest.mark.parametrize("m", [*SIMPSON_INTERVALS, 200_000])
    def test_simpson_blocks_hold_sqrt_nodes(self, m):
        # one exp per offset and one per block: fewest at sqrt(nodes) nodes
        # to a block, which holds at most _BLOCK
        seg = _simpson_segment(-1.5, 7.0, m)
        assert len(seg.offsets) == min(_BLOCK, round(math.sqrt(m + 1)))
