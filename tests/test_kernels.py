import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locband.densities import AnalyticDensity, Piece, make_peak_triangular, make_weierstrass_composite
from locband.kernels import Kernel, convolve_grid, make_rectangular, sup_abs_bias


def affine_density(a=0.2, b=0.3, lo=-2.0, hi=2.0):
    # positive affine test function; normalization is irrelevant to the oracles
    return AnalyticDensity(
        name="affine-test",
        pieces=(Piece(lo, hi, coeffs=(a, b)),),
        sup_bound=a + b * max(abs(lo), abs(hi)),
    )


def quadratic_density(lo=0.5, hi=1.5):
    return AnalyticDensity(
        name="quad-test",
        pieces=(Piece(lo, hi, coeffs=(0.0, 0.0, 1.0)),),
        sup_bound=hi * hi,
    )


class TestRectangular:
    def test_metadata(self, rect):
        # closed forms over the one piece, exact in floating point
        assert rect.order == 1
        assert rect.tv == 1.0
        assert rect.norm_l1 == 1.0

    def test_pointwise_values(self, rect):
        assert rect(0.0) == 0.5
        assert rect(1.5) == 0.0
        assert rect(1.0) == 0.5  # closed support
        assert rect(-1.0) == 0.5

    def test_zero_outside_support(self, rect):
        xs = np.array([-5.0, -1.0001, 1.0001, 7.3])
        assert np.all(rect(xs) == 0.0)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        k = make_rectangular()
        assert k(x) == k(-x)


class TestMoments:
    def test_mass(self, rect):
        assert rect.moment(0) == pytest.approx(1.0, abs=1e-10)

    def test_odd_vanish(self, rect):
        assert rect.moment(1) == pytest.approx(0.0, abs=1e-9)
        assert rect.moment(3) == pytest.approx(0.0, abs=1e-9)

    def test_second_moment(self, rect):
        assert rect.moment(2) == pytest.approx(1.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("j", [4, 6, 8, 10, 12])
    def test_even_moments_exact(self, rect, j):
        # int_{-1}^{1} x^j / 2 dx = 1/(j+1)
        assert rect.moment(j) == pytest.approx(1.0 / (j + 1), abs=1e-10)


class TestClosedForms:
    def test_asymmetric_steps(self):
        # the broken-order kernel of the verify suite: first moment -1/4
        k = Kernel("broken", ((-1.0, 0.0, 0.75), (0.0, 1.0, 0.25)))
        assert k.moment(1) == -0.25
        assert k.order == 0
        assert k.tv == 1.5
        assert k.norm_l1 == 1.0
        # closed pieces: both count at the shared endpoint
        assert k(np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])).tolist() == [0.75, 0.75, 1.0, 0.25, 0.25, 0.0]

    def test_gap(self):
        k = Kernel("gap", ((-1.0, -0.5, 1.0), (0.5, 1.0, 1.0)))
        assert k.moment(1) == 0.0
        assert k.moment(2) == pytest.approx(7.0 / 12.0, abs=1e-15)
        assert k.order == 1
        assert k.tv == 4.0  # up and down at each of the two pieces
        assert k.norm_l1 == 1.0
        assert k(np.array([-0.75, -0.25, 0.0, 0.5])).tolist() == [1.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("pieces, message", [
        ((), "pieces must be ordered and non-degenerate"),
        (((0.0, 1.0, 0.5),), "mass 0.5 is not one"),
        (((0.0, 1.0, 0.5), (-1.0, 0.0, 0.5)), "pieces must be ordered and non-degenerate"),  # unordered
        (((-1.0, 0.5, 0.5), (0.0, 0.5, 0.5)), "pieces must be ordered and non-degenerate"),  # overlapping
        (((-1.0, -1.0, 0.5), (-1.0, 1.0, 0.5)), "pieces must be ordered and non-degenerate"),  # degenerate
    ], ids=[f"pieces{i}" for i in range(5)])
    def test_invalid_pieces(self, pieces, message):
        with pytest.raises(ValueError, match=f"^kernel 'bad': {re.escape(message)}$"):
            Kernel("bad", pieces)

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(1, 4), st.integers(-3, 3)), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_fine_grid(self, spec):
        # steps on a grid of quarters (gap, width, value); the midpoint grid
        # never hits a piece edge, so variation and norms are exact sums there
        edge, raw = 0.0, []
        for gap, width, value in spec:
            lo = edge + gap / 4.0
            edge = lo + width / 4.0
            raw.append((lo, edge, float(value)))
        mass = sum(v * (hi - lo) for lo, hi, v in raw)
        if mass == 0.0:
            return
        k = Kernel("steps", tuple((lo, hi, v / mass) for lo, hi, v in raw))
        dx = 2.0 ** -8
        mid = np.arange(-1.0, edge + 1.0, dx) + dx / 2.0
        vals = k(mid)
        assert k.tv == pytest.approx(np.abs(np.diff(vals)).sum(), rel=1e-12)
        assert k.norm_l1 == pytest.approx(np.abs(vals).sum() * dx, rel=1e-12)
        for j in (0, 1, 2):
            assert k.moment(j) == pytest.approx((mid ** j * vals).sum() * dx, abs=1e-3 * k.norm_l1)


class TestConvolveAt:
    """convolve_grid, evaluated at single points and at small grids."""

    def test_affine_reproduction(self, rect):
        p = affine_density()
        s = np.array([-0.5, 0.0, 0.7])
        for h in (0.5, 0.125, 2.0 ** -6):
            assert np.allclose(convolve_grid(rect, p, h, s), p.pdf(s), rtol=0.0, atol=1e-12)

    def test_quadratic_exact(self, rect):
        p = quadratic_density()
        s = np.array([0.8, 1.0, 1.2])
        for g in (0.05, 0.1, 0.2):
            assert np.allclose(convolve_grid(rect, p, g, s), s * s + g * g / 3.0, rtol=0.0, atol=1e-12)

    def test_multi_piece_kernel_exact(self):
        # each piece convolves through its own interval mass: the asymmetric
        # step kernel's bias on an affine density is its first moment times the slope
        k = Kernel("steps", ((-1.0, 0.0, 0.75), (0.0, 1.0, 0.25)))
        p = affine_density(a=0.2, b=0.3)
        h = 0.125
        got = convolve_grid(k, p, h, np.array([0.5]))[0]
        assert got == pytest.approx(p.pdf(0.5) + 0.3 * h * k.moment(1), abs=1e-12)


class TestSupAbsBias:
    def test_affine_zero(self, rect):
        p = affine_density()
        for g in (0.25, 0.0625):
            assert sup_abs_bias(rect, p, g, (-1.0, 1.0)) <= 1e-10

    def test_quadratic_bias(self, rect):
        p = quadratic_density()
        g = 0.1
        got = sup_abs_bias(rect, p, g, (0.8, 1.2))
        assert got == pytest.approx(g * g / 3.0, abs=1e-9)

    def test_rough_lower_bound_example(self, rect):
        # composite scaled by (1-2^-beta)/12; witness at the center of the window
        beta = 0.5
        h, g = 0.125, 1.0 / 32.0
        comp = make_weierstrass_composite(0.0, beta)
        got = sup_abs_bias(rect, comp, g, (-(h - g), h - g))
        cw = (1.0 - 2.0 ** -beta) / 12.0
        assert got > cw * (4.0 / math.pi - 1.0) * g ** beta

    def test_degenerate_interval(self, rect):
        with pytest.raises(ValueError, match=r"^degenerate interval \[0\.5, 0\.5\]$"):
            sup_abs_bias(rect, affine_density(), 0.1, (0.5, 0.5))

    def test_peak_bias_positive_at_kink(self, rect):
        peak = make_peak_triangular()
        g = 2.0 ** -6
        # the step g/64 = 2^-12 divides 0.125, so the scan hits the mode exactly
        got = sup_abs_bias(rect, peak, g, (0.375, 0.625))
        # running mean of the tent at its mode drops by slope * g / 2
        assert got == pytest.approx(2.0 * g, rel=1e-9)


@pytest.mark.parametrize("call, error, message", [
    (lambda rect: sup_abs_bias(rect, make_peak_triangular(), 0.0, (0.2, 0.8)), ValueError,
     "bandwidth must be positive, got 0.0"),
    (lambda rect: sup_abs_bias(rect, make_peak_triangular(), -0.125, (0.2, 0.8)), ValueError,
     "bandwidth must be positive, got -0.125"),
])
def test_input_checks(call, error, message, rect):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(rect)
