import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locband.band import build_band, reference_global_band
from locband.densities import AnalyticDensity, Piece, make_peak_triangular, make_weierstrass_composite, sample
from locband.errors import InvalidIntervalError, InvalidToleranceError, LocbandError, UnsupportedMomentError
from locband.estimator import build_kde_table, split_sample
from locband.kernels import Kernel, convolve_at, kernel_moment, make_rectangular, sup_abs_bias
from locband.selector import select_profile


def affine_density(a=0.2, b=0.3, lo=-2.0, hi=2.0):
    # positive affine test function; normalization is irrelevant to the oracles
    return AnalyticDensity(
        name="affine-test",
        pieces=(Piece(lo, hi, coeffs=(a, b)),),
        support=(lo, hi),
        sup_bound=a + b * max(abs(lo), abs(hi)),
        kinks=(lo, hi),
    )


def quadratic_density(lo=0.5, hi=1.5):
    return AnalyticDensity(
        name="quad-test",
        pieces=(Piece(lo, hi, coeffs=(0.0, 0.0, 1.0)),),
        support=(lo, hi),
        sup_bound=hi * hi,
        kinks=(lo, hi),
    )


def triangle_kernel():
    # order-1 kernel that is not piecewise constant: no entry point accepts it
    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.maximum(1.0 - np.abs(x), 0.0)

    return Kernel(
        name="triangle",
        evaluate=evaluate,
        support_radius=1.0,
        order=1,
        tv=2.0,
        norm_l1=1.0,
        norm_l2_sq=2.0 / 3.0,
        norm_sup=1.0,
        symmetric=True,
        jumps=(),
        flat_pieces=None,
    )


class TestRectangular:
    def test_metadata(self, rect):
        assert rect.order == 1
        assert rect.tv == pytest.approx(1.0, abs=1e-9)
        assert rect.norm_l1 == pytest.approx(1.0, abs=1e-10)
        assert rect.norm_l2_sq == pytest.approx(0.5, abs=1e-10)
        assert rect.norm_sup == pytest.approx(0.5)
        assert rect.symmetric

    def test_pointwise_values(self, rect):
        assert rect(0.0) == 0.5
        assert rect(1.5) == 0.0
        assert rect(1.0) == 0.5  # closed support
        assert rect(-1.0) == 0.5

    def test_zero_outside_support(self, rect):
        xs = np.array([-5.0, -1.0001, 1.0001, 7.3])
        assert np.all(rect.evaluate(xs) == 0.0)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, x):
        k = make_rectangular()
        assert k(x) == k(-x)


class TestMoments:
    def test_mass(self, rect):
        assert kernel_moment(rect, 0) == pytest.approx(1.0, abs=1e-10)

    def test_odd_vanish(self, rect):
        assert kernel_moment(rect, 1) == pytest.approx(0.0, abs=1e-9)
        assert kernel_moment(rect, 3) == pytest.approx(0.0, abs=1e-9)

    def test_second_moment(self, rect):
        assert kernel_moment(rect, 2) == pytest.approx(1.0 / 3.0, abs=1e-10)

    @pytest.mark.parametrize("j", [4, 6, 8, 10, 12])
    def test_even_moments_exact(self, rect, j):
        # int_{-1}^{1} x^j / 2 dx = 1/(j+1)
        assert kernel_moment(rect, j) == pytest.approx(1.0 / (j + 1), abs=1e-10)

    def test_moment_guard(self, rect):
        with pytest.raises(UnsupportedMomentError):
            kernel_moment(rect, 13)


class TestConvolveAt:
    def test_affine_reproduction(self, rect):
        p = affine_density()
        for s in (-0.5, 0.0, 0.7):
            for h in (0.5, 0.125, 2.0 ** -6):
                assert convolve_at(rect, p, h, s) == pytest.approx(p.pdf(s), abs=1e-12)

    def test_quadratic_exact(self, rect):
        p = quadratic_density()
        for s in (0.8, 1.0, 1.2):
            for g in (0.05, 0.1, 0.2):
                assert convolve_at(rect, p, g, s) == pytest.approx(s * s + g * g / 3.0, abs=1e-12)

    def test_rough_composite_refinement(self, rect):
        # tightening the series tolerance tenfold moves the value by < 1e-8
        coarse = make_weierstrass_composite(0.0, 0.5, tol=1e-8)
        fine = make_weierstrass_composite(0.0, 0.5, tol=1e-9)
        a = convolve_at(rect, coarse, 2.0 ** -5, 0.0, tol=1e-8)
        b = convolve_at(rect, fine, 2.0 ** -5, 0.0, tol=1e-9)
        assert a == pytest.approx(b, abs=1e-8)

    def test_invalid_tolerance(self, rect):
        with pytest.raises(InvalidToleranceError):
            convolve_at(rect, affine_density(), 0.1, 0.0, tol=0.0)

    def test_non_flat_kernel_rejected(self, rect, plan_1k):
        # convolution, the table and both bands need the kernel's constant pieces
        tri = triangle_kernel()
        split = split_sample(sample(make_peak_triangular(), plan_1k.n, seed=3))
        profile = select_profile(build_kde_table(split, plan_1k, rect, half_id=2), plan_1k)
        calls = [
            lambda: convolve_at(tri, quadratic_density(), 0.1, 1.0),
            lambda: sup_abs_bias(tri, quadratic_density(), 0.1, (0.8, 1.2)),
            lambda: build_kde_table(split, plan_1k, tri, half_id=2),
            lambda: build_band(split, profile, plan_1k, tri, alpha=0.1),
            lambda: reference_global_band(split, plan_1k, tri, alpha=0.1),
        ]
        for call in calls:
            with pytest.raises(LocbandError, match="'triangle' is not piecewise constant"):
                call()


class TestSupAbsBias:
    def test_affine_zero(self, rect):
        p = affine_density()
        for g in (0.25, 0.0625):
            assert sup_abs_bias(rect, p, g, (-1.0, 1.0)) <= 1e-10

    def test_quadratic_bias(self, rect):
        p = quadratic_density()
        g = 0.1
        got = sup_abs_bias(rect, p, g, (0.8, 1.2), grid_step=g / 64.0)
        assert got == pytest.approx(g * g / 3.0, abs=1e-9)

    def test_rough_lower_bound_example(self, rect):
        # composite scaled by (1-2^-beta)/12; witness at the center of the window
        beta = 0.5
        h, g = 0.125, 1.0 / 32.0
        comp = make_weierstrass_composite(0.0, beta)
        got = sup_abs_bias(rect, comp, g, (-(h - g), h - g), grid_step=g / 64.0)
        cw = (1.0 - 2.0 ** -beta) / 12.0
        assert got > cw * (4.0 / math.pi - 1.0) * g ** beta

    def test_degenerate_interval(self, rect):
        with pytest.raises(InvalidIntervalError):
            sup_abs_bias(rect, affine_density(), 0.1, (0.5, 0.5))

    def test_grid_step_guard(self, rect):
        with pytest.raises(InvalidIntervalError):
            sup_abs_bias(rect, affine_density(), 0.1, (0.0, 0.1), grid_step=0.05)

    def test_refinement_monotonicity(self, rect):
        p = make_weierstrass_composite(0.0, 0.5)
        g = 2.0 ** -5
        coarse = sup_abs_bias(rect, p, g, (-0.09, 0.09), grid_step=g / 64.0)
        fine = sup_abs_bias(rect, p, g, (-0.09, 0.09), grid_step=g / 128.0)
        assert fine >= coarse - 1e-9

    def test_peak_bias_positive_at_kink(self, rect):
        peak = make_peak_triangular()
        g = 2.0 ** -6
        # grid step dividing 0.1 so the scan hits the mode exactly
        got = sup_abs_bias(rect, peak, g, (0.4, 0.6), grid_step=0.2 / 512.0)
        # running mean of the tent at its mode drops by slope * g / 2
        assert got == pytest.approx(2.0 * g, rel=1e-9)
