import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locband.calibration import (
    CalibrationPlan,
    PlanParams,
    band_halfwidth_quantile,
    derive_plan,
    gumbel_quantile,
    normalizers,
    optimal_bandwidth,
    plan_from_text,
    plan_to_text,
)


@pytest.mark.parametrize("field, value, error, message", [
    ("n", 3, ValueError, "sample size must be >= 4, got 3"),
    ("c2", math.nan, ValueError, "c2 must be positive and finite, got nan"),
    ("c2", 0.0, ValueError, "c2 must be positive and finite, got 0.0"),
    ("L_star", math.inf, ValueError, "L_star must be positive and finite, got inf"),
    ("L_star", -1.0, ValueError, "L_star must be positive and finite, got -1.0"),
])
def test_plan_params_out_of_range(field, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        PlanParams(**{"n": 2048, field: value})


def test_plan_params_are_the_settings(rect):
    # the paper's other constants are fixed, read on every plan, and written
    assert [f.name for f in dataclasses.fields(PlanParams)] == ["n", "L_star", "c2"]
    plan = derive_plan(PlanParams(n=2048), rect)
    assert (plan.epsilon, plan.beta_star_low, plan.c1, plan.kappa1, plan.kappa2, plan.mode) == (
        0.25, 0.95, 3.0, 1.0 / 1.9, 1.0, "practical")
    assert "mode=practical\n" in plan_to_text(plan)


class TestDerivePlan:
    def test_j_min_from_epsilon(self, rect):
        plan = derive_plan(PlanParams(n=2048), rect)
        assert plan.j_min == 3  # ceil(max(2, log2(2 / 0.25)))

    def test_mesh_width_formula(self, rect):
        # n~ = 1024, beta_* = 0.95, kappa1 = 1/(2 beta_*), by hand:
        # ceil(2^(3/0.95) (log 1024/1024)^(-kappa1) (log 1024)^(2/0.95)) = ceil(7288.0037...)
        plan = derive_plan(PlanParams(n=2048), rect)
        assert plan.mesh_count == 7289
        assert plan.delta_n == 1.0 / 7289
        nt, ln = 1024, math.log(1024)
        raw = 2.0 ** (3 / 0.95) * (ln / nt) ** -(1 / 1.9) * ln ** (2 / 0.95)
        assert plan.mesh_count == math.ceil(raw)

    def test_mesh_width_is_reciprocal_integer(self, plan_16k):
        assert plan_16k.mesh_count == round(1.0 / plan_16k.delta_n)

    def test_practical_mode_warns_and_clamps(self, rect):
        # j_max = floor(log2(n~ / log n~)) first reaches j_min = 3 at n~ = 27
        for n in range(4, 60):
            plan = derive_plan(PlanParams(n=n), rect)
            j_max = math.floor(math.log2(n // 2 / math.log(n // 2)) + 1e-12)
            clamped = (f"j_max={j_max} clamped up to j_min=3",) if n < 54 else ()
            assert plan.warnings[2:] == clamped  # after the two relaxed constraints
            assert plan.j_max == max(j_max, 3)

    def test_largest_meshes(self, rect):
        # n = 2^60 still has a mesh an array can hold; its edges need mesh_count + 1 entries
        assert derive_plan(PlanParams(n=2 ** 60), rect).mesh_count == 6968647434141
        assert math.isfinite(band_halfwidth_quantile(derive_plan(PlanParams(n=2048), rect), 2.0 ** -52))

    def test_u_n_and_m_n(self, plan_16k):
        nt = 2 ** 13
        assert plan_16k.u_n == pytest.approx(3.0 * math.log(math.log(nt)))
        assert plan_16k.m_n == pytest.approx(plan_16k.u_n / 2.0)

    def test_derived_fields_reproducible(self, rect):
        a = derive_plan(PlanParams(n=2 ** 14), rect)
        b = derive_plan(PlanParams(n=2 ** 14), rect)
        assert (a.j_min, a.j_max, a.mesh_count) == (b.j_min, b.j_max, b.mesh_count)
        assert a.delta_n == b.delta_n and a.a_n == b.a_n and a.b_n == b.b_n

    def test_beta_star_high_from_kernel(self, rect, plan_16k):
        assert plan_16k.beta_star_high == rect.order + 1 == 2


class TestNormalizers:
    def test_worked_example(self):
        a_n, b_n = normalizers(1.0 / 4729.0, 1.0)
        assert a_n == pytest.approx(5.8177, abs=5e-5)
        assert b_n == pytest.approx(7.5234, abs=5e-5)

    def test_exponential_mesh(self):
        a_n, b_n = normalizers(math.exp(-0.5), 1.0)
        assert a_n == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert b_n == pytest.approx(0.17196, abs=5e-6)

    def test_tv_scaling(self):
        a1, b1 = normalizers(1e-3, 1.0)
        a2, b2 = normalizers(1e-3, 2.0)
        assert a2 == pytest.approx(a1 / 2.0)
        assert b2 == pytest.approx(2.0 * b1)

    def test_invalid_mesh(self):
        with pytest.raises(ValueError, match=r"^mesh width must lie in \(0,1\), got 1\.0$"):
            normalizers(1.0, 1.0)
        with pytest.raises(ValueError, match=r"^mesh width must lie in \(0,1\), got -0\.1$"):
            normalizers(-0.1, 1.0)

    def test_scaling_sanity_on_ladder(self):
        deltas = [10.0 ** -k for k in range(2, 81, 6)]
        pairs = [normalizers(d, 1.0) for d in deltas]
        a_vals = [p[0] for p in pairs]
        assert all(a2 > a1 for a1, a2 in zip(a_vals[:-1], a_vals[1:]))
        b_vals = [p[1] for p in pairs]
        assert all(b2 > b1 for b1, b2 in zip(b_vals[:-1], b_vals[1:]))
        # b_n / a_n -> 3 / c3^2 = 3/2 for tv = 1, from below and slowly
        gaps = [abs(b / a - 1.5) for a, b in pairs]
        assert all(g2 < g1 for g1, g2 in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] == pytest.approx(0.0, abs=0.05)


class TestGumbelQuantile:
    def test_fixed_points(self):
        assert gumbel_quantile(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-15)
        assert gumbel_quantile(math.exp(-math.e)) == pytest.approx(-1.0, abs=1e-12)
        assert gumbel_quantile(0.95) == pytest.approx(2.9702, abs=5e-5)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError, match=f"^{re.escape(f'probability must lie in (0,1), got {bad!r}')}$"):
                gumbel_quantile(bad)

    @given(st.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=100, deadline=None)
    def test_inverse_of_gumbel_cdf(self, p):
        assert math.exp(-math.exp(-gumbel_quantile(p))) == pytest.approx(p, rel=1e-9)


class TestOptimalBandwidth:
    def test_worked_example(self, plan_1k):
        # h_{1,n} = 0.125 (log 1024 / 1024)^(1/3)
        got = optimal_bandwidth(plan_1k, 1.0)
        assert got == pytest.approx(0.023646, abs=2e-6)

    def test_infinite_exponent(self, plan_1k):
        assert optimal_bandwidth(plan_1k, math.inf) == 2.0 ** -plan_1k.j_min == 0.125

    def test_monotone_in_beta(self, plan_1k):
        betas = [0.3, 0.5, 1.0, 2.0, 5.0, math.inf]
        hs = [optimal_bandwidth(plan_1k, b) for b in betas]
        assert all(h2 > h1 for h1, h2 in zip(hs[:-1], hs[1:]))

    def test_invalid(self, plan_1k):
        with pytest.raises(ValueError, match=r"^exponent must be positive, got 0\.0$"):
            optimal_bandwidth(plan_1k, 0.0)


class TestBandHalfwidthQuantile:
    def test_formula(self, plan_1k):
        got = band_halfwidth_quantile(plan_1k, 0.1)
        expect = math.sqrt(plan_1k.L_star) * gumbel_quantile(0.95) / plan_1k.a_n + plan_1k.b_n
        assert got == expect

    def test_worked_example(self):
        # L*=1, alpha=0.1 with the worked normalizer pair
        a_n, b_n = normalizers(1.0 / 4729.0, 1.0)
        q = gumbel_quantile(0.95) / a_n + b_n
        assert q == pytest.approx(8.0339, abs=5e-5)

    def test_alpha_near_one_finite(self, plan_1k):
        got = band_halfwidth_quantile(plan_1k, 0.999999)
        assert math.isfinite(got)

    def test_lstar_shift(self, rect):
        p1 = derive_plan(PlanParams(n=2048, L_star=1.0), rect)
        p4 = derive_plan(PlanParams(n=2048, L_star=4.0), rect)
        alpha = 0.1
        diff = band_halfwidth_quantile(p4, alpha) - band_halfwidth_quantile(p1, alpha)
        assert diff == pytest.approx(gumbel_quantile(1 - alpha / 2) / p1.a_n)


class TestSerialization:
    @given(
        st.integers(4, 2 ** 40),
        st.floats(0.0, exclude_min=True, allow_infinity=False),
        st.floats(0.0, exclude_min=True, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, rect, n, c2, L_star):
        plan = derive_plan(PlanParams(n=n, c2=c2, L_star=L_star), rect)
        assert plan_from_text(plan_to_text(plan), rect) == plan

    def test_floats_read_as_written(self, plan_16k):
        text = plan_to_text(plan_16k)
        assert "c2=0.65\n" in text and "beta_star_low=0.95\n" in text

    def test_unknown_field_rejected(self, rect):
        with pytest.raises(ValueError, match="unknown plan field"):
            plan_from_text("n=2048\nbogus=1\n", rect)

    def test_line_without_equals_rejected(self, rect):
        with pytest.raises(ValueError, match=re.escape("line 2: expected key=value, got 'j_min 3'") + "$"):
            plan_from_text("n=2048\nj_min 3\n", rect)

    def test_repeated_field_rejected(self, rect):
        # the last value would otherwise win in silence
        with pytest.raises(ValueError, match=re.escape("line 3: plan field 'n' repeats line 1") + "$"):
            plan_from_text("n=2048\n# the same field again\nn=4096\n", rect)

    def test_blank_and_comment_lines_skipped(self, rect, plan_1k):
        assert plan_from_text("# a sidecar's plan\n\n  \nn=2048\n#j_min=9\n", rect) == plan_1k

    def test_inconsistent_derived_rejected(self, rect):
        with pytest.raises(ValueError, match="disagrees"):
            plan_from_text("n=2048\nj_min=9\n", rect)

    # a derived value or a fixed constant edited in a .meta
    EDITS = {"a_n": "99.0", "b_n": "99.0", "delta_n": "99.0", "u_n": "99.0", "m_n": "99.0", "c3": "99.0",
             "c1": "2.0", "epsilon": "0.5", "mode": "theory"}

    @pytest.mark.parametrize("name", list(EDITS))
    def test_edited_derived_float_rejected(self, rect, name):
        plan = derive_plan(PlanParams(n=2048), rect)
        text, count = re.subn(f"^{name}=.*$", f"{name}={self.EDITS[name]}", plan_to_text(plan), flags=re.M)
        assert count == 1
        stored = type(getattr(plan, name))(self.EDITS[name])
        message = f"stored {name}={stored!r} disagrees with re-derived {getattr(plan, name)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            plan_from_text(text, rect)

    def test_beta_star_high_from_kernel_checked(self, rect):
        # derived from the kernel's order, so a stored value is checked, not used
        assert "beta_star_high=2\n" in plan_to_text(plan_from_text("n=2048\n", rect))
        with pytest.raises(ValueError, match="stored beta_star_high=3 disagrees"):
            plan_from_text("n=2048\nbeta_star_high=3\n", rect)


@pytest.mark.parametrize("call, error, message", [
    (lambda rect: normalizers(0.1, 0.0), ValueError, "total variation must be positive, got 0.0"),
    (lambda rect: derive_plan(PlanParams(n=10 ** 30), rect), ValueError,
     f"n={10 ** 30} needs a mesh of 3.01e+19 cells, more than an array can hold"),
    # past float range, refused before any conversion
    (lambda rect: derive_plan(PlanParams(n=10 ** 400), rect), ValueError,
     f"n={10 ** 400} needs a mesh of more cells than an array can hold"),
    (lambda rect: band_halfwidth_quantile(derive_plan(PlanParams(n=2048), rect), 1e-320), ValueError,
     "alpha is too small to use: 1 - alpha/2 rounds to 1, got 1e-320"),
    (lambda rect: band_halfwidth_quantile(derive_plan(PlanParams(n=2048), rect), 2.0 ** -53), ValueError,
     f"alpha is too small to use: 1 - alpha/2 rounds to 1, got {2.0 ** -53!r}"),
])
def test_input_checks(call, error, message, rect):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(rect)
