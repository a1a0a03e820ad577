import hashlib
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locband import densities as zoo
from locband import harness
from locband.band import cell_edges
from locband.calibration import PlanParams, derive_plan
from locband.densities import (
    SERIES_TOL,
    AnalyticDensity,
    Piece,
    WeierstrassSpec,
    _series_sum,
    density_from_name,
    holder_norm_estimate,
    holder_quotient_bound,
    kl_divergence,
    lw_constant,
    make_peak_triangular,
    make_perturbed,
    make_triangular_hypothesis,
    make_uniform,
    make_weierstrass_composite,
    sample,
    weierstrass_antideriv,
    weierstrass_eval,
)
from locband.harness import local_exponent_oracle

ZOO = [
    make_peak_triangular(),
    make_triangular_hypothesis(0.5),
    make_uniform(),
    make_weierstrass_composite(0.5, 0.5),
    make_weierstrass_composite(0.2, 0.3),
    make_perturbed(make_weierstrass_composite(0.5, 0.5), 1000, 0.5, "one"),
    make_perturbed(make_weierstrass_composite(0.5, 0.5), 1000, 0.5, "two"),
    make_perturbed(make_triangular_hypothesis(0.5), 1000, 1.0, "one"),
    make_perturbed(make_triangular_hypothesis(0.5), 1000, 1.0, "two"),
    make_perturbed(make_triangular_hypothesis(0.3), 1000, 1.0, "one"),
]


class TestWeierstrassSeries:
    def test_fixed_values(self):
        s1 = WeierstrassSpec(1.0)
        assert weierstrass_eval(s1, 0.0) == pytest.approx(2.0, abs=1e-11)
        assert weierstrass_eval(s1, 1.0) == pytest.approx(0.0, abs=1e-11)
        s05 = WeierstrassSpec(0.5)
        assert weierstrass_eval(s05, 0.0) == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-11)

    def test_truncation_depth_bound(self):
        for beta in (0.3, 0.5, 0.8, 1.0):
            n = WeierstrassSpec(beta).depth
            assert 2.0 ** (-n * beta) / (1.0 - 2.0 ** -beta) <= SERIES_TOL
            if n > 0:  # depth is sharp
                assert 2.0 ** (-(n - 1) * beta) / (1.0 - 2.0 ** -beta) > SERIES_TOL

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 1.0])
    def test_truncation_error(self, beta):
        # against sums 40 terms deeper; on this dyadic grid every deeper
        # cosine term is 1, so the value's tail is the largest it can be
        spec = WeierstrassSpec(beta)
        xs = np.arange(-256, 257) / 256.0
        k = np.arange(spec.depth + 41, dtype=float)
        deep = _series_sum(np.cos, np.exp2(-k * beta), xs)
        deep_antideriv = _series_sum(np.sin, np.exp2(-k * (beta + 1.0)) / math.pi, xs)
        assert np.abs(weierstrass_eval(spec, xs) - deep).max() <= SERIES_TOL
        assert np.abs(weierstrass_antideriv(spec, xs) - deep_antideriv).max() <= SERIES_TOL

    @given(st.integers(-256, 256), st.floats(0.25, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_symmetric_periodic(self, k, beta):
        # dyadic arguments so that x + 2 is exact: the series is rough, so
        # even one ulp of argument rounding would move the value by ~ulp^beta
        x = k / 256.0
        spec = WeierstrassSpec(beta)
        v = weierstrass_eval(spec, x)
        assert abs(v) <= 1.0 / (1.0 - 2.0 ** -beta) + 1e-9
        assert v == pytest.approx(weierstrass_eval(spec, -x), abs=1e-12)
        assert v == pytest.approx(weierstrass_eval(spec, x + 2.0), abs=1e-9)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError, match=r"^series exponent must lie in \(0, 1\], got 0\.0$"):
            WeierstrassSpec(0.0)
        with pytest.raises(ValueError, match=r"^series exponent must lie in \(0, 1\], got 1\.5$"):
            WeierstrassSpec(1.5)

    def test_depth_cap_admits_small_exponents(self):
        # the zoo and the tests go no lower than beta = 0.25
        assert (WeierstrassSpec(0.1).depth, WeierstrassSpec(0.25).depth) == (438, 171)


class TestNormConstants:
    def test_value(self):
        assert lw_constant(0.5) == pytest.approx(20.9687, abs=2e-4)

    def test_divergence_near_zero(self):
        assert lw_constant(1e-4) > lw_constant(1e-2) > lw_constant(0.5)
        assert lw_constant(1e-6) > 1e5

    def test_beta_one_unbounded(self):
        message = "norm constant diverges as beta -> 1 (denominator 1-2^(beta-1)); got 1.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lw_constant(1.0)
        assert holder_quotient_bound(1.0) == math.inf

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_quotient_certification(self, beta):
        spec = WeierstrassSpec(beta)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 10_000)
        y = rng.uniform(-1.0, 1.0, 10_000)
        keep = x != y
        q = np.abs(weierstrass_eval(spec, x[keep]) - weierstrass_eval(spec, y[keep]))
        q /= np.abs(x[keep] - y[keep]) ** beta
        assert q.max() <= holder_quotient_bound(beta)


class TestZooInvariants:
    @pytest.mark.parametrize("density", ZOO, ids=lambda d: d.name)
    def test_nonnegative_and_bounded(self, density):
        lo, hi = density.support
        xs = np.linspace(lo - 0.5, hi + 0.5, 4001)
        vals = density.pdf(xs)
        assert vals.min() >= -1e-12
        assert vals.max() <= density.sup_bound + 1e-12
        outside = (xs < lo) | (xs > hi)
        assert np.all(vals[outside] == 0.0)

    @pytest.mark.parametrize("density", ZOO, ids=lambda d: d.name)
    def test_unit_mass(self, density):
        assert density.mass_between(*density.support) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("density", ZOO, ids=lambda d: d.name)
    def test_kinks_are_piece_boundaries(self, density):
        edges = {p.lo for p in density.pieces} | {p.hi for p in density.pieces}
        assert set(density.kinks) <= edges

    @pytest.mark.parametrize("density", [d for d in ZOO if not d.is_rough], ids=lambda d: d.name)
    def test_no_smooth_point_listed_as_kink(self, density):
        # at each interior piece boundary, value or slope must actually break
        for left, right in zip(density.pieces[:-1], density.pieces[1:]):
            x = right.lo
            v_l, v_r = (float(_closed_form(density, p, np.array([x]))[0]) for p in (left, right))
            sl, sr = (float(np.polynomial.polynomial.polyval(x, _derivative_coeffs(p, 1))) for p in (left, right))
            assert abs(v_l - v_r) > 1e-12 or abs(sl - sr) > 1e-12

    def test_composite_values(self):
        p0 = make_weierstrass_composite(0.3, 0.5)
        assert p0.pdf(0.3) == pytest.approx(0.25, abs=1e-11)
        assert p0.pdf(0.3 - 10.0 / 3.0) == pytest.approx(0.0, abs=1e-14)
        assert p0.pdf(0.3 + 10.0 / 3.0) == pytest.approx(0.0, abs=1e-14)
        assert p0.pdf(0.3 - 4.0) == 0.0  # strictly outside
        assert p0.pdf(0.3 + 4.0) == 0.0

    def test_composite_lower_bound_on_center_ball(self):
        p0 = make_weierstrass_composite(0.5, 0.5)
        xs = np.linspace(0.5 - 2.0, 0.5 + 2.0, 20_001)
        assert p0.pdf(xs).min() >= 1.0 / 12.0 - 1e-10

    def test_tent_values(self):
        t = 0.4
        p = make_triangular_hypothesis(t)
        assert p.pdf(t) == 0.25
        assert p.pdf(t - 4.0) == 0.0
        assert p.pdf(t + 4.0) == 0.0

    def test_tent_lipschitz_quotient(self):
        p = make_triangular_hypothesis(0.5)
        rng = np.random.default_rng(3)
        x = rng.uniform(-3.4, 4.4, 5000)
        y = rng.uniform(-3.4, 4.4, 5000)
        keep = np.abs(x - y) > 1e-12
        q = np.abs(p.pdf(x[keep]) - p.pdf(y[keep])) / np.abs(x[keep] - y[keep])
        assert q.max() <= 1.0 / 16.0 + 1e-12

    def test_peak_shape(self):
        p = make_peak_triangular()
        assert p.pdf(0.5) == 2.0
        assert p.mass_between(*p.support) == pytest.approx(1.0, abs=1e-14)
        assert p.kinks == (0.0, 0.5, 1.0)

    def test_perturbed_flat_ball_value(self):
        beta, n = 0.5, 1000
        base = make_weierstrass_composite(0.5, beta)
        p1 = make_perturbed(base, n, beta, "one")
        g = zoo.perturbation_radius(n, beta)
        cw = (1.0 - 2.0 ** -beta) / 12.0
        expected = 1.0 / 6.0 + cw * weierstrass_eval(base.wspec, g)
        xs = np.linspace(0.5 - 0.9 * g, 0.5 + 0.9 * g, 101)
        assert np.allclose(p1.pdf(xs), expected, atol=1e-12)

    def test_perturbed_matches_base_off_bumps(self):
        beta, n = 0.5, 1000
        base = make_weierstrass_composite(0.5, beta)
        p1 = make_perturbed(base, n, beta, "one")
        g = zoo.perturbation_radius(n, beta)
        rng = np.random.default_rng(11)
        xs = rng.uniform(*base.support, 4000)
        off = (np.abs(xs - 0.5) > g) & (np.abs(xs - (0.5 + 2.25)) > g)
        assert np.allclose(p1.pdf(xs[off]), base.pdf(xs[off]), atol=1e-12)

    def test_perturbed_variant_two_radius(self):
        beta, n = 0.5, 1000
        base = make_weierstrass_composite(0.5, beta)
        p2 = make_perturbed(base, n, beta, "two")
        r = zoo.shrink_factor(beta) * zoo.perturbation_radius(n, beta)
        assert 0.5 - r in p2.kinks and 0.5 + r in p2.kinks

    def test_tent_perturbed_flattens_kink(self):
        base = make_triangular_hypothesis(0.5)
        p1 = make_perturbed(base, 1000, 1.0, "one")
        g = zoo.perturbation_radius(1000, 1.0)
        xs = np.linspace(0.5 - 0.9 * g, 0.5 + 0.9 * g, 51)
        assert np.allclose(p1.pdf(xs), 0.25 - g / 16.0, atol=1e-14)
        assert 0.5 not in p1.kinks

    def test_construction_overlap_guard(self, monkeypatch):
        # the radius formula keeps r < 0.16 for n >= 4, so reaching the
        # guard requires forcing an oversized radius
        monkeypatch.setattr(zoo, "perturbation_radius", lambda n, beta: 2.5)
        with pytest.raises(ValueError, match=r"^bump radius 2\.5 >= 2 overlaps the construction$"):
            make_perturbed(make_weierstrass_composite(0.5, 0.5), 1000, 0.5, "one")
        with pytest.raises(ValueError, match=r"^bump radius 2\.5 >= 2 overlaps the construction$"):
            make_perturbed(make_triangular_hypothesis(0.5), 1000, 1.0, "one")

    @pytest.mark.parametrize("variant", ["one", "two"])
    @pytest.mark.parametrize("base", [
        make_peak_triangular(),  # once a "tent" perturbation of mass 0.823 (0.909 for variant two)
        make_uniform(),  # mass 0.959 (0.980)
        make_perturbed(make_triangular_hypothesis(0.5), 100, 1.0, "one"),
    ], ids=lambda d: d.name)
    def test_perturbed_refuses_other_bases(self, base, variant):
        message = f"base {base.name} is neither the series composite nor a tent"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_perturbed(base, 100, 1.0, variant)

    @pytest.mark.parametrize("t", [0.5, 0.3, 0.1, 0.77, -1.25, 3.0, 0.1 + 0.2])
    def test_perturbed_accepts_every_tent(self, t):
        d = make_perturbed(make_triangular_hypothesis(t), 100, 1.0, "two")
        assert d.mass_between(*d.support) == pytest.approx(1.0, abs=1e-12)


# (base, variant, n): SHA-256 of repr((name, pieces, sup_bound,
# lipschitz_budget)) of the perturbation, so that every joint, coefficient
# and bound of the bump pair is pinned
PERTURBED_DIGESTS = {
    ("weierstrass:0.5:0.5", "one", 256): "0a0b557298647c521e1fdb0ac7423e166b0bcf12d3d0a66045e6ed9f7b45b26d",
    ("weierstrass:0.5:0.5", "one", 10 ** 6): "b94206fd32ad641bcbed21aee989e05213f060f994fdfd7168b6147013a41a11",
    ("weierstrass:0.5:0.5", "two", 256): "d2ff077c706c2cc0c88de01082f09b0732865c7bf2514cf6dcdf05c105817024",
    ("weierstrass:0.5:0.5", "two", 10 ** 6): "c0493c79f32dfb220a13a9d888504b09bc3b441e286b2debd894b4db4c5f6a92",
    ("tent:0.5", "one", 256): "98108691911389fa3bffda09bdbb14c4f344a1789baf32acdbf1a6e40592d55b",
    ("tent:0.5", "one", 10 ** 6): "6b7e4ae22f7ca3b526a722ae17d7dd39dfe6a96060c7546c8b0d52c887042738",
    ("tent:0.5", "two", 256): "5dbdbb10e06e15f33f5d50fea6574608a2ed8283b70249aba3e5686e2ff7c318",
    ("tent:0.5", "two", 10 ** 6): "78594a065a74d3207e38610fbc5dfde9d014fe892513ce5ee8820da0722aa72c",
    ("tent:0.3", "one", 256): "f823e4f47a4455d7270a7a54b3ce5191607b9fa5a1faef3fbc0efd56a79f8bfe",
    ("tent:0.3", "one", 10 ** 6): "3b8687fffa98904e87ab6aa25b4bdcd426db8bc935b990a52362ed4ab74504a9",
    ("tent:0.3", "two", 256): "2e1c8f6ce0f29e2177ba74db07909547cbc7b8641a9a8dcf9477be733d626404",
    ("tent:0.3", "two", 10 ** 6): "cead0fa780e2d0406363aefc82b225128b6780636ec9a36f6c4cb3cfb9b9d433",
}


@pytest.mark.parametrize("key", sorted(PERTURBED_DIGESTS), ids=str)
def test_perturbed_pieces_pinned(key):
    base_name, variant, n = key
    base = density_from_name(base_name)
    d = make_perturbed(base, n, base.wspec.beta if base.wspec else 1.0, variant)
    got = hashlib.sha256(repr((d.name, d.pieces, d.sup_bound, d.lipschitz_budget)).encode()).hexdigest()
    assert got == PERTURBED_DIGESTS[key]


# density: SHA-256 of the lo, hi and slack bytes of cells_extrema on the
# n = 4096 plan's mesh, the truth that simulate coverage checks bands against
TRUTH_DIGESTS = {
    "peak": "0a0e4f8e910843d0313a623961ad561b90f2d72ff981f3764bc4493e5cce7e44",
    "tent:0.5": "ba388f7ad1e19f731f6662fbfe92e7d8b71dc1110fce523787340e7f3a4e46f2",
    "weierstrass:0.5:0.5": "8fa8f5def4be15cfc6d2d0d0983056fb7be7c51085a169ec8597601bf5c47297",
    "perturbed1:0.5:4096": "693c780a0a5be38ded74b412694f61e00ee34d890249f2a7fb069b3877605da2",
    "perturbed2:0.5:4096": "5296d35cbbec050f6010c96960ca74d1a07152e333f3f03a49ca0d88e6dd5354",
    "tent-perturbed1:0.5:4096": "0f6a404f4d6b10b920f954b5dfcc3d544a1c76d465b62a579f65d17a6973f502",
}


@pytest.mark.parametrize("name", sorted(TRUTH_DIGESTS))
def test_truth_enclosures_pinned(name, rect):
    tent = make_triangular_hypothesis(0.5)
    density = make_perturbed(tent, 4096, 1.0, "one") if name.startswith("tent-") else density_from_name(name)
    assert density.name == name
    digest = hashlib.sha256()
    for part in density.cells_extrema(cell_edges(derive_plan(PlanParams(n=4096), rect))):
        digest.update(part.tobytes())
    assert digest.hexdigest() == TRUTH_DIGESTS[name]


class TestPieceJoints:
    @pytest.mark.parametrize("pieces, message", [
        ((Piece(0.0, 0.3, (1.0,)), Piece(0.3, 0.4, (1.0,)), Piece(0.5, 1.0, (1.0,))),
         "piece 1 ends at 0.4, piece 2 starts at 0.5"),
        ((Piece(0.0, 0.6, (1.0,)), Piece(0.5, 1.0, (1.0,))), "piece 0 ends at 0.6, piece 1 starts at 0.5"),
    ], ids=["gap", "overlap"])
    def test_pieces_must_adjoin(self, pieces, message):
        with pytest.raises(ValueError, match=f"pieces must adjoin: {message}$"):
            AnalyticDensity("bad", pieces, sup_bound=1.0)

    @pytest.mark.parametrize("density", ZOO + [harness.weierstrass_function(0.5)], ids=lambda d: d.name)
    def test_zoo_rebuilds(self, density):
        # replace re-runs the construction checks on the same pieces
        assert replace(density) == density


_ORACLE_POINTS = 2048


def _closed_form(density, piece, x):
    """The piece's own value at the points x, written out: polyval of its
    coefficients plus scale * W(x - center) per series term, in that order."""
    out = np.polynomial.polynomial.polyval(x, np.asarray(piece.coeffs))
    for scale, center in piece.wterms:
        out = out + scale * weierstrass_eval(density.wspec, x - center)
    return out


def _derivative_coeffs(piece, k):
    """polyder of the piece's coefficients; None on a piece with series
    terms once k >= 1 (it has no derivative)."""
    return None if piece.wterms and k >= 1 else np.polynomial.polynomial.polyder(piece.coeffs, k)


def _exhaustive_extrema(density, edges):
    """The enclosure's oracle: min and max over _ORACLE_POINTS evenly spaced
    points of each piece's part of each cell, both ends included and each
    piece evaluated with its own value, and 0 where a cell leaves the support."""
    lo = np.full(len(edges) - 1, np.inf)
    hi = np.full(len(edges) - 1, -np.inf)
    frac = np.linspace(0.0, 1.0, _ORACLE_POINTS)
    for p in density.pieces:
        a, b = np.maximum(edges[:-1], p.lo), np.minimum(edges[1:], p.hi)
        k = np.flatnonzero(a < b)
        pts = a[k, None] + (b - a)[k, None] * frac[None, :]
        pts[:, -1] = b[k]
        vals = _closed_form(density, p, pts.ravel()).reshape(pts.shape)
        lo[k] = np.minimum(lo[k], vals.min(axis=1))
        hi[k] = np.maximum(hi[k], vals.max(axis=1))
    outside = (edges[:-1] < density.support[0]) | (edges[1:] > density.support[1])
    lo[outside] = np.minimum(lo[outside], 0.0)
    hi[outside] = np.maximum(hi[outside], 0.0)
    return lo, hi


def assert_encloses_scan(density, edges):
    """The enclosure holds the scanned range, and lo and hi are attained:
    they lie inside the scanned range, which holds the cells' ends."""
    lo, hi, slack = density.cells_extrema(edges)
    want_lo, want_hi = _exhaustive_extrema(density, edges)
    assert np.all(slack >= 0.0)
    assert np.all(lo - slack <= want_lo) and np.all(want_hi <= hi + slack)
    assert np.all(want_lo <= lo) and np.all(hi <= want_hi)


@st.composite
def _rough_cells(draw):
    """A rough density and a few cells of non-uniform widths placed at a
    piece joint, a support end or anywhere in the support."""
    beta = draw(st.floats(0.2, 0.95))
    kind = draw(st.sampled_from(["weierstrass", "perturbed1", "perturbed2"]))
    if kind == "weierstrass":
        density = make_weierstrass_composite(draw(st.floats(-1.0, 1.0)), beta)
    else:
        density = density_from_name(f"{kind}:{beta!r}:{draw(st.sampled_from([16, 256, 1000, 4096]))}")
    joints = [p.lo for p in density.pieces] + [density.pieces[-1].hi]
    anchor = draw(st.sampled_from(joints) | st.floats(*density.support))
    widths = np.array(draw(st.lists(st.floats(1e-6, 0.5), min_size=1, max_size=4)))
    left = anchor - draw(st.floats(0.0, 1.0)) * widths[0]
    return density, left + np.concatenate([[0.0], np.cumsum(widths)])


class TestCellsExtrema:
    @given(_rough_cells())
    @settings(max_examples=80, deadline=None)
    def test_rough_scan_matches_exhaustive(self, case):
        # the enclosure holds the exhaustive scan's range
        assert_encloses_scan(*case)

    @pytest.mark.parametrize("name", ["weierstrass:0.5:0.5", "perturbed2:0.5:256"])
    def test_rough_scan_on_plan_mesh(self, name, rect):
        # 40 cells of the n = 256 plan's mesh around 1/2
        plan = derive_plan(PlanParams(n=256), rect)
        edges = cell_edges(plan)[plan.mesh_count // 2 - 20:plan.mesh_count // 2 + 21]
        assert_encloses_scan(density_from_name(name), edges)

    def test_rough_work_is_linear_in_cells(self, rect, monkeypatch):
        # a per-cell scan would evaluate thousands of points per cell
        plan = derive_plan(PlanParams(n=4096), rect)
        density = density_from_name("weierstrass:0.5:0.5")
        points = []
        real = AnalyticDensity._gathered
        monkeypatch.setattr(AnalyticDensity, "_gathered",
                            lambda self, xs, *rest: points.append(np.size(xs)) or real(self, xs, *rest))
        density.cells_extrema(cell_edges(plan))
        assert 0 < sum(points) <= 4 * (plan.mesh_count + 1) + len(density.pieces) + 1

    def test_polynomial_pieces_have_no_slack(self, rect):
        plan = derive_plan(PlanParams(n=256), rect)
        tent = make_triangular_hypothesis(0.5)
        for density in (make_peak_triangular(), tent, make_perturbed(tent, 256, 1.0, "one")):
            lo, hi, slack = density.cells_extrema(cell_edges(plan))
            assert np.all(slack == 0.0) and np.all(lo <= hi)

    def test_quadratic_peak_inside_a_cell(self):
        # 6x(1 - x) is stationary at 1/2, inside the middle cell and at no edge
        density = AnalyticDensity("beta22", (Piece(0.0, 1.0, coeffs=(0.0, 6.0, -6.0)),), 1.5)
        lo, hi, slack = density.cells_extrema(np.array([0.0, 0.3, 0.7, 1.0]))
        assert hi[1] == 1.5 and np.all(slack == 0.0)

    def test_cubic_enclosure_holds_fine_scan(self):
        # two stationary points, (3 -+ sqrt 3)/6, each inside one of the three cells
        density = AnalyticDensity("cubic", (Piece(0.0, 1.0, coeffs=(0.25, 3.0, -9.0, 6.0)),), 1.0)
        edges = np.array([0.0, 0.1, 0.5, 1.0])
        lo, hi, _ = density.cells_extrema(edges)
        xs = np.linspace(0.0, 1.0, 100_001)
        cell = np.minimum(np.searchsorted(edges, xs, side="right") - 1, 2)
        v = density.pdf(xs)
        for k in range(3):
            assert lo[k] <= v[cell == k].min() and v[cell == k].max() <= hi[k]

    def test_no_cells(self):
        lo, hi, slack = make_weierstrass_composite(0.5, 0.5).cells_extrema(np.array([0.25]))
        assert lo.shape == hi.shape == slack.shape == (0,)


class TestDensityNames:
    @pytest.mark.parametrize("name", [
        "peak", "tent:0.5", "weierstrass:0.5:0.25", "perturbed1:0.5:1000", "perturbed2:0.3:500",
    ])
    def test_known(self, name):
        d = density_from_name(name)
        assert d.mass_between(*d.support) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name, message", [
        ("nope", "unknown density name 'nope'"),
        ("tent", "unknown density name 'tent'"),
        ("weierstrass:1.5:0", "cannot build density 'weierstrass:1.5:0': composite exponent must lie in (0,1), got 1.5"),
        ("peak:1", "unknown density name 'peak:1'"),
    ], ids=["nope", "tent", "weierstrass:1.5:0", "peak:1"])
    def test_unknown(self, name, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            density_from_name(name)


class TestSampling:
    def test_support_containment(self):
        p = make_weierstrass_composite(0.5, 0.5)
        draws = sample(p, 10_000, seed=42)
        lo, hi = p.support
        assert draws.min() >= lo and draws.max() <= hi

    def test_determinism(self):
        p = make_peak_triangular()
        a = sample(p, 5000, seed=7)
        b = sample(p, 5000, seed=7)
        assert np.array_equal(a, b)
        c = sample(p, 5000, seed=8)
        assert not np.array_equal(a, c)

    def test_peak_ks_against_exact_cdf(self):
        p = make_peak_triangular()
        draws = np.sort(sample(p, 100_000, seed=123))
        cdf = np.where(draws <= 0.5, 2.0 * draws ** 2, 1.0 - 2.0 * (1.0 - draws) ** 2)
        n = draws.size
        ks = max(
            float((np.arange(1, n + 1) / n - cdf).max()),
            float((cdf - np.arange(0, n) / n).max()),
        )
        assert ks < 0.01

    def test_exact_cdf_matches_mass_below(self):
        p = make_peak_triangular()
        xs = np.linspace(0.0, 1.0, 101)
        expect = np.where(xs <= 0.5, 2.0 * xs ** 2, 1.0 - 2.0 * (1.0 - xs) ** 2)
        assert np.allclose(p.mass_below(xs), expect, atol=1e-14)

    def test_corrupt_density_detection(self):
        bad = AnalyticDensity(
            name="corrupt",
            pieces=(Piece(0.0, 1.0, coeffs=(1.0,)),),
            sup_bound=0.5,  # deliberately below the true sup
        )
        with pytest.raises(ValueError, match=r"^density corrupt exceeds its sup bound: 1\.0 > 0\.5$"):
            sample(bad, 10, seed=0)


# (density, m, seed): SHA-256 of the bytes of sample(density, m, seed)
SAMPLE_DIGESTS = {
    ("peak", 1 << 18, 1): "fdf88a72488de052608731bed0a04246ad4a0951eeab7daa03bd1b2ee9683632",
    ("peak", 1 << 18, 2): "0f49d27969c82f1172db8ab0158b6e21d16d1b7d425c1fa0c4698ef88761f1d6",
    ("peak", 1 << 18, 3): "63f47603d3f25591b3c97b733a88f3e98bcfdb762eeb5d4140f2682c9996ac83",
    ("tent:0.5", 1 << 18, 1): "326c5f467300450e18f6cc05b50cb4bc78a2e665146e76f0424929876ae7aedf",
    ("tent:0.5", 1 << 18, 2): "f1c19af183b80412672e356867b96f571e6140277ff85a25bff74249e35475dc",
    ("tent:0.5", 1 << 18, 3): "88a29e22f001fe7d2bdc53980f9b55d3e524d08064c1d2679cf83e61868b4791",
    ("tent:0.3", 1 << 18, 1): "41d9fd767087ea8ea4dc3eb26f3d20d82f5b980f7dbf9f3165dbb8e2837a434f",
    ("tent:0.3", 1 << 18, 2): "c31753c89ca8643446db0ae17e638ccee845511c294929c026472d772f1607a4",
    ("tent:0.3", 1 << 18, 3): "53f2741dd63aaf6e76b26ed38c1570ee9a0119f12a2f5b96530cce28f77c5c7c",
    ("perturbed1:0.5:4096", 1 << 12, 1): "1d2490e88d77e8fd28b7dbd9705c12ffbda967a17c1d9de150b0d531ec7f1927",
    ("perturbed1:0.5:4096", 1 << 12, 2): "50746fd7dbf5b18c49acf47226e8d6e61f1d2809d7532135eb0fc97c21b53e9b",
    ("weierstrass:0.5:0.5", 1 << 12, 1): "c0e0b6752f5f04fdb6736c6a6126bca6367c94960bb2957e76642b5c5855d0b5",
    ("weierstrass:0.5:0.5", 1 << 12, 2): "776785dfce60bd5863d785c6e863c75d4261434e4bf10c025e56b48061b89ab0",
}


@pytest.mark.parametrize("key", sorted(SAMPLE_DIGESTS), ids=str)
def test_sample_draws_pinned(key):
    name, m, seed = key
    draws = sample(density_from_name(name), m, seed)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == SAMPLE_DIGESTS[key]


def _holding_piece(density, x):
    """The piece that holds x, a joint going to the piece on its right and
    the support's right end to the last piece; None off the support."""
    lo, hi = density.support
    return [p for p in density.pieces if p.lo <= x][-1] if lo <= x <= hi else None


def _piece_value_oracle(density, x):
    """The density at x from its piece's closed form on a one-point array."""
    piece = _holding_piece(density, x)
    return 0.0 if piece is None else float(_closed_form(density, piece, np.array([x]))[0])


def _derivative_oracle(density, k, x):
    """The k-th derivative at x from the piece's own derivative
    coefficients (its value for k = 0); None on a piece with series terms."""
    piece = _holding_piece(density, x)
    if piece is None or k == 0:
        return _piece_value_oracle(density, x)
    dc = _derivative_coeffs(piece, k)
    return None if dc is None else float(np.polynomial.polynomial.polyval(np.array([x]), dc)[0])


def _mass_oracle(density, x):
    """The mass below x in closed form: with x clipped to the support, the
    antiderivative of its piece (polyint of the polynomial plus the series'
    own) at x minus its value at the piece's start, plus the mass of every
    piece before it."""
    def prim(p, t):
        t = np.array([t])
        out = np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyint(p.coeffs))
        for scale, center in p.wterms:
            out = out + scale * zoo.weierstrass_antideriv(density.wspec, t - center)
        return float(out[0])

    x = min(max(x, density.support[0]), density.support[1])
    piece = _holding_piece(density, x)
    before = 0.0
    for p in density.pieces[:density.pieces.index(piece)]:
        before += prim(p, p.hi) - prim(p, p.lo)
    return before + (prim(piece, x) - prim(piece, piece.lo))


@st.composite
def _random_densities(draw):
    """One to four adjoining pieces, each a polynomial of degree 0 to 3 (so
    that a piece of low degree reads padded zero rows of the coefficient
    table) plus up to two series terms; not a probability density."""
    edges = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=5, unique=True)))
    coef = st.floats(-10.0, 10.0)
    pieces = tuple(
        Piece(lo, hi, tuple(draw(st.lists(coef, min_size=1, max_size=4))),
              tuple(draw(st.lists(st.tuples(coef, st.floats(-1.0, 1.0)), max_size=2))))
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    spec = WeierstrassSpec(draw(st.floats(0.3, 1.0)))
    return AnalyticDensity("random", pieces, sup_bound=1.0, wspec=spec)


@st.composite
def _pdf_points(draw):
    density = draw(st.sampled_from(ZOO + [harness.weierstrass_function(0.5)]) | _random_densities())
    lo, hi = density.support
    edge = st.sampled_from(density.kinks)
    near = st.builds(lambda e, s: float(np.nextafter(e, e + s)), edge, st.sampled_from([-math.inf, math.inf]))
    outside = st.one_of(st.floats(lo - 10.0, lo, exclude_max=True), st.floats(hi, hi + 10.0, exclude_min=True))
    point = st.one_of(edge, near, outside, st.floats(lo, hi))
    return density, draw(st.lists(point, min_size=1, max_size=40))


@given(_pdf_points())
@settings(max_examples=150, deadline=None)
def test_pdf_is_piece_value(case):
    # every point's piece, joints, support ends and points off the support
    # included, and every bit of its value
    density, xs = case
    got = density.pdf(np.array(xs))
    want = np.array([_piece_value_oracle(density, x) for x in xs])
    assert got.tobytes() == want.tobytes()
    assert [density.pdf(x) for x in xs] == want.tolist()


@given(_pdf_points())
@example((AnalyticDensity("negative-constant", (Piece(-2.0, -1.0, (-1.0,)), Piece(-1.0, 0.0, (1.0, 2.0, 3.0))),
                          sup_bound=1.0), [-1.5, -1.0]))
@settings(max_examples=150, deadline=None)
def test_derivatives_and_masses_are_piece_closed_forms(case):
    # the gathered pass gives each piece's own derivative and mass, bit for
    # bit, at joints, support ends and off the support
    density, xs = case
    for k in (0, 1, 2):
        got = zoo._derivative_grid(density, k, np.array(xs))
        want = [_derivative_oracle(density, k, x) for x in xs]
        if None in want:
            assert got is None
            continue
        want = np.array(want)
        if k:
            # polyder leaves a piece of degree < k the row c[0] * 0, which
            # keeps the sign of c[0], where the table's padded rows give
            # +0.0: adding 0.0 makes the two zeros one
            got, want = got + 0.0, want + 0.0
        assert got.tobytes() == want.tobytes()
    got = density.mass_below(np.array(xs))
    assert got.tobytes() == np.array([_mass_oracle(density, x) for x in xs]).tobytes()


def _jumps_oracle(density, kstar, window):
    """_derivative_jumps edge by edge: both sides' derivatives from the
    pieces' own coefficients, 0 off the support, edges beside a series piece
    skipped."""
    wlo, whi = window
    last = len(density.pieces)
    for i, t in enumerate(density.kinks):
        if not (wlo <= t < whi if i == last else wlo < t <= whi):
            continue
        sides = [density.pieces[j] if 0 <= j < last else None for j in (i - 1, i)]
        if any(p is not None and p.wterms for p in sides):
            continue
        for k in range(kstar + 1):
            left, right = (
                0.0 if p is None else np.polynomial.polynomial.polyval(t, _derivative_coeffs(p, k))
                for p in sides
            )
            if abs(left - right) > 1e-12:
                return True
    return False


@st.composite
def _windows(draw):
    density = draw(st.sampled_from(ZOO) | _random_densities())
    lo, hi = density.support
    end = st.sampled_from(density.kinks) | st.floats(lo - 1.0, hi + 1.0)
    a, b = draw(end), draw(end)
    assume(a != b)
    return density, (min(a, b), max(a, b))


@given(_windows(), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_derivative_jumps_match_edge_by_edge_reference(case, kstar):
    # windows that end on an edge, beyond the support or anywhere
    density, window = case
    assert zoo._derivative_jumps(density, kstar, window) == _jumps_oracle(density, kstar, window)


class TestLocalExponentOracle:
    def test_peak_at_kink(self, plan_1k):
        assert local_exponent_oracle(make_peak_triangular(), 0.5, plan_1k) == 1.0

    def test_peak_near_boundary_worked_chain(self, plan_1k):
        # d = 0.1 to the kink at 1.0; solving the bandwidth equation gives
        # beta ~ 10.7, capped at the kernel ceiling 2
        got = local_exponent_oracle(make_peak_triangular(), 0.9, plan_1k)
        assert got == 2.0
        rate = math.log(1024) / 1024
        beta_uncapped = 0.5 * (math.log(rate) / math.log(0.1 * 8.0) - 1.0)
        assert beta_uncapped == pytest.approx(10.70, abs=0.02)

    def test_uniform_interior_infinite(self, plan_1k):
        assert local_exponent_oracle(make_uniform(), 0.5, plan_1k) == math.inf

    def test_far_from_kink_infinite(self, plan_1k):
        # peak kinks at 0, 1/2, 1: t=0.25 has d=0.25 >= 2^-3
        assert local_exponent_oracle(make_peak_triangular(), 0.25, plan_1k) == math.inf

    def test_rough_member_returns_construction_exponent(self, plan_1k):
        w = make_weierstrass_composite(0.5, 0.5)
        for t in (0.0, 0.31, 1.0):
            assert local_exponent_oracle(w, t, plan_1k) == 0.5

    def test_off_centre_tent_perturbation(self, plan_16k):
        # the flat ball sits at the base's own apex, which is no longer a kink
        off = make_perturbed(make_triangular_hypothesis(0.3), 1000, 1.0, "one")
        centred = make_perturbed(make_triangular_hypothesis(0.5), 1000, 1.0, "one")
        assert local_exponent_oracle(off, 0.3, plan_16k) == pytest.approx(
            local_exponent_oracle(centred, 0.5, plan_16k), abs=1e-12
        )

    def test_perturbed_rough_unavailable(self, plan_1k):
        p1 = make_perturbed(make_weierstrass_composite(0.5, 0.5), 1000, 0.5, "one")
        message = "no closed-form local exponent for perturbed rough density perturbed1:0.5:1000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            local_exponent_oracle(p1, 0.5, plan_1k)


class TestHolderNormEstimate:
    def test_tent_norm(self):
        p = make_triangular_hypothesis(0.5)
        est = holder_norm_estimate(p, 1.0, 2, (0.2, 0.8))
        assert est == pytest.approx(0.25 + 1.0 / 16.0, abs=1e-9)
        assert est <= p.lipschitz_budget[0].bound + 1e-12

    def test_estimates_below_budgets(self):
        for density in ZOO:
            for entry in density.lipschitz_budget:
                if not math.isfinite(entry.bound) or entry.beta == math.inf:
                    continue
                wlo = max(entry.window[0], density.support[0] + 1e-6)
                whi = min(entry.window[1], wlo + 1.0)
                est = holder_norm_estimate(density, entry.beta, 2, (wlo, whi))
                assert est <= entry.bound + 1e-9

    def test_rough_piece_not_differentiable(self):
        w = make_weierstrass_composite(0.5, 0.5)
        assert holder_norm_estimate(w, 1.5, 2, (0.4, 0.6)) == math.inf

    def test_infinite_exponent_affine(self):
        p = make_peak_triangular()
        est = holder_norm_estimate(p, math.inf, 2, (0.6, 0.9))
        # sup p on the window (at 0.6: 4*(1-0.6) = 1.6) plus the slope 4
        assert est == pytest.approx(1.6 + 4.0, abs=1e-9)

    def test_infinite_exponent_across_kink(self):
        p = make_peak_triangular()
        assert holder_norm_estimate(p, math.inf, 2, (0.4, 0.6)) == math.inf

    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_slope_jump_inside_window(self, beta):
        # the slope jumps at the apex 0.5, so the norm is infinite once k* = 1
        for density in (make_peak_triangular(), make_triangular_hypothesis(0.5)):
            assert holder_norm_estimate(density, beta, 2, (0.4, 0.6)) == math.inf
            assert math.isfinite(holder_norm_estimate(density, 1.0, 2, (0.4, 0.6)))

    def test_joint_on_the_window_edge(self):
        # the apex belongs to the right piece: a window that starts there holds
        # one slope, one that ends there holds both
        p = make_peak_triangular()
        assert holder_norm_estimate(p, 1.5, 2, (0.5, 0.7)) == pytest.approx(2.0 + 4.0, abs=1e-9)
        assert holder_norm_estimate(p, 1.5, 2, (0.3, 0.5)) == math.inf

    def test_zero_off_the_support(self):
        # the density is 0 past a support end, not its end piece extended
        u, p = make_uniform(), make_peak_triangular()
        for beta in (math.inf, 0.5):
            assert holder_norm_estimate(u, beta, 2, (0.775, 1.025)) == math.inf  # jump at 1
        assert holder_norm_estimate(p, math.inf, 2, (-0.1, 0.1)) == math.inf  # p' jumps from 0 to 4
        assert holder_norm_estimate(p, 1.0, 2, (-0.1, 0.1)) == pytest.approx(0.4 + 4.0, abs=1e-9)


class TestKLDivergence:
    def test_identity(self):
        p = make_peak_triangular()
        assert kl_divergence(p, p, tol=1e-10) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_on_zoo_pairs(self):
        pairs = [
            (make_peak_triangular(), make_uniform()),
            (
                make_perturbed(make_triangular_hypothesis(0.5), 100, 1.0, "one"),
                make_triangular_hypothesis(0.5),
            ),
        ]
        for p, q in pairs:
            assert kl_divergence(p, q, tol=1e-9) >= -1e-9

    def test_absolute_continuity_breach(self):
        # in each pair p has mass past an end of q's support
        tent = make_triangular_hypothesis(0.5)
        pairs = [
            (tent, make_peak_triangular()),
            (tent, make_uniform()),
            (make_uniform(-4.0, 4.0), tent),
            (density_from_name("weierstrass:0.5:0.5"), make_peak_triangular()),
        ]
        for p, q in pairs:
            with pytest.raises(ValueError, match=f"^{re.escape('support of p leaves {q > 0}: divergence is infinite')}$"):
                kl_divergence(p, q, tol=1e-6)

    def test_rough_pair_bound(self):
        beta, n = 0.5, 1000
        base = make_weierstrass_composite(0.5, beta)
        p1 = make_perturbed(base, n, beta, "one")
        val = kl_divergence(p1, base, tol=1e-7)
        lw = lw_constant(beta)
        c8 = 48.0 * lw ** 2 * 4.0 ** -(2 * beta + 1) * 2.0 ** (2 * beta) * ((1 - 2.0 ** -beta) / 12.0) ** 2
        assert 0.0 <= n * val <= c8

    def test_refusal_evaluates_no_level_past_the_cap(self):
        # the log singularity at a segment end never converges: the refusal
        # comes before the first level past 300,000 panels of 8 nodes
        sizes = []
        real = zoo._kl_integrand

        def counted(p, q, nodes):
            sizes.append(nodes.size)
            return real(p, q, nodes)

        with mock.patch.object(zoo, "_kl_integrand", counted):
            with pytest.raises(ValueError, match="^KL quadrature did not reach"):
                kl_divergence(make_uniform(), make_peak_triangular(), tol=1e-9)
        assert max(sizes) <= 8 * 300_000


def _with_radius(r, call):
    def run():
        with mock.patch.object(zoo, "perturbation_radius", lambda n, beta: r):
            call()
    return run


@pytest.mark.parametrize("call, error, message", [
    (lambda: WeierstrassSpec(1e-6), ValueError,
     "series exponent 1e-06 needs 60323473 terms for tolerance 1e-12, more than the 4096 evaluated"),
    (lambda: WeierstrassSpec(1e-320), ValueError,  # 2^-beta rounds to 1: no depth reaches the tolerance
     "series exponent 1e-320 needs inf terms for tolerance 1e-12, more than the 4096 evaluated"),
    (lambda: holder_quotient_bound(0.0), ValueError, "exponent must be positive, got 0.0"),
    (lambda: lw_constant(-1.0), ValueError, "exponent must be positive, got -1.0"),
    (lambda: AnalyticDensity("bad", (Piece(1.0, 0.0),), 1.0), ValueError, "pieces must be ordered and non-degenerate"),
    (lambda: make_perturbed(make_triangular_hypothesis(0.5), 1000, 1.0, "three"), ValueError,
     "variant must be 'one' or 'two', got 'three'"),
    (lambda: make_perturbed(make_triangular_hypothesis(0.5), 3, 1.0, "one"), ValueError,
     "sample size must be >= 4, got 3"),
    (lambda: make_perturbed(make_weierstrass_composite(0.5, 0.5), 10 ** 400, 0.5, "one"), ValueError,
     f"sample size must be <= 1.7976931348623157e+308, got {10 ** 400}"),
    (lambda: make_perturbed(make_weierstrass_composite(0.5, 0.5), 1000, 0.3, "one"), ValueError,
     "exponent 0.3 does not match the base construction 0.5"),
    (lambda: make_perturbed(make_triangular_hypothesis(0.5), 1000, 0.5, "one"), ValueError,
     "tent perturbations require beta = 1, got 0.5"),
    (_with_radius(0.5, lambda: make_perturbed(make_weierstrass_composite(0.5, 0.5), 1000, 0.5, "one")),
     ValueError, "bump radius 0.5 straddles the construction joints"),
    (lambda: sample(make_peak_triangular(), 0, 1), ValueError, "sample count must be >= 1, got 0"),
    (lambda: holder_norm_estimate(make_peak_triangular(), 1.0, 2, (0.5, 0.5)), ValueError,
     "degenerate window (0.5, 0.5)"),
    (lambda: holder_norm_estimate(make_peak_triangular(), -1.0, 2, (0.2, 0.4)), ValueError,
     "exponent must be positive, got -1.0"),
    (lambda: kl_divergence(make_peak_triangular(), make_peak_triangular(), tol=0.0), ValueError,
     "tolerance must be positive, got 0.0"),
    # the log singularity of p log(p/q) where q vanishes at a segment end
    (lambda: kl_divergence(make_uniform(), make_peak_triangular(), tol=1e-9), ValueError,
     "KL quadrature did not reach tol=2.5e-10 on [0,0.5]"),
])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
