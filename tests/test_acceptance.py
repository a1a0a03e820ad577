"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them stream).

Criteria 4 and 8a are implemented exactly as stated and are expected to
fail; the analysis lives in the decisions ledger outside the package.  In
short: the normalized maximum of 4096 Gaussians sits at two-sided
Kolmogorov distance ~0.043 from its Gumbel limit (the convergence is
logarithmic, and no seed can hide a distributional gap 2x the threshold),
and the bare width threshold (log n~)^gamma_tilde omits the quantile
factor 2 sqrt6 2^{j_min/2} q_n(alpha) that the width identity forces, so
no parameter choice can meet it at desk scale.  Companion assertions
verify the corresponding attainable statements (one-sided domination; the
width bound with the quantile factor in place).
"""

import math
import time

import numpy as np
import pytest

from locband import harness as H
from locband.calibration import PlanParams, derive_plan
from locband.densities import (
    WeierstrassSpec,
    holder_quotient_bound,
    kl_divergence,
    lw_constant,
    make_peak_triangular,
    make_triangular_hypothesis,
    make_uniform,
    make_perturbed,
    make_weierstrass_composite,
    perturbation_radius,
    weierstrass_eval,
)
from locband.kernels import make_rectangular, sup_abs_bias

SEED = 20240601
BETA_GRID = (0.3, 0.5, 0.8, 1.0)
G_LADDER = tuple(2.0 ** -j for j in range(5, 10))


def _criterion(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def kernel():
    return make_rectangular()


@pytest.fixture(scope="module")
def plans(kernel):
    return {n: derive_plan(PlanParams(n=n), kernel) for n in (2 ** 12, 2 ** 14, 2 ** 16)}


def test_criterion_01_bias_lower_bound(kernel):
    t0 = time.time()
    h = 2.0 ** -3
    worst = math.inf
    for beta in BETA_GRID:
        w = H.weierstrass_function(beta)
        for g in G_LADDER:
            got = sup_abs_bias(kernel, w, g, (-(h - g), h - g))
            worst = min(worst, got - (4.0 / math.pi - 1.0) * g ** beta)
    dt = time.time() - t0
    _criterion(
        "01", worst > 0.0 and dt < 30.0,
        f"series bias exceeds (4/pi-1) g^beta on all ladders (min margin {worst:.4f}, {dt:.1f}s)",
    )


def test_criterion_02_holder_certification():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    ok = True
    worst = math.inf
    for beta in BETA_GRID:
        spec = WeierstrassSpec(beta)
        x = rng.uniform(-1.0, 1.0, 10_000)
        y = rng.uniform(-1.0, 1.0, 10_000)
        keep = x != y
        q = np.abs(weierstrass_eval(spec, x[keep]) - weierstrass_eval(spec, y[keep]))
        q /= np.abs(x[keep] - y[keep]) ** beta
        bound = holder_quotient_bound(beta)
        ok &= bool(q.max() <= bound)
        if math.isfinite(bound):
            worst = min(worst, bound - float(q.max()))
    dt = time.time() - t0
    _criterion(
        "02", ok and dt < 5.0,
        f"sampled quotients stay below the certified constants (min margin {worst:.3f}, {dt:.1f}s)",
    )


def test_criterion_03_bias_upper_bound(kernel):
    t0 = time.time()
    h = 2.0 ** -3
    ok = True
    worst = math.inf
    for beta in BETA_GRID:
        if beta >= 1.0:
            continue  # the certified constant is infinite at beta = 1
        comp = make_weierstrass_composite(0.0, beta)
        budget = comp.lipschitz_budget[0].bound
        for g in G_LADDER:
            got = sup_abs_bias(kernel, comp, g, (-(h - g), h - g))
            margin = budget * kernel.norm_l1 * g ** beta - got
            ok &= margin >= 0.0
            worst = min(worst, margin)
    affine_worst = 0.0
    uni = make_uniform(-4.0, 4.0)
    tent = make_triangular_hypothesis(0.5)
    for g in G_LADDER:
        affine_worst = max(affine_worst, sup_abs_bias(kernel, uni, g, (-(h - g), h - g)))
        affine_worst = max(affine_worst, sup_abs_bias(kernel, tent, g, (1.5, 1.75)))
    ok &= affine_worst <= 1e-10
    dt = time.time() - t0
    _criterion(
        "03", ok and dt < 30.0,
        f"budget * |K|_1 * g^beta dominates the bias (min margin {worst:.4f}; "
        f"affine bias {affine_worst:.2e} <= 1e-10; {dt:.1f}s)",
    )


def test_criterion_04_gumbel_calibration(kernel):
    t0 = time.time()
    rep = H.run_gumbel_calibration(kernel, m=4096, reps=5000, seed=SEED)
    ks = rep.summary["ks"]
    dt = time.time() - t0
    # attainable companion: one-sidedness of the finite-m law
    assert rep.summary["ks_ecdf_below"] <= 0.02, "finite-m law should dominate the Gumbel limit"
    _criterion(
        "04", ks <= 0.02 and dt < 10.0,
        f"KS distance of the normalized maxima to the Gumbel law: {ks:.4f} "
        f"(threshold 0.02; the exact finite-m distance is ~0.043, see ledger; "
        f"one-sided deficit {rep.summary['ks_ecdf_below']:.4f} passes; {dt:.1f}s)",
    )


def test_criterion_05_contrast_second_moment_sweep(plans):
    t0 = time.time()
    plan = plans[2 ** 12]
    configs = H.random_admissible_configurations(10_000, plan, SEED)
    worst = -math.inf
    for cfg in configs:
        worst = max(worst, H.tilde_w_second_moment(*cfg))
    ok = worst <= 4.0 + 1e-12
    worst_mc = 0.0
    for i, cfg in enumerate(configs[:20]):
        closed = H.tilde_w_second_moment(*cfg)
        mc = H.tilde_w_second_moment_mc(*cfg, reps=100_000, seed=SEED + i)
        worst_mc = max(worst_mc, abs(closed - mc))
    ok &= worst_mc <= 0.05
    dt = time.time() - t0
    _criterion(
        "05", ok and dt < 60.0,
        f"closed form <= 4 over 1e4 configurations (max {worst:.6f}); "
        f"Monte Carlo gap {worst_mc:.4f} <= 0.05 on 20 configurations ({dt:.1f}s)",
    )


def test_criterion_06_inequality_suites(kernel):
    t0 = time.time()
    rep = H.verify_inequalities(kernel=kernel, suites=["a2", "a3", "a4"])
    dt = time.time() - t0
    _criterion(
        "06", rep.summary["all_passed"] and dt < 5.0,
        f"deterministic grids show zero violations ({len(rep.records)} checks, {dt:.1f}s)",
    )


def test_criterion_07_bandwidth_window(plans):
    t0 = time.time()
    rep = H.run_window_check(make_peak_triangular(), plans[2 ** 14], reps=100, seed=SEED)
    hit = rep.summary["hit_fraction"]
    dt = time.time() - t0
    _criterion(
        "07", hit >= 0.90 and dt < 600.0,
        f"selected exponent inside the oracle window at {hit:.4f} of pairs (>= 0.90, {dt:.1f}s)",
    )


@pytest.fixture(scope="module")
def adaptivity_summary(plans):
    # one run per n; each summary key names its n, so the three merge
    summary = {}
    for n in (2 ** 12, 2 ** 14, 2 ** 16):
        rep = H.run_adaptivity(make_peak_triangular(), plans[n], alpha=0.1, reps=50, seed=SEED, probes=(0.5, 0.9))
        summary.update(rep.summary)
    return summary


def test_criterion_08a_adaptive_width_threshold(adaptivity_summary):
    frac_bare = adaptivity_summary["frac_bare_n65536"]
    frac_bound = adaptivity_summary["frac_bound_n65536"]
    # attainable companion: with the quantile factor of the width identity in
    # place, the normalized width certificate holds in >= 90% of replications
    assert frac_bound >= 0.90, "calibrated width bound should hold"
    _criterion(
        "08a", frac_bare >= 0.90,
        f"normalized width under the bare threshold (log n~)^gamma_tilde in "
        f"{frac_bare:.2f} of replications (>= 0.90 required; the bare threshold omits "
        f"the quantile factor and is unattainable at any n, see ledger; with the "
        f"factor restored the certificate holds in {frac_bound:.2f})",
    )


def test_criterion_08b_width_ratio_decreasing(adaptivity_summary):
    ratios = [adaptivity_summary[f"ratio_n{n}"] for n in (2 ** 12, 2 ** 14, 2 ** 16)]
    ok = ratios[0] > ratios[1] > ratios[2]
    _criterion(
        "08b", ok,
        f"smooth/kink width ratio strictly decreasing in n: "
        + " > ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_09_coverage_direction(plans):
    t0 = time.time()
    coverages = []
    for n in (2 ** 12, 2 ** 14, 2 ** 16):
        rep = H.run_coverage(make_peak_triangular(), plans[n], alpha=0.1, reps=50, seed=SEED)
        coverages.append(rep.summary["coverage"])
    ok = all(c2 >= c1 - 0.03 for c1, c2 in zip(coverages[:-1], coverages[1:]))
    ok &= coverages[-1] >= 0.85
    dt = time.time() - t0
    _criterion(
        "09", ok,
        f"simultaneous coverage nondecreasing within 0.03 and >= 0.85 at the largest n: "
        + ", ".join(f"{c:.3f}" for c in coverages) + f" ({dt:.1f}s)",
    )


def test_criterion_10_kl_bounds():
    t0 = time.time()
    ok = True
    details = []
    beta = 0.5
    base = make_weierstrass_composite(0.5, beta)
    lw = lw_constant(beta)
    c8 = 48.0 * lw ** 2 * 4.0 ** -(2 * beta + 1) * 2.0 ** (2 * beta) * ((1 - 2.0 ** -beta) / 12.0) ** 2
    for n in (100, 1000, 10_000):
        p1 = make_perturbed(base, n, beta, "one")
        val = n * kl_divergence(p1, base, tol=1e-8)
        ok &= 0.0 <= val <= c8
        details.append(f"n*KL={val:.4f}")
    part2_bound = 2.0 / (3.0 * 32.0 ** 2) + 1.0 / 32.0
    tent = make_triangular_hypothesis(0.5)
    for n in (100, 1000, 10_000):
        q1 = make_perturbed(tent, n, 1.0, "one")
        q2 = make_perturbed(tent, n, 1.0, "two")
        val = n * kl_divergence(q2, q1, tol=1e-8)
        ok &= 0.0 <= val <= part2_bound
        details.append(f"tent n*KL={val:.6f}")
    dt = time.time() - t0
    _criterion(
        "10", ok and dt < 30.0,
        f"n*KL below c8({beta})={c8:.3f} and the tent pair below {part2_bound:.5f} "
        f"({'; '.join(details)}; {dt:.1f}s)",
    )
