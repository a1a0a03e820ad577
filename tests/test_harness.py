import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locband
from locband import densities as zoo
from locband import harness as H
from locband.band import cell_of, fit_band
from locband.calibration import PlanParams, band_halfwidth_quantile, derive_plan, normalizers
from locband.cli import main
from locband.densities import make_peak_triangular, make_triangular_hypothesis, make_uniform, sample
from locband.estimator import split_sample
from locband.kernels import Kernel
from locband.selector import fit_profile


def broken_order_kernel():
    """Asymmetric, so its first moment is nonzero (order 0): it does not
    reproduce affine functions, and verify must catch that."""
    return Kernel("broken", ((-1.0, 0.0, 0.75), (0.0, 1.0, 0.25)))


class TestReports:
    def test_replication_seeds_deterministic_and_distinct(self):
        a = [H.replication_seed(7, r) for r in range(10)]
        b = [H.replication_seed(7, r) for r in range(10)]
        assert a == b
        assert len(set(a)) == 10
        assert H.replication_seed(8, 0) != a[0]

    def test_report_bytes_deterministic(self, plan_1k):
        peak = make_peak_triangular()
        r1 = H.run_coverage(peak, plan_1k, alpha=0.2, reps=3, seed=5)
        r2 = H.run_coverage(peak, plan_1k, alpha=0.2, reps=3, seed=5)
        assert r1.to_csv_text() == r2.to_csv_text()
        assert r1.meta_text() == r2.meta_text()

    def test_summary_recomputable_from_records(self, plan_1k):
        peak = make_peak_triangular()
        rep = H.run_coverage(peak, plan_1k, alpha=0.2, reps=4, seed=5)
        assert rep.summary["coverage"] == sum(r["covered"] for r in rep.records) / 4

    def test_write_csv_and_meta(self, tmp_path):
        out = tmp_path / "cov.csv"
        rc = main(["simulate", "coverage", "--density", "peak", "--n", "2048", "--alpha", "0.2",
                   "--reps", "2", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert out.exists() and (tmp_path / "cov.csv.meta").exists()
        header = out.read_text().splitlines()[0]
        assert header.split(",")[0] == "rep"


class TestCoverage:
    def test_nested_alpha(self, plan_1k):
        peak = make_peak_triangular()
        strict = H.run_coverage(peak, plan_1k, alpha=0.01, reps=5, seed=3)
        loose = H.run_coverage(peak, plan_1k, alpha=0.50, reps=5, seed=3)
        assert strict.summary["coverage"] >= loose.summary["coverage"]

    def test_width_law_on_records(self, plan_1k):
        rep = H.run_coverage(make_peak_triangular(), plan_1k, alpha=0.1, reps=2, seed=4)
        for rec in rep.records:
            assert rec["width_min"] > 0.0
            assert rec["width_min"] <= rec["width_mean"] <= rec["width_max"]

    def test_truth_range_computed_once(self, plan_1k, monkeypatch):
        peak = make_peak_triangular()
        calls = []
        scan = type(peak).cells_extrema

        def counted(self, edges, *args, **kwargs):
            calls.append(edges.size)
            return scan(self, edges, *args, **kwargs)

        monkeypatch.setattr(type(peak), "cells_extrema", counted)
        H.run_coverage(peak, plan_1k, alpha=0.1, reps=3, seed=4)
        assert calls == [plan_1k.mesh_count + 1]


class TestWindowCheck:
    def test_saturated_selector_limit(self, plan_1k):
        peak = make_peak_triangular()
        plan = replace(plan_1k, c2=1e6)
        rep = H.run_window_check(peak, plan, reps=2, seed=9)
        N = plan.mesh_count
        inside = 0
        for k in range(N + 1):
            lo, hi = H.theoretical_window(peak, plan, k * plan.delta_n)
            inside += lo <= plan.j_min <= hi
        assert rep.summary["hit_fraction"] == pytest.approx(inside / (N + 1))


class TestGumbelCalibration:
    def test_variance_identity(self, rect):
        norm_l2_sq = math.fsum(v * v * (hi - lo) for lo, hi, v in rect.pieces)
        c15 = rect.tv / math.sqrt(norm_l2_sq)
        assert c15 ** 2 * norm_l2_sq / 2.0 == pytest.approx(rect.tv ** 2 / 2.0, abs=1e-12)

    def test_location_identity(self, rect):
        # shifting the centering by c shifts every statistic by a_n * c
        m, reps, seed = 64, 20, 11
        rep = H.run_gumbel_calibration(rect, m=m, reps=reps, seed=seed)
        a_n, b_n = normalizers(1.0 / m, rect.tv)
        c = 0.37
        sigma = math.sqrt(rect.tv ** 2 / 2.0)
        for r in range(reps):
            rng = H.replication_rng(seed, r)
            mx = sigma * float(rng.standard_normal(m).max())
            shifted = a_n * (mx - (b_n / 3.0 + c))
            assert shifted == pytest.approx(rep.records[r]["statistic"] - a_n * c, abs=1e-12)

    def test_m_guard(self, rect):
        with pytest.raises(ValueError):
            H.run_gumbel_calibration(rect, m=8, reps=10, seed=0)

    def test_ks_statistic_sane(self):
        rng = np.random.default_rng(0)
        u = rng.random(20_000)
        ks, _, _ = H.ks_statistics(u, lambda x: np.clip(x, 0.0, 1.0))
        assert ks < 0.02

    def test_finite_m_law_dominates_gumbel(self, rect):
        # the normalized finite-m maximum is stochastically below the limit:
        # the empirical cdf should never fall far below the Gumbel cdf
        rep = H.run_gumbel_calibration(rect, m=4096, reps=2000, seed=21)
        assert rep.summary["ks_ecdf_below"] <= 0.03
        assert rep.summary["ks"] >= rep.summary["ks_ecdf_above"]


class TestTildeWSecondMoment:
    def test_diagonal_zero(self):
        assert H.tilde_w_second_moment(0.25, 0.25, 5, 5, 0.05, 0.8) == pytest.approx(0.0, abs=1e-14)

    def test_z_zero(self):
        assert H.tilde_w_second_moment(0.25, 0.125, 40, 7, 0.01, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_swap_invariance(self):
        a = H.tilde_w_second_moment(0.25, 0.125, 50, 90, 0.01, 0.6)
        b = H.tilde_w_second_moment(0.125, 0.25, 90, 50, 0.01, 0.6)
        assert a == pytest.approx(b, abs=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="^negative time argument for the Brownian motion$"):
            H.tilde_w_second_moment(0.5, 0.5, 0, 10, 0.001, 0.9)

    @given(
        st.integers(3, 9), st.integers(3, 9),
        st.integers(1, 1000), st.integers(1, 1000),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_four(self, jk, jl, k, l, z):
        h_k, h_l, d = 2.0 ** -jk, 2.0 ** -jl, 1e-3
        if k * d - z * h_k < 0 or l * d - z * h_l < 0:
            return
        assert H.tilde_w_second_moment(h_k, h_l, k, l, d, z) <= 4.0 + 1e-12

    def test_monte_carlo_cross_check(self):
        for i, cfg in enumerate([
            (0.25, 0.125, 300, 500, 1e-3, 0.6),
            (0.0625, 0.0625, 100, 104, 1e-3, 0.9),
            (0.125, 0.03125, 800, 801, 1e-3, 0.3),
        ]):
            closed = H.tilde_w_second_moment(*cfg)
            mc = H.tilde_w_second_moment_mc(*cfg, reps=200_000, seed=100 + i)
            assert mc == pytest.approx(closed, abs=0.05)


class TestVerifySuite:
    def test_single_suites_pass(self, rect):
        for suite in ("a2", "a3", "a4"):
            rep = H.verify_inequalities(kernel=rect, suites=[suite])
            assert rep.summary["all_passed"], rep.records
            assert all(r["item"] == suite for r in rep.records)

    def test_a4_infinite_estimates_are_nondecreasing(self, rect):
        # peak and the tent have a kink in their windows, so their estimates
        # at beta = 1.5 and 2 are both infinite: a step of 0, not nan
        rows = H.verify_inequalities(kernel=rect, suites=["a4"]).records
        margins = {row["check"].rsplit(" ", 1)[1]: row["margin"] for row in rows}
        assert all(row["passed"] for row in rows)
        assert margins["peak"] == margins["tent:0.5"] == 0.0

    def test_unknown_suite(self, rect):
        with pytest.raises(ValueError):
            H.verify_inequalities(kernel=rect, suites=["a9"])

    def test_broken_kernel_detected(self):
        rep = H.verify_inequalities(kernel=broken_order_kernel(), suites=["bias_upper"])
        assert not rep.summary["all_passed"]
        assert "bias_upper" in rep.summary["failed_items"]


class TestAdaptivityHarness:
    def test_smoke_summary(self, plan_1k):
        peak = make_peak_triangular()
        rep = H.run_adaptivity(peak, plan_1k, alpha=0.1, reps=3, seed=13, probes=(0.5, 0.9))
        n = plan_1k.n
        assert f"ratio_n{n}" in rep.summary
        assert rep.summary[f"ratio_n{n}"] > 0.0
        assert len(rep.records) == 3
        for rec in rep.records:
            assert rec["width_0"] > 0.0 and rec["width_1"] > 0.0

    def test_parametric_rate_at_flat_probe(self, rect):
        # on a constant-density stretch the width obeys the n^{-1/2} rate up
        # to the explicit log factors: after dividing them out the quantity
        # is pinned to 2 * 2^{(j_eff)/2} with j_eff staying near j_min
        uniform = make_uniform(-1.0, 2.0)
        for n in (2 ** 12, 2 ** 14):
            plan = derive_plan(PlanParams(n=n), rect)
            rep = H.run_adaptivity(uniform, plan, alpha=0.1, reps=5, seed=29, probes=(0.3, 0.7))
            q_n = band_halfwidth_quantile(plan, 0.1)
            logf = math.log(plan.n_tilde) ** (plan.c1 * math.log(2.0) / 2.0)
            for rec in rep.records:
                norm = rec["width_1"] * math.sqrt(plan.n_tilde) / (q_n * logf)
                assert norm <= 2.0 * 2.0 ** ((plan.j_min + 3) / 2.0)

    @pytest.mark.parametrize("n", [512, 4096])
    def test_widths_are_the_bands(self, rect, n):
        # each probe's exponents come from a table around its cell alone, yet
        # equal the full profile's, and its width is the band's, bit for bit
        peak, probes, seed = make_peak_triangular(), (0.5, 0.9), 19
        plan = derive_plan(PlanParams(n=n), rect)
        q_n = band_halfwidth_quantile(plan, 0.1)
        rep = H.run_adaptivity(peak, plan, alpha=0.1, reps=3, seed=seed, probes=probes)
        for rec in rep.records:
            rng = H.replication_rng(seed, rec["rep"])
            split = split_sample(sample(peak, plan.n, int(rng.integers(0, 2 ** 63 - 1))))
            full, band = fit_profile(split, plan), fit_band(split, plan, q_n)
            for i, t in enumerate(probes):
                k = cell_of(plan, t)
                assert np.array_equal(fit_profile(split, plan, k - 1, k), full[k - 1:k + 1])
                assert rec[f"j_eff_{i}"] == full[k - 1:k + 1].max()
                assert rec[f"width_{i}"] == 2.0 * band.halfwidths[k - 1]


def _corrupt_peak():
    # peak reaches 4, so every replication's first batch of proposals raises
    return replace(make_peak_triangular(), sup_bound=1.0)


_CORRUPT_PEAK = r"^density peak exceeds its sup bound: 1\.9998435323698596 > 1\.0$"


_EXPERIMENTS = {
    "coverage": lambda plan, reps: H.run_coverage(make_peak_triangular(), plan, 0.1, reps, 21),
    "adaptivity": lambda plan, reps: H.run_adaptivity(
        make_peak_triangular(), plan, 0.1, reps, 23, probes=(0.5, 0.9)),
    "window": lambda plan, reps: H.run_window_check(make_triangular_hypothesis(0.5), plan, reps, 22),
}


class TestReplicationPool:
    @pytest.mark.parametrize("reps", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", sorted(_EXPERIMENTS))
    def test_pooled_report_is_the_serial_bytes(self, kind, reps, plan_1k, cpus):
        cpus(2)
        pooled = _EXPERIMENTS[kind](plan_1k, reps)
        cpus(1)
        serial = _EXPERIMENTS[kind](plan_1k, reps)
        assert pooled.to_csv_text() == serial.to_csv_text()
        assert pooled.meta_text() == serial.meta_text()
        assert multiprocessing.active_children() == []

    def test_worker_error_is_the_serial_error(self, plan_1k, cpus):
        cpus(2)
        with pytest.raises(ValueError, match=_CORRUPT_PEAK) as pooled:
            H.run_coverage(_corrupt_peak(), plan_1k, 0.1, 3, 21)
        cpus(1)
        with pytest.raises(ValueError, match=_CORRUPT_PEAK) as serial:
            H.run_coverage(_corrupt_peak(), plan_1k, 0.1, 3, 21)
        assert type(pooled.value) is type(serial.value)
        assert str(pooled.value) == str(serial.value)
        assert multiprocessing.active_children() == []

    def test_worker_error_through_the_cli(self, monkeypatch, capsys, cpus):
        monkeypatch.setattr(zoo, "density_from_name", lambda name: _corrupt_peak())
        argv = ["simulate", "coverage", "--density", "peak", "--n", "2048", "--reps", "3", "--seed", "21"]
        cpus(2)
        pooled = main(argv), capsys.readouterr().err
        cpus(1)
        serial = main(argv), capsys.readouterr().err
        assert pooled == serial
        assert pooled[0] == 2 and "exceeds its sup bound" in pooled[1]
        assert multiprocessing.active_children() == []

    def test_daemonic_caller_runs_serially(self, plan_1k, cpus):
        # a daemonic process may not start a pool; the run must not fail there
        cpus(2)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            try:
                send.send(H.run_coverage(make_peak_triangular(), plan_1k, 0.1, 3, 21).to_csv_text())
            except BaseException as exc:
                send.send(repr(exc))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        assert recv.poll(60)
        got = recv.recv()
        proc.join(60)
        assert not proc.is_alive()
        cpus(1)
        assert got == H.run_coverage(make_peak_triangular(), plan_1k, 0.1, 3, 21).to_csv_text()


class TestCalibrateC2:
    def test_reproduces_default_c2(self):
        # the rule's constants: n = 2^14, 50 replications, seed 20240601
        from locband.calibration import DEFAULT_C2

        c2, means = H.calibrate_c2()
        assert c2 == DEFAULT_C2 == 0.65
        assert means[c2] >= 0.95
        # admissibility fractions are nondecreasing in the threshold
        vals = [means[k] for k in sorted(means)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals[:-1], vals[1:]))

    def test_script_runs(self):
        # the script that produced DEFAULT_C2 reproduces it
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, str(root / "scripts" / "calibrate_c2.py")],
            env={**os.environ, "PYTHONPATH": str(Path(locband.__file__).resolve().parent.parent)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.endswith("\ncalibrated c2 = 0.65\n")


def _calibrate_c2_at_target(target):
    with mock.patch.object(H, "_C2_TARGET", target):
        H.calibrate_c2()


@pytest.mark.parametrize("call, error, message", [
    (lambda rect, plan: H.run_adaptivity(make_peak_triangular(), plan, 0.1, 1, 1, probes=(0.5,)), ValueError,
     "need at least a kink probe and a smooth probe"),
    (lambda rect, plan: H.tilde_w_second_moment(0.1, 0.1, 1, 2, 0.01, 1.5), ValueError,
     "z must lie in [0,1], got 1.5"),
    (lambda rect, plan: H.tilde_w_second_moment(0.0, 0.1, 1, 2, 0.01, 0.5), ValueError,
     "bandwidths and mesh width must be positive"),
    (lambda rect, plan: H.tilde_w_second_moment_mc(0.1, 0.1, 1, 2, 0.01, 0.5), ValueError,
     "negative time argument for the Brownian motion"),
    # no fraction of mesh points exceeds 1
    (lambda rect, plan: _calibrate_c2_at_target(1.5), RuntimeError,
     "no threshold below 3.0 reached target fraction 1.5"),
])
def test_input_checks(call, error, message, rect, plan_1k):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(rect, plan_1k)
