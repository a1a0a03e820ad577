import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locband import selector
from locband.band import fit_band
from locband.calibration import DEFAULT_C2, PlanParams, derive_plan, optimal_bandwidth
from locband.densities import make_peak_triangular, make_uniform, sample
from locband.estimator import KdeTable, ball_offset, build_kde_table, split_sample
from locband.harness import local_exponent_oracle, theoretical_window
from locband.kernels import make_rectangular
from locband.selector import (
    _ball_maxima,
    _sliding_max,
    fit_profile,
    pair_ratio,
    select_at,
)


def open_ball_reach(N: int, j: int) -> int:
    """Largest mesh offset a with a/N < (7/8) 2^-j, in exact integers: the
    oracles' ball radius, not the selector's own."""
    return (7 * N - 1) // 2 ** (j + 3)


def admissible_set(t: float, table: KdeTable, plan) -> set[int]:
    """Brute-force oracle: every exponent j whose pairs m > m' >= j + 3 all
    pass on every mesh index of the open ball B(t, (7/8) 2^-j).  It shares
    the selector's ratio expression, so both resolve a tie ratio == c2 alike."""
    k = round(t / plan.delta_n)
    out = set()
    for j in range(plan.j_min, plan.j_max + 1):
        a = open_ball_reach(plan.mesh_count, j)
        lo, hi = k - a - table.idx_lo, k + a - table.idx_lo
        assert 0 <= lo and hi < table.values.shape[1], "oracle ball leaves the table"
        if all(
            np.all(pair_ratio(table, plan, m, mp)[lo:hi + 1] <= plan.c2)
            for mp in range(j + 3, plan.j_max + 1)
            for m in range(mp + 1, plan.j_max + 1)
        ):
            out.add(j)
    return out


def _off_table(k_lo, k_hi, plan):
    """The refusal of a run k_lo..k_hi whose selector balls leave the table."""
    margin = ball_offset(plan, plan.j_min)
    return rf"^table does not cover mesh indices {k_lo}\.\.{k_hi} plus the selector margin {margin}$"


@pytest.fixture(scope="module")
def peak_table(plan_module):
    data = sample(make_peak_triangular(), plan_module.n, seed=17)
    split = split_sample(data)
    return split, build_kde_table(split, plan_module)


@pytest.fixture(scope="module")
def rect_module():
    return make_rectangular()


@pytest.fixture(scope="module")
def plan_module(rect_module):
    return derive_plan(PlanParams(n=2 ** 12), rect_module)


class TestAdmissibleSet:
    def test_upward_closed_and_contains_jmax(self, peak_table, plan_module):
        _, table = peak_table
        for t in (0.0, 0.5, 1.0):
            k = round(t * plan_module.mesh_count)
            s = admissible_set(k * plan_module.delta_n, table, plan_module)
            assert plan_module.j_max in s
            assert all(j + 1 in s for j in s if j < plan_module.j_max)

    def test_small_grid_all_admissible(self, peak_table, plan_module):
        # with at most 3 exponents no pair m > m' > j+2 exists, and the
        # table holds no row
        _, table = peak_table
        small = replace(plan_module, j_max=plan_module.j_min + 2)
        small_table = replace(table, plan=small, values=table.values[:0])
        s = admissible_set(0.5, small_table, small)
        assert s == set(range(small.j_min, small.j_max + 1))
        k = round(0.5 * small.mesh_count)
        assert select_at(small_table, small, k, k).tolist() == [small.j_min]

    def test_huge_threshold_admits_everything(self, peak_table, plan_module):
        _, table = peak_table
        loose = replace(plan_module, c2=1e6)
        s = admissible_set(0.5, table, loose)
        assert s == set(range(loose.j_min, loose.j_max + 1))

    def test_off_mesh_rejected(self, peak_table, plan_module):
        # runs whose selector balls reach past either end of the table
        _, table = peak_table
        N = plan_module.mesh_count
        for k_lo, k_hi in ((-1, 0), (N, N + 1)):
            with pytest.raises(ValueError, match=_off_table(k_lo, k_hi, plan_module)):
                select_at(table, plan_module, k_lo, k_hi)

    def test_clustered_data_excludes_coarse(self, rect_module):
        plan = derive_plan(PlanParams(n=2 ** 12, c2=0.05), rect_module)
        rng = np.random.default_rng(4)
        n = plan.n
        half = rng.random(n)
        # second half: tight cluster at 0.5 plus far-away mass
        cluster = 0.5 + 2.0 ** -(plan.j_min + 4) * (rng.random(n // 4) - 0.5)
        rest = 10.0 + rng.random(n - n // 4)
        data = np.concatenate([half[: n // 2], cluster, rest])[: n // 2 * 2]
        split = split_sample(data)
        table = build_kde_table(split, plan)
        s = admissible_set(0.5, table, plan)
        assert plan.j_min not in s
        k = round(0.5 * plan.mesh_count)
        assert select_at(table, plan, k, k).tolist() == [min(s)]
        # the unscaled comparison |p_m - p_m'| <= c2 sqrt(log n~ / (n~ 2^-m))
        # agrees away from float ties
        for j in range(plan.j_min, plan.j_max + 1):
            ok = True
            amax = open_ball_reach(plan.mesh_count, j)
            for mp in range(j + 3, plan.j_max + 1):
                for m in range(mp + 1, plan.j_max + 1):
                    lo = k - amax - table.idx_lo
                    hi = k + amax - table.idx_lo
                    dev = np.abs(table.row(m)[lo:hi + 1] - table.row(mp)[lo:hi + 1]).max()
                    thr = plan.c2 * math.sqrt(plan.log_n_tilde / (plan.n_tilde * 2.0 ** -m))
                    ok &= dev <= thr
            assert (j in s) == ok


def _random_table(plan, seed, j_min, n_exp, mesh_count, tie):
    """Table over the mesh of [0,1] plus the selector margin, with values
    on a coarse lattice (so equal deviations recur) and, when `tie` is set,
    c2 equal to one of the pair ratios."""
    rng = np.random.default_rng(seed)
    plan = replace(plan, j_min=j_min, j_max=j_min + n_exp - 1, mesh_count=mesh_count,
                   delta_n=1.0 / mesh_count)
    margin = open_ball_reach(mesh_count, j_min)
    # draw rows j_min..j_max, then keep j_min + 3..j_max, the rows a table holds
    values = 0.1 * rng.integers(0, 5, size=(n_exp, mesh_count + 1 + 2 * margin))[3:]
    table = KdeTable(plan=plan, idx_lo=-margin, idx_hi=mesh_count + margin, values=values)
    if tie and n_exp >= 5:
        mp = int(rng.integers(j_min + 3, plan.j_max))
        m = int(rng.integers(mp + 1, plan.j_max + 1))
        c2 = float(pair_ratio(table, plan, m, mp)[rng.integers(0, values.shape[1])])
    else:
        c2 = float(rng.uniform(0.0, 2.0))
    plan = replace(plan, c2=c2)
    return replace(table, plan=plan), plan


class TestSelectionRoutine:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        j_min=st.integers(2, 4),
        n_exp=st.integers(1, 8),
        mesh_count=st.integers(4, 40),
        tie=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, plan_module, seed, j_min, n_exp, mesh_count, tie):
        table, plan = _random_table(plan_module, seed, j_min, n_exp, mesh_count, tie)
        N = plan.mesh_count
        oracle = []
        for k in range(N + 1):
            s = admissible_set(k * plan.delta_n, table, plan)
            assert s == set(range(min(s), plan.j_max + 1))  # upward closed
            oracle.append(min(s))
        assert select_at(table, plan, 0, N).tolist() == oracle

        # windowed tables: a random run, with the table cut to the run plus
        # the selector margin and a random extra reach on each side
        rng = np.random.default_rng(seed + 1)
        k_lo, k_hi = sorted(int(x) for x in rng.integers(0, N + 1, size=2))
        margin = -table.idx_lo
        lo = k_lo - margin - int(rng.integers(0, k_lo + 1))
        hi = k_hi + margin + int(rng.integers(0, N - k_hi + 1))
        window = replace(table, idx_lo=lo, idx_hi=hi,
                         values=table.values[:, lo - table.idx_lo:hi - table.idx_lo + 1])
        assert select_at(window, plan, k_lo, k_hi).tolist() == oracle[k_lo:k_hi + 1]
        assert select_at(window, plan, k_hi, k_hi).tolist() == [oracle[k_hi]]
        if lo == k_lo - margin:
            with pytest.raises(ValueError, match=_off_table(k_lo - 1, k_hi, plan)):
                select_at(window, plan, k_lo - 1, k_hi)


class TestSelectProfile:
    def test_matches_scalar_path(self, peak_table, plan_module):
        split, table = peak_table
        j_hat = fit_profile(split, plan_module)
        rng = np.random.default_rng(2)
        ks = rng.integers(0, plan_module.mesh_count + 1, size=50)
        for k in ks:
            assert j_hat[k] == select_at(table, plan_module, k, k)[0]
            assert j_hat[k] == min(admissible_set(k * plan_module.delta_n, table, plan_module))

    def test_bounds_and_h_loc(self, peak_table, plan_module):
        split, _ = peak_table
        band = fit_band(split, plan_module, q_n=1.0)
        assert band.j_hat.shape == (plan_module.mesh_count + 1,)
        assert band.j_hat.min() >= plan_module.j_min
        assert band.j_hat.max() <= plan_module.j_max
        assert band.h_loc.max() <= 2.0 ** (-plan_module.j_min - plan_module.u_n)
        assert band.h_loc.min() > 0.0

    def test_huge_threshold_selects_floor(self, peak_table, plan_module):
        _, table = peak_table
        loose = replace(plan_module, c2=1e6)
        assert np.all(select_at(table, loose, 0, loose.mesh_count) == loose.j_min)

    def test_monotone_threshold_response(self, peak_table, plan_module):
        _, table = peak_table
        N = plan_module.mesh_count
        tight = select_at(table, replace(plan_module, c2=0.4), 0, N)
        loose = select_at(table, replace(plan_module, c2=0.8), 0, N)
        assert np.all(loose <= tight)


class TestSlidingMax:
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_matches_brute_force(self, x, data):
        # values from a small set, mostly zeros, so ties and long zero runs recur
        w = data.draw(st.integers(1, len(x)), label="w")
        arr = np.array(x)
        got = _sliding_max(arr, w)
        assert got.tolist() == [max(x[i:i + w]) for i in range(len(x) - w + 1)]
        assert arr.tolist() == x  # the input is left unchanged

    def test_edge_windows(self):
        x = np.array([0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        assert _sliding_max(x, 1).tolist() == x.tolist()
        assert _sliding_max(x, x.size).tolist() == [3.0]
        assert _sliding_max(x, 3).tolist() == [3.0, 3.0, 0.0, 0.0, 1.0]

    def test_ball_maxima_keep_running_max(self, peak_table, plan_module, monkeypatch):
        # each window handed to the sliding maximum is a view of the running
        # maximum that the next exponents fold into
        _, table = peak_table
        windows = []

        def recording(x, w):
            windows.append((x, x.copy()))
            return _sliding_max(x, w)

        monkeypatch.setattr(selector, "_sliding_max", recording)
        k_hi = plan_module.mesh_count
        for j, _ in _ball_maxima(table, plan_module, 0, k_hi):
            window, before = windows[-1]
            assert np.array_equal(window, before)
            a = open_ball_reach(plan_module.mesh_count, j)
            ratios = [
                pair_ratio(table, plan_module, m, mp)[-a - table.idx_lo:k_hi + a + 1 - table.idx_lo]
                for mp in range(j + 3, plan_module.j_max + 1)
                for m in range(mp + 1, plan_module.j_max + 1)
            ]
            assert np.array_equal(before, np.maximum.reduce(ratios))
        assert len(windows) == plan_module.j_max - 3 - plan_module.j_min


@st.composite
def _fits(draw):
    """(split, plan, k_lo, k_hi): n from 4 to 2^14 (the zero-row plans at
    n = 4 and 256 among them), data from the peak, mostly outside [0,1] or
    constant, and a run of one point, a probe pair, the whole mesh or any."""
    # pairs exist from n = 2^11 on
    n = draw(st.one_of(st.sampled_from([4, 256]), st.integers(4, 2 ** 11), st.integers(2 ** 11, 2 ** 14)),
             label="n")
    c2 = draw(st.sampled_from([DEFAULT_C2, 0.3, 3.0]), label="c2")
    plan = derive_plan(PlanParams(n=n, c2=c2), make_rectangular())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    data = draw(st.sampled_from([
        lambda: sample(make_peak_triangular(), n, int(rng.integers(0, 2 ** 32))),
        lambda: np.where(rng.random(n) < 0.9, 5.0 + rng.random(n), rng.random(n)),
        lambda: np.full(n, float(rng.choice([0.0, 0.5, 1.0]))),
    ]), label="data")()
    N = plan.mesh_count
    k = draw(st.integers(1, N), label="k")
    any_run = tuple(sorted(rng.integers(0, N + 1, size=2)))
    run = draw(st.sampled_from([(k, k), (k - 1, k), (0, N), any_run]), label="run")
    return split_sample(data), plan, int(run[0]), int(run[1])


class TestGrowingTable:
    @given(_fits(), st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_matches_whole_margin_fold(self, case, j_reach):
        # the whole-margin table and its fold are the oracle of the growing
        # ones: the same exponents, and a table grown to the margin holds
        # every bit of the whole build
        split, plan, k_lo, k_hi = case
        whole = build_kde_table(split, plan, k_lo, k_hi)
        assert fit_profile(split, plan, k_lo, k_hi).tolist() == select_at(whole, plan, k_lo, k_hi).tolist()
        grown = build_kde_table(split, plan, k_lo, k_hi, j_reach)
        for j in range(max(j_reach, plan.j_min), plan.j_min - 1, -1):
            a = open_ball_reach(plan.mesh_count, j)
            grown = grown.widened(k_lo - a, k_hi + a)
        assert (grown.idx_lo, grown.idx_hi) == (whole.idx_lo, whole.idx_hi)
        assert grown.values.tobytes() == whole.values.tobytes()

    @given(_fits())
    @settings(max_examples=100, deadline=None)
    def test_windows_fold_every_pair(self, case):
        # each window the fold of a growing table hands to the sliding maximum,
        # edge columns added by a widening included, is the maximum over every
        # pair m > m' >= j + 3 of the whole table's ratios
        split, plan, k_lo, k_hi = case
        whole = build_kde_table(split, plan, k_lo, k_hi)
        windows = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(selector, "_sliding_max", lambda x, w: windows.append(x.copy()) or _sliding_max(x, w))
            list(_ball_maxima(build_kde_table(split, plan, k_lo, k_hi, plan.j_max - 4), plan, k_lo, k_hi))
        assert len(windows) == max(plan.j_max - 3 - plan.j_min, 0)
        for j, window in zip(range(plan.j_max - 4, plan.j_min - 1, -1), windows):
            a = open_ball_reach(plan.mesh_count, j)
            cols = slice(k_lo - a - whole.idx_lo, k_hi + a + 1 - whole.idx_lo)
            ratios = [pair_ratio(whole, plan, m, mp, cols)
                      for mp in range(j + 3, plan.j_max) for m in range(mp + 1, plan.j_max + 1)]
            assert window.tobytes() == np.maximum.reduce(ratios).tobytes()

    def test_kink_probe_counts_only_its_balls(self, plan_module, monkeypatch):
        # the peak's kink probe is decided above j_min, so its table never
        # reaches the whole margin; a probe near 0 reaches it
        split = split_sample(sample(make_peak_triangular(), plan_module.n, seed=3))
        widened, spans = KdeTable.widened, []
        monkeypatch.setattr(KdeTable, "widened", lambda t, lo, hi: spans.append(hi - lo) or widened(t, lo, hi))
        k = round(0.5 * plan_module.mesh_count)
        margin = open_ball_reach(plan_module.mesh_count, plan_module.j_min)
        kink = fit_profile(split, plan_module, k - 1, k)
        assert max(spans) < 1 + 2 * margin and kink.min() > plan_module.j_min + 1
        spans.clear()
        fit_profile(split, plan_module, 1, 2)
        assert max(spans) == 1 + 2 * margin

    def test_cannot_widen_past_capacity(self, peak_table, plan_module):
        # a table built without a sample spans its capacity, as does a
        # whole-margin build; neither widens, nor does any table narrow
        _, table = peak_table
        fixed = KdeTable(plan=plan_module, idx_lo=table.idx_lo, idx_hi=table.idx_hi, values=table.values)
        assert fixed.capacity == (table.idx_lo, table.idx_hi) == table.capacity
        assert fixed.widened(table.idx_lo, table.idx_hi) is fixed
        for t in (fixed, table):
            for lo, hi in ((t.idx_lo - 1, t.idx_hi), (t.idx_lo, t.idx_hi + 1), (t.idx_lo + 1, t.idx_hi)):
                with pytest.raises(ValueError, match="cannot widen"):
                    t.widened(lo, hi)


@st.composite
def _runs(draw):
    """(split, plan, cuts): n from 4 to 2^13, data mostly outside [0,1], with
    heavy ties, or from the peak, and the mesh 0..N cut into contiguous runs
    lo..hi - 1 for consecutive cuts lo < hi, runs of one point among them."""
    n = draw(st.one_of(st.sampled_from([4, 256]), st.integers(4, 2 ** 13)), label="n")
    plan = derive_plan(PlanParams(n=n), make_rectangular())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    data = draw(st.sampled_from([
        lambda: sample(make_peak_triangular(), n, int(rng.integers(0, 2 ** 32))),
        lambda: np.where(rng.random(n) < 0.9, rng.normal(3.0, 2.0, n), rng.random(n)),
        lambda: rng.choice(np.array([0.1, 0.25, 0.5, 0.51, 0.9]), n),
        lambda: np.round(rng.random(n), 2),
    ]), label="data")()
    N = plan.mesh_count
    k = draw(st.integers(0, N), label="k")
    inner = draw(st.lists(st.integers(1, N), max_size=6), label="cuts")
    return split_sample(data), plan, sorted({0, k, k + 1, N + 1, *inner})


class TestRunWiseFit:
    @given(_runs())
    @settings(max_examples=60, deadline=None)
    def test_runs_join_into_the_whole_profile(self, case):
        # a point's exponent depends only on its ball, never on its run
        split, plan, cuts = case
        runs = [fit_profile(split, plan, lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(runs).tolist() == fit_profile(split, plan).tolist()

    @pytest.mark.parametrize("count", [2, 3])
    def test_pooled_fit_is_the_serial_fit(self, plan_16k, cpus, count):
        split = split_sample(sample(make_peak_triangular(), plan_16k.n, seed=5))
        cpus(count)
        pooled = fit_profile(split, plan_16k)
        cpus(1)
        serial = fit_profile(split, plan_16k)
        assert pooled.dtype == serial.dtype and pooled.tolist() == serial.tolist()

    def test_one_table_unless_pooled(self, plan_1k, cpus, monkeypatch):
        # a fit on one CPU, or in a daemonic process, stays one run and so
        # builds one table; a pooled fit builds one per run, on the workers
        ctx = multiprocessing.get_context("fork")
        tables = ctx.Value("i", 0)
        build = selector.build_kde_table

        def counted(*args):
            with tables.get_lock():
                tables.value += 1
            return build(*args)

        monkeypatch.setattr(selector, "build_kde_table", counted)
        split = split_sample(sample(make_peak_triangular(), plan_1k.n, seed=6))

        def tables_built(fit):
            tables.value = 0
            fit()
            return tables.value

        def in_daemon():
            proc = ctx.Process(target=lambda: fit_profile(split, plan_1k), daemon=True)
            proc.start()
            proc.join(60)
            assert proc.exitcode == 0

        cpus(1)
        assert tables_built(lambda: fit_profile(split, plan_1k)) == 1
        cpus(2)
        assert tables_built(lambda: fit_profile(split, plan_1k)) == 2
        assert tables_built(in_daemon) == 1


class TestTheoreticalWindow:
    def test_infinite_exponent_case(self, plan_1k):
        u = make_uniform(-1.0, 2.0)  # no kinks inside [0,1]
        lo, hi = theoretical_window(u, plan_1k, 0.5)
        assert hi == plan_1k.j_min + 2  # j_bar = j_min + 1
        assert lo == pytest.approx(plan_1k.j_min + 1 - plan_1k.m_n)

    def test_peak_kink_case(self, plan_1k):
        lo, hi = theoretical_window(make_peak_triangular(), plan_1k, 0.5)
        # h_{1,n} ~ 0.023646 -> floor(log2(1/h)) + 1 = 6
        assert hi == 7
        assert lo == pytest.approx(6 - plan_1k.m_n)

    def test_half_to_double_sandwich(self, plan_1k):
        peak = make_peak_triangular()
        for t in (0.1, 0.45, 0.5, 0.8, 0.95):
            beta = local_exponent_oracle(peak, t, plan_1k)
            h_bar = optimal_bandwidth(plan_1k, beta)
            _, hi = theoretical_window(peak, plan_1k, t)
            j_bar = hi - 1
            assert 0.5 * h_bar <= 2.0 ** -j_bar <= h_bar

    def test_neighbor_ratio_sanity(self, plan_16k):
        # bandwidth comparability for close points, at the uncapped local
        # exponent: the optimal bandwidth is then d clipped to
        # [h_{1,n}, 2^-j_min] for a piecewise-affine density
        peak = make_peak_triangular()
        kinks = np.asarray(peak.kinks)
        h1 = optimal_bandwidth(plan_16k, 1.0)
        h_inf = optimal_bandwidth(plan_16k, math.inf)

        def hb_true(x):
            d = float(np.abs(kinks - x).min())
            return min(max(d, h1), h_inf)

        h_star8 = optimal_bandwidth(plan_16k, plan_16k.beta_star_low) / 8.0
        rng = np.random.default_rng(9)
        for _ in range(400):
            s = float(rng.uniform(0.0, 1.0 - h_star8))
            t = s + h_star8 * float(rng.uniform(0.1, 1.0))
            z = float(rng.uniform(s, t))
            m = min(hb_true(s), hb_true(t))
            assert hb_true(z) / 3.0 <= m <= 3.0 * hb_true(z)

    def test_neighbor_ratio_capped_oracle(self, plan_16k):
        # the order-capped oracle jumps at the finite/infinite transition,
        # so comparability is asserted for pairs on one side of it
        peak = make_peak_triangular()
        h_star8 = optimal_bandwidth(plan_16k, plan_16k.beta_star_low) / 8.0
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 200:
            s = float(rng.uniform(0.0, 1.0 - h_star8))
            t = s + h_star8 * float(rng.uniform(0.1, 1.0))
            z = float(rng.uniform(s, t))
            betas = [local_exponent_oracle(peak, x, plan_16k) for x in (s, t, z)]
            if len({b == math.inf for b in betas}) > 1:
                continue
            hs = [optimal_bandwidth(plan_16k, b) for b in betas]
            m = min(hs[0], hs[1])
            assert hs[2] / 3.0 <= m <= 3.0 * hs[2]
            checked += 1
