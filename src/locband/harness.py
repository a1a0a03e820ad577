"""Seeded Monte Carlo experiments and the numeric verification suite.

Replication r of an experiment with master seed s draws from a generator
keyed by SeedSequence(entropy=s, spawn_key=(r,)), so records are
reproducible from (seed, r) alone and reordering replications cannot change
any summary.  That is what lets the coverage, adaptivity and window
experiments run their replications through forked.fork_map, on one forked
worker per usable CPU once a run draws 2^16 sample points in all: the
records come back in replication order and are the serial run's, byte for
byte.  A fit inside such a worker stays serial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import densities as zoo
from .band import cell_bandwidths, cell_edges, cell_of, covers_truth, fit_band, halfwidths
from .calibration import (
    MAX_ARRAY_LEN,
    CalibrationPlan,
    PlanParams,
    band_halfwidth_quantile,
    derive_plan,
    normalizers,
    optimal_bandwidth,
)
from .densities import AnalyticDensity, sample
from .estimator import build_kde_table, split_sample
from .forked import fork_map
from .kernels import Kernel, make_rectangular, sup_abs_bias
from .selector import _ball_maxima, fit_profile


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


@dataclass
class ExperimentReport:
    name: str
    params: dict
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        if not self.records:
            return "\n"
        cols = list(self.records[0].keys())
        lines = [",".join(cols)]
        for rec in self.records:
            lines.append(",".join(_fmt(rec[c]) for c in cols))
        return "\n".join(lines) + "\n"

    def meta_text(self) -> str:
        lines = [f"experiment={self.name}"]
        for k, v in self.params.items():
            lines.append(f"{k}={_fmt(v)}")
        for k, v in self.summary.items():
            lines.append(f"summary.{k}={_fmt(v)}")
        return "\n".join(lines) + "\n"


def replication_seed(master_seed: int, rep: int) -> int:
    """64-bit per-replication seed from the splittable counter scheme."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(ss.generate_state(1, np.uint64)[0])


def replication_rng(master_seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,)))
    )


def gamma_tilde(plan: CalibrationPlan) -> float:
    """Adaptivity log-exponent (c1 log 2 - 1)/2 implied by the plan's c1."""
    return 0.5 * (plan.c1 * math.log(2.0) - 1.0)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def run_coverage(
    density: AnalyticDensity,
    plan: CalibrationPlan,
    alpha: float,
    reps: int,
    seed: int,
) -> ExperimentReport:
    """Simultaneous-coverage experiment: sample, split, select, band, check."""
    report = ExperimentReport(name="coverage", params={})
    q_n = band_halfwidth_quantile(plan, alpha)  # refuses a bad alpha before the truth scan
    # the density's range per cell depends only on the density and the mesh
    truth = density.cells_extrema(cell_edges(plan))

    def one(r):
        rseed = replication_seed(seed, r)
        band = fit_band(split_sample(sample(density, plan.n, rseed)), plan, q_n)
        covered = covers_truth(band, density, truth)
        widths = 2.0 * band.halfwidths
        return {
            "rep": r,
            "rep_seed": rseed,
            "covered": "undecided" if covered is None else covered,
            "width_min": float(widths.min()),
            "width_mean": float(widths.mean()),
            "width_max": float(widths.max()),
            "j_hat_min": int(band.j_hat.min()),
            "j_hat_max": int(band.j_hat.max()),
        }

    report.records.extend(fork_map(one, range(reps), reps * plan.n))
    covered = [rec["covered"] for rec in report.records]
    report.summary = {
        "coverage": covered.count(True) / reps,
        "width_mean": float(np.mean([rec["width_mean"] for rec in report.records])),
    }
    if "undecided" in covered:
        report.summary["undecided"] = covered.count("undecided")
    return report


# ---------------------------------------------------------------------------
# adaptivity
# ---------------------------------------------------------------------------

def _probe_cell_exponents(density, plan, rng, probes):
    """Selected exponents at the two mesh points flanking each probe's cell,
    each pair from a table around its cell alone (a width query never
    consults the rest of the mesh, so it is not estimated)."""
    split = split_sample(sample(density, plan.n, int(rng.integers(0, 2 ** 63 - 1))))
    return [fit_profile(split, plan, cell_of(plan, t) - 1, cell_of(plan, t)) for t in probes]


def run_adaptivity(
    density: AnalyticDensity,
    plan: CalibrationPlan,
    alpha: float,
    reps: int,
    seed: int,
    probes: Sequence[float],
) -> ExperimentReport:
    """Width-versus-local-regularity experiment at the probe points.

    Per replication and probe the report records the band width, the width
    normalized by the local rate (log n~/n~)^{beta/(2 beta+1)} with beta
    from the local-exponent oracle, and the ratio of the realized local
    bandwidth to the oracle-optimal one.  The summary tracks the fraction
    of replications with normalized width below the bare threshold
    (log n~)^gamma_tilde and below the calibrated width bound
    2 sqrt6 2^{j_min/2} q_n(alpha) (log n~)^gamma_tilde (the exact algebraic
    form of the adaptivity certificate; see tests), plus the smooth/kink
    width ratio.  Each summary key ends in _n<n>, so that the summaries of
    runs at different sample sizes merge without a clash.
    """
    if len(probes) < 2:
        raise ValueError("need at least a kink probe and a smooth probe")
    report = ExperimentReport(
        name="adaptivity",
        params={"probes": ";".join(f"{t:g}" for t in probes)},
    )
    q_n = band_halfwidth_quantile(plan, alpha)
    gt = gamma_tilde(plan)
    bare = plan.log_n_tilde ** gt
    bound = 2.0 * math.sqrt(6.0) * 2.0 ** (plan.j_min / 2.0) * q_n * bare
    rate = plan.log_n_tilde / plan.n_tilde
    betas = [local_exponent_oracle(density, t, plan) for t in probes]
    hbars = [optimal_bandwidth(plan, b) for b in betas]

    def one(r):
        rng = replication_rng(seed, r)
        rec = {"n": plan.n, "rep": r}
        for i, j_pair in enumerate(_probe_cell_exponents(density, plan, rng, probes)):
            h_loc = cell_bandwidths(plan, j_pair)[0]
            width = 2.0 * halfwidths(plan, q_n, h_loc)
            expo = 0.5 if betas[i] == math.inf else betas[i] / (2.0 * betas[i] + 1.0)
            rec[f"j_eff_{i}"] = int(j_pair.max())
            rec[f"width_{i}"] = width
            rec[f"beta_{i}"] = betas[i]
            rec[f"norm_width_{i}"] = width * rate ** -expo
            rec[f"window_ratio_{i}"] = hbars[i] / h_loc * 2.0 ** -plan.u_n
        return rec

    report.records.extend(fork_map(one, range(reps), reps * plan.n))
    recs = report.records
    npr = len(probes)
    report.summary[f"bare_threshold_n{plan.n}"] = bare
    report.summary[f"width_bound_n{plan.n}"] = bound
    report.summary[f"frac_bare_n{plan.n}"] = float(np.mean([
        all(rec[f"norm_width_{i}"] <= bare for i in range(npr)) for rec in recs
    ]))
    report.summary[f"frac_bound_n{plan.n}"] = float(np.mean([
        all(rec[f"norm_width_{i}"] <= bound for i in range(npr)) for rec in recs
    ]))
    smooth = int(np.argmax(betas))
    kink = int(np.argmin(betas))
    report.summary[f"ratio_n{plan.n}"] = float(np.mean([
        rec[f"width_{smooth}"] / rec[f"width_{kink}"] for rec in recs
    ]))
    for i in range(npr):
        report.summary[f"mean_norm_width_{i}_n{plan.n}"] = float(
            np.mean([rec[f"norm_width_{i}"] for rec in recs])
        )
    return report


# ---------------------------------------------------------------------------
# local-exponent oracle and bandwidth window
# ---------------------------------------------------------------------------

def local_exponent_oracle(density: AnalyticDensity, t: float, plan: CalibrationPlan) -> float:
    """Sample-size-dependent local smoothness exponent at t.

    For piecewise-polynomial members this is geometric: with d the distance
    from t to the nearest kink, the exponent is +inf once d reaches the
    coarsest bandwidth 2^-j_min, 1 when the kink is closer than the
    Lipschitz-optimal bandwidth, and otherwise the unique beta whose
    optimal bandwidth equals d, capped at the kernel-order ceiling.
    Unperturbed series members are uniformly rough: their construction
    exponent is returned directly.
    """
    if density.homogeneous_exponent is not None:
        return density.homogeneous_exponent
    if density.is_rough:
        raise ValueError(f"no closed-form local exponent for perturbed rough density {density.name}")
    d = min(abs(k - t) for k in density.kinks)
    h_inf = optimal_bandwidth(plan, math.inf)
    if d >= h_inf:
        return math.inf
    if d <= optimal_bandwidth(plan, 1.0):
        return 1.0
    # solve optimal_bandwidth(plan, beta) = 2^-j_min rate^{1/(2 beta + 1)} = d
    beta = 0.5 * (math.log(plan.log_n_tilde / plan.n_tilde) / math.log(d / h_inf) - 1.0)
    return min(beta, float(plan.beta_star_high))


def theoretical_window(density: AnalyticDensity, plan: CalibrationPlan, t: float) -> tuple[float, int]:
    """Window [j_bar - m_n, j_bar + 1] the selected exponent should land in,
    from the local-exponent oracle; j_bar approximates the rate-optimal
    bandwidth by the next smaller dyadic one."""
    beta = local_exponent_oracle(density, t, plan)
    h_bar = optimal_bandwidth(plan, beta)
    j_bar = math.floor(math.log2(1.0 / h_bar) + 1e-12) + 1
    return j_bar - plan.m_n, j_bar + 1


def run_window_check(
    density: AnalyticDensity,
    plan: CalibrationPlan,
    reps: int,
    seed: int,
) -> ExperimentReport:
    """Fraction of (replication, mesh point) pairs with the selected
    exponent inside the oracle window [j_bar - m_n, j_bar + 1]."""
    N = plan.mesh_count
    lo = np.empty(N + 1)
    hi = np.empty(N + 1, dtype=np.int64)
    for k in range(N + 1):
        lo[k], hi[k] = theoretical_window(density, plan, k * plan.delta_n)
    report = ExperimentReport(name="window", params={})

    def one(r):
        rseed = replication_seed(seed, r)
        j_hat = fit_profile(split_sample(sample(density, plan.n, rseed)), plan)
        inside = (j_hat >= lo) & (j_hat <= hi)
        return {
            "rep": r,
            "rep_seed": rseed,
            "hit_fraction": float(inside.mean()),
            "low_misses": int((j_hat < lo).sum()),
            "high_misses": int((j_hat > hi).sum()),
        }

    report.records.extend(fork_map(one, range(reps), reps * plan.n))
    report.summary = {
        "hit_fraction": float(np.mean([rec["hit_fraction"] for rec in report.records])),
        "mesh_count": N,
    }
    return report


# ---------------------------------------------------------------------------
# extreme-value calibration
# ---------------------------------------------------------------------------

def ks_statistics(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float, float]:
    """(two-sided, ecdf-above, ecdf-below) Kolmogorov distances."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = cdf(x)
    d_plus = float((np.arange(1, n + 1) / n - f).max())
    d_minus = float((f - np.arange(0, n) / n).max())
    return max(d_plus, d_minus), d_plus, d_minus


def gumbel_cdf(x) -> np.ndarray:
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def run_gumbel_calibration(
    kernel: Kernel,
    m: int,
    reps: int,
    seed: int,
) -> ExperimentReport:
    """Distribution of a_n (max_k Y_k - b_n/3) for m independent cells.

    Y_k are the centered Gaussians with variance tv^2/2 arising from the
    least-favorable comparison process on disjoint cells; a_n and b_n use
    the mesh width 1/m.  Reports the Kolmogorov-Smirnov distance of the
    replicated statistic to the standard Gumbel law (plus its one-sided
    components: the comparison argument is one-sided, and the finite-m law
    dominates the limit).
    """
    if m < 16:
        raise ValueError(f"need m >= 16 cells, got {m!r}")
    if m > MAX_ARRAY_LEN:
        raise ValueError(f"need m <= {MAX_ARRAY_LEN} cells, got {m!r}")
    sigma = math.sqrt(kernel.tv ** 2 / 2.0)
    a_n, b_n = normalizers(1.0 / m, kernel.tv)
    stats = np.empty(reps)
    for r in range(reps):
        rng = replication_rng(seed, r)
        mx = sigma * float(rng.standard_normal(m).max())
        stats[r] = a_n * (mx - b_n / 3.0)
    ks, d_plus, d_minus = ks_statistics(stats, gumbel_cdf)
    report = ExperimentReport(
        name="gumbel",
        params={"tv": kernel.tv, "a_n": a_n, "b_n": b_n},
        records=[{"rep": r, "statistic": float(stats[r])} for r in range(reps)],
        summary={"ks": ks, "ks_ecdf_above": d_plus, "ks_ecdf_below": d_minus,
                 "variance": sigma ** 2},
    )
    return report


# ---------------------------------------------------------------------------
# second moments of the coupling increments
# ---------------------------------------------------------------------------

def tilde_w_second_moment(
    h_k: float, h_l: float, k_idx: int, l_idx: int, delta_n: float, z: float
) -> float:
    """Closed-form second moment of the paired Brownian increment contrast

        (W(s_k - z h_k) - W(s_k + z h_k))/sqrt(h_k)
      + (W(s_l + z h_l) - W(s_l - z h_l))/sqrt(h_l),

    s_k = k delta_n, s_l = l delta_n, assembled from the ten covariance
    terms of the expansion; bounded by 4 for z in [0,1]."""
    if not (0.0 <= z <= 1.0):
        raise ValueError(f"z must lie in [0,1], got {z!r}")
    if h_k <= 0.0 or h_l <= 0.0 or delta_n <= 0.0:
        raise ValueError("bandwidths and mesh width must be positive")
    if k_idx > l_idx:
        k_idx, l_idx = l_idx, k_idx
        h_k, h_l = h_l, h_k
    sk, sl = k_idx * delta_n, l_idx * delta_n
    if sk - z * h_k < -1e-15 or sl - z * h_l < -1e-15:
        raise ValueError("negative time argument for the Brownian motion")
    cross = (
        (sk - z * h_k)
        - min(sk - z * h_k, sl - z * h_l)
        - min(sk + z * h_k, sl + z * h_l)
        + min(sk + z * h_k, sl - z * h_l)
    )
    return 4.0 * z + 2.0 / math.sqrt(h_k * h_l) * cross


_MC_GRID = 1 << 16


def tilde_w_second_moment_mc(
    h_k: float, h_l: float, k_idx: int, l_idx: int, delta_n: float, z: float,
    reps: int = 100_000, seed: int = 0,
) -> float:
    """Monte Carlo oracle: simulate the four Brownian values on a dyadic
    time grid (times snapped to multiples of T/_MC_GRID) and average the square."""
    times = np.array([
        k_idx * delta_n - z * h_k, k_idx * delta_n + z * h_k,
        l_idx * delta_n - z * h_l, l_idx * delta_n + z * h_l,
    ])
    if times.min() < -1e-15:
        raise ValueError("negative time argument for the Brownian motion")
    T = float(times.max()) + 1e-12
    dt = T / _MC_GRID
    snapped = np.maximum(np.round(times / dt).astype(np.int64), 0)
    uniq, inverse = np.unique(snapped, return_inverse=True)
    gaps = np.diff(np.concatenate([[0], uniq])) * dt
    rng = replication_rng(seed, 0)
    increments = rng.standard_normal((reps, len(uniq))) * np.sqrt(gaps)[None, :]
    w_at = np.cumsum(increments, axis=1)
    vals = w_at[:, inverse]  # columns: W at the four snapped times
    tw = (vals[:, 0] - vals[:, 1]) / math.sqrt(h_k) + (vals[:, 3] - vals[:, 2]) / math.sqrt(h_l)
    return float(np.mean(tw ** 2))


def random_admissible_configurations(count: int, plan: CalibrationPlan, seed: int):
    """Configurations (h_k, h_l, k, l, delta, z) with all Brownian times
    nonnegative, drawn over the plan's dyadic bandwidth range."""
    rng = replication_rng(seed, 0)
    out = []
    N = plan.mesh_count
    while len(out) < count:
        jk = int(rng.integers(plan.j_min, plan.j_max + 1))
        jl = int(rng.integers(plan.j_min, plan.j_max + 1))
        h_k, h_l = 2.0 ** -jk, 2.0 ** -jl
        k = int(rng.integers(1, N + 1))
        l = int(rng.integers(1, N + 1))
        z = float(rng.random())
        if k * plan.delta_n - z * h_k >= 0 and l * plan.delta_n - z * h_l >= 0:
            out.append((h_k, h_l, k, l, plan.delta_n, z))
    return out


# ---------------------------------------------------------------------------
# deterministic inequality suite
# ---------------------------------------------------------------------------

def _suite_a2() -> list[dict]:
    x = np.linspace(0.0, 1.0, 10_000)
    worst = float((np.exp(x) - 1.0 - 2.0 * x).max())
    return [{"item": "a2", "check": "exp(x)-1 <= 2x on [0,1]", "passed": worst <= 0.0,
             "margin": -worst}]

def _suite_a3() -> list[dict]:
    x = np.linspace(-10.0, 10.0, 10_001)
    x = x[x != 0.0]
    worst = float((1.0 - np.sin(x) / x - x * x / 6.0).max())
    return [{"item": "a3", "check": "1 - sin(x)/x <= x^2/6 on [-10,10]\\{0}",
             "passed": worst <= 0.0, "margin": -worst}]


def _suite_a4() -> list[dict]:
    cases = [
        (zoo.make_peak_triangular(), (0.30, 0.80), (0.4, 0.8, 1.0, 1.5, 2.0)),
        (zoo.make_triangular_hypothesis(0.5), (0.10, 0.90), (0.4, 0.8, 1.0, 1.5, 2.0)),
        (zoo.make_uniform(), (0.20, 0.80), (0.4, 0.8, 1.0, 1.5, 2.0)),
        (zoo.make_weierstrass_composite(0.5, 0.5), (0.10, 0.90), (0.1, 0.2, 0.3, 0.4, 0.5)),
    ]
    rows = []
    for density, window, ladder in cases:
        ests = [zoo.holder_norm_estimate(density, b, 2, window) for b in ladder]
        # equal estimates step by 0, also two infinite ones (inf - inf is nan)
        worst = max(
            (0.0 if e1 == e2 else e1 - e2 for e1, e2 in zip(ests[:-1], ests[1:])), default=0.0
        )
        rows.append({
            "item": "a4",
            "check": f"norm estimates nondecreasing in beta for {density.name}",
            "passed": worst <= 1e-12,
            "margin": -worst,
        })
    return rows


BIAS_BETA_GRID = (0.3, 0.5, 0.8, 1.0)
BIAS_G_LADDER = tuple(2.0 ** -j for j in range(5, 10))
BIAS_LOWER_CONSTANT = 4.0 / math.pi - 1.0


def weierstrass_function(beta: float) -> AnalyticDensity:
    """The raw lacunary series on [-1, 1], packaged with the piece machinery
    so the convolution oracles apply (not a probability density)."""
    return AnalyticDensity(
        name=f"wfun:{beta:g}",
        pieces=(zoo.Piece(-1.0, 1.0, coeffs=(0.0,), wterms=((1.0, 0.0),)),),
        sup_bound=1.0 / (1.0 - 2.0 ** -beta),
        wspec=zoo.WeierstrassSpec(beta),
        homogeneous_exponent=beta,
    )


def _suite_bias_lower(kernel: Kernel) -> list[dict]:
    """Bias of the raw series under running-mean smoothing stays above
    (4/pi - 1) g^beta on every tested dyadic ladder."""
    rows = []
    h = 2.0 ** -3
    for beta in BIAS_BETA_GRID:
        w = weierstrass_function(beta)
        worst = math.inf
        for g in BIAS_G_LADDER:
            got = sup_abs_bias(kernel, w, g, (-(h - g), h - g))
            worst = min(worst, got - BIAS_LOWER_CONSTANT * g ** beta)
        rows.append({
            "item": "bias_lower",
            "check": f"series bias > (4/pi-1) g^beta, beta={beta:g}",
            "passed": worst > 0.0,
            "margin": worst,
        })
    return rows


def _suite_bias_upper(kernel: Kernel) -> list[dict]:
    """Order-capped Hoelder budgets dominate the smoothing bias: bounded by
    L |K|_1 g^beta for rough members, identically zero for affine ones."""
    rows = []
    h = 2.0 ** -3
    for beta in BIAS_BETA_GRID:
        if beta >= 1.0:
            continue
        comp = zoo.make_weierstrass_composite(0.0, beta)
        budget = comp.lipschitz_budget[0].bound
        worst = math.inf
        for g in BIAS_G_LADDER:
            got = sup_abs_bias(kernel, comp, g, (-(h - g), h - g))
            worst = min(worst, budget * kernel.norm_l1 * g ** beta - got)
        rows.append({
            "item": "bias_upper",
            "check": f"composite bias <= L |K|_1 g^beta, beta={beta:g}",
            "passed": worst >= 0.0,
            "margin": worst,
        })
    uni = zoo.make_uniform(-4.0, 4.0)
    tent = zoo.make_triangular_hypothesis(0.5)
    worst = 0.0
    for g in BIAS_G_LADDER:
        worst = max(worst, sup_abs_bias(kernel, uni, g, (-(h - g), h - g)))
        # window on one tent flank: affine there, an order-1 kernel reproduces it
        worst = max(worst, sup_abs_bias(kernel, tent, g, (1.5, 1.75)))
    rows.append({
        "item": "bias_upper",
        "check": "affine pieces have zero bias",
        "passed": worst <= 1e-10,
        "margin": 1e-10 - worst,
    })
    return rows


_WMOMENT_SEED = 20240601


def _suite_wmoment(plan: CalibrationPlan) -> list[dict]:
    configs = random_admissible_configurations(10_000, plan, _WMOMENT_SEED)
    worst = -math.inf
    for cfg in configs:
        worst = max(worst, tilde_w_second_moment(*cfg))
    rows = [{
        "item": "wmoment",
        "check": "closed-form contrast second moment <= 4 (1e4 configurations)",
        "passed": worst <= 4.0 + 1e-12,
        "margin": 4.0 + 1e-12 - worst,
    }]
    worst_mc = 0.0
    for i, cfg in enumerate(configs[:20]):
        closed = tilde_w_second_moment(*cfg)
        mc = tilde_w_second_moment_mc(*cfg, reps=100_000, seed=_WMOMENT_SEED + i)
        worst_mc = max(worst_mc, abs(closed - mc))
    rows.append({
        "item": "wmoment",
        "check": "closed form matches Brownian-path Monte Carlo (20 configurations)",
        "passed": worst_mc <= 0.05,
        "margin": 0.05 - worst_mc,
    })
    return rows


def verify_inequalities(
    kernel: Optional[Kernel] = None, suites: Optional[Iterable[str]] = None
) -> ExperimentReport:
    """Run the deterministic inequality suite; failures are report rows,
    not exceptions."""
    kernel = kernel if kernel is not None else make_rectangular()
    wanted = set(suites) if suites is not None else None
    rows: list[dict] = []
    registry = {
        "a2": _suite_a2,
        "a3": _suite_a3,
        "a4": _suite_a4,
        "bias_lower": lambda: _suite_bias_lower(kernel),
        "bias_upper": lambda: _suite_bias_upper(kernel),
        "wmoment": lambda: _suite_wmoment(derive_plan(PlanParams(n=4096), kernel)),
    }
    if wanted is not None:
        unknown = wanted - set(registry)
        if unknown:
            raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    for name, fn in registry.items():
        if wanted is None or name in wanted:
            rows.extend(fn())
    report = ExperimentReport(
        name="verify",
        params={"suites": ";".join(sorted(wanted)) if wanted else "all"},
        records=rows,
        summary={"all_passed": all(r["passed"] for r in rows),
                 "failed_items": ";".join(r["item"] for r in rows if not r["passed"])},
    )
    return report


# ---------------------------------------------------------------------------
# selection-threshold calibration
# ---------------------------------------------------------------------------

# calibrate_c2's rule: thresholds on the step grid up to the maximum, _C2_REPS
# uniform samples of size _C2_N seeded from _C2_SEED, and the fraction to reach
_C2_STEP = 0.05
_C2_MAX = 3.0
_C2_N = 2 ** 14
_C2_REPS = 50
_C2_SEED = 20240601
_C2_TARGET = 0.95


def calibrate_c2() -> tuple[float, dict[float, float]]:
    """Smallest threshold on the _C2_STEP grid keeping the selected exponent
    at j_min + 2 or below for at least _C2_TARGET of mesh points (uniform
    density, rectangular kernel; tables are reused across candidate
    thresholds), and each candidate's mean fraction."""
    uniform = zoo.make_uniform()
    candidates = [round(_C2_STEP * i, 10) for i in range(1, int(_C2_MAX / _C2_STEP) + 1)]
    plan = derive_plan(PlanParams(n=_C2_N), make_rectangular())
    per_rep = []
    for r in range(_C2_REPS):
        rseed = replication_seed(_C2_SEED, r)
        data = sample(uniform, _C2_N, rseed)
        split = split_sample(data)
        table = build_kde_table(split, plan)
        # j_hat <= j_min + 2 iff j_min + 2 is admissible (admissible sets are
        # upward closed), i.e. iff its ball maximum is at most c2; exponents
        # with no pairs, which are never yielded, are admissible at any c2
        crit = np.zeros(plan.mesh_count + 1)
        for j, ball_max in _ball_maxima(table, plan, 0, plan.mesh_count):
            if j == plan.j_min + 2:
                crit = ball_max
                break
        per_rep.append(crit)
    means = {
        c2: float(np.mean([(crit <= c2).mean() for crit in per_rep])) for c2 in candidates
    }
    for c2 in candidates:
        if means[c2] >= _C2_TARGET:
            return c2, means
    raise RuntimeError(f"no threshold below {_C2_MAX} reached target fraction {_C2_TARGET}")
