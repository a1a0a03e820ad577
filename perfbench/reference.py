"""Computations the benchmark checks locband's outputs against.

Nothing here imports locband.  The plan constants are re-derived from the
paper's formulas, the band input comes from this module's own sampler, and
the bandwidth selector is evaluated by its definition: every scale pair over
the whole open ball, with no sweep, filter or upward-closure shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CLI defaults that the workloads rely on (practical mode).
C2 = 0.65
L_STAR = 1.0
EPSILON = 0.25
BETA_STAR_LOW = 0.95
C1 = 3.0
KAPPA2 = 1.0
# The rectangular kernel 1/2 on [-1, 1] jumps by 1/2 at each end.
RECT_TV = 1.0


@dataclass(frozen=True)
class Plan:
    n: int
    n_tilde: int
    j_min: int
    j_max: int
    mesh_count: int
    u_n: float
    a_n: float
    b_n: float

    @property
    def delta_n(self) -> float:
        return 1.0 / self.mesh_count

    @property
    def log_n_tilde(self) -> float:
        return math.log(self.n_tilde)


def derive(n: int) -> Plan:
    """Grid, mesh and Gumbel normalizers for sample size n."""
    nt = n // 2
    ln = math.log(nt)
    kappa1 = max(1.0 / (2.0 * BETA_STAR_LOW), 0.5)
    j_min = math.ceil(max(2.0, math.log2(2.0 / EPSILON)) - 1e-12)
    j_max = max(j_min, math.floor(math.log2(nt / ln ** KAPPA2) + 1e-12))
    mesh_count = math.ceil(
        2.0 ** (j_min / BETA_STAR_LOW) * (ln / nt) ** (-kappa1) * ln ** (2.0 / BETA_STAR_LOW)
    )
    delta = 1.0 / mesh_count
    c3 = math.sqrt(2.0) / RECT_TV
    root = math.sqrt(-2.0 * math.log(delta))
    a_n = c3 * root
    b_n = (3.0 / c3) * (root - (math.log(-math.log(delta)) + math.log(4.0 * math.pi)) / (2.0 * root))
    return Plan(n, nt, j_min, j_max, mesh_count, C1 * math.log(ln), a_n, b_n)


def q_n(plan: Plan, alpha: float) -> float:
    """sqrt(L*) times the Gumbel (1 - alpha/2)-quantile, over a_n, plus b_n."""
    return math.sqrt(L_STAR) * -math.log(-math.log(1.0 - alpha / 2.0)) / plan.a_n + plan.b_n


def h_loc(plan: Plan, j) -> np.ndarray:
    """Undersmoothed cell bandwidth 2^-u_n 2^-j."""
    return 2.0 ** -plan.u_n * np.exp2(-np.asarray(j, dtype=float))


def width(plan: Plan, alpha: float, j) -> np.ndarray:
    """Band width 2 q_n sqrt(2^(u_n + j) / n~) of a cell whose exponent is j."""
    return 2.0 * q_n(plan, alpha) * np.sqrt(np.exp2(plan.u_n + np.asarray(j, dtype=float)) / plan.n_tilde)


def threshold(plan: Plan, m: int) -> float:
    """Selector noise level c2 sqrt(log n~ / (n~ 2^-m))."""
    return C2 * math.sqrt(plan.log_n_tilde / (plan.n_tilde * 2.0 ** -m))


def ball_reach(plan: Plan, j: int) -> int:
    """Largest mesh offset a with a delta_n < (7/8) 2^-j, in exact integers."""
    return (7 * plan.mesh_count - 1) // 2 ** (j + 3)


def optimal_bandwidth(plan: Plan, beta: float) -> float:
    return 2.0 ** -plan.j_min * (plan.log_n_tilde / plan.n_tilde) ** (1.0 / (2.0 * beta + 1.0))


def gamma_tilde() -> float:
    return 0.5 * (C1 * math.log(2.0) - 1.0)


# ---------------------------------------------------------------------------
# seeds and samples
# ---------------------------------------------------------------------------

def rep_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(1, np.uint64)[0])


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(rep,))))


def peak_pdf(x: np.ndarray) -> np.ndarray:
    """Triangle 4x on [0, 1/2), 4 - 4x on [1/2, 1], zero outside."""
    inside = (x >= 0.0) & (x <= 1.0)
    return np.where(inside, np.where(x < 0.5, 4.0 * x, 4.0 - 4.0 * x), 0.0)


def peak_inverse_cdf_sample(m: int, seed: int) -> np.ndarray:
    """m draws from the peak triangle by inverting F(x) = 2x^2 (x <= 1/2),
    1 - 2(1 - x)^2 (x > 1/2)."""
    u = np.random.default_rng(seed).random(m)
    return np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))


def rejection_sample(pdf, support: tuple[float, float], sup_bound: float, m: int, seed: int,
                     batch: int = 8192) -> np.ndarray:
    """The rejection stream documented for the zoo's sampler: batches of
    uniform positions over the support, then uniform thresholds against the
    sup bound; the first m acceptances in proposal order."""
    lo, hi = support
    rng = np.random.Generator(np.random.PCG64(seed))
    out, got = [], 0
    while got < m:
        xs = lo + (hi - lo) * rng.random(batch)
        us = rng.random(batch)
        acc = xs[us * sup_bound < pdf(xs)]
        out.append(acc)
        got += acc.size
    return np.concatenate(out)[:m]


def peak_rejection_sample(m: int, seed: int) -> np.ndarray:
    return rejection_sample(peak_pdf, (0.0, 1.0), 2.0, m, seed)


# ---------------------------------------------------------------------------
# the rough zoo member weierstrass:<beta>:<t>
# ---------------------------------------------------------------------------

SERIES_TOL = 1e-12


@dataclass(frozen=True)
class Rough:
    """1/6 + c W(x - t) on |x - t| <= 2, with c = (1 - 2^-beta)/12 and
    W(x) = sum_k 2^(-k beta) cos(2^k pi x) cut where the geometric tail falls
    below SERIES_TOL; linear flanks from 1/4 down to 0 at |x - t| = 10/3."""

    beta: float
    t: float

    @classmethod
    def from_name(cls, name: str) -> "Rough":
        kind, beta, t = name.split(":")
        if kind != "weierstrass":
            raise ValueError(f"not a weierstrass density: {name!r}")
        return cls(float(beta), float(t))

    @property
    def support(self) -> tuple[float, float]:
        return self.t - 10.0 / 3.0, self.t + 10.0 / 3.0

    @property
    def scale(self) -> float:
        return (1.0 - 2.0 ** -self.beta) / 12.0

    def series(self, x: np.ndarray) -> np.ndarray:
        depth = math.ceil(math.log2(1.0 / (SERIES_TOL * (1.0 - 2.0 ** -self.beta))) / self.beta)
        amp = np.exp2(-np.arange(depth + 1, dtype=float) * self.beta)
        out = np.zeros_like(x)
        for k in range(depth + 1):
            # 2^k x mod 2 is exact in floating point, so the phase stays
            # exact where 2^k pi x itself would round away.
            out += amp[k] * np.cos(np.pi * np.fmod(np.ldexp(x, k), 2.0))
        return out

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x - self.t
        flank = 0.25 - (3.0 / 16.0) * (np.abs(d) - 2.0)
        out = np.where(np.abs(d) <= 10.0 / 3.0, flank, 0.0)
        mid = np.abs(d) <= 2.0
        out[mid] = 1.0 / 6.0 + self.scale * self.series(d[mid])
        return out

    def sample(self, m: int, seed: int) -> np.ndarray:
        return rejection_sample(self.pdf, self.support, 0.25, m, seed)

    def holder_constant(self) -> float:
        """L with |f(x) - f(y)| <= L |x - y|^beta on |x - t| <= 2.  For
        2^K d <= 1 < 2^(K+1) d, the terms k <= K change by at most
        2^(-k beta) 2^k pi d and the rest by at most 2 2^(-k beta); summing
        the two geometric series gives pi/(1 - 2^(beta-1)) + 2/(1 - 2^-beta)."""
        b = self.beta
        return self.scale * (math.pi / (1.0 - 2.0 ** (b - 1.0)) + 2.0 / (1.0 - 2.0 ** -b))

    def cell_ranges(self, edges: np.ndarray, scan: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Per cell [edges[k], edges[k+1]]: the least and largest of `scan`
        evenly spaced values, and a slack such that the cell's infimum and
        supremum lie within it of those values."""
        if edges[0] < self.t - 2.0 or edges[-1] > self.t + 2.0:
            raise ValueError("cells reach outside the series piece")
        frac = np.linspace(0.0, 1.0, scan)
        width = np.diff(edges)
        vals = self.pdf(edges[:-1, None] + width[:, None] * frac[None, :])
        spacing = float(width.max()) / (scan - 1)
        # 1e-12 covers the rounding of the series sum.
        return vals.min(axis=1), vals.max(axis=1), self.holder_constant() * (spacing / 2.0) ** self.beta + 1e-12


# ---------------------------------------------------------------------------
# estimates and the selector by definition
# ---------------------------------------------------------------------------

def kde_counts(sorted_half: np.ndarray, points: np.ndarray, h) -> np.ndarray:
    """Number of observations in the closed window [t - h, t + h]."""
    return np.searchsorted(sorted_half, points + h, side="right") - np.searchsorted(
        sorted_half, points - h, side="left"
    )


def kde(sorted_half: np.ndarray, n_tilde: int, points: np.ndarray, h) -> np.ndarray:
    """Rectangular-kernel estimate: window count over 2 n~ h."""
    return kde_counts(sorted_half, points, h) / (2.0 * n_tilde * h)


@dataclass(frozen=True)
class ScaleTable:
    """Estimates at scales 2^-m, m = j_min+3..j_max, for mesh indices lo..hi."""

    lo: int
    hi: int
    rows: dict


def select_profile_by_definition(sorted_half: np.ndarray, plan: Plan) -> tuple[np.ndarray, bool]:
    """The selector's definition at every mesh point 0..mesh_count (only
    affordable where the plan has few scale pairs), and whether any point
    came near a float tie."""
    reach = ball_reach(plan, plan.j_min)
    table = scale_table(sorted_half, plan, -reach, plan.mesh_count + reach)
    picks = [select_by_definition(table, plan, i) for i in range(plan.mesh_count + 1)]
    return np.array([j for j, _ in picks], dtype=np.int64), any(tie for _, tie in picks)


def scale_table(sorted_half: np.ndarray, plan: Plan, lo: int, hi: int) -> ScaleTable:
    points = np.arange(lo, hi + 1, dtype=float) * plan.delta_n
    rows = {m: kde(sorted_half, plan.n_tilde, points, 2.0 ** -m) for m in range(plan.j_min + 3, plan.j_max + 1)}
    return ScaleTable(lo, hi, rows)


def select_by_definition(table: ScaleTable, plan: Plan, i: int) -> tuple[int, bool]:
    """Smallest j such that every pair m > m' >= j + 3 keeps
    max |p_m - p_m'| <= threshold(m) over the open ball of radius
    (7/8) 2^-j around mesh index i.  Also returns whether any deviation
    examined lay within 1e-9 relative of its threshold (a float tie that a
    different but equally valid evaluation order could decide otherwise)."""
    near_tie = False
    for j in range(plan.j_min, plan.j_max + 1):
        a = ball_reach(plan, j)
        if i - a < table.lo or i + a > table.hi:
            raise ValueError(f"scale table does not cover the ball around mesh index {i}")
        sl = slice(i - a - table.lo, i + a + 1 - table.lo)
        admissible = True
        for mp in range(j + 3, plan.j_max + 1):
            for m in range(mp + 1, plan.j_max + 1):
                dev = float(np.max(np.abs(table.rows[m][sl] - table.rows[mp][sl])))
                thr = threshold(plan, m)
                near_tie |= abs(dev - thr) <= 1e-9 * thr
                admissible &= dev <= thr
        if admissible:
            return j, near_tie
    raise AssertionError("j_max is admissible by definition")
