"""Checks of locband's CSV and .meta outputs against perfbench.reference.

Each check raises CheckError naming what is wrong.  The checks compare
with independent computations or with properties of the method, never with
a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference as ref

# The CSV writers print 12 significant digits.
RTOL = 1e-10


class CheckError(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(got, want, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return bool(np.all(np.isclose(got, want, rtol=rtol, atol=atol)))


def parse_meta(text: str) -> dict:
    """key=value lines of a .meta sidecar; other lines are not checked."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key] = val
    return out


def parse_records(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# locband band
# ---------------------------------------------------------------------------

BAND_HEADER = "k,t_lo,t_hi,center,lo,hi,h_loc,j_hat_left,j_hat_right"


def parse_band(text: str) -> np.ndarray:
    header, _, body = text.partition("\n")
    _require(header == BAND_HEADER, f"unexpected band header {header!r}")
    return np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def mesh_j_hat(rows: np.ndarray) -> np.ndarray:
    """Selected exponent at mesh points 0..N (cell k holds points k-1 and k)."""
    return np.concatenate([rows[:1, 7], rows[:, 8]]).astype(np.int64)


def check_band_tiling(rows: np.ndarray, plan: ref.Plan) -> None:
    N = plan.mesh_count
    _require(rows.shape == (N, 9), f"band has shape {rows.shape}, expected ({N}, 9)")
    k = np.arange(1, N + 1)
    _require(np.array_equal(rows[:, 0], k), "cell indices are not 1..N")
    _require(rows[0, 1] == 0.0 and rows[-1, 2] == 1.0, "cells do not start at 0 and end at 1")
    _require(np.array_equal(rows[:-1, 2], rows[1:, 1]), "a cell's t_hi differs from the next cell's t_lo")
    _require(_close(rows[:, 2], k / N), "cell edges are not multiples of 1/mesh_count")


def check_band_profile(rows: np.ndarray, plan: ref.Plan) -> None:
    jl, jr = rows[:, 7], rows[:, 8]
    _require(np.array_equal(jr[:-1], jl[1:]), "j_hat_right[k] differs from j_hat_left[k+1]")
    j = mesh_j_hat(rows)
    _require(j.min() >= plan.j_min and j.max() <= plan.j_max, "j_hat outside [j_min, j_max]")
    _require(_close(rows[:, 6], ref.h_loc(plan, np.maximum(jl, jr))),
             "h_loc differs from 2^-u_n 2^-max(j_left, j_right)")


def check_band_halfwidths(rows: np.ndarray, plan: ref.Plan, alpha: float) -> None:
    h = ref.h_loc(plan, np.maximum(rows[:, 7], rows[:, 8]))
    const = (rows[:, 5] - rows[:, 4]) / 2.0 * np.sqrt(plan.n_tilde * h)
    _require(_close(const, ref.q_n(plan, alpha), rtol=1e-9),
             "(hi - lo)/2 sqrt(n~ h_loc) is not the calibrated quantile q_n")
    mid = (rows[:, 5] + rows[:, 4]) / 2.0
    _require(_close(mid, rows[:, 3], rtol=0.0, atol=1e-9), "center is not the midpoint of [lo, hi]")


def check_band_centers(rows: np.ndarray, data: np.ndarray, plan: ref.Plan) -> None:
    """Every center is the first-half window count at the cell's right end."""
    first = np.sort(data[: plan.n_tilde])
    t = np.arange(1, plan.mesh_count + 1, dtype=float) * plan.delta_n
    h = ref.h_loc(plan, np.maximum(rows[:, 7], rows[:, 8]))
    want = ref.kde(first, plan.n_tilde, t, h)
    bad = np.flatnonzero(~np.isclose(rows[:, 3], want, rtol=RTOL, atol=0.0))
    _require(bad.size == 0, f"{bad.size} centers differ from the first-half counts (first at cell {bad[:1] + 1})")


def selector_sample(rows: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Mesh points to re-select: half drawn uniformly, half among the points
    where the selected exponent changes, where an error is likeliest."""
    j = mesh_j_hat(rows)
    uniform = rng.choice(j.size, size=count // 2, replace=False)
    edges = np.flatnonzero(j[:-1] != j[1:])
    picks = rng.choice(edges, size=min(count - count // 2, edges.size), replace=False)
    return np.unique(np.concatenate([uniform, picks, picks + 1]))


def check_band_selector(rows: np.ndarray, data: np.ndarray, plan: ref.Plan, points: np.ndarray) -> list[str]:
    """j_hat at the given mesh points equals the selector by definition on the
    second half.  Returns notes for disagreements at float ties."""
    j = mesh_j_hat(rows)
    second = np.sort(data[plan.n_tilde: 2 * plan.n_tilde])
    reach = ref.ball_reach(plan, plan.j_min)
    table = ref.scale_table(second, plan, int(points.min()) - reach, int(points.max()) + reach)
    notes = []
    for i in points:
        want, tie = ref.select_by_definition(table, plan, int(i))
        if want != j[i]:
            _require(tie, f"j_hat at mesh point {i} is {j[i]}, the selector's definition gives {want}")
            notes.append(f"tie at mesh point {i}: program {j[i]}, definition {want}")
    return notes


def check_band(text: str, data: np.ndarray, plan: ref.Plan, alpha: float, points_rng: np.random.Generator,
               sample_count: int = 24) -> list[str]:
    rows = parse_band(text)
    check_band_tiling(rows, plan)
    check_band_profile(rows, plan)
    check_band_halfwidths(rows, plan, alpha)
    check_band_centers(rows, data, plan)
    return check_band_selector(rows, data, plan, selector_sample(rows, points_rng, sample_count))


# ---------------------------------------------------------------------------
# simulate coverage / adaptivity
# ---------------------------------------------------------------------------

def check_meta_plan(meta: dict, plan: ref.Plan) -> None:
    for key in ("n", "n_tilde", "j_min", "j_max", "mesh_count"):
        _require(int(meta[key]) == getattr(plan, key), f".meta {key}={meta[key]}, expected {getattr(plan, key)}")
    for key in ("u_n", "a_n", "b_n"):
        _require(_close(float(meta[key]), getattr(plan, key)), f".meta {key}={meta[key]} differs from the formula")


def check_rep_column(recs: list[dict], reps: int) -> None:
    _require(len(recs) == reps, f"{len(recs)} records for {reps} replications")
    _require([int(r["rep"]) for r in recs] == list(range(reps)), "rep column is not 0..reps-1")


def check_coverage_records(recs: list[dict], plan: ref.Plan, alpha: float, reps: int, seed: int) -> None:
    check_rep_column(recs, reps)
    for r, rec in enumerate(recs):
        _require(int(rec["rep_seed"]) == ref.rep_seed(seed, r), f"rep {r}: rep_seed is not SeedSequence({seed}, ({r},))")
        _require(rec["covered"] in ("true", "false"), f"rep {r}: covered={rec['covered']!r}")
        jlo, jhi = int(rec["j_hat_min"]), int(rec["j_hat_max"])
        _require(plan.j_min <= jlo <= jhi <= plan.j_max, f"rep {r}: j_hat range [{jlo}, {jhi}] off the grid")
        wmin, wmean, wmax = (float(rec[k]) for k in ("width_min", "width_mean", "width_max"))
        _require(_close(wmax, ref.width(plan, alpha, jhi)), f"rep {r}: width_max does not match j_hat_max")
        lattice = ref.width(plan, alpha, np.arange(jlo, jhi + 1))
        _require(np.isclose(lattice, wmin, rtol=RTOL).any(), f"rep {r}: width_min is no 2 q_n sqrt(2^(u_n+j)/n~)")
        _require(wmin * (1 - RTOL) <= wmean <= wmax * (1 + RTOL), f"rep {r}: width_mean outside [width_min, width_max]")


def check_coverage(csv_text: str, meta_text: str, plan: ref.Plan, alpha: float, reps: int, seed: int,
                   min_coverage: float | None, rough: ref.Rough | None = None) -> list[str]:
    recs = parse_records(csv_text)
    meta = parse_meta(meta_text)
    check_meta_plan(meta, plan)
    check_coverage_records(recs, plan, alpha, reps, seed)
    coverage = sum(rec["covered"] == "true" for rec in recs) / reps
    _require(_close(float(meta["summary.coverage"]), coverage), "summary.coverage does not recompute")
    mean_width = float(np.mean([float(rec["width_mean"]) for rec in recs]))
    _require(_close(float(meta["summary.width_mean"]), mean_width), "summary.width_mean does not recompute")
    if min_coverage is not None:
        _require(coverage >= min_coverage, f"coverage {coverage} below {min_coverage}")
    return [] if rough is None else check_rough_coverage(recs, plan, alpha, seed, rough)


def check_rough_coverage(recs: list[dict], plan: ref.Plan, alpha: float, seed: int, rough: ref.Rough,
                         scan: int = 32) -> list[str]:
    """Every record's j_hat range, widths and `covered` match the band rebuilt
    here: the sample redrawn from the replication's seed, j_hat from the
    selector's definition at every mesh point, centers counted, and the
    density's range on each cell bracketed by a scan and the series' Hoelder
    bound.  A band whose edges fall inside that bracket is reported, not
    failed."""
    nt = plan.n_tilde
    edges = np.arange(plan.mesh_count + 1, dtype=float) * plan.delta_n
    vmin, vmax, slack = rough.cell_ranges(edges, scan)
    notes = []
    for r, rec in enumerate(recs):
        data = rough.sample(plan.n, ref.rep_seed(seed, r))
        j, tie = ref.select_profile_by_definition(np.sort(data[nt: 2 * nt]), plan)
        if (int(rec["j_hat_min"]), int(rec["j_hat_max"])) != (j.min(), j.max()):
            _require(tie, f"rep {r}: j_hat range [{rec['j_hat_min']}, {rec['j_hat_max']}], "
                          f"the selector's definition gives [{j.min()}, {j.max()}]")
            notes.append(f"tie in rep {r}: j_hat range differs from the definition")
            continue
        h = ref.h_loc(plan, np.maximum(j[:-1], j[1:]))
        centers = ref.kde(np.sort(data[:nt]), nt, edges[1:], h)
        half = ref.q_n(plan, alpha) / np.sqrt(nt * h)
        for key, val in (("width_min", half.min()), ("width_mean", half.mean()), ("width_max", half.max())):
            _require(_close(float(rec[key]), 2.0 * val), f"rep {r}: {key} differs from the rebuilt band")
        lo, hi = centers - half, centers + half
        if np.all(lo <= vmin - slack) and np.all(vmax + slack <= hi):
            want = "true"
        elif np.any(lo > vmin + slack) or np.any(vmax - slack > hi):
            want = "false"
        else:
            notes.append(f"rep {r}: a band edge lies within {slack:.3g} of the density's range")
            continue
        _require(rec["covered"] == want, f"rep {r}: covered={rec['covered']}, the rebuilt band gives {want}")
    return notes


def check_adaptivity_records(recs: list[dict], plan: ref.Plan, alpha: float, reps: int, betas) -> None:
    check_rep_column(recs, reps)
    rate = plan.log_n_tilde / plan.n_tilde
    for r, rec in enumerate(recs):
        _require(int(rec["n"]) == plan.n, f"rep {r}: n={rec['n']}")
        for i, beta in enumerate(betas):
            j = int(rec[f"j_eff_{i}"])
            _require(plan.j_min <= j <= plan.j_max, f"rep {r}: j_eff_{i}={j} off the grid")
            _require(float(rec[f"beta_{i}"]) == beta, f"rep {r}: beta_{i}={rec[f'beta_{i}']}, expected {beta}")
            w = float(ref.width(plan, alpha, j))
            expo = beta / (2.0 * beta + 1.0)
            _require(_close(float(rec[f"width_{i}"]), w), f"rep {r}: width_{i} does not match j_eff_{i}")
            _require(_close(float(rec[f"norm_width_{i}"]), w * rate ** -expo),
                     f"rep {r}: norm_width_{i} does not match j_eff_{i}")
            _require(_close(float(rec[f"window_ratio_{i}"]), ref.optimal_bandwidth(plan, beta) * 2.0 ** j),
                     f"rep {r}: window_ratio_{i} does not match j_eff_{i}")


def check_adaptivity_summary(recs: list[dict], meta: dict, plan: ref.Plan, alpha: float, betas) -> None:
    n = plan.n
    bare = plan.log_n_tilde ** ref.gamma_tilde()
    bound = 2.0 * math.sqrt(6.0) * 2.0 ** (plan.j_min / 2.0) * ref.q_n(plan, alpha) * bare
    norm = np.array([[float(rec[f"norm_width_{i}"]) for i in range(len(betas))] for rec in recs])
    width = np.array([[float(rec[f"width_{i}"]) for i in range(len(betas))] for rec in recs])
    smooth, kink = int(np.argmax(betas)), int(np.argmin(betas))
    want = {
        f"bare_threshold_n{n}": bare,
        f"width_bound_n{n}": bound,
        f"frac_bare_n{n}": float(np.mean((norm <= bare).all(axis=1))),
        f"frac_bound_n{n}": float(np.mean((norm <= bound).all(axis=1))),
        f"ratio_n{n}": float(np.mean(width[:, smooth] / width[:, kink])),
        **{f"mean_norm_width_{i}_n{n}": float(norm[:, i].mean()) for i in range(len(betas))},
    }
    for key, val in want.items():
        _require(_close(float(meta[f"summary.{key}"]), val), f"summary.{key} does not recompute")


def check_adaptivity_selector(recs: list[dict], plan: ref.Plan, seed: int, probes, reps_checked: int) -> list[str]:
    """j_eff of the first replications equals the selector by definition on
    the same sample, redrawn here from the replication's seed."""
    notes = []
    reach = ref.ball_reach(plan, plan.j_min)
    for r in range(min(reps_checked, len(recs))):
        data_seed = int(ref.rep_rng(seed, r).integers(0, 2 ** 63 - 1))
        data = ref.peak_rejection_sample(plan.n, data_seed)
        second = np.sort(data[plan.n_tilde: 2 * plan.n_tilde])
        for i, t in enumerate(probes):
            k = min(int(math.floor(t / plan.delta_n)) + 1, plan.mesh_count)
            table = ref.scale_table(second, plan, k - 1 - reach, k + reach)
            (jl, tie_l), (jr, tie_r) = (ref.select_by_definition(table, plan, k - 1),
                                        ref.select_by_definition(table, plan, k))
            got = int(recs[r][f"j_eff_{i}"])
            if got != max(jl, jr):
                _require(tie_l or tie_r, f"rep {r}: j_eff_{i}={got}, the selector's definition gives {max(jl, jr)}")
                notes.append(f"tie at rep {r} probe {t}: program {got}, definition {max(jl, jr)}")
    return notes


def check_adaptivity(csv_text: str, meta_text: str, plan: ref.Plan, alpha: float, reps: int, seed: int,
                     probes, betas, reps_checked: int = 2) -> list[str]:
    recs = parse_records(csv_text)
    meta = parse_meta(meta_text)
    check_adaptivity_records(recs, plan, alpha, reps, betas)
    check_adaptivity_summary(recs, meta, plan, alpha, betas)
    return check_adaptivity_selector(recs, plan, seed, probes, reps_checked)
