"""Localized bandwidth selection.

A bandwidth exponent j is admissible at a mesh point t when, for every pair
of finer exponents m > m' >= j + 3, the pair ratio
|p_hat_m - p_hat_m'| / sqrt(log n~ / (n~ 2^-m)) stays at most c2 over the
mesh points of the open ball B(t, (7/8) 2^-j).  The selected exponent is the
smallest admissible one.

One routine evaluates this rule: it walks m' from fine to coarse, folds each
pair ratio once into a running maximum, and yields for each j the ball
maximum of that running maximum at every point of a run of mesh indices.
The ball maxima grow as j decreases, so admissible sets are upward closed
and a run is decided at the first j where none of its points is admissible.

The table grows with the fold: a fit counts the run plus the ball of the
first exponent yielded, and a ball that leaves the table widens it, a few
exponents ahead, by its new edge columns alone, onto which the pairs already
folded are folded.  The admissibility of j reads ball(j) only, so a run that
is decided early never counts the columns of the coarser balls.  A
whole-mesh fit on several CPUs selects one run of the mesh per worker.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .calibration import CalibrationPlan
from .estimator import KdeTable, SplitSample, ball_offset, build_kde_table
from .forked import cut_runs, fork_map


def pair_ratio(table: KdeTable, plan: CalibrationPlan, m: int, mp: int, cols: slice = slice(None)) -> np.ndarray:
    """|p_hat_m - p_hat_m'| / sqrt(log n~ / (n~ 2^-m)) at the table columns
    cols (all by default); the pair passes at a point iff this is at most c2."""
    d = table.row(m)[cols] - table.row(mp)[cols]
    np.abs(d, out=d)
    d /= math.sqrt(plan.log_n_tilde / (plan.n_tilde * 2.0 ** -m))
    return d


def _fold(running: Optional[np.ndarray], table: KdeTable, plan: CalibrationPlan, mps, cols: slice = slice(None)):
    """running raised to the ratio of every pair m > m' with m' in mps at the
    table columns cols; None starts from the first ratio."""
    for mp in mps:
        for m in range(mp + 1, plan.j_max + 1):
            r = pair_ratio(table, plan, m, mp, cols)
            running = r if running is None else np.maximum(running, r, out=running)
    return running


def _sliding_max(x: np.ndarray, w: int) -> np.ndarray:
    """max(x[i:i + w]) for i = 0..len(x) - w, over full windows only (van
    Herk / Gil-Werman: within blocks of w, the window maximum is the larger
    of a suffix maximum of one block and a prefix maximum of the next)."""
    n = x.size
    count = max(n - w + 1, 0)
    buf = np.full(-(-n // w) * w, -np.inf)
    buf[:n] = x  # x is left unchanged: callers pass views of live arrays
    blocks = buf.reshape(-1, w)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    np.maximum.accumulate(blocks[:, ::-1], axis=1, out=blocks[:, ::-1])
    out = buf[:count]
    return np.maximum(out, prefix[w - 1:w - 1 + count], out=out)


# exponents past the ball it must cover that a table widens to, clamped at j_min
_LOOKAHEAD = 2


def _ball_maxima(table: KdeTable, plan: CalibrationPlan, k_lo: int, k_hi: int):
    """Yield (j, G) for j = j_max - 4 down to j_min, where G[i] is the
    largest pair ratio over m > m' >= j + 3 on the open ball around mesh
    index k_lo + i; j is admissible there iff G[i] <= c2.

    Exponents j >= j_max - 3 have no pairs and are never yielded.  The
    table's capacity must hold the run plus the ball at j_min; a ball that
    leaves the table widens it.
    """
    margin = ball_offset(plan, plan.j_min)
    cap_lo, cap_hi = table.capacity
    if k_lo - margin < cap_lo or k_hi + margin > cap_hi:
        raise ValueError(f"table does not cover mesh indices {k_lo}..{k_hi} plus the selector margin {margin}")
    running = None
    for mp in range(plan.j_max - 1, plan.j_min + 2, -1):
        running = _fold(running, table, plan, [mp])
        j = mp - 3
        a = ball_offset(plan, j)
        if k_lo - a < table.idx_lo or k_hi + a > table.idx_hi:
            reach = ball_offset(plan, max(j - _LOOKAHEAD, plan.j_min))
            wide = table.widened(k_lo - reach, k_hi + reach)
            folded = range(plan.j_max - 1, mp - 1, -1)
            left = _fold(None, wide, plan, folded, slice(0, table.idx_lo - wide.idx_lo))
            right = _fold(None, wide, plan, folded, slice(table.idx_hi + 1 - wide.idx_lo, None))
            running, table = np.concatenate([left, running, right]), wide
        window = running[k_lo - a - table.idx_lo:k_hi + a + 1 - table.idx_lo]
        yield j, _sliding_max(window, 2 * a + 1)


def select_at(table: KdeTable, plan: CalibrationPlan, k_lo: int, k_hi: int) -> np.ndarray:
    """Smallest admissible exponent at each mesh index k_lo..k_hi; the
    table's capacity must hold them plus the selector margin."""
    j_hat = np.full(k_hi - k_lo + 1, max(plan.j_min, plan.j_max - 3), dtype=np.int64)
    for j, ball_max in _ball_maxima(table, plan, k_lo, k_hi):
        ok = ball_max <= plan.c2
        if not ok.any():
            break
        j_hat[ok] = j
    return j_hat


def fit_profile(split: SplitSample, plan: CalibrationPlan, k_lo: int = 0, k_hi: Optional[int] = None) -> np.ndarray:
    """Selected exponent j_hat at the mesh points k delta_n, k = k_lo..k_hi
    (the whole mesh 0..mesh_count by default), from the second half of the
    split; the table starts at the ball of the first exponent yielded.

    A whole-mesh fit selects the runs forked.cut_runs gives the mesh
    through fork_map, each from its own table: a point's exponent depends
    only on its ball, so the runs' profiles join into the whole mesh's.  A
    fit on one worker is one run."""
    if k_hi is None:
        points = plan.mesh_count + 1
        profiles = list(fork_map(lambda r: fit_profile(split, plan, r[0], r[1] - 1), cut_runs(points, points), points))
        return profiles[0] if len(profiles) == 1 else np.concatenate(profiles)  # one run is not copied
    return select_at(build_kde_table(split, plan, k_lo, k_hi, plan.j_max - 4), plan, k_lo, k_hi)

