"""Piecewise-constant confidence bands.

Cells are right-open except the last: I_k = [(k-1) d, k d) for
k = 1..1/d - 1 and I_{1/d} = [1 - d, 1].  fit_band is the one fit: it
selects the exponents on the second half of the split and estimates each
cell's center on the first half, at the cell's right-endpoint mesh point
with an undersmoothed bandwidth; half-widths are q_n(alpha) / sqrt(n~ h_loc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .calibration import CalibrationPlan, optimal_bandwidth
from .csvtext import write_csv
from .densities import AnalyticDensity
from .estimator import SplitSample, rank_query_kde
from .selector import fit_profile


@dataclass(frozen=True)
class ConfidenceBand:
    """j_hat[k] is the exponent selected at mesh point k delta_n for
    k = 0..mesh_count (-1 where none was selected); the other arrays are
    per cell k = 1..mesh_count, at index k - 1."""

    plan: CalibrationPlan
    j_hat: np.ndarray
    h_loc: np.ndarray
    centers: np.ndarray
    halfwidths: np.ndarray


def cell_of(plan: CalibrationPlan, t: float) -> int:
    """The cell k that holds t: right-open cells, the last closed at 1."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"point {t!r} outside [0,1]")
    return min(int(math.floor(t / plan.delta_n)) + 1, plan.mesh_count)


def cell_edges(plan: CalibrationPlan) -> np.ndarray:
    """Edges 0, delta_n, ..., mesh_count delta_n of the plan's cells."""
    return np.arange(plan.mesh_count + 1, dtype=float) * plan.delta_n


def cell_bandwidths(plan: CalibrationPlan, j_hat: np.ndarray) -> np.ndarray:
    """The undersmoothed bandwidth 2^-u_n 2^-max(j_hat[k-1], j_hat[k]) of
    each cell whose two flanking mesh points' exponents j_hat holds."""
    return 2.0 ** -plan.u_n * np.exp2(-np.maximum(j_hat[:-1], j_hat[1:]).astype(float))


def halfwidths(plan: CalibrationPlan, q_n: float, h_loc: np.ndarray) -> np.ndarray:
    """Half-widths q_n / sqrt(n~ h_loc) of cells with bandwidths h_loc."""
    return q_n / np.sqrt(plan.n_tilde * h_loc)


def _assemble(
    split: SplitSample, plan: CalibrationPlan, q_n: float, j_hat: np.ndarray, h_loc: np.ndarray
) -> ConfidenceBand:
    """Centers from the first half at the cells' bandwidths h_loc."""
    points = np.arange(1, plan.mesh_count + 1, dtype=float) * plan.delta_n
    centers = rank_query_kde(split.chi1, points, h_loc, plan.kernel)
    return ConfidenceBand(plan, j_hat, h_loc, centers, halfwidths(plan, q_n, h_loc))


def fit_band(split: SplitSample, plan: CalibrationPlan, q_n: float) -> ConfidenceBand:
    """The locally adaptive band: exponents selected on the second half of
    the split, and the cells' bandwidths from them for the centers, which
    come from the first half.  q_n is band_halfwidth_quantile(plan, alpha)."""
    j_hat = fit_profile(split, plan)
    return _assemble(split, plan, q_n, j_hat, cell_bandwidths(plan, j_hat))


def reference_global_band(split: SplitSample, plan: CalibrationPlan, q_n: float) -> ConfidenceBand:
    """Non-adaptive baseline: the worst-case bandwidth h_{beta_*} 2^-u_n in
    every cell, same centers and quantile construction."""
    h_ref = optimal_bandwidth(plan, plan.beta_star_low) * 2.0 ** -plan.u_n
    j_ref = np.full(plan.mesh_count + 1, -1, dtype=np.int64)
    return _assemble(split, plan, q_n, j_ref, np.full(plan.mesh_count, h_ref))


# Bisections of an undecided cell; 30 halvings of a 3e-5 cell leave ~250 ulps.
_REFINE_LEVELS = 30


def covers_truth(band: ConfidenceBand, density: AnalyticDensity, truth: tuple[np.ndarray, ...]) -> Optional[bool]:
    """Whether the density lies in the band at every t in [0, 1]: True,
    False, or None if still undecided after _REFINE_LEVELS bisections.

    `truth` is density.cells_extrema(cell_edges(plan)): per cell, values lo
    and hi the density takes there and a slack such that [lo - slack,
    hi + slack] holds its true range.  A cell whose band interval holds that
    enclosure is covered.  One whose interval misses lo or hi is not; where
    there is slack (series terms) the miss must exceed density.value_error,
    the error of a computed value.  Every other cell is bisected and its
    halves decided from their own enclosures.  Without slack none is left.
    """
    lo, hi, slack = truth
    band_lo, band_hi = band.centers - band.halfwidths, band.centers + band.halfwidths
    for level in range(_REFINE_LEVELS + 1):
        if np.all(band_lo <= lo - slack) and np.all(hi + slack <= band_hi):
            return True
        err = np.where(slack > 0.0, density.value_error, 0.0)
        if np.any((lo < band_lo - err) | (hi > band_hi + err)):
            return False
        open_ = (lo - slack < band_lo) | (hi + slack > band_hi)
        # an infinite slack (series exponent 1) never shrinks
        if level == _REFINE_LEVELS or not np.isfinite(slack[open_]).all():
            return None
        if level == 0:  # the mesh's edges are needed only to bisect
            edges = cell_edges(band.plan)
            left, right = edges[:-1], edges[1:]
        mid = 0.5 * (left[open_] + right[open_])
        left, right = np.column_stack([left[open_], mid]).ravel(), np.column_stack([mid, right[open_]]).ravel()
        band_lo, band_hi = np.repeat(band_lo[open_], 2), np.repeat(band_hi[open_], 2)
        # the halves are cells of their joint edges; the gaps between them are ignored
        sub = np.unique(np.concatenate([left, right]))
        lo, hi, slack = (a[np.searchsorted(sub, left)] for a in density.cells_extrema(sub))


def write_band_csv(band: ConfidenceBand, fh: TextIO) -> None:
    """Stream the band to `fh` as CSV: k, t_lo, t_hi, center, lo, hi, h_loc, j_hat_left, j_hat_right."""
    d = band.plan.delta_n
    j_left, j_right = band.j_hat[:-1], band.j_hat[1:]

    def prefixes(start: int, stop: int) -> list[str]:
        # rows start..stop - 1 are cells k = start + 1..stop; a cell's t_lo is the last one's t_hi
        t = [f"{k * d:.12g}" for k in range(start, stop + 1)]
        return [f"{k},{t_lo},{t_hi}," for k, t_lo, t_hi in zip(range(start + 1, stop + 1), t, t[1:])]

    def tail(i: int) -> str:
        c, hw = band.centers[i], band.halfwidths[i]
        return (
            f"{c:.12g},{c - hw:.12g},{c + hw:.12g},{band.h_loc[i]:.12g},"
            f"{j_left[i]},{j_right[i]}\n"
        )

    write_csv(
        fh,
        "k,t_lo,t_hi,center,lo,hi,h_loc,j_hat_left,j_hat_right\n",
        prefixes,
        (band.centers, band.halfwidths, band.h_loc, j_left, j_right),
        tail,
    )
