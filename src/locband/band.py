"""Piecewise-constant confidence bands.

Cells are right-open except the last: I_k = [(k-1) d, k d) for
k = 1..1/d - 1 and I_{1/d} = [1 - d, 1].  Centers are first-half estimates
at the cell's right-endpoint mesh point with the profile's undersmoothed
bandwidth; half-widths are q_n(alpha) / sqrt(n~ h_loc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .calibration import CalibrationPlan, band_halfwidth_quantile, optimal_bandwidth
from .csvtext import write_csv
from .errors import CrossSampleContaminationError, OutOfDomainError
from .estimator import SplitSample, rank_query_kde
from .kernels import Kernel
from .selector import BandwidthProfile


@dataclass(frozen=True)
class ConfidenceBand:
    plan: CalibrationPlan
    alpha: float
    q_n: float
    centers: np.ndarray      # cell k = 1..mesh_count
    halfwidths: np.ndarray
    h_loc: np.ndarray
    j_hat_left: np.ndarray
    j_hat_right: np.ndarray


def cell_of(plan: CalibrationPlan, t: float) -> int:
    """The cell k that holds t: right-open cells, the last closed at 1."""
    if not (0.0 <= t <= 1.0):
        raise OutOfDomainError(f"point {t!r} outside [0,1]")
    return min(int(math.floor(t / plan.delta_n)) + 1, plan.mesh_count)


def cell_edges(plan: CalibrationPlan) -> np.ndarray:
    """Edges 0, delta_n, ..., mesh_count delta_n of the plan's cells."""
    return np.arange(plan.mesh_count + 1, dtype=float) * plan.delta_n


def _centers_for(split: SplitSample, plan: CalibrationPlan, kernel: Kernel, h_loc: np.ndarray) -> np.ndarray:
    points = np.arange(1, plan.mesh_count + 1, dtype=float) * plan.delta_n
    return rank_query_kde(split.chi1, points, h_loc, kernel)


def build_band(
    split: SplitSample,
    profile: BandwidthProfile,
    kernel: Kernel,
    alpha: float,
) -> ConfidenceBand:
    """Assemble the band on the profile's plan: centers from the first half
    at bandwidths selected on the second half, half-widths from the
    calibrated quantile."""
    if profile.split_token != split.token:
        raise CrossSampleContaminationError(
            "bandwidth profile must be selected on the second half of this split"
        )
    plan = profile.plan
    q_n = band_halfwidth_quantile(plan, alpha)
    centers = _centers_for(split, plan, kernel, profile.h_loc)
    halfwidths = q_n / np.sqrt(plan.n_tilde * profile.h_loc)
    return ConfidenceBand(
        plan=plan,
        alpha=alpha,
        q_n=q_n,
        centers=centers,
        halfwidths=halfwidths,
        h_loc=profile.h_loc.copy(),
        j_hat_left=profile.j_hat[:-1].copy(),
        j_hat_right=profile.j_hat[1:].copy(),
    )


def reference_global_band(
    split: SplitSample,
    plan: CalibrationPlan,
    kernel: Kernel,
    alpha: float,
) -> ConfidenceBand:
    """Non-adaptive baseline: the worst-case bandwidth h_{beta_*} 2^-u_n in
    every cell, same centers and quantile construction."""
    h_ref = optimal_bandwidth(plan, plan.beta_star_low) * 2.0 ** -plan.u_n
    h_loc = np.full(plan.mesh_count, h_ref)
    q_n = band_halfwidth_quantile(plan, alpha)
    centers = _centers_for(split, plan, kernel, h_loc)
    j_ref = np.full(plan.mesh_count, -1, dtype=np.int64)
    return ConfidenceBand(
        plan=plan,
        alpha=alpha,
        q_n=q_n,
        centers=centers,
        halfwidths=q_n / np.sqrt(plan.n_tilde * h_loc),
        h_loc=h_loc,
        j_hat_left=j_ref,
        j_hat_right=j_ref,
    )


def covers_truth(band: ConfidenceBand, truth: tuple[np.ndarray, np.ndarray]) -> bool:
    """True iff every cell's interval contains the density's range on it;
    `truth` is that range per cell, density.cells_extrema(cell_edges(plan))."""
    lo, hi = truth
    return bool(
        np.all(band.centers - band.halfwidths <= lo)
        and np.all(hi <= band.centers + band.halfwidths)
    )


def write_band_csv(band: ConfidenceBand, fh: TextIO) -> None:
    """Stream the band to `fh` as CSV: k, t_lo, t_hi, center, lo, hi, h_loc, j_hat_left, j_hat_right."""
    d = band.plan.delta_n

    def prefixes():
        t_lo = f"{0 * d:.12g}"
        for k in range(1, band.plan.mesh_count + 1):
            t_hi = f"{k * d:.12g}"  # and row k + 1's t_lo
            yield f"{k},{t_lo},{t_hi},"
            t_lo = t_hi

    def tail(i: int) -> str:
        c, hw = band.centers[i], band.halfwidths[i]
        return (
            f"{c:.12g},{c - hw:.12g},{c + hw:.12g},{band.h_loc[i]:.12g},"
            f"{band.j_hat_left[i]},{band.j_hat_right[i]}\n"
        )

    write_csv(
        fh,
        "k,t_lo,t_hi,center,lo,hi,h_loc,j_hat_left,j_hat_right\n",
        prefixes(),
        (band.centers, band.halfwidths, band.h_loc, band.j_hat_left, band.j_hat_right),
        tail,
    )
