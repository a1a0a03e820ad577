"""Sample splitting and kernel density estimation.

The selector consumes a table of estimates over an extended mesh (the mesh
points of [0,1] plus the margin its spatial maximum reaches into), filled by
sorted rank queries against the kernel's constant pieces.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .calibration import CalibrationPlan
from .errors import InsufficientDataError, InvalidBandwidthError
from .kernels import Kernel

# Lines per chunk of parse_data_file.
PARSE_CHUNK = 1 << 16


@dataclass(frozen=True)
class SplitSample:
    """The two halves, sorted for rank queries; estimates never depend on
    the order, so sorting is purely an internal representation.

    ``token`` is a random 64-bit identifier of this split, so that estimates
    from different splits cannot be mixed even when they come from
    different processes."""

    chi1: np.ndarray
    chi2: np.ndarray
    n_tilde: int
    token: int

    def half(self, half_id: int) -> np.ndarray:
        if half_id not in (1, 2):
            raise ValueError(f"half_id must be 1 or 2, got {half_id!r}")
        return self.chi1 if half_id == 1 else self.chi2


def split_sample(data) -> SplitSample:
    """First n~ points to half 1, next n~ to half 2, odd point dropped."""
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {arr.size}")
    nt = arr.size // 2
    return SplitSample(
        chi1=np.sort(arr[:nt]),
        chi2=np.sort(arr[nt:2 * nt]),
        n_tilde=nt,
        token=secrets.randbits(64),
    )


def kde_at(half: np.ndarray, t: float, h: float, kernel: Kernel) -> float:
    """(1/m) sum_i K((X_i - t)/h) / h by direct summation."""
    if h <= 0.0:
        raise InvalidBandwidthError(f"bandwidth must be positive, got {h!r}")
    half = np.asarray(half, dtype=float)
    if half.size == 0:
        raise InsufficientDataError("empty subsample")
    return float(kernel((half - t) / h).sum() / (half.size * h))


def rank_query_kde(sorted_half: np.ndarray, points: np.ndarray, h: float | np.ndarray, kernel: Kernel) -> np.ndarray:
    """Estimates at `points` with bandwidth h (a scalar, or one per point)
    by sorted rank queries against the kernel's constant pieces."""
    m = sorted_half.size
    out = np.zeros_like(points)
    for lo, hi, val in kernel.pieces:
        # K((X - t)/h) = val for t + h*lo <= X <= t + h*hi (closed pieces)
        left = np.searchsorted(sorted_half, points + h * lo, side="left")
        right = np.searchsorted(sorted_half, points + h * hi, side="right")
        out += val * (right - left)
    return out / (m * h)


@dataclass(frozen=True)
class KdeTable:
    """Estimates p_hat(i * delta_n, j) for mesh indices idx_lo..idx_hi and
    all bandwidth exponents of the plan's grid."""

    plan: CalibrationPlan
    half_id: int
    split_token: int
    idx_lo: int
    idx_hi: int
    values: np.ndarray  # shape (j_max - j_min + 1, idx_hi - idx_lo + 1)

    def row(self, j: int) -> np.ndarray:
        return self.values[j - self.plan.j_min]

    def value(self, idx: int, j: int) -> float:
        return float(self.values[j - self.plan.j_min, idx - self.idx_lo])


def ball_offset(plan: CalibrationPlan, j: int) -> int:
    """Largest mesh-index offset inside the selector's open ball of radius
    (7/8) 2^-j; at j_min it is the margin a table needs around its queries."""
    rho = (7.0 / 8.0) * 2.0 ** -j * plan.mesh_count
    return max(0, math.ceil(rho - 1e-9) - 1)


def build_kde_table(
    split: SplitSample,
    plan: CalibrationPlan,
    kernel: Kernel,
    half_id: int,
    idx_lo: Optional[int] = None,
    idx_hi: Optional[int] = None,
) -> KdeTable:
    """Precompute the estimate table the selector consumes.

    The default index range covers the mesh of [0,1] plus the selector
    margin.  Each entry costs O(log n~) rank queries.
    """
    if plan.j_max < plan.j_min:
        raise InvalidBandwidthError("empty bandwidth grid")
    margin = ball_offset(plan, plan.j_min)
    if idx_lo is None:
        idx_lo = -margin
    if idx_hi is None:
        idx_hi = plan.mesh_count + margin
    half = split.half(half_id)
    points = np.arange(idx_lo, idx_hi + 1, dtype=float) * plan.delta_n
    rows = [rank_query_kde(half, points, 2.0 ** -j, kernel) for j in plan.bandwidth_exponents]
    return KdeTable(
        plan=plan,
        half_id=half_id,
        split_token=split.token,
        idx_lo=idx_lo,
        idx_hi=idx_hi,
        values=np.vstack(rows),
    )


def parse_data_file(path: str) -> np.ndarray:
    """Plain text, one finite real per line; blank lines are permitted.

    Lines are read in chunks; numpy converts each chunk's stripped lines
    with float()'s grammar.  A chunk that does not convert to finite values
    sends the whole file through _parse_lines, which names the first bad
    line."""
    parts = []
    with open(path, "r", encoding="utf-8") as fh:
        while raw := list(islice(fh, PARSE_CHUNK)):
            lines = [line for line in map(str.strip, raw) if line]
            try:
                values = np.array(lines, dtype=float)
            except ValueError:
                return _parse_lines(path)
            if not np.isfinite(values).all():
                return _parse_lines(path)
            parts.append(values)
    return np.concatenate(parts) if parts else np.empty(0)


def _parse_lines(path: str) -> np.ndarray:
    """parse_data_file one line at a time, raising on the first bad line."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                x = float(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: not a real number: {raw!r}") from exc
            if not math.isfinite(x):
                raise ValueError(f"line {lineno}: non-finite entry {raw!r}")
            values.append(x)
    return np.asarray(values, dtype=float)
