"""Sample splitting and kernel density estimation.

The selector consumes a table of the bandwidth rows it reads over a run of
mesh points plus the margin its ball maxima reach into, each column filled by
an O(n~ + N) counting pass.  A table built from a sample can widen, column by
column, up to the whole selector margin, so a fit counts only the columns its
balls reach.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, replace
from itertools import islice
from typing import Optional

import numpy as np

from .calibration import CalibrationPlan
from .forked import cut_runs, fork_map
from .kernels import Kernel

# Lines per chunk of parse_data_file.
PARSE_CHUNK = 1 << 16
# Bytes of a typical data line, such as "0.12345678901234567\n": a file's
# size in lines, as fork_map counts work, is its size in bytes over this.
_LINE_BYTES = 20


@dataclass(frozen=True)
class SplitSample:
    """The two halves, sorted for rank queries; estimates never depend on
    the order, so sorting is purely an internal representation."""

    chi1: np.ndarray
    chi2: np.ndarray
    n_tilde: int


def split_sample(data) -> SplitSample:
    """First n~ points to half 1, next n~ to half 2, odd point dropped."""
    arr = np.asarray(data, dtype=float).ravel()
    if arr.size < 4:
        raise ValueError(f"need at least 4 observations, got {arr.size}")
    nt = arr.size // 2
    return SplitSample(chi1=np.sort(arr[:nt]), chi2=np.sort(arr[nt:2 * nt]), n_tilde=nt)


def kde_at(half: np.ndarray, t: float, h: float, kernel: Kernel) -> float:
    """(1/m) sum_i K((X_i - t)/h) / h by direct summation."""
    if h <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {h!r}")
    half = np.asarray(half, dtype=float)
    if half.size == 0:
        raise ValueError("empty subsample")
    return float(kernel((half - t) / h).sum() / (half.size * h))


def rank_query_kde(sorted_half: np.ndarray, points: np.ndarray, h: float | np.ndarray, kernel: Kernel) -> np.ndarray:
    """Estimates at `points` with bandwidth h (a scalar, or one per point)
    by binary searches against the kernel's constant pieces: the band
    centers' path, and the oracle of build_kde_table's rows."""
    m = sorted_half.size
    out = np.zeros_like(points)
    for lo, hi, val in kernel.pieces:
        # K((X - t)/h) = val for t + h*lo <= X <= t + h*hi (closed pieces)
        left = np.searchsorted(sorted_half, points + h * lo, side="left")
        right = np.searchsorted(sorted_half, points + h * hi, side="right")
        out += val * (right - left)
    return out / (m * h)


@dataclass(frozen=True)
class _Store:
    """What lets a table widen: the sorted half its columns count, and the
    buffer over mesh indices lo.. (its run plus the selector margin) that
    its values are a view of."""

    half: np.ndarray
    buffer: np.ndarray
    lo: int


@dataclass(frozen=True)
class KdeTable:
    """Estimates p_hat(i * delta_n, j) for mesh indices idx_lo..idx_hi and
    j = j_min + 3..j_max, the only rows the selector's pairs m > m' >= j + 3 read.
    A table built from a sample can widen up to its run plus the selector
    margin; one without a store cannot widen."""

    plan: CalibrationPlan
    idx_lo: int
    idx_hi: int
    values: np.ndarray  # shape (max(j_max - j_min - 2, 0), idx_hi - idx_lo + 1)
    store: Optional[_Store] = None

    def row(self, j: int) -> np.ndarray:
        first = self.plan.j_min + 3
        if not first <= j <= self.plan.j_max:
            raise ValueError(f"the table holds rows j = {first}..{self.plan.j_max}; row {j} was not built")
        return self.values[j - first]

    @property
    def capacity(self) -> tuple[int, int]:
        """The first and last mesh index the table can span."""
        if self.store is None:
            return self.idx_lo, self.idx_hi
        return self.store.lo, self.store.lo + self.store.buffer.shape[1] - 1

    def widened(self, idx_lo: int, idx_hi: int) -> KdeTable:
        """The table over idx_lo..idx_hi, which holds its span and lies in its
        capacity; only the new edge columns are counted, each against its own
        float edges, so they equal a whole build's bit for bit."""
        if (idx_lo, idx_hi) == (self.idx_lo, self.idx_hi):
            return self
        cap_lo, cap_hi = self.capacity
        if not (cap_lo <= idx_lo <= self.idx_lo and self.idx_hi <= idx_hi <= cap_hi):
            raise ValueError(f"a table over {self.idx_lo}..{self.idx_hi} cannot widen to {idx_lo}..{idx_hi} "
                             f"(its capacity is {cap_lo}..{cap_hi})")
        buffer, lo = self.store.buffer, self.store.lo
        _count_columns(buffer[:, idx_lo - lo:self.idx_lo - lo], self.store.half, self.plan, idx_lo)
        _count_columns(buffer[:, self.idx_hi + 1 - lo:idx_hi + 1 - lo], self.store.half, self.plan, self.idx_hi + 1)
        return replace(self, idx_lo=idx_lo, idx_hi=idx_hi, values=buffer[:, idx_lo - lo:idx_hi + 1 - lo])


def ball_offset(plan: CalibrationPlan, j: int) -> int:
    """Largest mesh-index offset a inside the selector's open ball of radius
    (7/8) 2^-j, a delta_n < (7/8) 2^-j, in exact integers; at j_min it is
    the margin a table needs around its queries."""
    return max(0, (7 * plan.mesh_count - 1) // 2 ** (j + 3))


def _rank_bins(sorted_x: np.ndarray, edges: np.ndarray, side: str) -> np.ndarray:
    """Increments whose cumsum is np.searchsorted(sorted_x, edges, side) for
    non-decreasing, nearly even edges, in O(len(sorted_x) + N): each x between
    the first and last edge gets the bin k with e[k] <= x < e[k+1] ("left";
    e[k] < x <= e[k+1] for "right"), guessed from the mean spacing and moved
    until the float edges confirm it, so the counts are exact."""
    first = np.searchsorted(sorted_x, edges[0], side)
    x = sorted_x[first:np.searchsorted(sorted_x, edges[-1], side)]
    bins = np.zeros(edges.size, dtype=np.intp)
    bins[0] = first
    if not x.size:
        return bins
    k = ((x - edges[0]) * ((edges.size - 1) / (edges[-1] - edges[0]))).astype(np.intp)
    np.clip(k, 0, edges.size - 2, out=k)
    below, above = (np.less, np.greater_equal) if side == "left" else (np.less_equal, np.greater)
    for move, outside, bound in ((-1, below, edges), (1, above, edges[1:])):
        bad = np.flatnonzero(outside(x, np.take(bound, k)))
        while bad.size:
            k[bad] += move
            bad = bad[outside(x[bad], bound[k[bad]])]
    bins[1:] = np.bincount(k, minlength=edges.size - 1)
    return bins


def _count_columns(out: np.ndarray, half: np.ndarray, plan: CalibrationPlan, first: int) -> None:
    """Fill out[r, i] with the estimate of row j_min + 3 + r at mesh index
    first + i.  A row over N indices costs O(n~ + N) per kernel piece and
    equals rank_query_kde's bit for bit: it counts against the same float edges."""
    if not out.shape[1]:
        return
    points = np.arange(first, first + out.shape[1], dtype=float) * plan.delta_n
    out[...] = 0.0
    for row, j in zip(out, range(plan.j_min + 3, plan.j_max + 1)):
        h = 2.0 ** -j
        for lo, hi, val in plan.kernel.pieces:
            # observations in [t + h*lo, t + h*hi], counted as rank_query_kde does
            bins = _rank_bins(half, points + h * hi, "right")
            bins -= _rank_bins(half, points + h * lo, "left")
            row += val * np.cumsum(bins)
        row /= half.size * h


def build_kde_table(
    split: SplitSample, plan: CalibrationPlan, k_lo: int = 0, k_hi: Optional[int] = None, j_reach: Optional[int] = None
) -> KdeTable:
    """The rows j_min + 3..j_max the selector reads, from the second half of
    the split (the first is left for the band centers), over the mesh indices
    k_lo..k_hi (the whole mesh by default) plus the ball at exponent j_reach
    (at j_min, the whole selector margin, by default).  The table can widen
    to the whole margin."""
    if plan.j_max < plan.j_min:
        raise ValueError("empty bandwidth grid")
    k_hi = plan.mesh_count if k_hi is None else k_hi
    margin = ball_offset(plan, plan.j_min)
    reach = ball_offset(plan, plan.j_min if j_reach is None else max(j_reach, plan.j_min))
    buffer = np.empty((max(plan.j_max - plan.j_min - 2, 0), k_hi - k_lo + 1 + 2 * margin))
    empty = KdeTable(plan, k_lo, k_lo - 1, buffer[:, margin:margin], _Store(split.chi2, buffer, k_lo - margin))
    return empty.widened(k_lo - reach, k_hi + reach)


def parse_data_file(path: str) -> np.ndarray:
    """Plain text, one finite real per line; blank lines are permitted.

    The input is read once, in chunks of lines; numpy converts each chunk's
    stripped lines with float()'s grammar, and a chunk that does not convert
    to finite values is checked again line by line, from memory, naming its
    first bad line.  A regular file large enough for fork_map is cut by
    forked.cut_runs into one byte range per worker, which each worker
    moves to just after newlines and parses the same way; if any range
    fails, the whole file is parsed again here, so that the error is the
    serial parse's.  A pipe or FIFO is read once, serially."""
    if os.path.isfile(path):
        size = os.path.getsize(path)
        ranges = cut_runs(size, size // _LINE_BYTES)
        if len(ranges) > 1:
            parts = list(fork_map(lambda r: _parse_range(path, *r), ranges, size // _LINE_BYTES))
            if all(part is not None for part in parts):
                return np.concatenate(parts)
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_chunks(fh)


def _parse_range(path: str, lo: int, hi: int) -> Optional[np.ndarray]:
    """The values between the cuts lo and hi of the file, each moved to just
    after the first newline at or after it (0 stays 0), or None if they do
    not parse."""
    with open(path, "rb") as raw:
        ends = []
        for cut in (lo, hi):
            raw.seek(cut)
            if cut:
                raw.readline()
            ends.append(raw.tell())
        raw.seek(ends[0])
        data = raw.read(ends[1] - ends[0])
    try:
        return _parse_chunks(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except ValueError:  # a bad line, or bytes that are not UTF-8
        return None


def _parse_chunks(fh) -> np.ndarray:
    """The values of the text file fh, converted PARSE_CHUNK lines at a time;
    a chunk that does not convert to finite values goes to _parse_lines."""
    parts, first = [], 1
    while raw := list(islice(fh, PARSE_CHUNK)):
        try:
            values = np.array([line for line in map(str.strip, raw) if line], dtype=float)
        except ValueError:
            values = _parse_lines(raw, first)
        if not np.isfinite(values).all():
            values = _parse_lines(raw, first)
        parts.append(values)
        first += len(raw)
    return np.concatenate(parts) if parts else np.empty(0)


def _parse_lines(lines: list[str], first: int) -> np.ndarray:
    """The values of `lines`, numbered from `first`, converted one line at a
    time, raising on the first bad line."""
    values = []
    for lineno, raw in enumerate(lines, start=first):
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
