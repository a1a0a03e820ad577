"""Kernel constructors with certified metadata, plus convolution and bias oracles.

Everything downstream (bandwidth selection thresholds, band normalizers,
admissibility checks) consumes the frozen kernel metadata computed here once
at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidIntervalError,
    InvalidToleranceError,
    QuadratureError,
    UnsupportedKernelError,
    UnsupportedMomentError,
)

MAX_MOMENT = 12
MOMENT_TOL = 1e-10
DEFAULT_CONV_TOL = 1e-9


@dataclass(frozen=True)
class Kernel:
    """A symmetric kernel supported on [-support_radius, support_radius].

    The metadata fields (order, tv, norms) are computed once by quadrature
    and jump enumeration when the kernel is constructed and then frozen;
    downstream constants such as sqrt(2)/tv rely on them being stable.

    ``flat_pieces`` lists (lo, hi, value) triples on which the kernel is
    constant (closed intervals, in kernel coordinates).  The estimator, the
    band centers and convolution are computed from these pieces, so they
    accept only kernels that set it.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    order: int
    tv: float
    norm_l1: float
    norm_l2_sq: float
    norm_sup: float
    symmetric: bool
    jumps: tuple[float, ...] = ()
    flat_pieces: Optional[tuple[tuple[float, float, float], ...]] = None

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


def _simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, panels: int) -> float:
    x = np.linspace(a, b, 2 * panels + 1)
    y = f(x)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def _split_points(a: float, b: float, cuts: Sequence[float]) -> list[float]:
    pts = [a, b] + [c for c in cuts if a < c < b]
    return sorted(set(pts))


def segmented_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cuts: Sequence[float],
    tol: float,
    max_panels: int = 1 << 20,
) -> float:
    """Composite Simpson on a mesh subordinate to the given discontinuities.

    Each smooth segment is refined by doubling until two successive
    estimates agree within its share of ``tol``.  Raises QuadratureError if
    a segment fails to converge (e.g. an integrand rough at all scales).
    """
    pts = _split_points(a, b, cuts)
    nseg = len(pts) - 1
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        seg_tol = tol * max((hi - lo) / (b - a), 1e-3) / 2.0
        panels = 8
        prev = _simpson(f, lo, hi, panels)
        while True:
            panels *= 2
            cur = _simpson(f, lo, hi, panels)
            if abs(cur - prev) <= seg_tol:
                total += cur
                break
            if panels >= max_panels:
                raise QuadratureError(
                    f"quadrature did not reach tol={tol:g} on [{lo:g},{hi:g}] "
                    f"(last refinement moved by {abs(cur - prev):.3g})"
                )
            prev = cur
    return total


def _metadata_from_quadrature(evaluate, radius, jumps):
    """Order, variation and norms for a candidate kernel, by quadrature plus
    jump enumeration on a mesh split at the discontinuities."""
    cuts = list(jumps)
    mass = segmented_simpson(lambda x: evaluate(x), -radius, radius, cuts, 1e-12)
    norm_l1 = segmented_simpson(lambda x: np.abs(evaluate(x)), -radius, radius, cuts, 1e-12)
    norm_l2_sq = segmented_simpson(lambda x: evaluate(x) ** 2, -radius, radius, cuts, 1e-12)

    probe = np.linspace(-radius, radius, 4097)
    norm_sup = float(np.abs(evaluate(probe)).max())

    order = 0
    for j in range(1, MAX_MOMENT + 1):
        m = segmented_simpson(lambda x, jj=j: (x ** jj) * evaluate(x), -radius, radius, cuts, 1e-12)
        if abs(m) > 1e-6:
            order = j - 1
            break
    else:
        raise QuadratureError("no nonzero moment up to MAX_MOMENT: cannot certify kernel order")

    # Total variation: smooth variation on segments between jumps, plus the
    # jump magnitudes (boundary jumps against the zero extension included).
    eps = 1e-9 * max(radius, 1.0)
    tv = 0.0
    pts = _split_points(-radius, radius, cuts)
    for lo, hi in zip(pts[:-1], pts[1:]):
        grid = np.linspace(lo + eps, hi - eps, 2049)
        tv += float(np.abs(np.diff(evaluate(grid))).sum())
    interior = [p for p in pts if -radius < p < radius]
    for p in interior:
        left = float(evaluate(np.array([p - eps]))[0])
        right = float(evaluate(np.array([p + eps]))[0])
        at = float(evaluate(np.array([p]))[0])
        tv += abs(at - left) + abs(right - at)
    # support edges: the kernel is 0 outside
    tv += abs(float(evaluate(np.array([-radius]))[0]))
    tv += abs(float(evaluate(np.array([radius]))[0]))

    sym_probe = np.linspace(0.0, radius, 513)
    symmetric = bool(np.allclose(evaluate(sym_probe), evaluate(-sym_probe), atol=1e-12))

    if abs(mass - 1.0) > 1e-10:
        raise QuadratureError(f"kernel mass {mass!r} deviates from one beyond 1e-10")
    return order, tv, norm_l1, norm_l2_sq, norm_sup, symmetric


def make_rectangular() -> Kernel:
    """The rectangular kernel: 1/2 on the closed interval [-1, 1], 0 outside."""

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, 0.5, 0.0)

    order, tv, l1, l2sq, sup, symmetric = _metadata_from_quadrature(evaluate, 1.0, ())
    return Kernel(
        name="rectangular",
        evaluate=evaluate,
        support_radius=1.0,
        order=order,
        tv=tv,
        norm_l1=l1,
        norm_l2_sq=l2sq,
        norm_sup=sup,
        symmetric=symmetric,
        jumps=(-1.0, 1.0),
        flat_pieces=((-1.0, 1.0, 0.5),),
    )


def kernel_moment(kernel: Kernel, j: int) -> float:
    """j-th moment of the kernel by composite quadrature (abs error <= 1e-10)."""
    if j < 0 or j > MAX_MOMENT:
        raise UnsupportedMomentError(f"moment order {j} outside supported range 0..{MAX_MOMENT}")
    r = kernel.support_radius
    return segmented_simpson(
        lambda x: (x ** j) * kernel.evaluate(x), -r, r, kernel.jumps, MOMENT_TOL
    )


def require_flat_pieces(kernel: Kernel) -> tuple[tuple[float, float, float], ...]:
    """The kernel's constant pieces; raises UnsupportedKernelError for a
    kernel that is not piecewise constant."""
    if kernel.flat_pieces is None:
        raise UnsupportedKernelError(
            f"kernel {kernel.name!r} is not piecewise constant (flat_pieces is None); "
            "only piecewise-constant kernels are supported"
        )
    return kernel.flat_pieces


def convolve_at(kernel: Kernel, density, h: float, s: float, tol: float = DEFAULT_CONV_TOL) -> float:
    """Value of (K_h * p)(s) = int K(x) p(s + h x) dx with error <= tol.

    The piecewise-constant kernel is convolved exactly through the
    density's closed-form interval masses (only the cosine-series tail,
    bounded by tol, is truncated).
    """
    if tol <= 0:
        raise InvalidToleranceError(f"tolerance must be positive, got {tol!r}")
    if h <= 0:
        raise InvalidIntervalError(f"bandwidth must be positive, got {h!r}")
    return float(convolve_grid(kernel, density, h, np.array([float(s)]), tol)[0])


def convolve_grid(kernel: Kernel, density, h: float, points: np.ndarray, tol: float = DEFAULT_CONV_TOL) -> np.ndarray:
    """Vectorized convolve_at over an array of evaluation points."""
    if tol <= 0:
        raise InvalidToleranceError(f"tolerance must be positive, got {tol!r}")
    points = np.asarray(points, dtype=float)
    out = np.zeros_like(points)
    for lo, hi, val in require_flat_pieces(kernel):
        out += (val / h) * density.mass_between(points + h * lo, points + h * hi, tol=tol)
    return out


def sup_abs_bias(
    kernel: Kernel,
    density,
    g: float,
    interval: tuple[float, float],
    grid_step: Optional[float] = None,
    tol: float = DEFAULT_CONV_TOL,
) -> float:
    """Grid maximum of |(K_g * p)(s) - p(s)| over {lo, lo+step, ..., hi}.

    This is a certified lower bound for the supremum over the interval,
    converging to it as grid_step -> 0.  The default step g/64 puts the
    grid resolution two orders below every threshold it is compared to.
    """
    lo, hi = interval
    if not (lo < hi):
        raise InvalidIntervalError(f"degenerate interval [{lo!r}, {hi!r}]")
    if g <= 0:
        raise InvalidIntervalError(f"bandwidth must be positive, got {g!r}")
    if grid_step is None:
        grid_step = g / 64.0
    if grid_step > (hi - lo) / 16.0:
        raise InvalidIntervalError(
            f"grid_step {grid_step!r} too coarse for interval of length {hi - lo!r}"
        )
    npts = int(math.floor((hi - lo) / grid_step + 1e-9)) + 1
    grid = lo + grid_step * np.arange(npts)
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid = np.append(grid, hi)
    conv = convolve_grid(kernel, density, g, grid, tol)
    return float(np.abs(conv - density.pdf(grid)).max())
