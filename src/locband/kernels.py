"""Piecewise-constant kernels, plus convolution and bias oracles.

Everything downstream (bandwidth selection thresholds, band normalizers,
the bias checks of the verify suite) consumes the kernel's order, total
variation and norms, which are exact finite sums over its constant pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_MOMENT = 12


@dataclass(frozen=True)
class Kernel:
    """A kernel that takes the value v on each closed piece [lo, hi] of
    ``pieces`` (kernel coordinates, ordered and non-degenerate) and 0
    elsewhere; values add where two pieces share an endpoint.

    The estimator, the band centers and convolution all count observations
    against these closed pieces.
    """

    name: str
    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        ordered = all(lo < hi for lo, hi, _ in self.pieces) and all(
            a[1] <= b[0] for a, b in zip(self.pieces, self.pieces[1:])
        )
        if not (self.pieces and ordered):
            raise ValueError(f"kernel {self.name!r}: pieces must be ordered and non-degenerate")
        mass = self.moment(0)
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"kernel {self.name!r}: mass {mass!r} is not one")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return sum(v * ((lo <= x) & (x <= hi)) for lo, hi, v in self.pieces)

    def moment(self, j: int) -> float:
        """int x^j K(x) dx, summed exactly over the pieces (so the odd
        moments of a symmetric kernel are exactly 0)."""
        return math.fsum(v * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1) for lo, hi, v in self.pieces)

    @property
    def order(self) -> int:
        """One less than the first nonzero moment j >= 1."""
        for j in range(1, MAX_MOMENT + 1):
            if self.moment(j) != 0.0:
                return j - 1
        raise ValueError(f"kernel {self.name!r}: moments 1..{MAX_MOMENT} all vanish")

    @property
    def tv(self) -> float:
        """Total variation: the jumps between pieces, and from and back to 0
        at the support edges and across gaps."""
        levels, edge = [0.0], self.pieces[0][0]
        for lo, hi, v in self.pieces:
            levels += [0.0, v] if lo > edge else [v]
            edge = hi
        levels.append(0.0)
        return math.fsum(abs(b - a) for a, b in zip(levels, levels[1:]))

    @property
    def norm_l1(self) -> float:
        return math.fsum(abs(v) * (hi - lo) for lo, hi, v in self.pieces)


def make_rectangular() -> Kernel:
    """The rectangular kernel: 1/2 on the closed interval [-1, 1], 0 outside."""
    return Kernel("rectangular", ((-1.0, 1.0, 0.5),))


def convolve_grid(kernel: Kernel, density, h: float, points: np.ndarray) -> np.ndarray:
    """Values of (K_h * p)(s) = int K(x) p(s + h x) dx at every s in `points`.

    Each constant piece of the kernel weighs the density's closed-form mass
    over an interval, so the values are exact up to rounding for polynomial
    densities.  For a cosine-series member the masses are those of the
    series truncated at its WeierstrassSpec, which differs from the full
    series by at most SERIES_TOL per unit of term scale at every point; the
    error is therefore at most norm_l1 * sum(|scale|) * SERIES_TOL.
    """
    points = np.asarray(points, dtype=float)
    out = np.zeros_like(points)
    for lo, hi, val in kernel.pieces:
        out += (val / h) * density.mass_between(points + h * lo, points + h * hi)
    return out


def sup_abs_bias(kernel: Kernel, density, g: float, interval: tuple[float, float]) -> float:
    """Grid maximum of |(K_g * p)(s) - p(s)| over {lo, lo+g/64, ..., hi}.

    This is a certified lower bound for the supremum over the interval.
    The step g/64 puts the grid resolution two orders below every
    threshold it is compared to.
    """
    lo, hi = interval
    if not (lo < hi):
        raise ValueError(f"degenerate interval [{lo!r}, {hi!r}]")
    if g <= 0:
        raise ValueError(f"bandwidth must be positive, got {g!r}")
    step = g / 64.0
    npts = int(math.floor((hi - lo) / step + 1e-9)) + 1
    grid = lo + step * np.arange(npts)
    if grid[-1] < hi - 1e-12 * max(1.0, abs(hi)):
        grid = np.append(grid, hi)
    conv = convolve_grid(kernel, density, g, grid)
    return float(np.abs(conv - density.pdf(grid)).max())
