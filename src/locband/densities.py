"""Closed-form test densities: rough cosine-series members, tent and peak
triangles, their locally flattened perturbations, plus the Hoelder-norm and
divergence oracles the experiments check against; none reads a plan.

Every density is piecewise: each piece is a polynomial plus optionally a
lacunary cosine series sum_{k>=0} 2^{-k beta} cos(2^k pi (x - c)).  Values,
interval masses and antiderivatives come in closed form per piece from one
evaluator, AnalyticDensity._gathered, which makes exact convolution against
piecewise-constant kernels possible (naive quadrature cannot resolve the series).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

# the absolute error of a truncated series value
SERIES_TOL = 1e-12
# the most series terms an evaluation sums: beta = 0.1 needs 438 at SERIES_TOL
MAX_SERIES_DEPTH = 4096


# ---------------------------------------------------------------------------
# lacunary cosine series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeierstrassSpec:
    """Truncation policy for W_beta(x) = sum_k 2^{-k beta} cos(2^k pi x).

    The tail past depth N is exactly geometric, so the depth satisfying
    2^{-N beta} / (1 - 2^{-beta}) <= SERIES_TOL is sharp and cheap.
    """

    beta: float

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"series exponent must lie in (0, 1], got {self.beta!r}")
        try:
            depth = self.depth
        except ValueError:  # 2^-beta rounds to 1, so log2 of 0
            depth = math.inf
        if depth > MAX_SERIES_DEPTH:
            raise ValueError(f"series exponent {self.beta!r} needs {depth} terms for tolerance "
                             f"{SERIES_TOL!r}, more than the {MAX_SERIES_DEPTH} evaluated")

    @property
    def depth(self) -> int:
        # smallest N with 2^{-N beta}/(1 - 2^{-beta}) <= SERIES_TOL, in logs
        n = (-math.log2(SERIES_TOL) - math.log2(1.0 - 2.0 ** -self.beta)) / self.beta
        return max(0, math.ceil(n))


def _phase_iter(x: np.ndarray, depth: int):
    """Yield r_k = (2^k x) mod 2 in (-2, 2) for k = 0..depth, exactly.

    Doubling a double is exact and the conditional +-2 reduction is exact
    (Sterbenz), so no precision is lost even at k ~ 140 where the naive
    product 2^k pi x would round away the entire phase.  This also avoids
    libm fmod, whose huge-quotient reduction is slow.
    """
    r = np.fmod(x, 2.0)
    for _ in range(depth + 1):
        yield r
        r = 2.0 * r
        r = np.where(r >= 2.0, r - 2.0, r)
        r = np.where(r < -2.0, r + 2.0, r)


def _series_sum(trig, amp: np.ndarray, x) -> np.ndarray | float:
    """sum_k amp[k] trig(2^k pi x), a float for a scalar x."""
    xs = np.asarray(x, dtype=float)
    flat = xs.reshape(-1)
    out = np.zeros_like(flat)
    for k, r in enumerate(_phase_iter(flat, len(amp) - 1)):
        out += amp[k] * trig(np.pi * r)
    return float(out[0]) if np.isscalar(x) or xs.shape == () else out.reshape(xs.shape)


def weierstrass_eval(spec: WeierstrassSpec, x) -> np.ndarray | float:
    """Truncated series value with absolute error <= SERIES_TOL."""
    n = np.arange(spec.depth + 1, dtype=float)
    return _series_sum(np.cos, np.exp2(-n * spec.beta), x)


def weierstrass_antideriv(spec: WeierstrassSpec, x) -> np.ndarray | float:
    """Antiderivative sum_k 2^{-k beta} sin(2^k pi x) / (2^k pi) of the
    truncated series; its own tail is geometric with ratio 2^{-(beta+1)}."""
    n = np.arange(spec.depth + 1, dtype=float)
    return _series_sum(np.sin, np.exp2(-n * (spec.beta + 1.0)) / math.pi, x)


def holder_quotient_bound(beta: float) -> float:
    """Certified bound on sup |W(x)-W(y)| / |x-y|^beta; +inf for beta >= 1."""
    if beta <= 0.0:
        raise ValueError(f"exponent must be positive, got {beta!r}")
    if beta >= 1.0:
        return math.inf
    return math.pi / (1.0 - 2.0 ** (beta - 1.0)) + 2.0 / (1.0 - 2.0 ** -beta)


def lw_constant(beta: float) -> float:
    """Certified upper bound for the beta-Hoelder norm of the series on any
    interval: quotient bound plus the sup bound 1/(1-2^{-beta})."""
    if beta <= 0.0:
        raise ValueError(f"exponent must be positive, got {beta!r}")
    if beta >= 1.0:
        raise ValueError(f"norm constant diverges as beta -> 1 (denominator 1-2^(beta-1)); got {beta!r}")
    return math.pi / (1.0 - 2.0 ** (beta - 1.0)) + 3.0 / (1.0 - 2.0 ** -beta)


# ---------------------------------------------------------------------------
# pieces and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """One maximal smooth-or-uniformly-rough segment of a density.

    value(x) = sum_i coeffs[i] x^i + sum_j scale_j W_beta(x - center_j)
    on [lo, hi].
    """

    lo: float
    hi: float
    coeffs: tuple[float, ...] = (0.0,)
    wterms: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class BudgetEntry:
    """Certified bound on the order-capped Hoelder norm on a window."""

    beta: float
    bound: float
    window: tuple[float, float]


@dataclass(frozen=True)
class AnalyticDensity:
    """A density given by its ordered, adjoining pieces, and 0 outside them.
    Adjacent pieces must differ (make_perturbed merges equal ones), so that
    every joint is a non-smooth point."""

    name: str
    pieces: tuple[Piece, ...]
    sup_bound: float
    lipschitz_budget: tuple[BudgetEntry, ...] = ()
    wspec: Optional[WeierstrassSpec] = None
    homogeneous_exponent: Optional[float] = None  # set for unperturbed series members

    def __post_init__(self):
        for i, (left, right) in enumerate(zip(self.pieces[:-1], self.pieces[1:])):
            if left.hi != right.lo:
                raise ValueError(
                    f"pieces must adjoin: piece {i} ends at {left.hi!r}, piece {i + 1} starts at {right.lo!r}"
                )
        edges = [p.lo for p in self.pieces] + [self.pieces[-1].hi]
        if any(b <= a for a, b in zip(edges[:-1], edges[1:])):
            raise ValueError("pieces must be ordered and non-degenerate")
        object.__setattr__(self, "_edges", np.asarray(edges))
        # row k holds every piece's x^k coefficient, 0 past its degree
        poly = np.zeros((max(len(p.coeffs) for p in self.pieces), len(self.pieces)))
        for i, p in enumerate(self.pieces):
            poly[:len(p.coeffs), i] = p.coeffs
        object.__setattr__(self, "_poly", poly)
        # the antiderivative's table, its value at each piece's own start, the mass below each piece
        prim, own = np.polynomial.polynomial.polyint(poly, axis=0), np.arange(len(self.pieces))
        starts = self._gathered(self._edges[:-1], own, prim, weierstrass_antideriv)
        masses = self._gathered(self._edges[1:], own, prim, weierstrass_antideriv) - starts
        object.__setattr__(self, "_prim", prim)
        object.__setattr__(self, "_prim_start", starts)
        object.__setattr__(self, "_cum_mass", np.concatenate([[0.0], np.cumsum(masses)]))

    @property
    def support(self) -> tuple[float, float]:
        return self.pieces[0].lo, self.pieces[-1].hi

    @property
    def kinks(self) -> tuple[float, ...]:
        """The piece edges: the support ends and every joint."""
        return tuple(self._edges.tolist())

    @property
    def is_rough(self) -> bool:
        return any(p.wterms for p in self.pieces)

    def _piece_index(self, xs: np.ndarray) -> np.ndarray:
        """The index of the piece that holds each point of xs, a joint going
        to the piece on its right and the support's right end to the last
        piece; -1 off the support."""
        idx = np.searchsorted(self._edges[1:-1], xs, side="right")  # the joints at or left of each point
        idx[~((xs >= self._edges[0]) & (xs <= self._edges[-1]))] = -1
        return idx

    def _gathered(self, xs: np.ndarray, idx: np.ndarray, table: np.ndarray, series) -> np.ndarray:
        """At each point of xs, the closed form of the piece idx names there:
        sum_k table[k, idx] x^k plus scale * series(wspec, x - center) per
        series term; 0 where idx is -1.  Horner runs in polyval's order (a
        piece's padded zero rows reduce exactly) and series terms are added
        one at a time, only on pieces that hold a point, so each value is
        the piece's own closed form bit for bit.  table is _poly (values),
        its polyint or its polyder."""
        out = table[-1].take(idx) + xs * 0.0
        for row in table[-2::-1]:
            out *= xs
            out += row.take(idx)
        for i, piece in enumerate(self.pieces):
            if piece.wterms and (on := idx == i).any():
                on = slice(None) if on.all() else on  # a call on one piece's points reads views
                pts, v = xs[on], out[on]
                for scale, center in piece.wterms:
                    v = v + scale * series(self.wspec, pts - center)
                out[on] = v
        out[idx < 0] = 0.0  # take(-1) read the last piece's column
        return out

    def pdf(self, x) -> np.ndarray | float:
        """The value of the piece that holds each point (see _piece_index),
        0 off the support."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._gathered(xs, self._piece_index(xs), self._poly, weierstrass_eval)
        return float(out[0]) if np.isscalar(x) or np.asarray(x).shape == () else out

    def mass_below(self, x) -> np.ndarray | float:
        """Exact integral of the density over (-inf, x]: the mass below the
        piece that holds x, plus that piece's antiderivative from its start."""
        xs = np.clip(np.atleast_1d(np.asarray(x, dtype=float)), *self.support)
        idx = self._piece_index(xs)
        partial = self._gathered(xs, idx, self._prim, weierstrass_antideriv) - self._prim_start.take(idx)
        out = self._cum_mass.take(idx) + partial
        return float(out[0]) if np.isscalar(x) or np.asarray(x).shape == () else out

    def mass_between(self, a, b) -> np.ndarray | float:
        return self.mass_below(b) - self.mass_below(a)

    @property
    def value_error(self) -> float:
        """Bound on how far a computed value lies from the true one: the
        series tail past the truncation tolerance, plus rounding (the factor
        and the 1e-12 cover the adds and poly + scale W); 0 without series."""
        weight = max(sum(abs(c) for c, _ in p.wterms) for p in self.pieces)
        return weight * SERIES_TOL * (1.0 + 1e-6) + 1e-12 if self.is_rough else 0.0

    # -- per-cell extrema ---------------------------------------------------

    def cells_extrema(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, slack) per cell [edges[k], edges[k+1]]: lo and hi are
        values the density takes on the cell, and its true range there lies
        in [lo - slack, hi + slack].

        The cells are cut at the piece joints, and on pieces without series
        terms at the polynomial's stationary points, into sub-intervals that
        each lie in one piece (or outside the support, where the density is
        0).  Each piece's own value is taken at the ends of its
        sub-intervals, so no continuity at joints is assumed; lo and hi are
        the least and greatest of these values.  A polynomial is monotone
        between stationary points, so pieces without series terms add no
        slack.  On a piece with series terms every point lies within w'/2
        of an end of its sub-interval of width w', so the slack is
        sum |scale| holder_quotient_bound(beta) (w'/2)^beta for the series,
        plus sup |poly'| w'/2 for the polynomial part, plus value_error.
        Each point is evaluated once per piece that holds it.
        """
        edges = np.asarray(edges, dtype=float)
        cuts = {x for p in self.pieces for x in (p.lo, p.hi)}
        cuts |= {x for p in self.pieces if not p.wterms for x in _stationary_points(p.coeffs, p.lo, p.hi)}
        cuts = np.array(sorted(x for x in cuts if edges[0] < x < edges[-1]))
        # sub-interval m is [xs[m], xs[m+1]]; a cut on an edge adds an empty one, which changes nothing
        xs = np.insert(edges, np.searchsorted(edges, cuts), cuts)
        lo, hi, slack = np.zeros((3, len(xs) - 1))
        for i, p in enumerate(self.pieces):
            s, e = np.searchsorted(xs, p.lo), np.searchsorted(xs, p.hi, side="right")
            if e - s < 2:
                continue
            v = self._gathered(xs[s:e], np.full(e - s, i), self._poly, weierstrass_eval)
            lo[s:e - 1], hi[s:e - 1] = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
            if p.wterms:
                half = 0.5 * np.diff(xs[s:e])
                weight = sum(abs(c) for c, _ in p.wterms) * holder_quotient_bound(self.wspec.beta)
                dpoly = np.polynomial.polynomial.polyder(p.coeffs)
                slack[s:e - 1] = (weight * half ** self.wspec.beta + _poly_sup_on(dpoly, p.lo, p.hi) * half
                                  + self.value_error)
        first = np.searchsorted(xs, edges[:-1])
        # without series terms the slack is 0: a broadcast zero holds no memory
        slack = np.maximum.reduceat(slack, first) if self.is_rough else np.broadcast_to(0.0, first.shape)
        return np.minimum.reduceat(lo, first), np.maximum.reduceat(hi, first), slack


# ---------------------------------------------------------------------------
# zoo constructors
# ---------------------------------------------------------------------------

def make_weierstrass_composite(t: float, beta: float) -> AnalyticDensity:
    """Rough test density: 1/6 + ((1-2^-beta)/12) W_beta(x - t) on |x-t| <= 2,
    linear flanks down to zero on (2, 10/3], bounded below by 1/12 on B(t,2)."""
    if not (0.0 < beta < 1.0):
        raise ValueError(f"composite exponent must lie in (0,1), got {beta!r}")
    spec = WeierstrassSpec(beta)
    cw = (1.0 - 2.0 ** -beta) / 12.0
    lo, hi = t - 10.0 / 3.0, t + 10.0 / 3.0
    pieces = (
        # 1/4 + (3/16)(x - t + 2)
        Piece(lo, t - 2.0, coeffs=(0.25 + (3.0 / 16.0) * (2.0 - t), 3.0 / 16.0)),
        Piece(t - 2.0, t + 2.0, coeffs=(1.0 / 6.0,), wterms=((cw, t),)),
        Piece(t + 2.0, hi, coeffs=(0.25 - (3.0 / 16.0) * (-t - 2.0), -3.0 / 16.0)),
    )
    budget = (
        BudgetEntry(beta, 0.25 + cw * holder_quotient_bound(beta), (t - 2.0, t + 2.0)),
    )
    return AnalyticDensity(
        name=f"weierstrass:{beta:g}:{t:g}",
        pieces=pieces,
        sup_bound=0.25,
        lipschitz_budget=budget,
        wspec=spec,
        homogeneous_exponent=beta,
    )


def make_triangular_hypothesis(t: float) -> AnalyticDensity:
    """Tent density 1/4 - |x-t|/16 on |x-t| <= 4."""
    pieces = (
        Piece(t - 4.0, t, coeffs=(0.25 - t / 16.0, 1.0 / 16.0)),
        Piece(t, t + 4.0, coeffs=(0.25 + t / 16.0, -1.0 / 16.0)),
    )
    return AnalyticDensity(
        name=f"tent:{t:g}",
        pieces=pieces,
        sup_bound=0.25,
        lipschitz_budget=(BudgetEntry(1.0, 5.0 / 16.0, (t - 4.0, t + 4.0)),),
    )


def make_peak_triangular() -> AnalyticDensity:
    """Sharp triangle on [0,1]: 4x up to 1/2, then 4(1-x)."""
    pieces = (
        Piece(0.0, 0.5, coeffs=(0.0, 4.0)),
        Piece(0.5, 1.0, coeffs=(4.0, -4.0)),
    )
    return AnalyticDensity(
        name="peak",
        pieces=pieces,
        sup_bound=2.0,
        lipschitz_budget=(BudgetEntry(1.0, 6.0, (0.0, 1.0)),),
    )


def make_uniform(lo: float = 0.0, hi: float = 1.0) -> AnalyticDensity:
    v = 1.0 / (hi - lo)
    return AnalyticDensity(
        name=f"uniform:{lo:g}:{hi:g}",
        pieces=(Piece(lo, hi, coeffs=(v,)),),
        sup_bound=v,
        lipschitz_budget=(BudgetEntry(math.inf, v, (lo, hi)),),
    )


def _split_piece(pieces: list[Piece], x: float) -> list[Piece]:
    out = []
    for p in pieces:
        if p.lo < x < p.hi:
            out.append(replace(p, hi=x))
            out.append(replace(p, lo=x))
        else:
            out.append(p)
    return out


def _merge_pieces(pieces: list[Piece]) -> list[Piece]:
    """Merge adjacent pieces with identical content so that piece
    boundaries are exactly the non-smooth points."""
    out = [pieces[0]]
    for p in pieces[1:]:
        last = out[-1]
        if p.coeffs == last.coeffs and p.wterms == last.wterms and p.lo == last.hi:
            out[-1] = replace(last, hi=p.hi)
        else:
            out.append(p)
    return out


def perturbation_radius(n: int, beta: float) -> float:
    """Bump radius (1/4) n^{-1/(2 beta + 1)} used by the perturbed pair."""
    return 0.25 * float(n) ** (-1.0 / (2.0 * beta + 1.0))


def shrink_factor(beta: float) -> float:
    """Radius shrink (2 L_W(beta))^{-1/beta} for the second perturbation."""
    return (2.0 * lw_constant(beta)) ** (-1.0 / beta)


def make_perturbed(base: AnalyticDensity, n: int, beta: float, variant: str) -> AnalyticDensity:
    """Add the canceling bump pair (+q at a = t+9/4, -q at t) to a composite or
    tent base; the ball around the base center comes out exactly constant.

    Variant "one" uses the bump radius (1/4) n^{-1/(2 beta+1)}; variant
    "two" shrinks it, by (2 L_W(beta))^{-1/beta} for series bases and by
    1/2 for the tent.  Masses of the two bumps cancel by construction.
    """
    if variant not in ("one", "two"):
        raise ValueError(f"variant must be 'one' or 'two', got {variant!r}")
    if n < 4:
        raise ValueError(f"sample size must be >= 4, got {n!r}")
    if n > sys.float_info.max:  # the bump radius takes float(n)
        raise ValueError(f"sample size must be <= {sys.float_info.max!r}, got {n!r}")
    g = perturbation_radius(n, beta)
    tag = "1" if variant == "one" else "2"

    # each base gives its centre t, radius r and radius limit, the ball's
    # constant value, and bump(p, a): piece p of the bump at a with the bump added
    if base.wspec is not None:
        if base.homogeneous_exponent is None or abs(beta - base.wspec.beta) > 1e-12:
            raise ValueError(f"exponent {beta!r} does not match the base construction {base.wspec.beta!r}")
        # the limit keeps the bump at a = t + 9/4 clear of the joint at t + 2
        r, limit = (g if variant == "one" else shrink_factor(beta) * g), 0.25
        t = next(c for p in base.pieces for _, c in p.wterms)  # the series centre
        cw = (1.0 - 2.0 ** -beta) / 12.0
        w_at_r = float(weierstrass_eval(base.wspec, r))
        # base 1/6 + cw W(x-t) minus bump cw (W(x-t) - W(r)): constant
        ball = 1.0 / 6.0 + cw * w_at_r

        def bump(p, a):
            coeffs = (p.coeffs[0] - cw * w_at_r,) + p.coeffs[1:]
            return replace(p, coeffs=coeffs, wterms=p.wterms + ((cw, a),))

        name = f"perturbed{tag}:{beta:g}:{n}"
        sup_bound = base.sup_bound + 2.0 * cw * (1.0 / (1.0 - 2.0 ** -beta))
    else:
        # tent base: bump (1/16)(r - |x-a|)_+, variant "two" halves the radius
        if base != make_triangular_hypothesis(base.pieces[0].hi):
            raise ValueError(f"base {base.name} is neither the series composite nor a tent")
        if abs(beta - 1.0) > 1e-12:
            raise ValueError(f"tent perturbations require beta = 1, got {beta!r}")
        r, limit = (g if variant == "one" else 0.5 * g), 2.0
        t = base.pieces[0].hi  # the apex joint
        ball = 0.25 - r / 16.0  # subtracting (1/16)(r - |x-t|) flattens the kink exactly

        def bump(p, a):
            c0, c1 = (p.coeffs + (0.0, 0.0))[:2]
            if 0.5 * (p.lo + p.hi) <= a:
                return Piece(p.lo, p.hi, coeffs=(c0 + (r - a) / 16.0, c1 + 1.0 / 16.0))
            return Piece(p.lo, p.hi, coeffs=(c0 + (r + a) / 16.0, c1 - 1.0 / 16.0))

        name = f"tent-perturbed{tag}:{t:g}:{n}"
        sup_bound = base.sup_bound
    if r >= 2.0:
        raise ValueError(f"bump radius {r!r} >= 2 overlaps the construction")
    if r > limit:
        raise ValueError(f"bump radius {r!r} straddles the construction joints")

    a = t + 9.0 / 4.0
    pieces = list(base.pieces)
    for x in (t - r, t + r, a - r, a, a + r):
        pieces = _split_piece(pieces, x)
    new_pieces = []
    for p in pieces:
        mid = 0.5 * (p.lo + p.hi)
        if t - r <= mid <= t + r:
            p = Piece(p.lo, p.hi, coeffs=(ball,))
        elif a - r <= mid <= a + r:
            p = bump(p, a)
        new_pieces.append(p)
    return AnalyticDensity(
        name=name,
        pieces=tuple(_merge_pieces(new_pieces)),
        sup_bound=sup_bound,
        lipschitz_budget=base.lipschitz_budget + (BudgetEntry(math.inf, ball, (t - r, t + r)),),
        wspec=base.wspec,
    )


def density_from_name(name: str) -> AnalyticDensity:
    """Resolve the CLI density names.

    weierstrass:<beta>:<t>, perturbed1:<beta>:<n>, perturbed2:<beta>:<n>
    (perturbations of the composite centered at t=1/2), tent:<t>, peak.
    """
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "peak" and len(parts) == 1:
            return make_peak_triangular()
        if kind == "tent" and len(parts) == 2:
            return make_triangular_hypothesis(float(parts[1]))
        if kind == "weierstrass" and len(parts) == 3:
            return make_weierstrass_composite(float(parts[2]), float(parts[1]))
        if kind in ("perturbed1", "perturbed2") and len(parts) == 3:
            beta = float(parts[1])
            n = int(parts[2])
            base = make_weierstrass_composite(0.5, beta)
            return make_perturbed(base, n, beta, "one" if kind == "perturbed1" else "two")
    except ValueError as exc:
        raise ValueError(f"cannot build density {name!r}: {exc}") from exc
    raise ValueError(f"unknown density name {name!r}")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

_SAMPLE_BATCH = 8192


def sample(density: AnalyticDensity, m: int, seed: int) -> np.ndarray:
    """m i.i.d. draws by rejection with a uniform proposal over the support.

    Stream order (fixed, part of the determinism contract): batches of
    _SAMPLE_BATCH proposals; within a batch all positions are drawn first, then
    all acceptance thresholds; accepted points keep proposal order and the
    first m acceptances are returned.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = density.support
    out = []
    got = 0
    while got < m:
        xs = lo + (hi - lo) * rng.random(_SAMPLE_BATCH)
        us = rng.random(_SAMPLE_BATCH)
        fx = density.pdf(xs)
        if np.any(fx > density.sup_bound * (1.0 + 1e-12)):
            bad = float(fx.max())
            raise ValueError(f"density {density.name} exceeds its sup bound: {bad!r} > {density.sup_bound!r}")
        acc = xs[us * density.sup_bound < fx]
        out.append(acc)
        got += acc.size
    return np.concatenate(out)[:m]


# ---------------------------------------------------------------------------
# order-capped Hoelder norm machinery
# ---------------------------------------------------------------------------

def _strict_floor(b: float) -> int:
    """Largest integer strictly below b (so _strict_floor(2.0) == 1)."""
    f = math.floor(b)
    return f - 1 if f == b else f


def _stationary_points(coeffs: Sequence[float], lo: float, hi: float) -> list[float]:
    """Real zeros of the polynomial's derivative strictly inside (lo, hi)."""
    d = np.polynomial.polynomial.polyder(coeffs).tolist()
    if len(d) == 2 and d[1] != 0.0:
        roots = [-d[0] / d[1]]
    elif len(d) > 2:
        roots = [float(r.real) for r in np.roots(list(reversed(d))) if abs(r.imag) < 1e-12]
    else:
        roots = []
    return [r for r in roots if lo < r < hi]


def _poly_sup_on(coeffs: Sequence[float], lo: float, hi: float) -> float:
    cands = [lo, hi] + _stationary_points(coeffs, lo, hi)
    vals = [abs(np.polynomial.polynomial.polyval(x, np.asarray(coeffs))) for x in cands]
    return float(max(vals))


def _derivative_sup(density: AnalyticDensity, k: int, window: tuple[float, float]) -> float:
    """Sup of |p^(k)| over the window: from closed forms on pieces without
    series terms, and on a series piece (k = 0 only) the maximum over 513
    evenly spaced points, which is at most the true sup; inf if some piece
    in the window has no k-th derivative (rough pieces, k >= 1)."""
    wlo, whi = window
    sup = 0.0
    for i, p in enumerate(density.pieces):
        lo, hi = max(p.lo, wlo), min(p.hi, whi)
        if lo >= hi:
            continue
        if p.wterms and k >= 1:
            return math.inf
        if p.wterms:
            grid = np.linspace(lo, hi, 513)
            v = density._gathered(grid, np.full(grid.size, i), density._poly, weierstrass_eval)
            sup = max(sup, float(np.abs(v).max()))
        else:
            sup = max(sup, _poly_sup_on(np.polynomial.polynomial.polyder(p.coeffs, k), lo, hi))
    return sup


def _derivative_grid(density: AnalyticDensity, k: int, xs: np.ndarray) -> Optional[np.ndarray]:
    """The k-th derivative at xs through the gathered pass (the pdf for
    k = 0), 0 off the support; None if k >= 1 and a piece with series terms,
    which has no derivative, holds a point."""
    idx = density._piece_index(xs)
    if k >= 1 and any(p.wterms and (idx == i).any() for i, p in enumerate(density.pieces)):
        return None
    return density._gathered(xs, idx, np.polynomial.polynomial.polyder(density._poly, k, axis=0), weierstrass_eval)


def _derivative_jumps(density: AnalyticDensity, kstar: int, window: tuple[float, float]) -> bool:
    """Whether a derivative of order <= kstar jumps at a piece edge that the
    window holds with points on both of its sides (a joint belongs to the
    piece on its right, the support's right end to the last piece), read
    from the gathered derivative tables on both sides of each edge, 0 off
    the support.  Edges beside a series piece are left to the grid."""
    wlo, whi = window
    t, last = density._edges, len(density.pieces)
    held = np.append((wlo < t[:-1]) & (t[:-1] <= whi), wlo <= t[-1] < whi)
    left, right = np.arange(-1, last), np.append(np.arange(last), -1)  # -1 is the side off the support
    rough = np.array([bool(p.wterms) for p in density.pieces] + [False])  # rough[-1] is off the support
    on = held & ~rough[left] & ~rough[right]
    for k in range(kstar + 1):
        table = np.polynomial.polynomial.polyder(density._poly, k, axis=0)
        jump = density._gathered(t[on], left[on], table, weierstrass_eval)
        jump -= density._gathered(t[on], right[on], table, weierstrass_eval)
        if np.any(np.abs(jump) > 1e-12):
            return True
    return False


# points of the uniform grid whose pairs give holder_norm_estimate's quotient
_NORM_GRID_POINTS = 512


def holder_norm_estimate(
    density: AnalyticDensity, beta: float, beta_star: int, window: tuple[float, float]
) -> float:
    """Grid estimate of the order-capped Hoelder norm on the window.

    Derivative sup norms come from _derivative_sup (closed forms, or a
    513-point grid maximum on series pieces); the quotient uses all pairs
    of a uniform grid.  Each grid maximum is at most the sup it stands for,
    so the result is a certified lower bound of the true norm (and equals
    +inf whenever the norm provably is: differentiation order >= 1 requested
    on a rough piece, or a derivative of order <= k* that jumps inside the
    window, such as the slope at a kink once beta > 1).
    """
    wlo, whi = window
    if not wlo < whi:
        raise ValueError(f"degenerate window {window!r}")
    if beta != math.inf and beta <= 0.0:
        raise ValueError(f"exponent must be positive, got {beta!r}")
    lo, hi = density.support
    # off the support the density is 0, so a window past an end where it is not jumps there
    if (wlo < lo and abs(density.pdf(lo)) > 1e-12) or (whi > hi and abs(density.pdf(hi)) > 1e-12):
        return math.inf
    kstar = beta_star - 1 if beta == math.inf else _strict_floor(min(beta, float(beta_star)))
    total = 0.0
    for k in range(kstar + 1):
        s = _derivative_sup(density, k, window)
        if math.isinf(s):
            return math.inf
        total += s
    if _derivative_jumps(density, kstar, window):
        return math.inf
    xs = np.linspace(wlo, whi, _NORM_GRID_POINTS)
    dvals = _derivative_grid(density, kstar, xs)
    if dvals is None:
        return math.inf
    if beta == math.inf:
        # quotient exponent is +inf: zero iff the top derivative is constant
        return total if float(np.ptp(dvals)) <= 1e-12 else math.inf
    diff = np.abs(dvals[:, None] - dvals[None, :])
    dist = np.abs(xs[:, None] - xs[None, :])
    iu = np.triu_indices(_NORM_GRID_POINTS, k=1)
    quot = diff[iu] / dist[iu] ** (beta - kstar)
    return total + float(quot.max())


# ---------------------------------------------------------------------------
# Kullback-Leibler divergence
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _kl_integrand(p: AnalyticDensity, q: AnalyticDensity, nodes: np.ndarray) -> np.ndarray:
    pv = np.asarray(p.pdf(nodes))
    qv = np.asarray(q.pdf(nodes))
    if np.any((pv > 1e-13) & (qv <= 0.0)):
        raise ValueError("support of p leaves {q > 0}: divergence is infinite")
    f = np.zeros_like(pv)
    pos = (pv > 0.0) & (qv > 0.0)
    f[pos] = pv[pos] * np.log(pv[pos] / qv[pos])
    return f


def _kl_segment(p, q, lo: float, hi: float, tol: float) -> float:
    """Composite Gauss-Legendre with 3x panel refinement; handles smooth and
    uniformly rough integrands (panel errors cancel across the mesh).  No
    level past 300,000 panels is evaluated: the first such level refuses."""
    def quad(panels: int) -> float:
        edges = np.linspace(lo, hi, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        f = _kl_integrand(p, q, nodes).reshape(-1, len(_GL_NODES))
        return float((half[:, None] * _GL_WEIGHTS[None, :] * f).sum())

    panels = 1
    prev = quad(panels)
    while True:
        panels *= 3
        if panels > 300_000:
            raise ValueError(f"KL quadrature did not reach tol={tol:g} on [{lo:g},{hi:g}]")
        cur = quad(panels)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur


def kl_divergence(p: AnalyticDensity, q: AnalyticDensity, tol: float = 1e-8) -> float:
    """int p log(p/q) by Gauss-Legendre quadrature between the kinks of both densities.

    Raises ValueError when a node sees p-mass where q vanishes. That node
    check is the whole breach test: the segments are cut at every kink of
    q, its support ends included, so q vanishes either on whole segments,
    which the first 8 nodes of each segment see, or only at isolated points.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    lo, hi = p.support
    cuts = sorted(
        {lo, hi}
        | {c for c in p.kinks if lo < c < hi}
        | {c for c in q.kinks if lo < c < hi}
    )
    total = 0.0
    seg_tol = tol / (2.0 * (len(cuts) - 1))
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += _kl_segment(p, q, a, b, seg_tol)
    return total
