"""Sample-size-derived constants, grids and normalizing sequences.

A plan is derived from n, L_star and c2 alone.  The paper's other constants
are the fixed desk-scale values below; the two constraints of the asymptotic
theory that they relax are recorded as warnings on every plan.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Mapping

from .kernels import Kernel

# Selection threshold produced by scripts/calibrate_c2.py: smallest value on
# a 0.05 grid for which the selector keeps j <= j_min + 2 at >= 95% of mesh
# points for the uniform density (the _C2_* constants of harness.calibrate_c2).
DEFAULT_C2 = 0.65

# The paper's other constants.  Constants that meet the theory's constraints
# (c1 > 2/(beta_* log 2), kappa2 > c1 log 2 + 4) leave the bandwidth grid
# empty below n ~ 1e10, so these relax both, and every plan's first warnings
# say so.  KAPPA1 meets its own constraint, kappa1 >= 1/(2 beta_*), by
# definition.
EPSILON = 0.25
BETA_STAR_LOW = 0.95
C1 = 3.0
KAPPA1 = max(1.0 / (2.0 * BETA_STAR_LOW), 0.5)
KAPPA2 = 1.0
_C1_FLOOR = 2.0 / (BETA_STAR_LOW * math.log(2.0))
_KAPPA2_FLOOR = C1 * math.log(2.0) + 4.0
assert C1 <= _C1_FLOOR and KAPPA2 <= _KAPPA2_FLOOR
_RELAXED = (
    f"theory constraint relaxed: c1={C1:g} must exceed 2/(beta_* log 2)={_C1_FLOOR:g}",
    f"theory constraint relaxed: kappa2={KAPPA2:g} must exceed c1 log2 + 4={_KAPPA2_FLOOR:g}",
)

# The most float64 entries one array can hold: its size in bytes must fit in
# a signed machine word.
MAX_ARRAY_LEN = sys.maxsize // 8


def checked_alpha(alpha: float) -> float:
    """alpha, if it lies in (0,1) and 1 - alpha/2, its Gumbel level, is below 1."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha is too small to use: 1 - alpha/2 rounds to 1, got {alpha!r}")
    return alpha


def checked_positive(name: str, value: float) -> float:
    """value, if it is positive and finite; name is the setting it gives."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PlanParams:
    """The settings a plan is derived from; its other constants are fixed."""

    n: int
    L_star: float = 1.0
    c2: float = DEFAULT_C2

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"sample size must be >= 4, got {self.n!r}")
        checked_positive("c2", self.c2)
        checked_positive("L_star", self.L_star)


@dataclass(frozen=True)
class CalibrationPlan:
    """Frozen record of every derived constant the pipeline consumes, and of
    the kernel they are derived from: every fit reads the kernel here."""

    epsilon: ClassVar[float] = EPSILON
    beta_star_low: ClassVar[float] = BETA_STAR_LOW
    c1: ClassVar[float] = C1
    kappa1: ClassVar[float] = KAPPA1
    kappa2: ClassVar[float] = KAPPA2
    mode: ClassVar[str] = "practical"

    n: int
    beta_star_high: int  # the kernel's order + 1
    L_star: float
    c2: float
    n_tilde: int
    j_min: int
    j_max: int
    delta_n: float
    mesh_count: int
    u_n: float
    m_n: float
    a_n: float
    b_n: float
    c3: float
    kernel: Kernel
    warnings: tuple[str, ...] = ()

    @property
    def log_n_tilde(self) -> float:
        return math.log(self.n_tilde)


def gumbel_quantile(p: float) -> float:
    """Quantile -log(-log p) of the standard Gumbel law exp(-exp(-x))."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must lie in (0,1), got {p!r}")
    return -math.log(-math.log(p))


def normalizers(delta_n: float, tv: float) -> tuple[float, float]:
    """Location/scale pair (a_n, b_n) for the maximum over 1/delta_n cells.

    a_n = c3 sqrt(-2 log delta), b_n = (3/c3){sqrt(-2 log delta)
    - [log(-log delta) + log 4 pi] / (2 sqrt(-2 log delta))}, c3 = sqrt2/tv.
    """
    if not (0.0 < delta_n < 1.0):
        raise ValueError(f"mesh width must lie in (0,1), got {delta_n!r}")
    if tv <= 0.0:
        raise ValueError(f"total variation must be positive, got {tv!r}")
    c3 = math.sqrt(2.0) / tv
    root = math.sqrt(-2.0 * math.log(delta_n))
    a_n = c3 * root
    b_n = (3.0 / c3) * (root - (math.log(-math.log(delta_n)) + math.log(4.0 * math.pi)) / (2.0 * root))
    return a_n, b_n


def derive_plan(params: PlanParams, kernel: Kernel) -> CalibrationPlan:
    """Evaluate every derived quantity by direct formula in double precision."""
    plan_warnings = list(_RELAXED)

    n_tilde = params.n // 2
    # such an n is far past the mesh cap below, and past float range
    if n_tilde > sys.float_info.max:
        raise ValueError(f"n={params.n} needs a mesh of more cells than an array can hold")
    ln = math.log(n_tilde)
    j_min = math.ceil(max(2.0, math.log2(2.0 / EPSILON)) - 1e-12)
    j_max = math.floor(math.log2(n_tilde / ln ** KAPPA2) + 1e-12)
    if j_max < j_min:
        plan_warnings.append(f"j_max={j_max} clamped up to j_min={j_min}")
        j_max = j_min

    inv_delta = math.ceil(
        2.0 ** (j_min / BETA_STAR_LOW) * (ln / n_tilde) ** (-KAPPA1) * ln ** (2.0 / BETA_STAR_LOW)
    )
    # the mesh's cell_edges array holds mesh_count + 1 float64 entries
    if inv_delta + 1 > MAX_ARRAY_LEN:
        raise ValueError(f"n={params.n} needs a mesh of {inv_delta:.3g} cells, more than an array can hold")
    delta_n = 1.0 / inv_delta
    u_n = C1 * math.log(ln)
    a_n, b_n = normalizers(delta_n, kernel.tv)

    return CalibrationPlan(
        n=params.n,
        beta_star_high=kernel.order + 1,
        L_star=params.L_star,
        c2=params.c2,
        n_tilde=n_tilde,
        j_min=j_min,
        j_max=j_max,
        delta_n=delta_n,
        mesh_count=inv_delta,
        u_n=u_n,
        m_n=u_n / 2.0,
        a_n=a_n,
        b_n=b_n,
        c3=math.sqrt(2.0) / kernel.tv,
        kernel=kernel,
        warnings=tuple(plan_warnings),
    )


def optimal_bandwidth(plan: CalibrationPlan, beta: float) -> float:
    """Rate-optimal bandwidth 2^-j_min (log n~ / n~)^{1/(2 beta + 1)};
    the beta -> inf limit is 2^-j_min."""
    if beta != math.inf and beta <= 0.0:
        raise ValueError(f"exponent must be positive, got {beta!r}")
    if beta == math.inf:
        return 2.0 ** -plan.j_min
    rate = plan.log_n_tilde / plan.n_tilde
    return 2.0 ** -plan.j_min * rate ** (1.0 / (2.0 * beta + 1.0))


def band_halfwidth_quantile(plan: CalibrationPlan, alpha: float) -> float:
    """q_n(alpha) = sqrt(L*) q_{1-alpha/2} / a_n + b_n; the one place alpha
    enters the band, so it checks alpha for every caller."""
    q = gumbel_quantile(1.0 - checked_alpha(alpha) / 2.0)
    return math.sqrt(plan.L_star) * q / plan.a_n + plan.b_n


# ---------------------------------------------------------------------------
# flat key=value serialization
# ---------------------------------------------------------------------------

# every field plan_to_text writes, in order, with the parser that reads it back
_TEXT_FIELDS = {
    "n": int, "epsilon": float, "beta_star_low": float, "L_star": float, "c1": float,
    "kappa1": float, "kappa2": float, "c2": float, "mode": str,
    "beta_star_high": int, "n_tilde": int, "j_min": int, "j_max": int, "delta_n": float,
    "mesh_count": int, "u_n": float, "m_n": float, "a_n": float, "b_n": float, "c3": float,
}


def read_key_values(lines: Iterable[str], parsers: Mapping[str, Callable[[str], object]],
                    what: str, where: str) -> dict:
    """The key=value pairs of `lines`, each value parsed by its key's entry in
    `parsers`.  Blank and '#' lines are skipped; a line without '=', a key not
    in `parsers` (an unknown `what`), a value its parser rejects or a key given
    on an earlier line raises ValueError naming `where` and the line number."""
    out, first = {}, {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not sep:
            raise ValueError(f"{where}{i}: expected key=value, got {raw.rstrip()!r}")
        if key not in parsers:
            raise ValueError(f"{where}{i}: unknown {what} {key!r}")
        try:
            value = parsers[key](val)
        except ValueError as exc:
            raise ValueError(f"{where}{i}: {key}={val}: {exc}") from exc
        if key in first:
            raise ValueError(f"{where}{i}: {what} {key!r} repeats line {first[key]}")
        out[key], first[key] = value, i
    return out


def plan_to_text(plan: CalibrationPlan) -> str:
    """One key=value line per field in _TEXT_FIELDS, floats as their shortest
    round-trip repr; the kernel and the warnings are not included."""
    lines = []
    for name in _TEXT_FIELDS:
        v = getattr(plan, name)
        lines.append(f"{name}={v!r}" if isinstance(v, float) else f"{name}={v}")
    return "\n".join(lines) + "\n"


def plan_from_text(text: str, kernel: Kernel) -> CalibrationPlan:
    """Rebuild a plan from its key=value block and re-derive it with `kernel`;
    every stored field other than n, L_star and c2, the fixed constants
    included, must match the re-derivation exactly (floats
    are stored as their shortest round-trip repr, so exact comparison is
    sound)."""
    kv = read_key_values(text.splitlines(), _TEXT_FIELDS, "plan field", "line ")
    given = {f.name for f in fields(PlanParams)}
    plan = derive_plan(PlanParams(**{k: v for k, v in kv.items() if k in given}), kernel)
    for name, stored in kv.items():
        if name not in given and stored != getattr(plan, name):
            raise ValueError(
                f"stored {name}={stored!r} disagrees with re-derived {getattr(plan, name)!r}"
            )
    return plan
