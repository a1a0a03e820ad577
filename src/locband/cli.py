"""Command-line front end: band fitting, simulation drivers, the inequality
verification suite, and band-comparison curves, all emitting CSV.

Every setting, from a flag, LOCBAND_SEED or a --config line, is checked
as it is resolved, whatever the command.  A plan takes n, lstar and c2 from
the settings and its other constants from locband.calibration.

Exit codes: 0 success (simulations exit 0 regardless of pass/fail --
results are data), 1 failed verification, 2 usage/parse errors and runs
that run out of memory.  A refusal is a ValueError (or an OSError) raised
where its condition is found; main alone prints it as one line and exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, TextIO

import numpy as np

from . import densities as zoo
from . import harness
from .band import fit_band, reference_global_band, write_band_csv
from .calibration import (
    DEFAULT_C2,
    CalibrationPlan,
    PlanParams,
    band_halfwidth_quantile,
    checked_alpha,
    checked_positive,
    derive_plan,
    plan_to_text,
    read_key_values,
)
from .csvtext import write_csv
from .estimator import parse_data_file, split_sample
from .kernels import make_rectangular

SEED_ENV = "LOCBAND_SEED"


def _at_least(key: str, low: int) -> Callable[[int], int]:
    """The check that the integer setting `key` is at least `low`."""
    def check(value: int) -> int:
        if value < low:
            raise ValueError(f"{key} must be >= {low}, got {value!r}")
        return value
    return check


def _as_given(value: str) -> str:
    return value


# Every setting, as (parser, default, --help text, check): each is a --<name>
# flag of every command and a key of the --config file, parsed the same way,
# and its check runs once as the value is resolved, whatever its source and
# whatever the command; calibration owns the rules for alpha, c2 and lstar.
_SETTINGS = {
    "n": (int, 4096, "sample size (cell count for simulate gumbel)", _at_least("n", 4)),
    "alpha": (float, 0.1, None, checked_alpha),
    "reps": (int, 50, None, _at_least("reps", 1)),
    "seed": (int, 20240601, f"master seed (overrides ${SEED_ENV})", _at_least("seed", 0)),
    "c2": (float, DEFAULT_C2, "selection threshold constant", lambda v: checked_positive("c2", v)),
    "lstar": (float, 1.0, "smoothness budget", lambda v: checked_positive("lstar", v)),
    "density": (str, "peak", "zoo density name", _as_given),
    "input": (str, None, "data file, one real per line", _as_given),
    "out": (str, None, "output CSV path (stdout when omitted)", _as_given),
    "suite": (str, None, "verification suite filter", _as_given),
}


def _read_config(path: str) -> dict:
    parsers = {key: lambda v, parse=parse, check=check: check(parse(v))
               for key, (parse, _, _, check) in _SETTINGS.items()}
    with open(path, "r", encoding="utf-8") as fh:
        return read_key_values(fh, parsers, "config key", f"{path}:")


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < LOCBAND_SEED < explicit flags."""
    cfg = {key: default for key, (_, default, _, _) in _SETTINGS.items()}
    if getattr(args, "config", None):
        cfg.update(_read_config(args.config))
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        parse, _, _, check = _SETTINGS["seed"]
        try:
            cfg["seed"] = check(parse(env_seed))
        except ValueError as exc:
            raise ValueError(f"{SEED_ENV}={env_seed}: {exc}") from exc
    for key, (_, _, _, check) in _SETTINGS.items():
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = check(v)
    args.settings = cfg  # main names the run's n if it runs out of memory
    return cfg


# The settings each command, or each simulate kind, reads that neither its
# plan nor its report records.  Its .meta sidecar opens with these, so that
# it depends on neither the output path nor unused defaults and names no
# setting twice; a density is resolved only where it is read.
_META_KEYS = {
    "band": ("alpha",),
    "verify": (),
    "curves": ("alpha", "density", "seed"),
    "coverage": ("alpha", "density", "reps", "seed"),
    "adaptivity": ("alpha", "density", "reps", "seed"),
    "window": ("density", "reps", "seed"),
    "gumbel": ("n", "reps", "seed"),
}
_SIMULATE_KINDS = ("coverage", "adaptivity", "window", "gumbel")


def _density_and_plan(cfg: dict, key: str) -> tuple[zoo.AnalyticDensity | None, CalibrationPlan]:
    """The zoo density, if the command or simulate kind `key` reads one, and
    the plan derived from cfg with the rectangular kernel."""
    density = None
    if "density" in _META_KEYS[key]:
        density = zoo.density_from_name(cfg["density"])
    plan = derive_plan(PlanParams(n=cfg["n"], L_star=cfg["lstar"], c2=cfg["c2"]), make_rectangular())
    for warning in plan.warnings:
        print(f"{'simulate' if key in _SIMULATE_KINDS else key}: warning: {warning}", file=sys.stderr)
    return density, plan


def _sidecar(
    cfg: dict, key: str, plan: CalibrationPlan | None = None, report: harness.ExperimentReport | None = None
) -> str:
    """The .meta text: the settings of _META_KEYS[key], then the plan and one
    warning.<i> line per plan warning, then the report's own lines."""
    parts = [f"{k}={cfg[k]}\n" for k in _META_KEYS[key]]
    if plan is not None:
        parts.append(plan_to_text(plan))
        parts += [f"warning.{i}={w}\n" for i, w in enumerate(plan.warnings)]
    if report is not None:
        parts.append(report.meta_text())
    return "".join(parts)


def _emit(write_body: Callable[[TextIO], object], meta: str, out: str | None) -> None:
    """Body through `write_body` to `out` and meta to `out`.meta, or to stdout
    and stderr.  An `out` that is not a regular file (a device such as
    /dev/null, or a pipe) gets no sidecar."""
    if out is None:
        write_body(sys.stdout)
        sys.stderr.write(meta)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            write_body(fh)
        if os.path.isfile(out):
            with open(out + ".meta", "w", encoding="utf-8") as fh:
                fh.write(meta)


def cmd_band(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    cfg["n"] = None  # the input's size, once it is read
    if cfg["input"] is None:
        raise ValueError("--input is required")
    try:
        data = parse_data_file(cfg["input"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read input: {exc}") from exc
    cfg["n"] = int(data.size)
    split = split_sample(data)  # a ValueError below 4 points: exit 2
    del data  # the fit reads only the sorted halves
    _, plan = _density_and_plan(cfg, "band")
    q_n = band_halfwidth_quantile(plan, cfg["alpha"])
    band = fit_band(split, plan, q_n)
    _emit(lambda fh: write_band_csv(band, fh), _sidecar(cfg, "band", plan), cfg["out"])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    kind = args.kind
    if kind not in _SIMULATE_KINDS:
        raise ValueError(f"unknown kind {kind!r} ({'|'.join(_SIMULATE_KINDS)})")
    plan = None
    if kind == "gumbel":
        # the comparison process needs only the cell count and the kernel
        report = harness.run_gumbel_calibration(make_rectangular(), m=cfg["n"], reps=cfg["reps"], seed=cfg["seed"])
    else:
        density, plan = _density_and_plan(cfg, kind)
        if kind == "coverage":
            report = harness.run_coverage(density, plan, cfg["alpha"], cfg["reps"], cfg["seed"])
        elif kind == "window":
            report = harness.run_window_check(density, plan, cfg["reps"], cfg["seed"])
        else:
            report = harness.run_adaptivity(density, plan, cfg["alpha"], cfg["reps"], cfg["seed"], probes=(0.5, 0.9))
    meta = _sidecar(cfg, kind, plan, report)
    _emit(lambda fh: fh.write(report.to_csv_text()), meta, cfg["out"])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    suites = None if cfg["suite"] in (None, "all") else [cfg["suite"]]
    report = harness.verify_inequalities(suites=suites)
    _emit(lambda fh: fh.write(report.to_csv_text()), _sidecar(cfg, "verify", report=report), cfg["out"])
    failed = [r for r in report.records if not r["passed"]]
    if failed:
        names = ",".join(sorted({r["item"] for r in failed}))
        print(f"verify: FAILED items: {names}", file=sys.stderr)
        return 1
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    density, plan = _density_and_plan(cfg, "curves")
    q_n = band_halfwidth_quantile(plan, cfg["alpha"])
    split = split_sample(zoo.sample(density, plan.n, cfg["seed"]))
    local = fit_band(split, plan, q_n)
    ref = reference_global_band(split, plan, q_n)
    d = plan.delta_n
    truth = density.pdf(np.arange(1, plan.mesh_count + 1) * d)

    def prefixes(start: int, stop: int) -> list[str]:
        return [f"{k},{k * d:.12g},{v:.12g}," for k, v in enumerate(truth[start:stop].tolist(), start + 1)]

    def tail(i: int) -> str:
        c, hw = local.centers[i], local.halfwidths[i]
        gc, ghw = ref.centers[i], ref.halfwidths[i]
        return f"{c:.12g},{c - hw:.12g},{c + hw:.12g},{gc - ghw:.12g},{gc + ghw:.12g}\n"

    def write_body(fh: TextIO) -> None:
        write_csv(
            fh,
            "k,t,truth,local_center,local_lo,local_hi,global_lo,global_hi\n",
            prefixes,
            (local.centers, local.halfwidths, ref.centers, ref.halfwidths),
            tail,
        )

    _emit(write_body, _sidecar(cfg, "curves", plan), cfg["out"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locband",
        description="Locally adaptive confidence bands for probability densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        for key, (parse, _, text, _) in _SETTINGS.items():
            p.add_argument(f"--{key}", type=parse, help=text)

    p_band = sub.add_parser("band", help="fit a confidence band to a data file")
    add_common(p_band)
    p_band.set_defaults(func=cmd_band)

    p_sim = sub.add_parser("simulate", help="run a seeded experiment")
    p_sim.add_argument("kind", help="coverage | adaptivity | window | gumbel")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the numeric inequality suite")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cur = sub.add_parser("curves", help="local vs global band comparison curves")
    add_common(p_cur)
    p_cur.set_defaults(func=cmd_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # also one that fork_map re-raises from a worker; verify reads no n
        n = None if args.command == "verify" else getattr(args, "settings", {}).get("n")
        print(f"{args.command}: out of memory" + ("" if n is None else f" at n={n}"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
