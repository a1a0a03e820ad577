"""locband benchmark: four workloads, each run as `locband` CLI child processes.

    python3 perfbench/run.py --workload band-1m --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Each workload times whole CLI invocations from outside, one child
at a time, checks their outputs against perfbench/reference.py, and prints
one JSON line with the end-to-end metrics (--trace 0) or, from one extra
traced invocation, the per-layer metrics (--trace 1).  README.md in this
directory lists the workloads, the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
ALPHA = 0.1
# Set-up children run in batches before every timed invocation, so that
# setup_s samples the same stretch of host load as wall_s; a run makes at
# least SETUP_MIN of them.
SETUP_PER_ROUND = 4
SETUP_MIN = 12
# At least two timed invocations, so that the byte-identity check always
# has a pair to compare.
MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 150.0
# The warm-up is a small invocation of the same subcommand: it pages in the
# interpreter, numpy, scipy and the package and compiles bytecode.
WARMUP_N = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str      # "band", "coverage" or "adaptivity"
    density: str
    n: int
    reps: int      # replications per invocation; a band invocation is one fit


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("band-1m", "band", "peak", 2 ** 20, 1),
    Workload("coverage-peak-64k", "coverage", "peak", 2 ** 16, 30),
    Workload("coverage-rough-256", "coverage", "weierstrass:0.5:0.5", 256, 2),
    Workload("adaptivity-peak-256k", "adaptivity", "peak", 2 ** 18, 30),
)}
ADAPTIVITY_PROBES = (0.5, 0.9)
# Order-capped local exponents of the peak triangle at the probes: 1 at the
# kink 1/2; at 0.9 the nearest kink is far beyond the Lipschitz-optimal
# bandwidth, so the kernel-order cap 2 binds.
ADAPTIVITY_BETAS = (1.0, 2.0)
COVERAGE_FLOOR = {"coverage-peak-64k": 1.0 - ALPHA}
# The rough workload's `covered` is recomputed in full; at n = 256 the plan
# has no scale pairs, so the selector's definition is cheap at every point.
ROUGH_TRUTH = {"coverage-rough-256"}

SETUP_CODE = """
import sys, warnings
import locband.cli
from locband.calibration import PlanParams, derive_plan
from locband.kernels import make_rectangular
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    derive_plan(PlanParams(n=int(sys.argv[1])), make_rectangular())
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "reps_per_s": "1/s"}
PER_LAYER = {
    "estimator.parse_data_file_s": "s", "band.band_to_csv_s": "s", "band.csv_mb": "MB",
    "estimator.table_mb": "MB", "estimator.build_kde_table_s": "s", "estimator.table_entries": "count",
    "estimator.split_sample_s": "s", "selector.select_profile_s": "s", "selector.pair_passes": "count",
    "selector.select_at_s": "s", "selector.select_at_calls": "count", "densities.sample_s": "s",
    "densities.sample_points": "count", "densities.cells_extrema_s": "s", "densities.pdf_points": "count",
    "band.covers_truth_s": "s", "band.build_band_s": "s", "harness.self_s": "s", "cli.self_s": "s",
    "calibration.derive_plan_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LOCBAND_SEED", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run one child to completion; wall time from outside, peak RSS of this
    child alone from wait4 (RUSAGE_CHILDREN would keep the maximum over all)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_args(w: Workload, seed: int, inp: str, out: str, n: int | None = None, density: str | None = None,
             reps: int | None = None) -> list[str]:
    if w.kind == "band":
        return ["band", "--input", inp, "--alpha", str(ALPHA), "--out", out]
    return ["simulate", w.kind, "--density", density or w.density, "--n", str(n or w.n),
            "--reps", str(reps or w.reps), "--seed", str(seed), "--alpha", str(ALPHA), "--out", out]


def locband(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "locband.cli", *args]


def flush_to_disk(path: Path) -> None:
    """Write a file's dirty pages back now, outside the timed part, so that
    their write-back does not overlap the next timed invocation."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_data(path: Path, data: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{x:.17g}" for x in data.tolist()))
        fh.write("\n")
    flush_to_disk(path)


def invoke(argv: list[str], out: Path, log: Path) -> tuple[ChildRun, tuple[bytes, bytes] | None]:
    """One CLI invocation and the CSV and .meta it wrote (None if it exited
    non-zero or wrote nothing)."""
    meta = Path(str(out) + ".meta")
    for path in (out, meta):
        path.unlink(missing_ok=True)
    run = run_child(argv, log)
    if run.code != 0 or not (out.exists() and meta.exists()):
        return run, None
    for path in (out, meta):
        flush_to_disk(path)
    return run, (out.read_bytes(), meta.read_bytes())


def digest(outputs: tuple[bytes, bytes] | None) -> str | None:
    return None if outputs is None else hashlib.sha256(b"\0".join(outputs)).hexdigest()


def check_outputs(w: Workload, outputs: tuple[bytes, bytes], seed: int, data) -> list[str]:
    csv_text, meta_text = (b.decode("utf-8") for b in outputs)
    plan = ref.derive(w.n)
    if w.kind == "band":
        return checks.check_band(csv_text, data, plan, ALPHA, np.random.default_rng([seed, 7]))
    if w.kind == "coverage":
        rough = ref.Rough.from_name(w.density) if w.name in ROUGH_TRUTH else None
        return checks.check_coverage(csv_text, meta_text, plan, ALPHA, w.reps, seed,
                                     COVERAGE_FLOOR.get(w.name), rough)
    return checks.check_adaptivity(csv_text, meta_text, plan, ALPHA, w.reps, seed,
                                   ADAPTIVITY_PROBES, ADAPTIVITY_BETAS)


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer totals, counts and self times from the traced run's spans."""
    total, calls, summed, peak = defaultdict(float), defaultdict(int), defaultdict(float), defaultdict(float)
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    self_time = defaultdict(float)
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        total[name] += dur
        calls[name] += 1
        self_time[name.split(".")[0]] += dur - covered[i]
        for key, val in s.get("counts", {}).items():
            summed[f"{name}.{key}"] += val
            peak[f"{name}.{key}"] = max(peak[f"{name}.{key}"], val)
    return {
        "estimator.parse_data_file_s": total["estimator.parse_data_file"],
        "band.band_to_csv_s": total["band.band_to_csv"],
        "band.csv_mb": peak["band.band_to_csv.mb"],
        "estimator.table_mb": peak["estimator.build_kde_table.mb"],
        "estimator.build_kde_table_s": total["estimator.build_kde_table"],
        "estimator.table_entries": summed["estimator.build_kde_table.entries"],
        "estimator.split_sample_s": total["estimator.split_sample"],
        "selector.select_profile_s": total["selector.select_profile"],
        "selector.pair_passes": summed["selector.select_profile.pair_passes"],
        "selector.select_at_s": total["selector.select_at"],
        "selector.select_at_calls": calls["selector.select_at"],
        "densities.sample_s": total["densities.sample"],
        "densities.sample_points": summed["densities.sample.points"],
        "densities.cells_extrema_s": total["densities.cells_extrema"],
        "densities.pdf_points": summed["densities.pdf.points"],
        "band.covers_truth_s": total["band.covers_truth"],
        "band.build_band_s": total["band.build_band"],
        "harness.self_s": self_time["harness"],
        "cli.self_s": self_time["cli"],
        "calibration.derive_plan_s": total["calibration.derive_plan"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "commit": commit,
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    log = work / "stderr.log"
    rel = work.relative_to(ROOT)
    inp, out = str(rel / "input.txt"), str(rel / "out.csv")

    def set_up() -> float:
        run = run_child([sys.executable, "-c", SETUP_CODE, str(w.n)], log)
        if run.code != 0:
            raise BenchError(f"set-up child failed; see {log}")
        return run.wall_s

    data = None
    if w.kind == "band":
        data = ref.peak_inverse_cdf_sample(w.n, seed)
        write_data(ROOT / inp, data)
        write_data(work / "warmup.txt", data[:WARMUP_N])
        warm = ["band", "--input", str(rel / "warmup.txt"), "--out", str(rel / "warmup.csv")]
    else:
        warm = cli_args(w, seed, inp, str(rel / "warmup.csv"), n=WARMUP_N, density="peak", reps=1)
    run_child(locband(warm), log)

    argv = locband(cli_args(w, seed, inp, out))
    setups, runs, outputs = [], [], []
    start = time.perf_counter()
    while len(runs) < MIN_INVOCATIONS or time.perf_counter() - start < seconds:
        setups += [set_up() for _ in range(SETUP_PER_ROUND)]
        run, written = invoke(argv, ROOT / out, log)
        runs.append(run)
        outputs.append(written)
    while len(setups) < SETUP_MIN:
        setups.append(set_up())

    # Only invocations that ran to the end are timed; a crash is no speed-up.
    done = [r for r, o in zip(runs, outputs) if o is not None]
    if not done:
        raise BenchError(f"no invocation ran to the end (exit codes {[r.code for r in runs]}); see {log}")
    problems, notes = [], []
    first = next(o for o in outputs if o is not None)
    try:
        notes = check_outputs(w, first, seed, data)
    except (checks.CheckError, ValueError, KeyError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    digests = [digest(o) for o in outputs]
    if len({d for d in digests if d is not None}) > 1:
        problems.append("repeated invocations with one seed gave different CSV or .meta bytes")
    failed = sum(d is None or d != digest(first) or bool(problems) for d in digests)

    wall_s = statistics.median(r.wall_s for r in done)
    record = {
        "workload": w.name, "seed": seed, "environment": environment(), "setup_s": setups,
        "wall_s": [r.wall_s for r in runs], "peak_rss_mb": [r.rss_mb for r in runs],
        "exit_codes": [r.code for r in runs], "problems": problems, "notes": notes,
    }
    if trace:
        spans_path = work / "spans.json"
        traced, written = invoke([sys.executable, str(Path(__file__).with_name("traced.py")), str(spans_path),
                                  *cli_args(w, seed, inp, out)], ROOT / out, log)
        if written is None or digest(written) != digest(first):
            problems.append("the traced run's CSV or .meta differs from the untraced runs")
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        values, units = layer_metrics(spans, traced.wall_s, wall_s), PER_LAYER
        record["traced_wall_s"] = traced.wall_s
    else:
        # reps_per_s is w.reps / wall_s; a band invocation counts as one.
        values = {"setup_s": statistics.median(setups), "wall_s": wall_s,
                  "peak_rss_mb": statistics.median(r.rss_mb for r in done), "reps_per_s": w.reps / wall_s}
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locband" / "cli.py").is_file():
        print(f"perfbench: no locband source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
