#!/usr/bin/env python3
"""Mutation check of the exact semantics the paper fixes.

Each mutant replaces one exact piece of source text.  The tree is copied to
a temporary directory once; each mutant is applied there in turn and tier-1
runs on it, stopping at the first failure, with three tests deselected: the
two acceptance criteria that fail by design (04 and 08a), and the check of
this table, which fails once a mutant's text is replaced.  A mutant is
killed when some test fails and survives when every test passes.

    python3 scripts/mutants.py

Prints one line per mutant; a killed line names the test that failed, so a
kill by a flaky test can be seen.  Exits 1 if a mutant's text is not found exactly
once (checked before anything runs, so a stale table reports nothing) or if
a tier-1 run ends other than in pass or fail.  Uses the standard library
only; a surviving mutant is a finding, not an error, so it does not change
the exit status.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

DESELECTED = (
    "tests/test_acceptance.py::test_criterion_04_gumbel_calibration",
    "tests/test_acceptance.py::test_criterion_08a_adaptive_width_threshold",
    "tests/test_mutants.py::test_every_mutant_text_is_found_once",
)


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    semantic: str


MUTANTS = (
    Mutant("table-right-end-open", "src/locband/estimator.py",
           'bins = _rank_bins(half, points + h * hi, "right")',
           'bins = _rank_bins(half, points + h * hi, "left")',
           "closed kernel pieces: the table counts an observation on a piece's right end"),
    Mutant("rank-query-right-end-open", "src/locband/estimator.py",
           'right = np.searchsorted(sorted_half, points + h * hi, side="right")',
           'right = np.searchsorted(sorted_half, points + h * hi, side="left")',
           "closed kernel pieces: the rank query counts an observation on a piece's right end"),
    Mutant("thresholds-first", "src/locband/densities.py",
           "xs = lo + (hi - lo) * rng.random(_SAMPLE_BATCH)\n        us = rng.random(_SAMPLE_BATCH)",
           "us = rng.random(_SAMPLE_BATCH)\n        xs = lo + (hi - lo) * rng.random(_SAMPLE_BATCH)",
           "the sampler's stream order: a batch draws all its positions, then its thresholds"),
    Mutant("covered-without-slack", "src/locband/band.py",
           "np.all(band_lo <= lo - slack)",
           "np.all(band_lo <= lo)",
           "certified covered=true: the band holds the enclosure, slack included"),
    Mutant("miss-without-margin", "src/locband/band.py",
           "(lo < band_lo - err) | (hi > band_hi + err)",
           "(lo < band_lo) | (hi > band_hi)",
           "certified covered=false: a miss must exceed the value error on rough cells"),
    Mutant("lookahead-1", "src/locband/selector.py",
           "_LOOKAHEAD = 2",
           "_LOOKAHEAD = 1",
           "none: how far a table widens ahead costs only work"),
    Mutant("closed-ball", "src/locband/estimator.py",
           "(7 * plan.mesh_count - 1) // 2 ** (j + 3)",
           "7 * plan.mesh_count // 2 ** (j + 3)",
           "the open selector ball: its edge a delta_n = (7/8) 2^-j is outside"),
    Mutant("wider-ball", "src/locband/estimator.py",
           "(7 * plan.mesh_count - 1) // 2 ** (j + 3))",
           "(7 * plan.mesh_count - 1) // 2 ** (j + 3) + 1)",
           "the open selector ball's radius"),
    Mutant("silent-clamp", "src/locband/calibration.py",
           'plan_warnings.append(f"j_max={j_max} clamped up to j_min={j_min}")',
           "pass",
           "a plan that clamps j_max up to j_min says so"),
    Mutant("strict-c2", "src/locband/selector.py",
           "ok = ball_max <= plan.c2",
           "ok = ball_max < plan.c2",
           "a pair passes when its ratio is at most c2"),
    Mutant("swapped-halves", "src/locband/estimator.py",
           "chi1=np.sort(arr[:nt]), chi2=np.sort(arr[nt:2 * nt])",
           "chi1=np.sort(arr[nt:2 * nt]), chi2=np.sort(arr[:nt])",
           "split provenance: the first n~ points estimate, the next n~ select"),
    Mutant("left-open-cells", "src/locband/band.py",
           "return min(int(math.floor(t / plan.delta_n)) + 1, plan.mesh_count)",
           "return min(max(1, math.ceil(t / plan.delta_n)), plan.mesh_count)",
           "right-open cells: a mesh point starts the next cell"),
    Mutant("kl-breach-open", "src/locband/densities.py",
           "(qv <= 0.0)",
           "(qv < 0.0)",
           "a p with mass where q vanishes is refused: KL is infinite there"),
    Mutant("series-depth-floor", "src/locband/densities.py",
           "max(0, math.ceil(n))",
           "max(0, math.floor(n))",
           "the series depth is the smallest N whose tail is at most SERIES_TOL"),
)


def check_table(root: Path) -> list[str]:
    """One message per mutant whose text is not found exactly once."""
    bad = []
    for m in MUTANTS:
        count = (root / m.file).read_text(encoding="utf-8").count(m.text)
        if count != 1:
            bad.append(f"{m.name}: {m.file} holds its text {count} times, not once")
    return bad


def run_tier1(tree: Path) -> tuple[int, str]:
    """pytest's exit status and the node id of the first failing test."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "--tb=no", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", *(f"--deselect={t}" for t in DESELECTED)]
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed[0] if failed else ""


def main() -> int:
    bad = check_table(ROOT)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    status, counts = 0, {"killed": 0, "survived": 0, "error": 0}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for m in MUTANTS:
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.text, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            try:
                code, failed = run_tier1(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "survived", 1: "killed"}.get(code, "error")
            counts[verdict] += 1
            status |= verdict == "error"
            by = f" by {failed}" if failed else ""
            print(f"{verdict:8} {m.name}{by} ({time.perf_counter() - start:.0f} s): {m.semantic}", flush=True)
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['error']} errors of {len(MUTANTS)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
