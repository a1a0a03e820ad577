"""Reference scaling sweep (not a gated workload).

    python3 perfbench/sweep.py [--min-exp 12] [--max-exp 22] [--seed 20240601]

For n = 2^min_exp ... 2^max_exp, runs `locband band` on n points of the
peak triangle (drawn by the benchmark's own sampler) once untraced, for wall
time and peak RSS, and once traced, for the per-layer times and the plan
shape: mesh_count, j range, pair passes and table size.  Prints one JSON
line per n and a markdown table at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import reference as ref
from run import ALPHA, ROOT, layer_metrics, locband, run_child, write_data

COLUMNS = (
    ("n", "n"), ("mesh", "mesh_count"), ("j", "j_range"), ("pairs", "selector.pair_passes"),
    ("table MB", "estimator.table_mb"), ("wall s", "wall_s"), ("RSS MB", "peak_rss_mb"),
    ("parse s", "estimator.parse_data_file_s"), ("table s", "estimator.build_kde_table_s"),
    ("select s", "selector.select_profile_s"), ("band s", "band.build_band_s"),
    ("csv s", "band.band_to_csv_s"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-exp", type=int, default=12)
    parser.add_argument("--max-exp", type=int, default=22)
    parser.add_argument("--seed", type=int, default=20240601)
    args = parser.parse_args(argv)
    work = ROOT / ".bench_work" / "sweep"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rel = work.relative_to(ROOT)
    band_args = ["band", "--input", str(rel / "input.txt"), "--alpha", str(ALPHA), "--out", str(rel / "out.csv")]
    rows = []
    for e in range(args.min_exp, args.max_exp + 1):
        n = 2 ** e
        write_data(work / "input.txt", ref.peak_inverse_cdf_sample(n, args.seed))
        plain = run_child(locband(band_args), work / "stderr.log")
        traced = run_child([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(work / "spans.json"),
                            *band_args], work / "stderr.log")
        if plain.code != 0 or traced.code != 0:
            print(f"sweep: locband band failed at n=2^{e}; see {work / 'stderr.log'}", file=sys.stderr)
            return 1
        spans = json.loads((work / "spans.json").read_text())
        plan = next(s["counts"] for s in spans if s["name"] == "calibration.derive_plan")
        row = {"n": f"2^{e}", "mesh_count": plan["mesh_count"], "j_range": f"{plan['j_min']}..{plan['j_max']}",
               "wall_s": plain.wall_s, "peak_rss_mb": plain.rss_mb,
               **layer_metrics(spans, traced.wall_s, plain.wall_s)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    shutil.rmtree(work, ignore_errors=True)
    print("| " + " | ".join(title for title, _ in COLUMNS) + " |")
    print("|" + "---|" * len(COLUMNS))
    for row in rows:
        cells = [f"{row[key]:.3g}" if isinstance(row[key], float) else str(row[key]) for _, key in COLUMNS]
        print("| " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
