"""Show that every output check can fail.

    python3 perfbench/selftest.py

Produces small genuine outputs with the locband CLI, confirms that the
checks accept them, then corrupts them one way at a time (a nudged center,
a dropped row, a bumped j_hat, a perturbed width, a changed rep_seed, a flipped
`covered` on the rough density, ...)
and confirms that the checks reject every corruption.  Exits 1 if a
genuine output is rejected or a corruption is accepted.
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import checks
import reference as ref
from run import ALPHA, ROOT, locband, run_child, write_data

SEED = 20240601
BAND_N = 2 ** 14
SIM_N = 2 ** 14
REPS = 3
ROUGH = "weierstrass:0.5:0.5"
ROUGH_N, ROUGH_REPS = 256, 1
PROBES, BETAS = (0.5, 0.9), (1.0, 2.0)


def _lines_edit(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


def _field_edit(text: str, row: int, col: int, edit) -> str:
    def on_line(line):
        cells = line.split(",")
        cells[col] = edit(cells[col])
        return ",".join(cells)
    return _lines_edit(text, row, on_line)


def _meta_edit(meta: str, key: str, edit) -> str:
    lines = meta.split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
    lines[i] = key + "=" + edit(lines[i].partition("=")[2])
    return "\n".join(lines)


def _shift(delta: float):
    return lambda s: repr(float(s) + delta)


def _nudge(rel: float):
    return lambda s: repr(float(s) * (1.0 + rel))


def generate(work) -> dict:
    rel = work.relative_to(ROOT)
    data = ref.peak_inverse_cdf_sample(BAND_N, SEED)
    write_data(work / "input.txt", data)
    outputs = {"data": data}
    commands = {
        "band": ["band", "--input", str(rel / "input.txt"), "--alpha", str(ALPHA)],
        "coverage": ["simulate", "coverage", "--density", "peak", "--n", str(SIM_N), "--reps", str(REPS)],
        "adaptivity": ["simulate", "adaptivity", "--density", "peak", "--n", str(SIM_N), "--reps", str(REPS)],
        "rough": ["simulate", "coverage", "--density", ROUGH, "--n", str(ROUGH_N), "--reps", str(ROUGH_REPS)],
    }
    for name, args in commands.items():
        out = rel / f"{name}.csv"
        run = run_child(locband([*args, "--seed", str(SEED), "--alpha", str(ALPHA), "--out", str(out)]),
                        work / "stderr.log")
        if run.code != 0:
            raise SystemExit(f"selftest: locband {name} exited {run.code}; see {work / 'stderr.log'}")
        outputs[name] = ((ROOT / out).read_text(), (ROOT / f"{out}.meta").read_text())
    return outputs


def main() -> int:
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = generate(work)
    data = out["data"]
    band_plan, sim_plan = ref.derive(BAND_N), ref.derive(SIM_N)
    band_csv = out["band"][0]
    cov_csv, cov_meta = out["coverage"]
    ada_csv, ada_meta = out["adaptivity"]
    rough_csv, rough_meta = out["rough"]
    rough_plan, rough = ref.derive(ROUGH_N), ref.Rough.from_name(ROUGH)

    def band(text):
        return checks.check_band(text, data, band_plan, ALPHA, np.random.default_rng(1))

    def coverage(text, meta=cov_meta):
        return checks.check_coverage(text, meta, sim_plan, ALPHA, REPS, SEED, 1.0 - ALPHA)

    def rough_coverage(text):
        return checks.check_coverage(text, rough_meta, rough_plan, ALPHA, ROUGH_REPS, SEED, None, rough)

    def rough_records(edit):
        recs = checks.parse_records(rough_csv)
        edit(recs[0])
        return checks.check_rough_coverage(recs, rough_plan, ALPHA, SEED, rough)

    def adaptivity(text, meta=ada_meta):
        return checks.check_adaptivity(text, meta, sim_plan, ALPHA, REPS, SEED, PROBES, BETAS, reps_checked=REPS)

    rows = checks.parse_band(band_csv)
    point = int(checks.selector_sample(rows, np.random.default_rng(1), 24)[0])
    bumped_rows = rows.copy()
    if point > 0:
        bumped_rows[point - 1, 8] += 1
    if point < rows.shape[0]:
        bumped_rows[point, 7] += 1
    mid = rows.shape[0] // 2 + 1   # a text line: the header is line 0
    ada_recs = checks.parse_records(ada_csv)
    ada_recs[0]["j_eff_1"] = str(int(ada_recs[0]["j_eff_1"]) + 1)

    genuine = {
        "band": lambda: band(band_csv),
        "coverage": lambda: coverage(cov_csv),
        "adaptivity": lambda: adaptivity(ada_csv),
        "rough coverage": lambda: rough_coverage(rough_csv),
    }
    corrupted = {
        "band: nudged center": lambda: band(_field_edit(band_csv, mid, 3, _nudge(1e-6))),
        "band: center, lo and hi shifted together": lambda: band(_field_edit(_field_edit(_field_edit(
            band_csv, mid, 3, _shift(1e-6)), mid, 4, _shift(1e-6)), mid, 5, _shift(1e-6))),
        "band: dropped row": lambda: band(_lines_edit(band_csv, mid, lambda s: "").replace("\n\n", "\n")),
        "band: bumped j_hat_right": lambda: band(_field_edit(band_csv, mid, 8, lambda s: str(int(s) + 1))),
        "band: perturbed hi": lambda: band(_field_edit(band_csv, mid, 5, _nudge(1e-6))),
        "band: perturbed h_loc": lambda: band(_field_edit(band_csv, mid, 6, _nudge(1e-6))),
        f"band: j_hat bumped consistently at mesh point {point}":
            lambda: checks.check_band_selector(bumped_rows, data, band_plan, np.array([point])),
        "coverage: perturbed width_max": lambda: coverage(_field_edit(cov_csv, 1, 5, _nudge(1e-6))),
        "coverage: perturbed width_min": lambda: coverage(_field_edit(cov_csv, 2, 3, _nudge(1e-6))),
        "coverage: changed rep_seed": lambda: coverage(_field_edit(cov_csv, 1, 1, lambda s: str(int(s) + 1))),
        "coverage: dropped record": lambda: coverage(_lines_edit(cov_csv, 3, lambda s: "").rstrip("\n") + "\n"),
        "coverage: flipped covered": lambda: coverage(_field_edit(cov_csv, 2, 2, lambda s: "false")),
        "coverage: changed plan in .meta": lambda: coverage(
            cov_csv, _meta_edit(cov_meta, "mesh_count", lambda s: str(int(s) + 1))),
        "rough coverage: flipped covered, against the rebuilt band": lambda: rough_records(
            lambda rec: rec.update(covered="false" if rec["covered"] == "true" else "true")),
        "rough coverage: width_mean off the rebuilt band": lambda: rough_records(
            lambda rec: rec.update(width_mean=repr(float(rec["width_mean"]) * (1 - 1e-6)))),
        "adaptivity: perturbed width_0": lambda: adaptivity(_field_edit(ada_csv, 1, 3, _nudge(1e-6))),
        "adaptivity: perturbed window_ratio_1": lambda: adaptivity(_field_edit(ada_csv, 2, 11, _nudge(1e-6))),
        "adaptivity: changed summary": lambda: adaptivity(
            ada_csv, _meta_edit(ada_meta, f"summary.ratio_n{SIM_N}", _nudge(1e-6))),
        "adaptivity: bumped j_eff_1 against the selector's definition":
            lambda: checks.check_adaptivity_selector(ada_recs, sim_plan, SEED, PROBES, REPS),
    }
    ok = True
    for name, run in genuine.items():
        try:
            notes = run()
            print(f"accepted genuine {name} output" + (f" ({len(notes)} tie notes)" if notes else ""))
        except (checks.CheckError, ValueError, KeyError) as exc:
            ok = False
            print(f"FAIL: genuine {name} output rejected: {exc}")
    for name, run in corrupted.items():
        try:
            run()
            ok = False
            print(f"FAIL: corruption accepted: {name}")
        except (checks.CheckError, ValueError, KeyError) as exc:
            print(f"rejected {name}: {type(exc).__name__}: {exc}")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
