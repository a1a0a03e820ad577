"""The benchmark's self-test and its tracer as ordinary tests: a change that
breaks the benchmark's CLI children, the checks of their outputs or the
functions its tracer wraps by name fails here, not at the next benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_exits_zero():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_tracer_sees_adaptivity_layers(tmp_path):
    # the tracer rebinds functions by name: the adaptivity path must still
    # reach the table and the point selector through the wrapped names, and
    # tracing must not change a byte of the report
    args = ["simulate", "adaptivity", "--density", "peak", "--n", "4096", "--reps", "2", "--seed", "13"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    outputs = []
    for name, prefix in (("plain", ["-c", "import sys; from locband.cli import main; sys.exit(main(sys.argv[1:]))"]),
                         ("traced", [str(ROOT / "perfbench" / "traced.py"), str(tmp_path / "spans.json")])):
        out = tmp_path / f"{name}.csv"
        done = subprocess.run([sys.executable, *prefix, *args, "--out", str(out)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        outputs.append((out.read_bytes(), (tmp_path / f"{name}.csv.meta").read_bytes()))
    assert outputs[0] == outputs[1]
    names = [span["name"] for span in json.loads((tmp_path / "spans.json").read_text())]
    # 2 replications x 2 probes
    assert names.count("selector.select_at") == names.count("estimator.build_kde_table") == 4
