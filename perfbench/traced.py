"""Run locband.cli.main once with its layers wrapped in span recorders.

    python3 perfbench/traced.py SPANS.json <locband arguments...>

Every public function of the calibration, densities, estimator, selector,
band, harness and cli modules, plus AnalyticDensity.pdf and
AnalyticDensity.cells_extrema, is replaced by a wrapper that records one
span (name, start, end, parent, counts) per call.  The spans stay in memory
and are written to SPANS.json when main returns.  The program's own code is
not changed; its outputs must be byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from locband import band, calibration, cli, densities, estimator, harness, selector

LAYERS = (calibration, densities, estimator, selector, band, harness, cli)
METHODS = ((densities.AnalyticDensity, "pdf"), (densities.AnalyticDensity, "cells_extrema"))


def _pair_passes(plan, j_hat) -> int:
    """(j, pair) passes of the coarse-to-fine sweep: it visits every j up to
    the largest selected exponent and tests the pairs m > m' >= j + 3."""
    passes = 0
    for j in range(plan.j_min, int(j_hat.max()) + 1):
        free = max(0, plan.j_max - j - 2)
        passes += free * (free - 1) // 2
    return passes


def _table_counts(args, result):
    return {"entries": int(result.values.size), "mb": result.values.nbytes / 2 ** 20}


def _plan_counts(args, result):
    return {"mesh_count": result.mesh_count, "j_min": result.j_min, "j_max": result.j_max}


# Counts recorded at a layer boundary, from the call's arguments and result.
COUNTS = {
    "estimator.build_kde_table": _table_counts,
    "selector.select_profile": lambda args, res: {"pair_passes": _pair_passes(args[1], res.j_hat)},
    "densities.sample": lambda args, res: {"points": int(res.size)},
    "densities.pdf": lambda args, res: {"points": int(getattr(args[1], "size", 1))},
    "band.band_to_csv": lambda args, res: {"mb": len(res) / 2 ** 20},
    "calibration.derive_plan": _plan_counts,
}


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap the layers' public functions and rebind every module-level name
    that refers to them, so that `from .x import f` call sites see the
    wrappers too."""
    wrapped = {}
    for module in LAYERS:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for module in [m for name, m in sys.modules.items() if name == "locband" or name.startswith("locband.")]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    for cls, attr in METHODS:
        if hasattr(cls, attr):
            setattr(cls, attr, recorder.wrap(f"densities.{attr}", getattr(cls, attr)))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
