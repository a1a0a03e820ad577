import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locband
from locband import band, calibration, cli, harness
from locband.calibration import PlanParams, derive_plan, plan_to_text
from locband.cli import main
from locband.csvtext import CSV_CHUNK
from locband.densities import AnalyticDensity, make_peak_triangular, sample
from locband.kernels import make_rectangular


@pytest.fixture()
def data_file(tmp_path):
    draws = sample(make_peak_triangular(), 2048, seed=31)
    path = tmp_path / "data.txt"
    path.write_text("\n".join(f"{x:.17g}" for x in draws) + "\n")
    return str(path)


# `band` on the four points 0.1, 0.4, 0.6, 0.9: the plan has j_min = j_max = 3,
# so the estimate table holds no row and every mesh point keeps j = 3.
FOUR_POINT_BAND = (
    "k,t_lo,t_hi,center,lo,hi,h_loc,j_hat_left,j_hat_right\n"
    "1,0,0.125,0.933331335467,-4.06552778472,5.93219045565,0.267857716226,3,3\n"
    "2,0.125,0.25,1.86666267093,-3.13219644925,6.86552179112,0.267857716226,3,3\n"
    "3,0.25,0.375,0.933331335467,-4.06552778472,5.93219045565,0.267857716226,3,3\n"
    "4,0.375,0.5,0.933331335467,-4.06552778472,5.93219045565,0.267857716226,3,3\n"
    "5,0.5,0.625,0.933331335467,-4.06552778472,5.93219045565,0.267857716226,3,3\n"
    "6,0.625,0.75,0,-4.99885912019,4.99885912019,0.267857716226,3,3\n"
    "7,0.75,0.875,0,-4.99885912019,4.99885912019,0.267857716226,3,3\n"
    "8,0.875,1,0,-4.99885912019,4.99885912019,0.267857716226,3,3\n"
)
# its sidecar: the one setting band reads that the plan does not record,
# then the plan, then the plan's warnings
FOUR_POINT_META = (
    "alpha=0.1\n"
    "n=4\nepsilon=0.25\nbeta_star_low=0.95\nL_star=1.0\nc1=3.0\nkappa1=0.5263157894736842\n"
    "kappa2=1.0\nc2=0.65\nmode=practical\nbeta_star_high=2\nn_tilde=2\nj_min=3\nj_max=3\n"
    "delta_n=0.125\nmesh_count=8\nu_n=-1.099538761744993\nm_n=-0.5497693808724965\n"
    "a_n=2.884053773201766\nb_n=2.6289259576038364\nc3=1.4142135623730951\n"
    "warning.0=theory constraint relaxed: c1=3 must exceed 2/(beta_* log 2)=3.03725\n"
    "warning.1=theory constraint relaxed: kappa2=1 must exceed c1 log2 + 4=6.07944\n"
    "warning.2=j_max=1 clamped up to j_min=3\n"
)
# the two theory constraints every CLI plan relaxes, as a command prints them
RELAXED = (
    "warning: theory constraint relaxed: c1=3 must exceed 2/(beta_* log 2)=3.03725\n",
    "warning: theory constraint relaxed: kappa2=1 must exceed c1 log2 + 4=6.07944\n",
)


def run_cli(*argv):
    return main(list(argv))


class TestBandCommand:
    def test_writes_band_csv(self, data_file, tmp_path):
        out = tmp_path / "band.csv"
        rc = run_cli("band", "--input", data_file, "--out", str(out), "--seed", "1")
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("k,t_lo,t_hi,center")
        # one row per cell: mesh count for n~=1024 at the shipped defaults
        meta = (tmp_path / "band.csv.meta").read_text()
        assert "alpha=0.1" in meta
        plan = derive_plan(PlanParams(n=2048), make_rectangular())
        assert len(lines) == 1 + plan.mesh_count

    def test_deterministic_bytes(self, data_file, tmp_path):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert run_cli("band", "--input", data_file, "--seed", "7", "--out", str(out1)) == 0
        assert run_cli("band", "--input", data_file, "--seed", "7", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # the sidecar names neither path, nor the seed that band never reads
        meta = (tmp_path / "b1.csv.meta").read_bytes()
        assert meta == (tmp_path / "b2.csv.meta").read_bytes()
        keys = [line.split("=", 1)[0] for line in meta.decode().splitlines()]
        plan = derive_plan(PlanParams(n=2048), make_rectangular())
        plan_keys = [line.split("=", 1)[0] for line in plan_to_text(plan).splitlines()]
        assert keys == ["alpha", *plan_keys, "warning.0", "warning.1"]

    def test_alpha_monotone(self, data_file, tmp_path):
        outs = {}
        for alpha in ("0.01", "0.1"):
            out = tmp_path / f"band{alpha}.csv"
            assert run_cli("band", "--input", data_file, "--alpha", alpha, "--out", str(out)) == 0
            rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
            outs[alpha] = np.array([(float(r[5]) - float(r[4])) / 2.0 for r in rows])
        assert np.all(outs["0.01"] >= outs["0.1"])

    def test_four_points(self, tmp_path):
        data = tmp_path / "four.txt"
        data.write_text("0.1\n0.4\n0.6\n0.9\n")
        out = tmp_path / "four.csv"
        assert run_cli("band", "--input", str(data), "--out", str(out)) == 0
        assert out.read_text() == FOUR_POINT_BAND
        assert (tmp_path / "four.csv.meta").read_text() == FOUR_POINT_META

    def test_four_points_warns(self, tmp_path, capsys):
        data = tmp_path / "four.txt"
        data.write_text("0.1\n0.4\n0.6\n0.9\n")
        assert run_cli("band", "--input", str(data), "--out", str(tmp_path / "four.csv")) == 0
        err = capsys.readouterr().err.splitlines()
        assert "band: warning: j_max=1 clamped up to j_min=3" in err
        assert all(line.startswith("band: warning: ") for line in err)

    # a pipe's bad line is named from the one read of it: reading it again
    # would block on a FIFO and find an anonymous pipe empty
    PIPE_DATA = b"0.5\nx\n"
    PIPE_ERR = b"band: cannot read input: line 2: not a real number: 'x\\n'\n"

    @staticmethod
    def _band_child(path, **kwargs):
        env = {**os.environ, "PYTHONPATH": str(Path(locband.__file__).resolve().parent.parent)}
        return subprocess.run([sys.executable, "-m", "locband.cli", "band", "--input", path],
                              env=env, capture_output=True, timeout=30, **kwargs)

    def test_bad_line_in_fifo_exit_2(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(self.PIPE_DATA)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            done = self._band_child(str(fifo))
        finally:
            # lets through a writer still waiting for a reader
            reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
            writer.join(30)
            os.close(reader)
        assert not writer.is_alive()
        assert (done.returncode, done.stderr) == (2, self.PIPE_ERR)

    def test_bad_line_in_anonymous_pipe_exit_2(self):
        r, w = os.pipe()
        os.write(w, self.PIPE_DATA)
        os.close(w)
        try:
            done = self._band_child(f"/dev/fd/{r}", pass_fds=(r,))
        finally:
            os.close(r)
        assert (done.returncode, done.stderr) == (2, self.PIPE_ERR)

    def test_three_points_exit_2(self, tmp_path, capsys):
        data = tmp_path / "three.txt"
        data.write_text("0.1\n0.4\n0.6\n")
        assert run_cli("band", "--input", str(data)) == 2
        assert capsys.readouterr().err == "band: need at least 4 observations, got 3\n"


class TestSimulateCommand:
    def test_gumbel_kind(self, tmp_path):
        out = tmp_path / "gum.csv"
        rc = run_cli("simulate", "gumbel", "--n", "64", "--reps", "200", "--seed", "3",
                     "--out", str(out))
        assert rc == 0
        meta = (tmp_path / "gum.csv.meta").read_text()
        assert "summary.ks=" in meta

    @pytest.mark.parametrize("kind, keys", [
        ("gumbel", ["n", "reps", "seed"]),
        ("window", ["density", "reps", "seed"]),  # the plan records n, c2 and L*
    ])
    def test_meta_records_only_settings_read(self, tmp_path, kind, keys):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", kind, "--n", "512", "--reps", "1", "--out", str(out)) == 0
        meta = (tmp_path / "sim.csv.meta").read_text().splitlines()
        # the settings end where the plan (window) or the report (gumbel) begins
        assert [line.split("=", 1)[0] for line in meta[: len(keys)]] == keys
        assert meta[len(keys)] == ("experiment=gumbel" if kind == "gumbel" else "n=512")

    def test_coverage_single_rep(self, tmp_path):
        out = tmp_path / "cov.csv"
        rc = run_cli("simulate", "coverage", "--n", "512", "--reps", "1", "--seed", "3",
                     "--density", "peak", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # header + one record

    @pytest.mark.parametrize("kind", ["coverage", "window", "adaptivity"])
    def test_prints_plan_warnings(self, kind, tmp_path, capsys):
        # at n = 4 the plan clamps its grid, as band's and curves' do
        assert run_cli("simulate", kind, "--n", "4", "--reps", "1", "--out", str(tmp_path / "sim.csv")) == 0
        warnings = (*RELAXED, "warning: j_max=1 clamped up to j_min=3\n")
        assert capsys.readouterr().err == "".join(f"simulate: {w}" for w in warnings)


class TestVerifyCommand:
    def test_suite_filter(self, capsys, tmp_path):
        out = tmp_path / "a3.csv"
        rc = run_cli("verify", "--suite", "a3", "--out", str(out))
        assert rc == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert rows and all(row.startswith("a3,") for row in rows)

    def test_default_run_all_pass_exit_0(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert run_cli("verify", "--out", str(out)) == 0
        meta = (tmp_path / "verify.csv.meta").read_text()
        assert "summary.all_passed=true" in meta

    def test_broken_kernel_exit_1(self, capsys, monkeypatch):
        from test_harness import broken_order_kernel

        monkeypatch.setattr(harness, "make_rectangular", broken_order_kernel)
        assert run_cli("verify", "--suite", "bias_upper") == 1
        assert capsys.readouterr().err.endswith("verify: FAILED items: bias_upper\n")


class TestCurvesCommand:
    def test_schema_and_adaptivity(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = run_cli("curves", "--density", "peak", "--n", str(2 ** 14), "--seed", "5",
                     "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["k", "t", "truth", "local_center", "local_lo", "local_hi",
                          "global_lo", "global_hi"]
        # local band strictly inside the global reference near the smooth probe
        rows = [line.split(",") for line in lines[1:]]
        ts = np.array([float(r[1]) for r in rows])
        k = int(np.argmin(np.abs(ts - 0.9)))
        local_lo, local_hi = float(rows[k][4]), float(rows[k][5])
        global_lo, global_hi = float(rows[k][6]), float(rows[k][7])
        assert global_lo < local_lo and local_hi < global_hi
        # and narrower at the smooth probe than at the kink probe
        kk = int(np.argmin(np.abs(ts - 0.5)))
        kink_width = float(rows[kk][5]) - float(rows[kk][4])
        assert local_hi - local_lo < kink_width

    @pytest.mark.parametrize("mesh_count", [2 * CSV_CHUNK, 2 * CSV_CHUNK + 1])
    def test_pooled_csv_is_the_serial_csv(self, tmp_path, cpus, monkeypatch, mesh_count):
        derive = cli._density_and_plan

        def on_mesh(cfg, key):
            density, plan = derive(cfg, key)
            return density, replace(plan, mesh_count=mesh_count, delta_n=1.0 / mesh_count)

        monkeypatch.setattr(cli, "_density_and_plan", on_mesh)
        written = []
        for count in (2, 1):
            cpus(count)
            out = tmp_path / f"curves-{count}.csv"
            assert run_cli("curves", "--n", "2048", "--seed", "3", "--out", str(out)) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1] and written[0].count(b"\n") == 1 + mesh_count


class TestConfigAndEnv:
    def test_config_file(self, tmp_path, data_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.2\nseed=17\n")
        out = tmp_path / "band.csv"
        rc = run_cli("band", "--config", str(cfg), "--input", data_file, "--out", str(out))
        assert rc == 0
        assert "alpha=0.2" in (tmp_path / "band.csv.meta").read_text()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alphaa=0.2\n")
        rc = run_cli("band", "--config", str(cfg), "--input", "whatever")
        assert rc == 2
        assert f"{cfg}:1: unknown config key 'alphaa'" in capsys.readouterr().err

    def test_bad_config_value_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=abc\n")
        assert run_cli("simulate", "gumbel", "--config", str(cfg)) == 2
        assert "run.cfg:1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("n=0", "n=0: n must be >= 4, got 0"),
        ("reps=0", "reps=0: reps must be >= 1, got 0"),
        ("alpha=1.5", "alpha=1.5: alpha must lie in (0,1), got 1.5"),
        ("alpha=1e-320", "alpha=1e-320: alpha is too small to use: 1 - alpha/2 rounds to 1, got 1e-320"),
        ("seed=-1", "seed=-1: seed must be >= 0, got -1"),
        *((f"{key}={v}", f"{key}={v}: {key} must be positive and finite, got {float(v)!r}")
          for key in ("c2", "lstar") for v in ("nan", "inf", "0", "-1")),
    ], ids=["n", "reps", "alpha", "alpha-tiny", "seed",
            *(f"{key}-{v}" for key in ("c2", "lstar") for v in ("nan", "inf", "0", "-1"))])
    def test_out_of_range_config_value_names_line(self, tmp_path, capsys, line, message):
        # each value converts, so only its range refuses it, at its own line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\nseed=3\n{line}\n")
        assert run_cli("simulate", "coverage", "--config", str(cfg), "--n", "512") == 2
        assert capsys.readouterr().err == f"simulate: {cfg}:3: {message}\n"

    @pytest.mark.parametrize("n, code, err", [("8", 2, "simulate: need m >= 16 cells, got 8\n"), ("64", 0, "")])
    def test_config_n_reaches_the_gumbel_cell_check(self, tmp_path, capsys, n, code, err):
        # gumbel's n is a cell count: 4 to 15 pass the config rule and meet gumbel's own
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n={n}\nreps=20\n")
        assert run_cli("simulate", "gumbel", "--config", str(cfg), "--out", str(tmp_path / "gum.csv")) == code
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("value", ["practical", "theory"])
    def test_config_mode_is_an_unknown_key(self, tmp_path, capsys, value):
        # a plan's constants other than n, lstar and c2 are fixed, so no setting names them
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\nseed=3\nmode={value}\n")
        out = tmp_path / "cov.csv"
        assert run_cli("simulate", "coverage", "--config", str(cfg), "--n", "512", "--reps", "1", "--out", str(out)) == 2
        assert capsys.readouterr().err == f"simulate: {cfg}:3: unknown config key 'mode'\n"
        assert not out.exists()

    def test_config_checked_whole(self, tmp_path, capsys):
        # band reads no reps, so its config file may not name it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps=0\n")
        assert run_cli("band", "--config", str(cfg), "--input", "whatever") == 2
        assert capsys.readouterr().err == f"band: {cfg}:1: unknown config key 'reps'\n"

    @pytest.mark.parametrize("argv, err", [
        (("band", "--input", "{missing}", "--c2", "-1"), "band: c2 must be positive and finite, got -1.0\n"),
        (("simulate", "gumbel", "--n", "3", "--reps", "20"), "simulate: n must be >= 4, got 3\n"),
    ], ids=["band-c2-before-input", "gumbel-n"])
    def test_flags_checked_whole(self, argv, err, data_file, tmp_path, capsys):
        # a flag meets the rule its config line meets, before any input is read
        out = tmp_path / "out.csv"
        argv = [a.format(input=data_file, missing=tmp_path / "missing.txt") for a in argv]
        assert run_cli(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_env_seed_and_flag_priority(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOCBAND_SEED", "999")
        out = tmp_path / "gum.csv"
        rc = run_cli("simulate", "gumbel", "--n", "64", "--reps", "20", "--out", str(out))
        assert rc == 0
        assert "seed=999" in (tmp_path / "gum.csv.meta").read_text()
        rc = run_cli("simulate", "gumbel", "--n", "64", "--reps", "20", "--seed", "5",
                     "--out", str(out))
        assert rc == 0
        assert "seed=5" in (tmp_path / "gum.csv.meta").read_text()

    @pytest.mark.parametrize("value, message", [
        ("abc", "invalid literal for int() with base 10: 'abc'"),
        ("-1", "seed must be >= 0, got -1"),
    ], ids=["not-int", "negative"])
    def test_bad_env_seed_names_variable(self, value, message, monkeypatch, capsys):
        monkeypatch.setenv("LOCBAND_SEED", value)
        assert run_cli("simulate", "coverage", "--n", "512", "--reps", "1") == 2
        assert capsys.readouterr().err == f"simulate: LOCBAND_SEED={value}: {message}\n"

    def test_stdout_mode(self, data_file, tmp_path):
        # a child process, so that the bytes are those of the real stdout
        out = tmp_path / "band.csv"
        env = {**os.environ, "PYTHONPATH": str(Path(locband.__file__).resolve().parent.parent)}
        done = subprocess.run([sys.executable, "-m", "locband.cli", "band", "--input", data_file],
                              env=env, capture_output=True, check=True)
        assert run_cli("band", "--input", data_file, "--out", str(out)) == 0
        assert done.stdout.startswith(b"k,t_lo")
        assert done.stdout == out.read_bytes()
        # metadata goes to stderr, after the plan's warnings
        assert done.stderr.endswith((tmp_path / "band.csv.meta").read_bytes())
        assert b"band: warning: " in done.stderr

    def test_stdout_pooled_is_stdout_serial(self, data_file, cpus, capfd):
        # workers are forked after the header is written; it must reach
        # stdout once, and the rows after it in order
        written = []
        for count in (2, 1):
            cpus(count)
            assert run_cli("band", "--input", data_file) == 0
            written.append(capfd.readouterr().out)
        assert written[0] == written[1]
        assert written[0].count("k,t_lo") == 1 and written[0].startswith("k,t_lo")

    def test_out_not_a_regular_file_gets_no_sidecar(self, tmp_path):
        out = tmp_path / "out.csv"
        out.symlink_to(os.devnull)
        assert run_cli("simulate", "gumbel", "--n", "64", "--reps", "2", "--out", str(out)) == 0
        assert not (tmp_path / "out.csv.meta").exists()


@pytest.mark.parametrize("argv, code, stream, text", [
    (("band", "--help"), 0, "out", "usage: locband band"),
    (("band", "--bogus"), 2, "err", "unrecognized arguments: --bogus"),
    # a plan's constants other than n, lstar and c2 are fixed, so there is no mode to pick
    *((argv + ("--mode", "theory"), 2, "err", "unrecognized arguments: --mode theory")
      for argv in (("band",), ("simulate", "coverage"), ("simulate", "gumbel"), ("curves",))),
    # a flag that the command does not read is not one of its flags
    (("verify", "--suite", "a2", "--alpha", "5"), 2, "err", "unrecognized arguments: --alpha 5"),
    (("band", "--input", "whatever", "--reps", "0"), 2, "err", "unrecognized arguments: --reps 0"),
], ids=["help", "unknown-flag", "mode-band", "mode-coverage", "mode-gumbel", "mode-curves",
        "verify-alpha", "band-reps"])
def test_parser_exit_becomes_return_code(argv, code, stream, text, capsys):
    assert run_cli(*argv) == code
    assert text in getattr(capsys.readouterr(), stream)


@pytest.mark.parametrize("argv, err", [
    (("band",), "band: --input is required\n"),
    (("band", "--input", "{missing}"),
     "band: cannot read input: [Errno 2] No such file or directory: '{missing}'\n"),
    (("band", "--input", "{bad}"), "band: cannot read input: line 2: not a real number: 'x\\n'\n"),
    (("simulate", "bogus"), "simulate: unknown kind 'bogus' (coverage|adaptivity|window|gumbel)\n"),
    (("simulate", "coverage", "--density", "bogus"), "simulate: unknown density name 'bogus'\n"),
    (("curves", "--density", "bogus"), "curves: unknown density name 'bogus'\n"),
    (("simulate", "coverage", "--density", "tent:x"),
     "simulate: cannot build density 'tent:x': could not convert string to float: 'x'\n"),
    (("curves", "--density", "weierstrass:2:0.5"),
     "curves: cannot build density 'weierstrass:2:0.5': composite exponent must lie in (0,1), got 2.0\n"),
    (("verify", "--suite", "a9"), "verify: unknown suite(s): ['a9']\n"),
    # a simulate flag or config key that the kind does not read, before any value is checked
    (("simulate", "window", "--alpha", "0.3"), "simulate: window reads no --alpha\n"),
    (("simulate", "gumbel", "--density", "peak", "--c2", "5"), "simulate: gumbel reads no --c2, --density\n"),
    (("simulate", "gumbel", "--reps", "0", "--lstar", "nan"), "simulate: gumbel reads no --lstar\n"),
    (("simulate", "window", "--config", "{cfg}"), "simulate: {cfg}:2: unknown config key 'alpha'\n"),
    # the last value would otherwise win in silence
    (("simulate", "gumbel", "--config", "{repeats}"), "simulate: {repeats}:3: config key 'n' repeats line 1\n"),
    (("simulate", "bogus", "--reps", "0"), "simulate: unknown kind 'bogus' (coverage|adaptivity|window|gumbel)\n"),
], ids=["no-input", "missing-input", "bad-line", "unknown-kind", "unknown-density", "curves-unknown-density",
        "tent-x", "weierstrass-beta-2", "unknown-suite", "window-alpha", "gumbel-density-c2", "gumbel-lstar-first",
        "window-config-alpha", "config-key-repeats", "kind-before-reps"])
def test_refusal_is_one_exact_line(argv, err, tmp_path, capsys):
    # each refusal is the whole of stderr, with exit 2 and nothing written
    texts = {"bad": "0.5\nx\n", "cfg": "n=512\nalpha=0.2\n", "repeats": "n=64\nreps=20\nn=128\n"}
    paths = {"missing": str(tmp_path / "missing.txt"), **{name: str(tmp_path / name) for name in texts}}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out.csv"
    assert run_cli(*(a.format(**paths) for a in argv), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", err.format(**paths))
    assert not out.exists()


# a valid value of each setting that a simulate kind may read
_SIMULATE_VALUES = {"n": "64", "alpha": "0.2", "reps": "1", "seed": "3", "c2": "0.65", "lstar": "1", "density": "peak"}


@pytest.mark.parametrize("key", list(cli._READS))
def test_accepts_the_settings_it_reads(key, tmp_path, capsys):
    # --help lists the command's table row (every kind's, for simulate) and
    # the seed, which every command accepts; given every simulate flag, a
    # kind refuses in one line those that it does not read, and runs otherwise
    command = "simulate" if key in cli._SIMULATE_KINDS else key
    assert run_cli(command, "--help") == 0
    listed = set(re.findall(r"^  (-h|--\w+)", capsys.readouterr().out, re.M))
    rows = [cli._READS[k] for k in (cli._SIMULATE_KINDS if command == "simulate" else (key,))]
    assert listed == {f"--{s}" for row in rows for s in row} | {"-h", "--config", "--seed"}
    if command == "simulate":
        out = tmp_path / "out.csv"
        flags = [a for s, v in _SIMULATE_VALUES.items() for a in (f"--{s}", v)]
        unread = [f"--{s}" for s in _SIMULATE_VALUES if s not in cli._READS[key] and s != "seed"]
        assert run_cli("simulate", key, *flags, "--out", str(out)) == (2 if unread else 0)
        warned = "".join(f"simulate: {w}" for w in RELAXED)
        assert capsys.readouterr().err == (f"simulate: {key} reads no {', '.join(unread)}\n" if unread else warned)
        assert out.exists() != bool(unread)


@pytest.mark.parametrize("reps", ["0", "-3"])
@pytest.mark.parametrize("kind", ["coverage", "window", "adaptivity", "gumbel"])
def test_reps_below_one_exit_2(kind, reps, capsys):
    assert run_cli("simulate", kind, "--n", "512", "--reps", reps) == 2
    assert capsys.readouterr().err == f"simulate: reps must be >= 1, got {reps}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("flag, name", [("--c2", "c2"), ("--lstar", "lstar")], ids=["c2", "lstar"])
@pytest.mark.parametrize("argv", [
    ("band", "--input", "{input}"),
    ("simulate", "coverage", "--n", "512", "--reps", "1"),
], ids=["band", "coverage"])
def test_plan_constant_not_positive_and_finite_exit_2(argv, flag, name, value, data_file, tmp_path, capsys):
    # refused under the flag's name as it is resolved, before any input is read
    argv = [a.format(input=data_file) for a in argv]
    out = tmp_path / "out.csv"
    assert run_cli(*argv, flag, value, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"{argv[0]}: {name} must be positive and finite, got {float(value)!r}\n"
    assert not out.exists()


def test_negative_seed_exit_2(capsys):
    assert run_cli("simulate", "coverage", "--n", "512", "--reps", "1", "--seed", "-1") == 2
    assert capsys.readouterr().err == "simulate: seed must be >= 0, got -1\n"


# (setting, value) pairs that a run accepts by design, with the reason
_ACCEPTED = {("seed", "0"): "0 is a master seed like any other"}
_NUMERIC = [key for key, (parse, *_) in cli._SETTINGS.items() if parse in (int, float)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [
    (key, value) for key in _NUMERIC for value in ("nan", "inf", "0", "-1") if (key, value) not in _ACCEPTED
])
def test_numeric_setting_refuses_degenerate_value(key, value, source, tmp_path, capsys):
    # every numeric setting, including any added later, either refuses these
    # values with a usage error or is listed in _ACCEPTED with its reason
    out = tmp_path / "out.csv"
    if source == "flag":
        given = [f"--{key}", value]
    else:
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        given = ["--config", str(tmp_path / "run.cfg")]
    assert run_cli("simulate", "coverage", *given, "--out", str(out)) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.csv.meta").exists()


@pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
@pytest.mark.parametrize("argv", [
    ("band", "--input", "{input}"),
    ("simulate", "coverage", "--n", "512", "--reps", "1"),
    ("simulate", "adaptivity", "--n", "512", "--reps", "1"),
    ("curves", "--n", "512"),
], ids=["band", "coverage", "adaptivity", "curves"])
def test_alpha_outside_unit_interval_exit_2(argv, alpha, data_file, capsys):
    argv = [a.format(input=data_file) for a in argv]
    assert run_cli(*argv, "--alpha", alpha) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"{argv[0]}: alpha must lie in (0,1), got {float(alpha)!r}"


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_bad_alpha_refused_before_truth_scan(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, AnalyticDensity, "cells_extrema")
    assert run_cli("simulate", "coverage", "--density", "weierstrass:0.5:0.5", "--n", "64", "--alpha", "1.5") == 2
    assert calls == []
    assert capsys.readouterr().err.endswith("simulate: alpha must lie in (0,1), got 1.5\n")


_FITTING_RUNS = pytest.mark.parametrize("argv", [
    ("band", "--input", "{input}"),
    ("curves", "--n", "512"),
    ("simulate", "coverage", "--density", "peak", "--n", "512", "--reps", "2"),
], ids=["band", "curves", "coverage"])


@_FITTING_RUNS
def test_bad_alpha_refused_before_fit(argv, data_file, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, harness if argv[0] == "simulate" else cli, "fit_band")
    assert run_cli(*[a.format(input=data_file) for a in argv], "--alpha", "1.5") == 2
    assert calls == []
    assert capsys.readouterr().err.endswith(f"{argv[0]}: alpha must lie in (0,1), got 1.5\n")


@_FITTING_RUNS
def test_quantile_derived_once(argv, data_file, monkeypatch, tmp_path):
    # one call both checks alpha and gives the q_n that every band of the run
    # uses; counted wherever the package imports the function
    calls = []
    real = calibration.band_halfwidth_quantile
    for module in (calibration, band, cli, harness):
        if hasattr(module, "band_halfwidth_quantile"):
            monkeypatch.setattr(module, "band_halfwidth_quantile", lambda *a: calls.append(1) or real(*a))
    assert run_cli(*[a.format(input=data_file) for a in argv], "--out", str(tmp_path / "out.csv")) == 0
    assert len(calls) == 1


def test_adaptivity_meta_records_plan_warnings(tmp_path):
    # both kinds derive the same plan from the same settings, and both
    # sidecars record its warnings
    warnings = {}
    for kind in ("coverage", "adaptivity"):
        out = tmp_path / f"{kind}.csv"
        assert run_cli("simulate", kind, "--n", "4096", "--reps", "1", "--out", str(out)) == 0
        meta = (tmp_path / f"{kind}.csv.meta").read_text().splitlines()
        warnings[kind] = [line for line in meta if line.startswith("warning.")]
    assert len(warnings["coverage"]) == 2
    assert warnings["adaptivity"] == warnings["coverage"]


def test_alpha_too_small_to_use_exit_2(data_file, tmp_path, capsys):
    # 1 - alpha/2 rounds to 1, where the band's Gumbel quantile is infinite
    out = tmp_path / "band.csv"
    assert run_cli("band", "--input", data_file, "--alpha", "1e-320", "--out", str(out)) == 2
    assert capsys.readouterr().err == "band: alpha is too small to use: 1 - alpha/2 rounds to 1, got 1e-320\n"
    assert not out.exists()


def _timed_cli(*argv):
    start = time.perf_counter()
    code = run_cli(*argv)
    return code, time.perf_counter() - start


@pytest.mark.parametrize("name", ["weierstrass:1e-9:0.5", "perturbed1:1e-9:64"])
def test_series_too_deep_is_refused(name, tmp_path, capsys):
    # 70,289,256,313 terms per evaluation: refused as the density is built
    code, seconds = _timed_cli("simulate", "coverage", "--density", name, "--n", "4096", "--reps", "1",
                               "--out", str(tmp_path / "cov.csv"))
    assert code == 2 and seconds < 1.0
    assert capsys.readouterr().err == (
        f"simulate: cannot build density {name!r}: series exponent 1e-09 needs 70289256313 terms "
        "for tolerance 1e-12, more than the 4096 evaluated\n"
    )


@pytest.mark.parametrize("argv", [
    ("simulate", "coverage", "--reps", "1"),
    ("simulate", "window", "--reps", "1"),
    ("curves",),
], ids=["coverage", "window", "curves"])
def test_mesh_too_large_to_index_is_refused(argv, tmp_path, capsys):
    # 3.0e19 cells are more than sys.maxsize // 8 float64 entries; an n past
    # float range is refused before any conversion
    for n, cells in ((10 ** 30, "3.01e+19 cells, more"), (10 ** 400, "more cells")):
        code, seconds = _timed_cli(*argv, "--n", str(n), "--out", str(tmp_path / "out.csv"))
        assert code == 2 and seconds < 1.0
        assert capsys.readouterr().err == f"{argv[0]}: n={n} needs a mesh of {cells} than an array can hold\n"


@pytest.mark.parametrize("n", [10 ** 20, 10 ** 30])
def test_gumbel_cells_past_an_array_are_refused(n, tmp_path, capsys):
    # refused before numpy is asked for the array; a count below the cap that
    # does not fit is test_out_of_memory_is_a_stated_refusal's
    code, seconds = _timed_cli("simulate", "gumbel", "--n", str(n), "--reps", "1", "--out", str(tmp_path / "out.csv"))
    assert code == 2 and seconds < 1.0
    assert capsys.readouterr().err == f"simulate: need m <= {sys.maxsize // 8} cells, got {n}\n"
    assert not (tmp_path / "out.csv").exists()


def test_cli_import_leaves_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(Path(locband.__file__).resolve().parent.parent)}
    code = "import sys, locband.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_commands_below_the_pool_threshold_leave_multiprocessing_out(data_file, tmp_path):
    # only a simulate run large enough for a worker pool imports it
    env = {**os.environ, "PYTHONPATH": str(Path(locband.__file__).resolve().parent.parent)}
    code = (
        "import sys\n"
        "from locband.cli import main\n"
        "for argv in (['band', '--input', sys.argv[1]], ['curves', '--n', '512'], ['verify', '--suite', 'a2'],\n"
        "             ['simulate', 'coverage', '--density', 'peak', '--n', '512', '--reps', '2']):\n"
        "    assert main(argv + ['--out', sys.argv[2]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code, data_file, str(tmp_path / "out.csv")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds every allocation on Linux")
@pytest.mark.parametrize("kind", ["coverage", "gumbel"])
def test_out_of_memory_is_a_stated_refusal(kind, tmp_path):
    # the child caps its own address space at 512 MiB, which holds numpy (one
    # BLAS thread) but not the mesh-sized truth arrays of n = 2^28, nor 2^28 cells
    env = {**os.environ, "PYTHONPATH": str(Path(locband.__file__).resolve().parent.parent),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))\n"
        "from locband.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "out.csv"
    argv = ["simulate", kind, "--n", str(1 << 28), "--reps", "1", "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60)
    warnings = "".join(f"simulate: {w}" for w in RELAXED) if kind == "coverage" else ""
    assert (done.returncode, done.stderr) == (2, f"{warnings}simulate: out of memory at n={1 << 28}\n")
    assert not out.exists()


def test_out_of_memory_in_a_worker_is_a_stated_refusal(monkeypatch, capsys, cpus):
    # a replication's draw asks a forked worker for 24 PB; fork_map re-raises the error
    parent = os.getpid()

    def sample_in_worker(density, m, seed):
        assert os.getpid() != parent, "a replication ran in the parent"
        return np.empty((3, 10 ** 15))

    monkeypatch.setattr(harness, "sample", sample_in_worker)
    cpus(2)
    assert run_cli("simulate", "coverage", "--n", "512", "--reps", "2") == 2
    warnings = "".join(f"simulate: {w}" for w in RELAXED)
    assert capsys.readouterr() == ("", f"{warnings}simulate: out of memory at n=512\n")


# --- the argv sweep: every drawn command line ends in a stated outcome -------

# valid values of each setting; n and reps stay at most 4096 and 2, so that
# every case that runs is small
_VALID = {"n": ("4", "64", "4096"), "alpha": ("0.1", "0.5"), "reps": ("1", "2"), "seed": ("0", "7"),
          "c2": ("0.65", "4"), "lstar": ("1", "0.25"), "suite": ("a2",)}
# edge text: each boundary, signed zeros, non-finite and extreme reals, an
# integer past float range, non-numeric and empty; a reps past float range
# would run, so reps goes without it
_EDGES = ("0", "-0", "nan", "inf", "-inf", "1e-320", "1e300", str(10 ** 400), "x", "")
_EDGE = {"n": ("3", *_EDGES), "alpha": ("1", *_EDGES), "reps": tuple(e for e in _EDGES if e != str(10 ** 400)),
         "seed": ("-1", *_EDGES), "c2": _EDGES, "lstar": _EDGES, "suite": ("nope", "")}
_FIELDS = ("0.5", "0.3", "1", "0", "-0", "nan", "inf", "1e-320", "1e300", "x", "")
_DENSITIES = st.one_of(
    st.sampled_from(["peak", "tent:0.3", "weierstrass:0.5:0.5", "perturbed1:0.5:4096", "perturbed2:0.3:64"]),
    st.sampled_from(["", "nope", "peak:1", "tent", "weierstrass:0.5"]),
    st.builds("tent:{}".format, st.sampled_from(_FIELDS)),
    st.builds("weierstrass:{}:{}".format, st.sampled_from(_FIELDS), st.sampled_from(_FIELDS)),
    st.builds("{}:{}:{}".format, st.sampled_from(["perturbed1", "perturbed2"]), st.sampled_from(_FIELDS),
              st.sampled_from(("64", "4096", "3", "-1", str(10 ** 400), "x", ""))),
)
_INPUT_TEXT = {"data": "".join(f"{x!r}\n" for x in np.linspace(0.01, 0.99, 300)),
               "four": "0.1\n0.4\n0.6\n0.9\n", "empty": "", "bad": "0.5\nx\n"}
_INPUTS = (*_INPUT_TEXT, "missing", "")


def _flags(command):
    """The settings the parser of `command` takes: a simulate parser takes every kind's."""
    kinds = cli._SIMULATE_KINDS if command[0] == "simulate" else command
    return {"seed", *(s for kind in kinds for s in cli._READS[kind])}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    command=st.sampled_from([("band",), ("verify",), ("curves",),
                             *(("simulate", kind) for kind in (*cli._SIMULATE_KINDS, "bogus"))]),
    values=st.fixed_dictionaries({}, optional={key: st.sampled_from(v) for key, v in _VALID.items()}),
    edge=st.none() | st.sampled_from(list(_EDGE)).flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(_EDGE[k]))),
    density=st.none() | _DENSITIES,
    given_input=st.none() | st.sampled_from(_INPUTS),
    stray=st.booleans(),
    in_config=st.booleans(),
)
# a perturbation's sample size past float range once ended in an OverflowError
@example(command=("simulate", "coverage"), values={"n": "64", "reps": "1"}, edge=None,
         density=f"perturbed1:0.5:{10 ** 400}", given_input=None, stray=False, in_config=False)
def test_argv_sweep_ends_in_a_stated_outcome(command, values, edge, density, given_input, stray, in_config):
    # every setting is drawn for every command; a stray draw keeps those the
    # command does not read, and the others drop them
    values = dict(values, **dict([edge] if edge else []))
    if command[0] == "simulate":
        values.setdefault("reps", "1")  # the default 50 is too slow to sweep
    if command == ("verify",):
        values.setdefault("suite", "a2")  # the whole suite is too slow to sweep
    if density is not None:
        values["density"] = density
    reads = {"seed", *cli._READS[command[-1]]} if command[-1] in cli._READS else _flags(command)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == ("band",) and given_input is None:
            given_input = "four"
        if given_input is not None:
            path = tmp / f"{given_input}.txt"
            if given_input in _INPUT_TEXT:
                path.write_text(_INPUT_TEXT[given_input])
            values["input"] = "" if given_input == "" else str(path)
        if not stray:
            values = {k: v for k, v in values.items() if k in reads}
        out = tmp / "out.csv"
        argv = [*command, "--out", str(out)]
        if in_config:
            (tmp / "run.cfg").write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            argv += ["--config", str(tmp / "run.cfg")]
        else:
            argv += [f"--{k}={v}" for k, v in values.items()]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)  # an uncaught exception fails the test here
        written = out.exists() and Path(f"{out}.meta").exists()
    lines = err.getvalue().splitlines()
    unread = [k for k in cli._SETTINGS if k in values and k not in reads]
    assert "Traceback" not in err.getvalue()
    assert code in (0, 2) or (code == 1 and command == ("verify",)), (argv, code, lines)
    assert code == 2 or not unread, (argv, code, lines)
    if code == 0:
        assert written, argv
    elif code == 2 and not in_config and not all(_parses(k, v) for k, v in values.items() if k in _flags(command)):
        # argparse refuses a flag value with usage lines, then its error line
        assert lines[-1].startswith(f"locband {command[0]}: error: argument --"), (argv, lines)
    elif code == 2 and not in_config and not set(values) <= _flags(command):
        assert lines[-1].startswith("locband: error: unrecognized arguments: "), (argv, lines)
    elif code == 2 and not in_config and unread and command[-1] in cli._READS:
        # a simulate flag of another kind
        assert lines == [f"simulate: {command[-1]} reads no {', '.join(f'--{k}' for k in unread)}"], (argv, lines)
    elif code == 2:
        stated = [line for line in lines if not line.startswith(f"{command[0]}: warning: ")]
        assert len(stated) == 1 and stated[0].startswith(f"{command[0]}: "), (argv, lines)


def _parses(key, text):
    try:
        cli._SETTINGS[key][0](text)
    except ValueError:
        return False
    return True
