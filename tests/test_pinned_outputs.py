"""The exact CSV and .meta bytes of small seeded CLI runs, pinned by SHA-256.

A change that is not meant to change a report must leave every digest here
as it is; one that is meant to updates the digests it changes and says so.
"""

import hashlib

import numpy as np
import pytest

from locband.calibration import PlanParams, derive_plan, plan_from_text, plan_to_text
from locband.cli import main


def _band_input(path, n):
    # n means of two uniforms (a tent on [0,1]) from numpy's own stream,
    # so that the input does not depend on locband's sampler
    u = np.random.default_rng(20240601).random((2, n))
    path.write_text("".join(f"{x!r}\n" for x in u.mean(axis=0).tolist()))
    return str(path)


# name: (argv without --out, sha256 of the CSV, sha256 of the .meta)
PINNED = {
    "band": (
        ("band", "--input", "{input}", "--alpha", "0.1"),
        "22a6103842eddd2361a34834c81a4620dcebcfb4d956beddef45a3f23260b7d4",
        "88bcae28aec7f062e9a115e724cd7906883fd3f1c7745498934997f92c7cafb3",
    ),
    # above the pool minimum wherever more than one CPU is usable: the input
    # is parsed, the mesh (136,624 points) selected and the CSV formatted on
    # workers, where the 4096-point run above stays serial
    "band-128k": (
        ("band", "--input", "{input}", "--alpha", "0.1"),
        "0bade9fbbf7adc66fa4d3c343b95e2a8375448b92d14c040f74d4977c20cf0c6",
        "77e161eaf96e8823d7d23f075f19d509f8a9e0ebce2ca46b81ff133d6cbdb0a2",
    ),
    "coverage": (
        ("simulate", "coverage", "--density", "peak", "--n", "2048", "--reps", "2", "--seed", "11"),
        "d1129c4d19588cf411915d51685072805e9b408546640ce7b0aebffe5bf351a0",
        "001d7b992f86b659d526f36f4b9a7ebfb15264f13bfa7915699ad1b7ac1fad91",
    ),
    "window": (
        ("simulate", "window", "--density", "tent:0.5", "--n", "2048", "--reps", "2", "--seed", "12"),
        "295cda7cffe4068aad5817f250822a64ef36620ac3baf633612df74fffcefc6c",
        "a85024b895a056e66f0f9c12287932cbf8766e1a935d0fffb2993ee31371ec42",
    ),
    "adaptivity": (
        ("simulate", "adaptivity", "--density", "peak", "--n", "4096", "--reps", "2", "--seed", "13"),
        "367d201ceed7745e1b9a51ea5db7aedab942673caf59dd418dfbdd768b097472",
        "4ba8d9022d0197044715b78ee516937e0d0b05571f360a3ad60640233145b386",
    ),
    # the probes' cells at the smallest n whose bandwidth exponents are j = 3..5
    "adaptivity-512": (
        ("simulate", "adaptivity", "--density", "peak", "--n", "512", "--reps", "4", "--seed", "19"),
        "402055c5d417413610d7ef0930677b5ce5e2d9f4ef522127b2cb20f7f0261f6a",
        "2c589c426e52ba4286bec8d294a9dd047a8b9ab9d18e5ad0f08819c08ddb2909",
    ),
    # the kink probe's fold stops at j = 6 (j_hat = 7); the smooth probe's reaches j_min = 3
    "adaptivity-64k": (
        ("simulate", "adaptivity", "--density", "peak", "--n", "65536", "--reps", "3", "--seed", "5"),
        "6175ca25ba285dca8f7e83b4629caf0bbf4057fa219fbbc73eeb115a824a80aa",
        "b86b88bece9c3fc8e4ef5747b4c96e3dd608fb46b794c6cdaeafb4e50c823a9f",
    ),
    # 2^17 and 2^16 sample points in all: replications run on a worker pool
    # wherever more than one CPU is usable
    "coverage-16k": (
        ("simulate", "coverage", "--density", "peak", "--n", "16384", "--reps", "8", "--seed", "21"),
        "aa79da9ff5385f8241fe181840c9908f7e4e33be822953dddfda7344c001e878",
        "b173facdb52f9348489ad553a8727fd570508bdbcd5163eb7a8779f30a4e1f6c",
    ),
    "window-16k": (
        ("simulate", "window", "--density", "tent:0.5", "--n", "16384", "--reps", "4", "--seed", "22"),
        "410aa9eb46945a190ce8e08fc3cd35a031898c1cb5a722dca010eea5434f0199",
        "50a9125083fefd183e2a91ba669add58931c0efcf0a1b4c53385575ae44c3c13",
    ),
    "gumbel": (
        ("simulate", "gumbel", "--n", "64", "--reps", "20", "--seed", "14"),
        "e093f470738a18af0ea0608037d71db492ceab31d4f14c6c37121fac0eb05b42",
        "058ab8a1bd33f4f17dee4f475ec7e7a9284d27188f16dafb4c44c9b3f127bcee",
    ),
    "curves": (
        ("curves", "--density", "peak", "--n", "2048", "--alpha", "0.2", "--seed", "15"),
        "7c25fd97a9239a84d7f12ec9d4be699380be4a7d81c6df83ec92593654dd5a55",
        "fa837d2be8a2c7e979759cf7349c1a43003a20dddb11b3ade83d365a6d8af634",
    ),
    # a mesh of 85,671 points, selected and written on workers where they run
    "curves-64k": (
        ("curves", "--density", "peak", "--n", "65536"),
        "36df5d0eae099cd0ade6aa079945de70fa7f3f519b95a6da7c525318d8eb6254",
        "2d0c2c97974d03d5158d4f5d0cc7f62f3f40aa4b2453d8b4aa61edf5cbf28ab1",
    ),
    # the only run here on a perturbed density: its truth column pins the pdf
    # of the bump pair at every mesh point
    "curves-perturbed": (
        ("curves", "--density", "perturbed2:0.5:4096", "--n", "4096", "--seed", "17"),
        "f0ae7bcec8f85f8c96947f805577b9325aae430bc6b471ec598f0c4cbadf4c4b",
        "e53b93f7d5096f77c3899f4eb83c36f3a0c25530025f39328c0582ea55fd4df0",
    ),
    # the only run here whose truth range comes from the rough-density scan (394 cells)
    "coverage-rough": (
        ("simulate", "coverage", "--density", "weierstrass:0.5:0.5", "--n", "64", "--reps", "2", "--seed", "16"),
        "5a239a2132976823bad25564f946e9bb902d38ed76ac7aed3de52c4d7e8a5aad",
        "294bf3b27231eeb7b5c7dd8ccd7719d81a78bc49b9ebee470b62b41f002719b0",
    ),
    # the bias oracles convolve through mass_between and the a4 norm
    # estimates read the derivative grid: the closed-form masses and
    # derivatives of the zoo and of the raw series
    "verify-a4": (
        ("verify", "--suite", "a4"),
        "f55c100a42187a48268e7c15f20e4608fdea73d1ede24fbbbc402a8d9bc8caa3",
        "e7c77e640cf764c6c55c9ae2bacd29b82edf169ec21a5b17c162bd6d7e0086fb",
    ),
    "verify-bias_lower": (
        ("verify", "--suite", "bias_lower"),
        "932d0d8055ec03d09e4e1ec323999bae74a144345a802665295802b244a68b64",
        "af6f1dc5cb02e1c16cd055b1da489271b139687eca769d7dfc9e1a1746a60a0b",
    ),
    "verify-bias_upper": (
        ("verify", "--suite", "bias_upper"),
        "4f91a5160b4cb1009d1f02b28baccf1cca062e23c59079644dfa5571de207ed8",
        "bbe7c9853a79150e22eb7904833845777c52bec80937b47d5c04c3b14efa93ef",
    ),
    # the closed-form contrast moment over seeded configurations against its
    # Brownian-path Monte Carlo oracle
    "verify-wmoment": (
        ("verify", "--suite", "wmoment"),
        "04d1c6003064a8db920190644d6c231ea3ed2bcd213c78a8eacb8a39612445ca",
        "f14cb6459abccb4f57dae36345afdd60961e24c39f1551dc051b9298370e0b4c",
    ),
}


# every run above plus one that derives no plan and whose report has params
# the points of each run that reads an input file
INPUT_SIZES = {"band": 4096, "band-128k": 1 << 17}
RUNS = {name: argv for name, (argv, _, _) in PINNED.items()} | {"verify-a2": ("verify", "--suite", "a2")}
PLAN_RUNS = sorted(name for name, (argv, _, _) in PINNED.items() if argv[0] != "verify" and name != "gumbel")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> (CSV bytes, .meta bytes) of RUNS[name], each run at most once."""
    done = {}

    def get(name):
        if name not in done:
            tmp = tmp_path_factory.mktemp(name)
            data = _band_input(tmp / "data.txt", INPUT_SIZES[name]) if name in INPUT_SIZES else None
            out = tmp / "out.csv"
            assert main([a.format(input=data) for a in RUNS[name]] + ["--out", str(out)]) == 0
            done[name] = (out.read_bytes(), (tmp / "out.csv.meta").read_bytes())
        return done[name]

    return get


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_pinned(name, outputs):
    _, csv_sha, meta_sha = PINNED[name]
    assert tuple(map(_sha, outputs(name))) == (csv_sha, meta_sha)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_meta_names_each_key_once(name, outputs):
    keys = [line.split("=", 1)[0] for line in outputs(name)[1].decode().splitlines()]
    assert sorted(k for k in set(keys) if keys.count(k) > 1) == []


@pytest.mark.parametrize("name", PLAN_RUNS)
def test_meta_holds_plan_then_warnings(name, outputs, rect):
    # the plan is re-derived from the sidecar's own plan lines; the sidecar
    # must then hold its text verbatim, followed by one line per warning
    meta = outputs(name)[1].decode()
    fields = {line.split("=", 1)[0] for line in plan_to_text(derive_plan(PlanParams(n=64), rect)).splitlines()}
    plan = plan_from_text("\n".join(l for l in meta.splitlines() if l.split("=", 1)[0] in fields), rect)
    warnings = "".join(f"warning.{i}={w}\n" for i, w in enumerate(plan.warnings))
    assert plan.warnings and plan_to_text(plan) + warnings in meta
    assert meta.count("warning.") == len(plan.warnings)
