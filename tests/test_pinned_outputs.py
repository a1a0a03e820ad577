"""The exact CSV and .meta bytes of small seeded CLI runs, pinned by SHA-256.

A change that is not meant to change a report must leave every digest here
as it is; one that is meant to updates the digests it changes and says so.
"""

import hashlib

import numpy as np
import pytest

from locband.cli import main


def _band_input(path):
    # 4096 means of two uniforms (a tent on [0,1]) from numpy's own stream,
    # so that the input does not depend on locband's sampler
    u = np.random.default_rng(20240601).random((2, 4096))
    path.write_text("".join(f"{x!r}\n" for x in u.mean(axis=0).tolist()))
    return str(path)


# name: (argv without --out, sha256 of the CSV, sha256 of the .meta)
PINNED = {
    "band": (
        ("band", "--input", "{input}", "--alpha", "0.1"),
        "22a6103842eddd2361a34834c81a4620dcebcfb4d956beddef45a3f23260b7d4",
        "ac0332d24ff86f5fb39ae29d4219b4c8e19ea29aa2f2d08fa45db638d1248e36",
    ),
    "coverage": (
        ("simulate", "coverage", "--density", "peak", "--n", "2048", "--reps", "2", "--seed", "11"),
        "d1129c4d19588cf411915d51685072805e9b408546640ce7b0aebffe5bf351a0",
        "7cda9010055d53561c995f39d8c4bdae5b268b4c5067e665671e2f82e9caaa29",
    ),
    "window": (
        ("simulate", "window", "--density", "tent:0.5", "--n", "2048", "--reps", "2", "--seed", "12"),
        "295cda7cffe4068aad5817f250822a64ef36620ac3baf633612df74fffcefc6c",
        "bf9f0b11453b77bc951bafa5576dd850fd4fd09adf4fe4095706d9802968acdd",
    ),
    "adaptivity": (
        ("simulate", "adaptivity", "--density", "peak", "--n", "4096", "--reps", "2", "--seed", "13"),
        "367d201ceed7745e1b9a51ea5db7aedab942673caf59dd418dfbdd768b097472",
        "b14edd8d70d2ae9c5e99904ade110cdee7d8d9f5a45f283565c06bd7cc0aad59",
    ),
    "gumbel": (
        ("simulate", "gumbel", "--n", "64", "--reps", "20", "--seed", "14"),
        "e093f470738a18af0ea0608037d71db492ceab31d4f14c6c37121fac0eb05b42",
        "c3d0b280b212294154b73f4e0665497ec02daa6dc1b35d83703efe4a230d9a30",
    ),
    "curves": (
        ("curves", "--density", "peak", "--n", "2048", "--alpha", "0.2", "--seed", "15"),
        "7c25fd97a9239a84d7f12ec9d4be699380be4a7d81c6df83ec92593654dd5a55",
        "f6153bfc23a24d899ad5d57cfb2929d1242d2e08380e14e8fd1c585094f12741",
    ),
    # the only run here whose truth range comes from the rough-density scan (394 cells)
    "coverage-rough": (
        ("simulate", "coverage", "--density", "weierstrass:0.5:0.5", "--n", "64", "--reps", "2", "--seed", "16"),
        "5a239a2132976823bad25564f946e9bb902d38ed76ac7aed3de52c4d7e8a5aad",
        "73bcae5d6f53972381bef1015abb76f6abe145e431f042eda8c2f8a66c93420d",
    ),
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes_pinned(name, tmp_path):
    argv, csv_sha, meta_sha = PINNED[name]
    data = _band_input(tmp_path / "data.txt") if name == "band" else None
    out = tmp_path / "out.csv"
    assert main([a.format(input=data) for a in argv] + ["--out", str(out)]) == 0
    assert (_sha(out), _sha(tmp_path / "out.csv.meta")) == (csv_sha, meta_sha)
