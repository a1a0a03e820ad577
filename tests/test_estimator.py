from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locband import estimator

from locband.densities import make_peak_triangular, sample
from locband.errors import InsufficientDataError, InvalidBandwidthError
from locband.estimator import (
    ball_offset,
    build_kde_table,
    kde_at,
    _parse_lines,
    parse_data_file,
    rank_query_kde,
    split_sample,
)
from locband.kernels import make_rectangular
from test_harness import broken_order_kernel


class TestSplitSample:
    def test_odd_point_dropped(self):
        s = split_sample(np.arange(9.0))
        assert s.n_tilde == 4
        combined = np.sort(np.concatenate([s.chi1, s.chi2]))
        assert np.array_equal(combined, np.arange(8.0))

    def test_even_size(self):
        s = split_sample(np.arange(8.0))
        assert s.n_tilde == 4
        assert np.array_equal(np.sort(np.concatenate([s.chi1, s.chi2])), np.arange(8.0))

    def test_membership_by_original_order(self):
        data = np.array([5.0, 1.0, 4.0, 2.0, 9.0, 0.0])
        s = split_sample(data)
        assert np.array_equal(s.chi1, np.sort(data[:3]))
        assert np.array_equal(s.chi2, np.sort(data[3:6]))

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            split_sample([1.0, 2.0, 3.0])

    def test_tokens_distinct(self):
        a = split_sample(np.arange(8.0))
        b = split_sample(np.arange(8.0))
        assert a.token != b.token

    def test_tokens_distinct_across_processes(self):
        # the first split of each fresh process must still get its own token
        import os
        import subprocess
        import sys

        import locband

        src = os.path.dirname(os.path.dirname(locband.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "from locband.estimator import split_sample; print(split_sample([0.0, 1.0, 2.0, 3.0]).token)"
        tokens = [
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=120).stdout.strip()
            for _ in range(2)
        ]
        assert tokens[0] != tokens[1]


class TestKdeAt:
    def test_single_observation_at_center(self, rect):
        assert kde_at(np.array([0.3]), 0.3, 0.5, rect) == pytest.approx(1.0)

    def test_all_outside_window(self, rect):
        half = np.array([2.0, 3.0, -4.0])
        assert kde_at(half, 0.0, 0.5, rect) == 0.0

    def test_boundary_point_uses_closed_support(self, rect):
        # |X - t| = h exactly: K(1) = 1/2 contributes like an interior point
        assert kde_at(np.array([1.0]), 0.5, 0.5, rect) == pytest.approx(1.0)

    def test_against_direct_sum(self, rect):
        half = np.array([0.11, 0.22, 0.31, 0.55, 0.9])
        t, h = 0.35, 0.21
        direct = sum(0.5 if abs(x - t) <= h else 0.0 for x in half) / (5 * h)
        assert kde_at(half, t, h, rect) == pytest.approx(direct, abs=1e-14)

    def test_invalid_bandwidth(self, rect):
        with pytest.raises(InvalidBandwidthError):
            kde_at(np.array([0.0]), 0.0, 0.0, rect)

    @given(st.lists(st.floats(-1.0, 2.0), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, rect, xs):
        arr = np.asarray(xs)
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(arr)
        assert kde_at(arr, 0.4, 0.25, rect) == pytest.approx(
            kde_at(shuffled, 0.4, 0.25, rect), abs=1e-13
        )

    def test_concatenating_halves_averages(self, rect):
        a = np.array([0.1, 0.4, 0.6, 0.9])
        b = np.array([0.2, 0.3, 0.7, 0.8])
        both = np.concatenate([a, b])
        t, h = 0.5, 0.3
        avg = 0.5 * (kde_at(a, t, h, rect) + kde_at(b, t, h, rect))
        assert kde_at(both, t, h, rect) == pytest.approx(avg, abs=1e-14)

    def test_duplication_changes_nothing(self, rect):
        a = np.array([0.1, 0.4, 0.6, 0.9])
        doubled = np.concatenate([a, a])
        assert kde_at(doubled, 0.5, 0.3, rect) == pytest.approx(kde_at(a, 0.5, 0.3, rect), abs=1e-14)


class TestRankQuery:
    @given(
        st.sampled_from([make_rectangular(), broken_order_kernel()]),
        st.integers(0, 4),
        st.lists(st.integers(-64, 64), min_size=1, max_size=6),
        st.lists(st.integers(-160, 160), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_sum_on_piece_edges(self, kernel, j, ts, extra):
        # on a dyadic lattice t + h*lo and t + h*hi are exact, so observations
        # placed there hit the closed piece edges in both the rank queries and
        # the direct sum, and the two agree bit for bit
        unit, h = 2.0 ** -6, 2.0 ** -j
        points = np.array(ts, dtype=float) * unit
        edges = [t + s * h for t in points for s in (-1.0, 0.0, 1.0)]
        half = np.sort(np.concatenate([edges, np.array(extra, dtype=float) * unit]))
        got = rank_query_kde(half, points, h, kernel)
        assert got.tolist() == [kde_at(half, t, h, kernel) for t in points]


class TestKdeTable:
    def test_matches_kde_at(self, rect, plan_16k):
        data = sample(make_peak_triangular(), plan_16k.n, seed=5)
        split = split_sample(data)
        table = build_kde_table(split, plan_16k, rect, half_id=2)
        rng = np.random.default_rng(1)
        for _ in range(100):
            idx = int(rng.integers(table.idx_lo, table.idx_hi + 1))
            j = int(rng.integers(plan_16k.j_min, plan_16k.j_max + 1))
            direct = kde_at(split.chi2, idx * plan_16k.delta_n, 2.0 ** -j, rect)
            assert table.value(idx, j) == pytest.approx(direct, abs=1e-12)

    def test_nonnegative(self, rect, plan_16k):
        data = sample(make_peak_triangular(), plan_16k.n, seed=6)
        table = build_kde_table(split_sample(data), plan_16k, rect, half_id=2)
        assert table.values.min() >= 0.0

    def test_empty_cells_zero(self, rect, plan_16k):
        # data concentrated near 1: left-margin cells see nothing
        data = np.full(plan_16k.n, 0.99) + np.linspace(0, 0.001, plan_16k.n)
        table = build_kde_table(split_sample(data), plan_16k, rect, half_id=2)
        assert table.value(table.idx_lo, plan_16k.j_max) == 0.0

    def test_covers_margin(self, rect, plan_16k):
        data = sample(make_peak_triangular(), plan_16k.n, seed=7)
        table = build_kde_table(split_sample(data), plan_16k, rect, half_id=2)
        need = ball_offset(plan_16k, plan_16k.j_min)
        assert table.idx_lo <= -need
        assert table.idx_hi >= plan_16k.mesh_count + need

    def test_mass_consistency(self, rect, plan_16k):
        # summing the finest-bandwidth row over the unit-interval mesh
        # approximates the sample mass near [0,1]
        data = sample(make_peak_triangular(), plan_16k.n, seed=8)
        split = split_sample(data)
        table = build_kde_table(split, plan_16k, rect, half_id=2)
        j = plan_16k.j_max
        row = table.row(j)
        sel = slice(-table.idx_lo, plan_16k.mesh_count - table.idx_lo)
        mass = row[sel].sum() * plan_16k.delta_n
        assert mass == pytest.approx(1.0, abs=0.05)


class TestParseDataFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.5\n-1.25\n\n3e-2\n")
        assert np.array_equal(parse_data_file(str(path)), np.array([0.5, -1.25, 0.03]))

    def test_rejects_non_numeric_with_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nhello\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_data_file(str(path))

    def test_rejects_non_finite_with_line(self, tmp_path):
        path = tmp_path / "inf.txt"
        path.write_text("0.5\n1.0\nnan\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_data_file(str(path))

    def test_blank_run_longer_than_a_chunk(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text("1.5\n" + "\n" * (estimator.PARSE_CHUNK + 3) + "2.5\n")
        assert parse_data_file(str(path)).tolist() == [1.5, 2.5]

    def test_bad_line_in_second_chunk(self, tmp_path):
        path = tmp_path / "late.txt"
        n = estimator.PARSE_CHUNK + 7
        path.write_text("0.25\n" * (n - 1) + "x\n")
        with pytest.raises(ValueError, match=f"^line {n}: not a real number: 'x\\\\n'$"):
            parse_data_file(str(path))


# Lines that float() accepts, rejects, or reads as non-finite, and blanks.
PARSE_TOKENS = [
    "0.5", "-1.25", "3e-2", "1_0", "+.5", "1e400", "-1e-400", "nan", "inf", "-Infinity",
    "1 2", "1\x0c2", "\x0c3\x0c", " 7 ", "\t8", "x", "1,5", "0x1p3", "1\x00", "", "  ", "\x0c",
]


class TestParseEquivalence:
    """The chunked parser returns _parse_lines' array bit for bit, or raises
    its message, at chunk sizes small enough that blank runs and bad lines
    span chunks."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.sampled_from(PARSE_TOKENS),
                st.floats(allow_nan=False, allow_infinity=False).map(repr),
                st.integers(0, 6).map(lambda b: "\n" * b),
            ),
            max_size=30,
        ),
        eol=st.sampled_from(["\n", "\r\n"]),
        chunk=st.integers(1, 4),
    )
    def test_matches_line_parser(self, tmp_path_factory, lines, eol, chunk):
        path = tmp_path_factory.mktemp("parse") / "data.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line.replace("\n", eol) + eol for line in lines))
        try:
            want = _parse_lines(str(path))
        except ValueError as exc:
            want = exc
        with mock.patch.object(estimator, "PARSE_CHUNK", chunk):
            if isinstance(want, ValueError):
                with pytest.raises(ValueError) as raised:
                    parse_data_file(str(path))
                assert str(raised.value) == str(want)
            else:
                got = parse_data_file(str(path))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
