import os
import re
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locband import estimator, forked

from locband.calibration import PlanParams, derive_plan
from locband.densities import make_peak_triangular, sample
from locband.estimator import (
    _rank_bins,
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
        with pytest.raises(ValueError, match="^need at least 4 observations, got 3$"):
            split_sample([1.0, 2.0, 3.0])


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
        with pytest.raises(ValueError, match=r"^bandwidth must be positive, got 0\.0$"):
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


@st.composite
def edge_grids(draw):
    """Query edges as build_kde_table forms them: mesh points idx_lo.. times
    delta_n plus h * lo, so a nearly affine float grid; or, rarely, any
    sorted floats with ties, which only the fix-up can place exactly."""
    if draw(st.integers(0, 4)) == 0:
        vals = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0 / 3.0, 0.5, 2.0]), min_size=1, max_size=12))
        return np.sort(np.array(vals))
    delta = 1.0 / draw(st.integers(1, 5000))
    idx_lo = draw(st.integers(-300, 300))
    count = draw(st.integers(1, 80))
    h = 2.0 ** -draw(st.integers(0, 14))
    lo = draw(st.sampled_from([-1.0, 1.0, -0.5, 0.25, 1.0 / 3.0]))
    return np.arange(idx_lo, idx_lo + count, dtype=float) * delta + h * lo


class TestRankBins:
    @given(
        edges=edge_grids(),
        side=st.sampled_from(["left", "right"]),
        region=st.sampled_from(["mixed", "inside", "below", "above"]),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_cumsum_is_searchsorted(self, edges, side, region, data):
        # observations on the edges, one ulp either side of them, repeated,
        # and free ones wholly below, above or inside the edge range
        e0, e1 = float(edges[0]), float(edges[-1])
        span = e1 - e0 + 1e-3
        bounds = {"mixed": (e0 - span, e1 + span), "inside": (e0, e1),
                  "below": (e0 - span, np.nextafter(e0, -np.inf)),
                  "above": (np.nextafter(e1, np.inf), e1 + span)}[region]
        x = data.draw(st.lists(st.floats(*bounds), max_size=40), label="free")
        if region in ("mixed", "inside"):
            hits = data.draw(st.lists(st.tuples(st.integers(0, edges.size - 1), st.integers(-1, 1)),
                                      max_size=40), label="on edges")
            for i, ulp in hits:
                x.append(float(np.nextafter(edges[i], ulp * np.inf) if ulp else edges[i]))
        reps = data.draw(st.integers(1, 3), label="copies")
        sorted_x = np.sort(np.repeat(np.array(x, dtype=float), reps))
        got = np.cumsum(_rank_bins(sorted_x, edges, side))
        assert got.tolist() == np.searchsorted(sorted_x, edges, side).tolist()

    def test_two_edge_grid(self):
        edges = np.array([0.25, 0.5])
        x = np.array([0.0, 0.25, 0.25, np.nextafter(0.25, 1.0), 0.4, np.nextafter(0.5, 0.0), 0.5, 0.5, 1.0])
        for side in ("left", "right"):
            want = np.searchsorted(x, edges, side)
            assert np.cumsum(_rank_bins(x, edges, side)).tolist() == want.tolist()


class TestKdeTable:
    def test_matches_kde_at(self, rect, plan_16k):
        data = sample(make_peak_triangular(), plan_16k.n, seed=5)
        split = split_sample(data)
        table = build_kde_table(split, plan_16k)
        points = np.arange(table.idx_lo, table.idx_hi + 1, dtype=float) * plan_16k.delta_n
        rng = np.random.default_rng(1)
        for _ in range(100):
            idx = int(rng.integers(table.idx_lo, table.idx_hi + 1))
            j = int(rng.integers(plan_16k.j_min, plan_16k.j_max + 1))
            direct = kde_at(split.chi2, idx * plan_16k.delta_n, 2.0 ** -j, rect)
            if j >= plan_16k.j_min + 3:
                got = table.row(j)[idx - table.idx_lo]
            else:
                # rows the selector never reads are not built: check the
                # estimate at the table's point through the point-query path
                got = rank_query_kde(split.chi2, points[[idx - table.idx_lo]], 2.0 ** -j, rect)[0]
            assert got == pytest.approx(direct, abs=1e-12)

    def test_rows_equal_rank_queries(self, rect, plan_16k):
        # tables for the whole mesh and for runs of it: each spans its run plus
        # the selector margin, and every built row is rank_query_kde's, bit for bit
        split = split_sample(sample(make_peak_triangular(), plan_16k.n, seed=9))
        margin, N = ball_offset(plan_16k, plan_16k.j_min), plan_16k.mesh_count
        for run in ((), (40, 41), (N, N), (-3, -3)):
            table = build_kde_table(split, plan_16k, *run)
            k_lo, k_hi = run or (0, N)
            assert (table.idx_lo, table.idx_hi) == (k_lo - margin, k_hi + margin)
            points = np.arange(table.idx_lo, table.idx_hi + 1, dtype=float) * plan_16k.delta_n
            assert table.values.shape == (plan_16k.j_max - plan_16k.j_min - 2, points.size)
            for j in range(plan_16k.j_min + 3, plan_16k.j_max + 1):
                assert np.array_equal(table.row(j), rank_query_kde(split.chi2, points, 2.0 ** -j, rect))

    @given(st.sampled_from([make_rectangular(), broken_order_kernel()]), st.integers(0, 32949), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_count_closed_pieces_at_both_ends(self, plan_16k, kernel, k_lo, data):
        # observations exactly on the table's query edges t + h*lo and t + h*hi,
        # formed as the table forms them, lie on closed kernel pieces: every
        # row counts them as rank_query_kde does, bit for bit
        plan = replace(plan_16k, kernel=kernel)
        k_hi = k_lo + data.draw(st.integers(0, 40), label="run length")
        margin = ball_offset(plan, plan.j_min)
        points = np.arange(k_lo - margin, k_hi + margin + 1, dtype=float) * plan.delta_n
        ends = sorted({end for lo, hi, _ in kernel.pieces for end in (lo, hi)})
        on_edges = data.draw(st.lists(st.tuples(st.integers(0, points.size - 1),
                                                st.integers(plan.j_min + 3, plan.j_max),
                                                st.sampled_from(ends)), min_size=1, max_size=30), label="edges")
        half = np.sort([points[i] + 2.0 ** -j * end for i, j, end in on_edges])
        table = build_kde_table(estimator.SplitSample(half, half, half.size), plan, k_lo, k_hi)
        assert (table.idx_lo, table.idx_hi) == (k_lo - margin, k_hi + margin)
        for j in range(plan.j_min + 3, plan.j_max + 1):
            assert np.array_equal(table.row(j), rank_query_kde(half, points, 2.0 ** -j, kernel))

    def test_unbuilt_rows_raise(self, plan_16k):
        table = build_kde_table(split_sample(np.linspace(0.0, 1.0, 64)), plan_16k)
        for j in (plan_16k.j_min, plan_16k.j_min + 2, plan_16k.j_max + 1):
            with pytest.raises(ValueError, match=f"row {j} was not built"):
                table.row(j)

    @pytest.mark.parametrize("n, j_max", [(4, 3), (256, 4)])
    def test_short_grid_builds_no_rows(self, rect, n, j_max):
        # j_max - j_min <= 2: no pair is ever compared, so no row is read
        plan = derive_plan(PlanParams(n=n), rect)
        assert (plan.j_min, plan.j_max) == (3, j_max)
        table = build_kde_table(split_sample(np.linspace(0.1, 0.9, n)), plan)
        assert table.values.shape == (0, table.idx_hi - table.idx_lo + 1)
        for j in range(plan.j_min, plan.j_max + 1):
            rows = f"{plan.j_min + 3}\\.\\.{j_max}"
            with pytest.raises(ValueError, match=f"^the table holds rows j = {rows}; row {j} was not built$"):
                table.row(j)

    def test_nonnegative(self, plan_16k):
        data = sample(make_peak_triangular(), plan_16k.n, seed=6)
        table = build_kde_table(split_sample(data), plan_16k)
        assert table.values.min() >= 0.0

    def test_empty_cells_zero(self, plan_16k):
        # data concentrated near 1: left-margin cells see nothing
        data = np.full(plan_16k.n, 0.99) + np.linspace(0, 0.001, plan_16k.n)
        table = build_kde_table(split_sample(data), plan_16k)
        assert table.row(plan_16k.j_max)[0] == 0.0

    def test_covers_margin(self, plan_16k):
        data = sample(make_peak_triangular(), plan_16k.n, seed=7)
        table = build_kde_table(split_sample(data), plan_16k)
        need = ball_offset(plan_16k, plan_16k.j_min)
        assert table.idx_lo <= -need
        assert table.idx_hi >= plan_16k.mesh_count + need

    def test_mass_consistency(self, plan_16k):
        # summing the finest-bandwidth row over the unit-interval mesh
        # approximates the sample mass near [0,1]
        data = sample(make_peak_triangular(), plan_16k.n, seed=8)
        split = split_sample(data)
        table = build_kde_table(split, plan_16k)
        j = plan_16k.j_max
        row = table.row(j)
        sel = slice(-table.idx_lo, plan_16k.mesh_count - table.idx_lo)
        mass = row[sel].sum() * plan_16k.delta_n
        assert mass == pytest.approx(1.0, abs=0.05)


@given(st.integers(1, 2 ** 50), st.integers(2, 60))
@example(4_141_575_607, 27)  # 7N mod 2^30 is positive but below 2^30 * 1e-9
@example(7_362_801_079, 28)
@example(2 ** 5, 2)  # 7N a multiple of 2^(j+3): the ball's edge is not in it
@settings(max_examples=300, deadline=None)
def test_ball_offset_is_the_open_ball(plan_16k, N, j):
    # a delta_n < (7/8) 2^-j with delta_n = 1/N, in exact integers
    a = ball_offset(replace(plan_16k, mesh_count=N, delta_n=1.0 / N), j)
    assert a * 2 ** (j + 3) < 7 * N <= (a + 1) * 2 ** (j + 3)


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
            with open(path, "r", encoding="utf-8") as fh:
                want = _parse_lines(list(fh), 1)
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


def _parse_pooled_and_serial(path, cpus):
    """parse_data_file's array, or its error, on two workers and serially."""
    out = []
    for count in (2, 1):
        cpus(count)
        try:
            out.append(parse_data_file(str(path)))
        except ValueError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def _assert_same_parse(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestPooledParse:
    """A file cut into byte ranges, one per worker, parses to the serial
    array bit for bit, or raises the serial error."""

    @pytest.mark.parametrize("data", [
        pytest.param(b"0.5\r\n-1.25\r\n\r\n3e-2\r\n" * 40, id="crlf"),
        pytest.param(b"0.5\r1.5\r\r-2\n" * 40, id="bare-cr"),
        pytest.param(b"\n\n0.5\n \n\t\n1.5\n\x0c\n" * 40, id="blank-lines"),
        pytest.param(b"0.5\n" * 99 + b"2.5", id="no-trailing-newline"),
        pytest.param(b"1\r\n" * 4, id="cut-after-crlf"),
        pytest.param(b"0.5\n", id="fewer-lines-than-workers"),
        pytest.param(b"", id="empty"),
    ])
    def test_matches_serial(self, tmp_path, cpus, data):
        path = tmp_path / "data.txt"
        path.write_bytes(data)
        _assert_same_parse(*_parse_pooled_and_serial(path, cpus))

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(st.one_of(st.sampled_from(PARSE_TOKENS), st.floats(allow_nan=False).map(repr)),
                       max_size=40),
        eol=st.sampled_from(["\n", "\r\n", "\r"]),
        count=st.integers(2, 3),
    )
    def test_matches_serial_on_any_lines(self, tmp_path_factory, lines, eol, count):
        path = tmp_path_factory.mktemp("pooled") / "data.txt"
        path.write_bytes("".join(line + eol for line in lines).encode())
        got = []
        for cpus in (count, 1):
            with mock.patch.object(forked, "_POOL_MIN_POINTS", 0), \
                 mock.patch.object(forked.os, "sched_getaffinity", lambda pid: set(range(cpus))):
                try:
                    got.append(parse_data_file(str(path)))
                except ValueError as exc:
                    got.append(str(exc))
        _assert_same_parse(*got)

    def test_bad_line_in_second_range_names_its_file_line(self, tmp_path, cpus):
        path = tmp_path / "late.txt"
        path.write_text("0.25\n" * 799 + "x\n" + "0.5\n" * 200)
        cpus(2)
        assert forked.cut_runs(path.stat().st_size, 0)[1][0] < 799 * 5
        with pytest.raises(ValueError, match="^line 800: not a real number: 'x\\\\n'$"):
            parse_data_file(str(path))

    def test_invalid_utf8_gives_the_serial_error(self, tmp_path, cpus):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"0.5\n" * 1000 + b"\xff\n" + b"0.5\n" * 10)
        pooled, serial = _parse_pooled_and_serial(path, cpus)
        assert pooled == serial and serial.startswith("UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff")

    def test_fifo_is_parsed_serially(self, tmp_path, cpus, monkeypatch):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        cpus(2)
        monkeypatch.setattr(estimator, "cut_runs", lambda *args: pytest.fail("a pipe was cut"))

        def write():
            with open(path, "wb") as fh:
                fh.write(b"0.5\n-1.25\r\n\n3e-2\n" * 1000)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            got = parse_data_file(str(path))
        finally:
            writer.join(30)
        assert not writer.is_alive()
        assert got.tolist() == [0.5, -1.25, 0.03] * 1000


@pytest.mark.parametrize("call, error, message", [
    (lambda rect, plan: kde_at(np.empty(0), 0.5, 0.1, rect), ValueError, "empty subsample"),
    (lambda rect, plan: build_kde_table(split_sample(np.linspace(0.0, 1.0, 64)), replace(plan, j_max=plan.j_min - 1)),
     ValueError, "empty bandwidth grid"),
])
def test_input_checks(call, error, message, rect, plan_16k):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(rect, plan_16k)
