"""fork_map, the one worker pool: replications, input ranges, mesh runs and
CSV chunks all go through it; cut_runs cuts work into one run per worker."""

import multiprocessing
import os
import time

import pytest

from locband import forked
from locband.forked import cut_runs, fork_map


class TestForkMap:
    def test_items_come_back_in_order(self, cpus):
        cpus(2)
        got = list(fork_map(lambda i: (i, os.getpid()), range(9), 9))
        assert [i for i, _ in got] == list(range(9))
        assert os.getpid() not in {pid for _, pid in got}
        assert multiprocessing.active_children() == []

    def test_serial_below_threshold_or_on_one_cpu(self, monkeypatch):
        def pids(items, size):
            return set(fork_map(lambda i: os.getpid(), range(items), size))

        monkeypatch.setattr(forked.os, "sched_getaffinity", lambda pid: {0, 1})
        minimum = forked._POOL_MIN_POINTS
        assert pids(2, minimum - 1) == {os.getpid()} and cut_runs(minimum - 1, minimum - 1) == [(0, minimum - 1)]
        half = minimum // 2
        assert os.getpid() not in pids(2, minimum) and cut_runs(minimum, minimum) == [(0, half), (half, minimum)]
        assert pids(1, minimum) == {os.getpid()} and cut_runs(1, minimum) == [(0, 1)]
        monkeypatch.setattr(forked.os, "sched_getaffinity", lambda pid: {0})
        assert pids(4, minimum) == {os.getpid()} and cut_runs(minimum, minimum) == [(0, minimum)]

    def test_runs_are_even_contiguous_and_never_empty(self, cpus):
        cpus(3)
        assert cut_runs(10, 10) == [(0, 3), (3, 6), (6, 10)]
        assert cut_runs(2, 10) == [(0, 1), (1, 2)]
        assert cut_runs(0, 10) == [(0, 0)]

    def test_lowest_failing_item_raises(self, cpus):
        # item 2 fails first in time; a serial run would raise at 1
        def fn(i):
            if i == 1:
                time.sleep(0.2)
            if i >= 1:
                raise ValueError(f"item {i}")
            return i

        cpus(2)
        with pytest.raises(ValueError, match="^item 1$"):
            list(fork_map(fn, range(4), 4))
        assert multiprocessing.active_children() == []

    def test_daemonic_caller_runs_serially(self, cpus):
        # a daemonic process may not have children: its items run in it
        cpus(2)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            try:
                send.send((os.getpid(), cut_runs(3, 3), list(fork_map(lambda i: (i, os.getpid()), range(3), 3))))
            except BaseException as exc:
                send.send(repr(exc))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        assert recv.poll(60)
        pid, runs, got = recv.recv()
        proc.join(60)
        assert not proc.is_alive()
        assert runs == [(0, 3)] and got == [(0, pid), (1, pid), (2, pid)]

    def test_caller_that_stops_early_leaves_no_children(self, cpus):
        cpus(2)
        results = fork_map(lambda i: i, range(50), 50)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
