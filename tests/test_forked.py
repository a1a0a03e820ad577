"""fork_map, the one worker pool: replications, input ranges, mesh runs and
CSV chunks all go through it."""

import multiprocessing
import os
import time

import pytest

from locband import forked
from locband.forked import fork_map, workers


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
        assert pids(2, minimum - 1) == {os.getpid()} and workers(minimum - 1) == 1
        assert os.getpid() not in pids(2, minimum) and workers(minimum) == 2
        assert pids(1, minimum) == {os.getpid()}
        monkeypatch.setattr(forked.os, "sched_getaffinity", lambda pid: {0})
        assert pids(4, minimum) == {os.getpid()} and workers(minimum) == 1

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
                send.send((os.getpid(), workers(1), list(fork_map(lambda i: (i, os.getpid()), range(3), 3))))
            except BaseException as exc:
                send.send(repr(exc))

        proc = ctx.Process(target=child, daemon=True)
        proc.start()
        assert recv.poll(60)
        pid, count, got = recv.recv()
        proc.join(60)
        assert not proc.is_alive()
        assert count == 1 and got == [(0, pid), (1, pid), (2, pid)]

    def test_caller_that_stops_early_leaves_no_children(self, cpus):
        cpus(2)
        results = fork_map(lambda i: i, range(50), 50)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []
