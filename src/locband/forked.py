"""One forked worker per usable CPU, for work split into independent items.

cut_runs(total, size) cuts work into one contiguous run per worker, and
fork_map(fn, items, size) yields fn(item) for each item, in item order.  The
workers are forked, so fn, with everything it captures, is inherited rather
than pickled; only the items and the results travel between processes.  At
most two items per worker are handed out and not yet consumed, so a slow
consumer holds a bounded number of results.  Work of fewer than
_POOL_MIN_POINTS points (sample points, mesh points, CSV rows or data lines),
a single item or usable CPU, a platform without the fork start method and a
daemonic caller (which may not have children) all run serially, in-process.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# fewest points of work that go to a pool: starting and stopping one costs
# 10-20 ms on a 2-CPU host, more than the whole of a smaller job
_POOL_MIN_POINTS = 1 << 16

# the function a pool worker applies, set in each worker as it starts
_worker_fn = None


def _set_worker_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_worker_fn(item):
    return _worker_fn(item)


def cut_runs(total: int, size: int) -> list[tuple[int, int]]:
    """Even, contiguous, half-open runs (lo, hi) that cut `total` units of
    work of `size` points: one per usable CPU and at most one per unit, or
    the single run (0, total) where the work runs serially."""
    count = max(1, min(total, len(os.sched_getaffinity(0)) if size >= _POOL_MIN_POINTS else 1))
    if count > 1:
        import multiprocessing  # not imported by the runs that never get here

        if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
            count = 1
    return [(total * i // count, total * (i + 1) // count) for i in range(count)]


def fork_map(fn: Callable[[T], R], items: Sequence[T], size: int) -> Iterator[R]:
    """fn(item) for each item, in order, on one forked worker per run that
    cut_runs(len(items), size) makes.

    An item that raises re-raises its exception here, the lowest-numbered one
    first as in a serial run.  The pool is closed and joined once the last
    result is taken, and terminated if the caller stops early."""
    count = len(cut_runs(len(items), size))
    if count < 2:
        for item in items:
            yield fn(item)
        return
    import multiprocessing

    pool = multiprocessing.get_context("fork").Pool(count, _set_worker_fn, (fn,))
    try:
        todo = iter(items)
        pending = deque(pool.apply_async(_run_worker_fn, (item,)) for item in islice(todo, 2 * count))
        while pending:
            yield pending.popleft().get()
            pending.extend(pool.apply_async(_run_worker_fn, (item,)) for item in islice(todo, 1))
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        # reaped workers leave their peak RSS with the parent's children
        pool.join()
