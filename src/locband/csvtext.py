"""CSV writer for long tables whose trailing columns take few distinct values.

A row is a prefix that differs from row to row (the index and the mesh
point) followed by a tail that depends only on the row's key columns.  Rows
are formatted CSV_CHUNK at a time, each chunk on its own: its prefixes come
from its row indices, and it formats each of its distinct tails once; float
keys are compared by their bit patterns, since signed zeros compare equal
yet format differently.  Chunks are formatted through forked.fork_map, on
one worker per usable CPU for a long table, and written in order by the
calling process alone, so that only a few chunks' text is held at a time,
never the whole table's.
"""

from __future__ import annotations

from contextlib import closing
from typing import Callable, Sequence, TextIO

import numpy as np

from .forked import fork_map

# Rows per chunk.
CSV_CHUNK = 1 << 14


def write_csv(
    fh: TextIO,
    header: str,
    prefixes: Callable[[int, int], Sequence[str]],
    keys: Sequence[np.ndarray],
    tail: Callable[[int], str],
) -> None:
    """Write `header`, then prefix + tail(i) for each row i = 0..len(keys[0]) - 1,
    to `fh`, where prefixes(start, stop) gives the prefixes of rows
    start..stop - 1 and tail(i) formats row i's trailing columns, newline
    included."""
    cols = [a.view(np.int64) if a.dtype == np.float64 else a for a in keys]
    rows = len(cols[0])

    def chunk(start: int) -> str:
        stop = min(start + CSV_CHUNK, rows)
        tails: dict[tuple, str] = {}
        lines = []
        for i, key, prefix in zip(range(start, stop), zip(*(a[start:stop].tolist() for a in cols)),
                                  prefixes(start, stop)):
            text = tails.get(key)
            if text is None:
                text = tails[key] = tail(i)
            lines.append(prefix + text)
        return "".join(lines)

    fh.write(header)
    with closing(fork_map(chunk, range(0, rows, CSV_CHUNK), rows)) as texts:
        for text in texts:
            fh.write(text)
