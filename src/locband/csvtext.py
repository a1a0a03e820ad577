"""CSV writer for long tables whose trailing columns take few distinct values.

A row is a prefix that differs from row to row (the index and the mesh
point) followed by a tail that depends only on the row's key columns.  Each
tail is formatted once per distinct key; float keys are compared by their
bit patterns, since signed zeros compare equal yet format differently.  Rows
are formatted and written one chunk at a time, so that only one chunk's
objects and text are held, never the whole table's text.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

# Rows per chunk.
CSV_CHUNK = 1 << 14


def write_csv(
    fh: TextIO, header: str, prefixes: Iterable[str], keys: Sequence[np.ndarray], tail: Callable[[int], str]
) -> None:
    """Write `header`, then prefix + tail(i) for each row i = 0..len(keys[0]) - 1,
    to `fh`, where `prefixes` yields one string per row and tail(i) formats
    row i's trailing columns, newline included."""
    cols = [a.view(np.int64) if a.dtype == np.float64 else a for a in keys]
    prefixes = iter(prefixes)
    tails: dict[tuple, str] = {}
    fh.write(header)
    for start in range(0, len(cols[0]), CSV_CHUNK):
        rows = slice(start, start + CSV_CHUNK)
        lines = []
        # keys first: zip stops at the chunk's end without taking a prefix
        for i, (key, prefix) in enumerate(zip(zip(*(a[rows].tolist() for a in cols)), prefixes), start):
            text = tails.get(key)
            if text is None:
                text = tails[key] = tail(i)
            lines.append(prefix + text)
        fh.write("".join(lines))
