"""On-disk artifact format shared by every file the pipeline writes to `out/`,
the one reader of every JSON file it reads, the config included, and the
hand-off table that spares a process re-parsing the files it wrote.

CSV: UTF-8, LF line endings, one header row, the bytes `csv.writer` writes.
`write_csv` is the one CSV writer: callers hand it columns, not rows, and own
only column layout and cell values. A number is written as its `str()`, which
for a float is its `repr`; a text column is a short table of distinct texts,
each quoted once by the csv module, and codes into it. JSON: UTF-8, two-space
indent, sorted keys, trailing newline.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from pathlib import Path

import numpy as np

# The hand-off table: resolved path -> (the files the object was written to,
# the sha256 digests of their bytes when last hashed, the object, or None once
# those bytes changed). It holds one directory's files.
_handed: dict[Path, tuple[tuple[Path, ...], tuple[str, ...], object]] = {}


# Rows turned into text at a time: peak memory stays flat as files grow.
CHUNK_ROWS = 65_536


class _Lines(list):
    """A file for `csv.writer` that keeps each row it writes as one item."""
    write = list.append


def _cell_texts(texts: Sequence[str], width: int) -> np.ndarray:
    """Each of `texts` as the csv module writes it in a row of `width`
    cells, quoting included; a lone empty cell is written as `""`."""
    lines = _Lines()
    pad = [""] * (width > 1)
    csv.writer(lines, lineterminator="\n").writerows([text, *pad]
                                                     for text in texts)
    return np.array([line[:-1 - len(pad)] for line in lines], dtype=object)


def _chunk_texts(values: np.ndarray, table, rows: slice) -> Iterable[str]:
    """The text of the cells `rows` of one column: `table` entries indexed
    by `values`, or without a table each value's `str()`. An int chunk that
    spans fewer values than it has cells makes each value's text once."""
    chunk = values[rows]
    if table is None and chunk.dtype.kind in "iu" and len(chunk):
        low, high = int(chunk.min()), int(chunk.max())
        if high - low < len(chunk):
            table = np.array([str(v) for v in range(low, high + 1)],
                             dtype=object)
            chunk = chunk - low
    if table is None:
        return map(str, chunk.tolist())
    return np.take(table, chunk).tolist()


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write the header, then the rows that `columns` hold side by side.

    A column is either a 1-D numeric array, whose items are written as the
    `str()` of their `tolist()`, or a `(texts, codes)` pair: a sequence of
    strings and an int array that indexes it, each text made cell text
    once. Rows are turned into text CHUNK_ROWS at a time, column by column,
    and joined.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns under {len(header)} names")
    cells = [(np.asarray(column[1]), _cell_texts(column[0], len(columns)))
             if isinstance(column, tuple) else (np.asarray(column), None)
             for column in columns]
    if len({len(values) for values, _ in cells}) > 1:
        raise ValueError("columns of different lengths")
    n = len(cells[0][0]) if cells else 0
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, n, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            texts = [_chunk_texts(values, table, rows)
                     for values, table in cells]
            fh.write("\n".join(map(",".join, zip(*texts))))
            fh.write("\n")


def read_csv(path) -> Iterator[list[str]]:
    """Yield the data rows that follow the header row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        yield from reader


def to_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(obj))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def digest(path) -> str:
    """The sha256 of `path`: the one the hand-off table last made of it if
    it holds the file, else made now."""
    path = Path(path).resolve()
    for files, digests, _ in _handed.values():
        if path in files:
            return digests[files.index(path)]
    return sha256(path)


def freeze(obj):
    """`obj`, with every array in it and in its tuples and dataclass fields
    made read-only. A tuple of strings, such as an id table, holds no array
    and is passed over in one C-level type check."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, tuple):
        if all(map(isinstance, obj, repeat(str))):
            return obj
        for item in obj:
            freeze(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            freeze(getattr(obj, f.name))
    return obj


def hand_off(obj, path, *sidecars) -> None:
    """Register `obj` as what reading `path`, with its `sidecars`, yields
    while these files keep the bytes they hold now; its arrays become
    read-only. The table keeps only the files of `path`'s directory: a file
    of another directory empties it first."""
    files = tuple(Path(p).resolve() for p in (path, *sidecars))
    if any(key.parent != files[0].parent for key in _handed):
        _handed.clear()
    _handed[files[0]] = (files, tuple(map(sha256, files)), freeze(obj))


def handed(path):
    """The object handed off for `path` if its files still hash to their
    digests, else None: an edited, copied or never handed file must be
    parsed. The entry keeps the digests made, for `digest`."""
    key = Path(path).resolve()
    entry = _handed.get(key)
    if entry is None:
        return None
    files, digests, obj = entry
    try:
        now = tuple(map(sha256, files))
    except OSError:
        return None
    if now != digests:
        obj = None
        _handed[key] = (files, now, obj)
    return obj
