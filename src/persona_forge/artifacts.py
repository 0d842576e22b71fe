"""On-disk artifact format shared by every file the pipeline writes to `out/`,
the one reader of every JSON file it reads, the config included, and the
hand-off table that spares a process re-parsing the files it wrote.

CSV: UTF-8, LF line endings, one header row. JSON: UTF-8, two-space indent,
sorted keys, trailing newline. Callers own only column layout and cell values:
the csv module writes each value's `str()`, which for a float is its `repr`.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

# The hand-off table: resolved path -> (the files the object was written to,
# the sha256 digests of their bytes when last hashed, the object, or None once
# those bytes changed). It holds one directory's files.
_handed: dict[Path, tuple[tuple[Path, ...], tuple[str, ...], object]] = {}


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write the header, then stream `rows` without materializing them."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    made read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, tuple):
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
