"""On-disk artifact format shared by every file the pipeline writes to `out/`,
and the one reader of every JSON file it reads, the config included.

CSV: UTF-8, LF line endings, one header row. JSON: UTF-8, two-space indent,
sorted keys, trailing newline. Callers own only column layout and cell values:
the csv module writes each value's `str()`, which for a float is its `repr`.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator, Sequence


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
