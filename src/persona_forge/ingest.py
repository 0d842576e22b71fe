"""Transaction log ingestion: parsing, validation, and activity filtering."""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from . import artifacts

MONTH_SECONDS = 30 * 86400
MIN_MONTH_SPEND_CENTS = 100  # months below one dollar of spend are dropped

GENRES = (
    "Drama", "Comedy", "Action", "Family", "Animation", "Thriller",
    "Biography", "Sci-Fi", "Crime", "Super Hero", "Comedy-Drama",
    "Fantasy", "Horror", "Romance", "Kids", "Miscellaneous",
)
GENRE_INDEX = {g: i for i, g in enumerate(GENRES)}

CSV_COLUMNS = (
    "user_id", "timestamp", "region_offset_minutes", "content_id",
    "txn_type", "net_price", "genre", "release_year",
)

MIN_RELEASE_YEAR = 1900
MAX_RELEASE_YEAR = 2100
MAX_BAD_FRACTION = 0.10  # a log with more malformed rows fails as a whole


class IngestError(Exception):
    """Raised when a log cannot be ingested at all (bad header, too many bad rows)."""


@dataclass(frozen=True, eq=False)
class RecordSet:
    """The event log as one columnar table, one row per transaction.

    `users` and `contents` are the sorted distinct ids; the `user` and
    `content` columns hold int codes into them, so rows sorted by code are
    sorted by `(user_id, timestamp, content_id)`. `RecordSet.build` keeps
    both invariants.
    """
    users: tuple[str, ...]
    contents: tuple[str, ...]
    user: np.ndarray        # int64 codes into `users`
    content: np.ndarray     # int64 codes into `contents`
    timestamp: np.ndarray   # int64 UTC epoch seconds
    offset: np.ndarray      # int64 signed local-time offset, minutes
    rental: np.ndarray      # bool; False is a purchase
    cents: np.ndarray       # int64 fixed-point USD cents, avoids float drift
    genre: np.ndarray       # int64 index into GENRES
    year: np.ndarray        # int64 release year

    def __len__(self) -> int:
        return len(self.user)

    @classmethod
    def build(cls, users, user, timestamp, offset, contents, content, rental,
              cents, genre, year) -> "RecordSet":
        """Columns in CSV_COLUMNS order, each id column as a sorted id tuple
        and codes into it; drops unused ids, sorts by (user, ts, content)."""
        users, user = _compact(users, user)
        contents, content = _compact(contents, content)
        timestamp = np.asarray(timestamp, dtype=np.int64)
        order = np.lexsort((content, timestamp, user))
        return cls(users, contents, user[order], content[order],
                   timestamp[order],
                   np.asarray(offset, dtype=np.int64)[order],
                   np.asarray(rental, dtype=bool)[order],
                   np.asarray(cents, dtype=np.int64)[order],
                   np.asarray(genre, dtype=np.int64)[order],
                   np.asarray(year, dtype=np.int64)[order])


def _intern(ids) -> tuple[tuple[str, ...], np.ndarray]:
    # Python strings, not a numpy "U" array: those drop trailing NULs.
    table = tuple(sorted(set(ids)))
    code = {v: i for i, v in enumerate(table)}
    return table, np.fromiter(map(code.__getitem__, ids), np.int64, len(ids))


def _compact(ids, codes) -> tuple[tuple[str, ...], np.ndarray]:
    """Drop the ids that no code uses, and renumber the codes to match."""
    used = np.bincount(codes, minlength=len(ids)) > 0
    return tuple(itertools.compress(ids, used)), (np.cumsum(used) - 1)[codes]


@dataclass
class RowDiagnostic:
    row: int  # 1-based data-row index (header not counted)
    message: str


@dataclass
class ParseResult:
    record_set: RecordSet
    diagnostics: list[RowDiagnostic] = field(default_factory=list)


def parse_price_cents(text: str) -> int:
    """Parse a non-negative decimal USD amount with at most 2 fraction digits."""
    text = text.strip()
    if text.startswith("-"):
        raise ValueError(f"negative price {text!r}")
    whole, _, frac = text.partition(".")
    if not whole.isdigit() or (frac and not frac.isdigit()) or len(frac) > 2:
        raise ValueError(f"bad price {text!r}")
    return int(whole) * 100 + int(frac.ljust(2, "0") or 0)


def format_price(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _parse_row(user_id: str, timestamp: str, offset: str, content_id: str,
               txn_type: str, net_price: str, genre: str,
               release_year: str) -> tuple:
    """One validated row; its cells come and go in CSV_COLUMNS order."""
    ts = int(timestamp)
    offset = int(offset)
    if not -14 * 60 <= offset <= 14 * 60:
        raise ValueError(f"implausible region offset {offset}")
    code = txn_type.strip()
    if code not in ("R", "P"):
        raise ValueError(f"unknown txn_type {code!r}")
    cents = parse_price_cents(net_price)
    genre = genre.strip()
    if genre not in GENRE_INDEX:
        raise ValueError(f"unknown genre {genre!r}")
    year = int(release_year)
    if not MIN_RELEASE_YEAR <= year <= MAX_RELEASE_YEAR:
        raise ValueError(f"release_year {year} out of range")
    user_id = user_id.strip()
    content_id = content_id.strip()
    if not user_id or not content_id:
        raise ValueError("empty user_id or content_id")
    if max(abs(ts), cents) >= 2**53:  # beyond exact int64/float64 sums
        raise ValueError(f"timestamp {ts} or price out of range")
    return (user_id, ts, offset, content_id, code == "R", cents,
            GENRE_INDEX[genre], year)


def parse_log(path) -> ParseResult:
    """Parse a CSV transaction log into a sorted, validated RecordSet.

    Columns are found by their CSV_COLUMNS header names, in any order.
    Malformed rows are rejected with row-numbered diagnostics; more than
    MAX_BAD_FRACTION malformed rows is a hard failure. A file that still
    holds the bytes a RecordSet was handed off with is not parsed: that
    RecordSet is returned, shared. Either way its arrays are read-only.
    """
    handed = artifacts.handed(path)
    if handed is not None:
        return ParseResult(handed)
    rows: list[tuple] = []
    diagnostics: list[RowDiagnostic] = []
    seen: set[tuple[str, int, str]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header required") from None
        for name in CSV_COLUMNS:
            if name not in header:
                raise IngestError(f"{path}: header missing column {name!r}")
        pick = operator.itemgetter(*map(header.index, CSV_COLUMNS))
        for i, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                diagnostics.append(RowDiagnostic(i, "wrong field count"))
                continue
            try:
                cells = _parse_row(*pick(raw))
            except ValueError as exc:
                diagnostics.append(RowDiagnostic(i, str(exc)))
                continue
            key = (cells[0], cells[1], cells[3])
            if key in seen:
                diagnostics.append(RowDiagnostic(i, f"duplicate key {key}"))
                continue
            seen.add(key)
            rows.append(cells)

    n_rows = len(rows) + len(diagnostics)  # one diagnostic per rejected row
    if n_rows and len(diagnostics) > MAX_BAD_FRACTION * n_rows:
        raise IngestError(
            f"{path}: {len(diagnostics)}/{n_rows} rows malformed "
            f"(limit {MAX_BAD_FRACTION:.0%}); first: "
            f"row {diagnostics[0].row}: {diagnostics[0].message}")

    columns = list(zip(*rows)) or [()] * len(CSV_COLUMNS)
    rs = RecordSet.build(*_intern(columns[0]), *columns[1:3],
                         *_intern(columns[3]), *columns[4:])
    return ParseResult(artifacts.freeze(rs), diagnostics)


def write_log(rs: RecordSet, path) -> None:
    """Write the log with the CSV_COLUMNS header."""
    prices, price = np.unique(rs.cents, return_inverse=True)
    artifacts.write_csv(path, CSV_COLUMNS, [
        (rs.users, rs.user), rs.timestamp, rs.offset,
        (rs.contents, rs.content), (("P", "R"), rs.rental),
        ([*map(format_price, prices.tolist())], price), (GENRES, rs.genre),
        rs.year])


def tenure_align(rs: RecordSet) -> np.ndarray:
    """Tenure month of each row: 30-day windows from the user's first
    transaction (the birth), which is the first of the user's sorted rows."""
    birth = rs.timestamp[np.searchsorted(rs.user, rs.user)]
    return (rs.timestamp - birth) // MONTH_SECONDS


def filter_inactive(rs: RecordSet) -> RecordSet:
    """Drop one-time users and sub-$1 tenure months.

    Removes users with a single transaction, then drops every tenure month
    (30-day window from the user's first remaining transaction) whose total
    spend is below $1; users left with no qualifying months disappear.
    The two rules are iterated to a fixed point so the filter is idempotent.
    """
    while True:
        # Dropping whole users leaves every other user's birth unchanged, so
        # both rules can be read off one pass over the same table.
        months = tenure_align(rs)
        _, user_month = np.unique(rs.user * (months.max(initial=0) + 1)
                                  + months, return_inverse=True)
        spend = np.bincount(user_month, weights=rs.cents)
        keep = ((np.bincount(rs.user)[rs.user] > 1)
                & (spend[user_month] >= MIN_MONTH_SPEND_CENTS))
        if keep.all():
            return rs
        rs = RecordSet.build(
            rs.users, rs.user[keep], rs.timestamp[keep], rs.offset[keep],
            rs.contents, rs.content[keep], rs.rental[keep], rs.cents[keep],
            rs.genre[keep], rs.year[keep])
