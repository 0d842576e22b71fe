"""Transaction log ingestion: parsing, validation, and activity filtering."""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, fields

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
    sorted by `(user_id, timestamp, content_id)`. `RecordSet.build` makes
    both invariants hold, and `take` keeps them for rows picked in order.
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
        user, timestamp, offset, content, cents, genre, year = (
            np.asarray(column, dtype=np.int64) for column in (
                user, timestamp, offset, content, cents, genre, year))
        rs = cls(users, contents, user, content, timestamp, offset,
                 np.asarray(rental, dtype=bool), cents, genre, year)
        return rs.take(np.lexsort((content, timestamp, user)))

    def take(self, rows) -> "RecordSet":
        """The rows that an index array or a bool mask picks, in that
        order; drops the ids that no picked row uses."""
        users, user = _compact(self.users, self.user[rows])
        contents, content = _compact(self.contents, self.content[rows])
        rest = (getattr(self, f.name)[rows] for f in fields(self)[4:])
        return RecordSet(users, contents, user, content, *rest)


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


# The rules for one cell, in the order `_parse_row` applies them. Each turns
# a cell's text into its value or raises ValueError; `parse_log` runs each
# once per distinct text of its column.

def _offset(text: str) -> int:
    offset = int(text)
    if not -14 * 60 <= offset <= 14 * 60:
        raise ValueError(f"implausible region offset {offset}")
    return offset


def _rental(text: str) -> bool:
    code = text.strip()
    if code not in ("R", "P"):
        raise ValueError(f"unknown txn_type {code!r}")
    return code == "R"


def _genre(text: str) -> int:
    genre = text.strip()
    if genre not in GENRE_INDEX:
        raise ValueError(f"unknown genre {genre!r}")
    return GENRE_INDEX[genre]


def _release_year(text: str) -> int:
    year = int(text)
    if not MIN_RELEASE_YEAR <= year <= MAX_RELEASE_YEAR:
        raise ValueError(f"release_year {year} out of range")
    return year


def _exact(value: int) -> bool:
    """Whether int64 and float64 sums of such values stay exact."""
    return abs(value) < 2**53


def _parse_row(user_id: str, timestamp: str, offset: str, content_id: str,
               txn_type: str, net_price: str, genre: str,
               release_year: str) -> tuple:
    """One validated row; its cells come and go in CSV_COLUMNS order."""
    ts = int(timestamp)
    offset = _offset(offset)
    rental = _rental(txn_type)
    cents = parse_price_cents(net_price)
    genre = _genre(genre)
    year = _release_year(release_year)
    user_id = user_id.strip()
    content_id = content_id.strip()
    if not user_id or not content_id:
        raise ValueError("empty user_id or content_id")
    if not (_exact(ts) and _exact(cents)):
        raise ValueError(f"timestamp {ts} or price out of range")
    return (user_id, ts, offset, content_id, rental, cents, genre, year)


_BAD = np.iinfo(np.int64).min  # the value of a cell that breaks its rule


class _Column(dict):
    """Cell text -> int value of one column, by `rule`, which runs once per
    distinct text; a text it rejects, or whose value `exact` fails, maps to
    _BAD. Called with a column's cells, it gives their values."""

    def __init__(self, rule, exact=False):
        super().__init__()
        self.rule, self.exact = rule, exact

    def __missing__(self, text: str) -> int:
        try:
            value = self.rule(text)
        except ValueError:
            value = _BAD
        if self.exact and value != _BAD and not _exact(value):
            value = _BAD
        self[text] = value
        return value

    def __call__(self, texts: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, texts), np.int64,
                           len(texts))


def _id_rule(ids: dict[str, int]):
    """The rule of an id column: the stripped id's code in `ids`, a table
    that grows in first-seen order."""
    def code(text: str) -> int:
        key = text.strip()
        if not key:
            raise ValueError("empty id")
        return ids.setdefault(key, len(ids))
    return code


def _timestamps(texts: list[str]) -> np.ndarray:
    """The timestamp column, whose cells are nearly all distinct: a new
    `_Column` per chunk, so no table of them outlives its chunk."""
    return _Column(int, exact=True)(texts)


def parse_log(path) -> ParseResult:
    """Parse a CSV transaction log into a sorted, validated RecordSet.

    Columns are found by their CSV_COLUMNS header names, in any order.
    Malformed rows are rejected with row-numbered diagnostics; more than
    MAX_BAD_FRACTION malformed rows is a hard failure. A file that still
    holds the bytes a RecordSet was handed off with is not parsed: that
    RecordSet is returned, shared. Either way its arrays are read-only.

    `artifacts.read_csv` reads the log in chunks; each is checked column by
    column, each distinct cell text once, by the rules `_parse_row` applies;
    only a row with a failing cell goes through `_parse_row`. A row
    whose (user_id, timestamp, content_id) an earlier accepted row holds is
    a duplicate: one stable sort finds them.
    """
    handed = artifacts.handed(path)
    if handed is not None:
        return ParseResult(handed)
    user_ids: dict[str, int] = {}
    content_ids: dict[str, int] = {}
    rules = (_Column(_id_rule(user_ids)), _timestamps, _Column(_offset),
             _Column(_id_rule(content_ids)), _Column(_rental),
             _Column(parse_price_cents, exact=True), _Column(_genre),
             _Column(_release_year))
    # per column, then per chunk: the values of the accepted rows
    parts = [[np.zeros(0, np.int64)] for _ in CSV_COLUMNS]
    numbers = [np.zeros(0, np.int64)]  # and their row numbers
    diagnostics: list[tuple[int, str]] = []
    n_rows = 0
    chunks = artifacts.read_csv(path)
    header = next(chunks, None)
    if header is None:
        raise IngestError(f"{path}: empty file, header required")
    for name in CSV_COLUMNS:
        if name not in header:
            raise IngestError(f"{path}: header missing column {name!r}")
    width = len(header)
    where = [*map(header.index, CSV_COLUMNS)]
    pick = operator.itemgetter(*where)
    for good, cells in chunks:
        rows = np.arange(n_rows + 1, n_rows + 1 + len(good))
        n_rows += len(good)
        diagnostics += [(i, "wrong field count")
                        for i in rows[~good].tolist()]
        values = [rule(cells[j::width]) for rule, j in zip(rules, where)]
        ok = np.logical_and.reduce([v != _BAD for v in values])
        rows = rows[good]
        for k in np.flatnonzero(~ok).tolist():
            try:
                _parse_row(*pick(cells[k * width:(k + 1) * width]))
            except ValueError as exc:
                diagnostics.append((int(rows[k]), str(exc)))
        for part, column in zip(parts, values):
            part.append(column[ok])
        numbers.append(rows[ok])

    columns = [np.concatenate(parts.pop(0)) for _ in CSV_COLUMNS]
    # the id tables in first-seen order, so `rank` takes codes to sorted ids
    users, rank = _intern(list(user_ids))
    columns[0] = rank[columns[0]]
    contents, rank = _intern(list(content_ids))
    columns[3] = rank[columns[3]]
    # stable, so each key's first row in file order leads its run
    order = np.lexsort((columns[3], columns[1], columns[0]))
    key = np.stack([columns[j][order] for j in (0, 1, 3)])
    repeat = np.zeros(len(order), bool)
    repeat[1:] = (key[:, 1:] == key[:, :-1]).all(axis=0)
    rows = np.concatenate(numbers)
    for i, (u, t, c) in zip(rows[order[repeat]].tolist(),
                            key[:, repeat].T.tolist()):
        diagnostics.append((i, f"duplicate key {(users[u], t, contents[c])}"))
    diagnostics = [RowDiagnostic(*d) for d in sorted(diagnostics)]

    if n_rows and len(diagnostics) > MAX_BAD_FRACTION * n_rows:
        raise IngestError(
            f"{path}: {len(diagnostics)}/{n_rows} rows malformed "
            f"(limit {MAX_BAD_FRACTION:.0%}); first: "
            f"row {diagnostics[0].row}: {diagnostics[0].message}")

    del key
    # the rows left in `order` are sorted and distinct: no second sort
    rs = RecordSet(users, contents, columns[0], columns[3], columns[1],
                   columns[2], columns[4].astype(bool), *columns[5:])
    return ParseResult(artifacts.freeze(rs.take(order[~repeat])), diagnostics)


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
        rs = rs.take(keep)
