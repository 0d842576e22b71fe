"""Transaction log ingestion: parsing, validation, and activity filtering."""

from __future__ import annotations

import csv
import enum
import time
from collections import Counter
from dataclasses import dataclass, field

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


class TxnType(enum.Enum):
    RENTAL = "R"
    PURCHASE = "P"


class IngestError(Exception):
    """Raised when a log cannot be ingested at all (bad header, too many bad rows)."""


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    user_id: str
    timestamp: int                # UTC epoch seconds
    region_offset_minutes: int    # signed local-time offset
    content_id: str
    txn_type: TxnType
    price_cents: int              # fixed-point USD cents, avoids float drift
    genre: str
    release_year: int

    @property
    def net_price(self) -> float:
        return self.price_cents / 100.0


def _sort_key(r: TransactionRecord):
    return (r.user_id, r.timestamp, r.content_id)


@dataclass(frozen=True)
class RecordSet:
    records: tuple[TransactionRecord, ...]
    provenance: str = "Parsed"  # "Parsed" | "Synthetic"

    def __len__(self) -> int:
        return len(self.records)


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


def _max_release_year() -> int:
    return time.gmtime().tm_year


def _parse_row(row: dict[str, str]) -> TransactionRecord:
    ts = int(row["timestamp"])
    offset = int(row["region_offset_minutes"])
    if not -14 * 60 <= offset <= 14 * 60:
        raise ValueError(f"implausible region offset {offset}")
    code = row["txn_type"].strip()
    try:
        txn_type = TxnType(code)
    except ValueError:
        raise ValueError(f"unknown txn_type {code!r}") from None
    cents = parse_price_cents(row["net_price"])
    genre = row["genre"].strip()
    if genre not in GENRE_INDEX:
        raise ValueError(f"unknown genre {genre!r}")
    year = int(row["release_year"])
    if not MIN_RELEASE_YEAR <= year <= _max_release_year():
        raise ValueError(f"release_year {year} out of range")
    user_id = row["user_id"].strip()
    content_id = row["content_id"].strip()
    if not user_id or not content_id:
        raise ValueError("empty user_id or content_id")
    return TransactionRecord(user_id, ts, offset, content_id, txn_type,
                             cents, genre, year)


def parse_log(path, schema: dict[str, str] | None = None,
              max_bad_fraction: float = 0.10) -> ParseResult:
    """Parse a CSV transaction log into a sorted, validated RecordSet.

    `schema` maps canonical column names to the file's actual header names
    (identity when omitted). Malformed rows are rejected with row-numbered
    diagnostics; more than `max_bad_fraction` malformed rows is a hard failure.
    """
    schema = schema or {c: c for c in CSV_COLUMNS}
    missing = [c for c in CSV_COLUMNS if c not in schema]
    if missing:
        raise IngestError(f"schema missing columns {missing}")

    records: list[TransactionRecord] = []
    diagnostics: list[RowDiagnostic] = []
    seen: set[tuple[str, int, str]] = set()
    n_rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header required") from None
        col_idx = {}
        for canon in CSV_COLUMNS:
            actual = schema[canon]
            if actual not in header:
                raise IngestError(f"{path}: header missing column {actual!r}")
            col_idx[canon] = header.index(actual)
        for i, raw in enumerate(reader, start=1):
            n_rows += 1
            if len(raw) != len(header):
                diagnostics.append(RowDiagnostic(i, "wrong field count"))
                continue
            row = {c: raw[j] for c, j in col_idx.items()}
            try:
                rec = _parse_row(row)
            except ValueError as exc:
                diagnostics.append(RowDiagnostic(i, str(exc)))
                continue
            key = (rec.user_id, rec.timestamp, rec.content_id)
            if key in seen:
                diagnostics.append(RowDiagnostic(i, f"duplicate key {key}"))
                continue
            seen.add(key)
            records.append(rec)

    if n_rows and len(diagnostics) > max_bad_fraction * n_rows:
        raise IngestError(
            f"{path}: {len(diagnostics)}/{n_rows} rows malformed "
            f"(limit {max_bad_fraction:.0%}); first: "
            f"row {diagnostics[0].row}: {diagnostics[0].message}")

    records.sort(key=_sort_key)
    return ParseResult(RecordSet(tuple(records), "Parsed"), diagnostics)


def write_log(rs: RecordSet, path) -> None:
    """Emit the canonical CSV schema."""
    artifacts.write_csv(path, CSV_COLUMNS, (
        [r.user_id, r.timestamp, r.region_offset_minutes, r.content_id,
         r.txn_type.value, format_price(r.price_cents), r.genre,
         r.release_year]
        for r in rs.records))


@dataclass(frozen=True)
class TenureIndex:
    """Per-user tenure timelines: birth = first transaction, 30-day months."""
    births: dict[str, int]

    def month_of(self, user_id: str, timestamp: int) -> int:
        return (timestamp - self.births[user_id]) // MONTH_SECONDS


def tenure_align(rs: RecordSet) -> TenureIndex:
    births: dict[str, int] = {}
    for r in rs.records:
        b = births.get(r.user_id)
        if b is None or r.timestamp < b:
            births[r.user_id] = r.timestamp
    return TenureIndex(births)


def filter_inactive(rs: RecordSet) -> RecordSet:
    """Drop one-time users and sub-$1 tenure months.

    Removes users with a single transaction, then drops every tenure month
    (30-day window from the user's first remaining transaction) whose total
    spend is below $1; users left with no qualifying months disappear.
    The two rules are iterated to a fixed point so the filter is idempotent.
    """
    while True:
        n_before = len(rs)
        counts = Counter(r.user_id for r in rs.records)
        rs = RecordSet(tuple(r for r in rs.records if counts[r.user_id] > 1),
                       rs.provenance)
        ti = tenure_align(rs)
        months = [ti.month_of(r.user_id, r.timestamp) for r in rs.records]
        spend: Counter = Counter()
        for r, m in zip(rs.records, months):
            spend[(r.user_id, m)] += r.price_cents
        kept = (r for r, m in zip(rs.records, months)
                if spend[(r.user_id, m)] >= MIN_MONTH_SPEND_CENTS)
        rs = RecordSet(tuple(kept), rs.provenance)
        if len(rs) == n_before:
            return rs
