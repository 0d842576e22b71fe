import csv

import numpy as np
import pytest

from conftest import make_record, make_record_set, rows
from persona_forge import ingest
from persona_forge.ingest import (IngestError, filter_inactive,
                                  format_price, parse_log, parse_price_cents,
                                  write_log)

MONTH = ingest.MONTH_SECONDS


def test_price_parsing_exact_cents():
    assert parse_price_cents("3.50") == 350
    assert parse_price_cents("3.5") == 350
    assert parse_price_cents("0.99") == 99
    assert parse_price_cents("12") == 1200
    assert parse_price_cents("0") == 0
    assert parse_price_cents(" 1.07 ") == 107


@pytest.mark.parametrize("bad", ["-1", "1.234", "1.2.3", "abc", "1,50", ""])
def test_price_parsing_rejects(bad):
    with pytest.raises(ValueError):
        parse_price_cents(bad)


def test_format_price_roundtrip():
    for cents in (0, 1, 99, 100, 350, 12345):
        assert parse_price_cents(format_price(cents)) == cents


def test_write_parse_roundtrip(tmp_path):
    records = [
        make_record(user="a", ts=100, content="x", kind="R", cents=199),
        make_record(user="a", ts=200, content="y", kind="P", cents=1500,
                    genre="Horror", year=1985),
        make_record(user="b", ts=50, offset=-480, content="x"),
    ]
    rs = make_record_set(*records)
    path = tmp_path / "log.csv"
    write_log(rs, path)
    result = parse_log(path)
    assert result.diagnostics == []
    assert rows(result.record_set) == sorted(
        records, key=lambda r: (r.user_id, r.timestamp, r.content_id))


def test_parse_schema_mapping(tmp_path):
    # columns are found by their header names, not by position
    path = tmp_path / "log.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["release_year", "genre", "net_price", "txn_type",
                    "content_id", "region_offset_minutes", "timestamp",
                    "user_id"])
        w.writerow(["2010", "Drama", "1.99", "R", "c1", "-60", "100", "u1"])
    result = parse_log(path)
    (rec,) = rows(result.record_set)
    assert rec == make_record(user="u1", ts=100, offset=-60, content="c1",
                              cents=199, year=2010)


def test_parse_missing_header_column(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("user_id,timestamp\nu1,5\n")
    with pytest.raises(IngestError):
        parse_log(path)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("")
    with pytest.raises(IngestError):
        parse_log(path)


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ingest.CSV_COLUMNS)
        w.writerows(rows)


GOOD = ["u1", "100", "0", "c1", "R", "1.99", "Drama", "2010"]


def _good(i):
    return ["u1", str(100 + i), "0", "c1", "R", "1.99", "Drama", "2010"]


def test_malformed_rows_become_diagnostics(tmp_path):
    path = tmp_path / "log.csv"
    rows = [_good(i) for i in range(20)]
    rows[4] = ["u1", "bad_ts", "0", "c2", "R", "1.99", "Drama", "2010"]
    _write_rows(path, rows)
    result = parse_log(path)
    assert len(result.record_set) == 19
    assert [d.row for d in result.diagnostics] == [5]  # 1-based data rows


@pytest.mark.parametrize("row,why", [
    (["u1", "100", "0", "c1", "X", "1.99", "Drama", "2010"], "txn type"),
    (["u1", "100", "0", "c1", "R", "-1.99", "Drama", "2010"], "price"),
    (["u1", "100", "0", "c1", "R", "1.99", "Jazz", "2010"], "genre"),
    (["u1", "100", "0", "c1", "R", "1.99", "Drama", "1850"], "year low"),
    (["u1", "100", "0", "c1", "R", "1.99", "Drama", "2999"], "year high"),
    (["u1", "100", "900", "c1", "R", "1.99", "Drama", "2010"], "offset"),
    (["", "100", "0", "c1", "R", "1.99", "Drama", "2010"], "user"),
    (["u1", "100", "0", "c1", "R", "1.99", "Drama"], "field count"),
    (["u1", "9" * 20, "0", "c1", "R", "1.99", "Drama", "2010"], "ts range"),
    (["u1", "100", "0", "c1", "R", "9" * 17, "Drama", "2010"], "price range"),
    (["u1", "100", "0", "c1", "R", "1.99", "Drama",
      str(ingest.MAX_RELEASE_YEAR + 1)], "year past bound"),
])
def test_invalid_rows_rejected(tmp_path, row, why):
    path = tmp_path / "log.csv"
    _write_rows(path, [_good(i) for i in range(12)] + [row])
    result = parse_log(path)
    assert len(result.diagnostics) == 1, why
    assert len(result.record_set) == 12


def test_release_year_bounds_are_accepted(tmp_path):
    # fixed constants, so whether a row parses does not depend on the clock
    path = tmp_path / "log.csv"
    years = [ingest.MIN_RELEASE_YEAR, ingest.MAX_RELEASE_YEAR]
    _write_rows(path, [["u1", str(100 + j), "0", "c1", "R", "1.99", "Drama",
                        str(year)] for j, year in enumerate(years)])
    result = parse_log(path)
    assert result.diagnostics == []
    assert result.record_set.year.tolist() == years


def test_duplicate_keys_rejected(tmp_path):
    path = tmp_path / "log.csv"
    dup = ["u2", "999", "0", "c9", "R", "1.99", "Drama", "2010"]
    _write_rows(path, [_good(i) for i in range(12)] + [dup, dup])
    result = parse_log(path)
    assert len(result.diagnostics) == 1
    assert "duplicate" in result.diagnostics[0].message


def test_too_many_malformed_is_hard_failure(tmp_path):
    path = tmp_path / "log.csv"
    bad = ["u1", "x", "0", "c1", "R", "1.99", "Drama", "2010"]
    _write_rows(path, [GOOD] + [bad] * 9)  # 90% malformed
    with pytest.raises(IngestError):
        parse_log(path)


def test_filter_removes_single_transaction_users():
    rs = make_record_set(
        make_record(user="lonely", ts=0, cents=500),
        make_record(user="ok", ts=0, content="a", cents=500),
        make_record(user="ok", ts=10, content="b", cents=500),
    )
    out = filter_inactive(rs)
    assert out.users == ("ok",)


def test_filter_drops_low_spend_months():
    rs = make_record_set(
        make_record(user="u", ts=0, content="a", cents=300),
        make_record(user="u", ts=10, content="b", cents=300),
        # month 1 totals 50 cents: below the $1 floor
        make_record(user="u", ts=MONTH + 5, content="c", cents=25),
        make_record(user="u", ts=MONTH + 6, content="d", cents=25),
    )
    out = filter_inactive(rs)
    assert [r.content_id for r in rows(out)] == ["a", "b"]


def test_filter_cascades_to_fixed_point():
    # Dropping u's sub-$1 month leaves a single transaction, so the user
    # disappears entirely on the next pass.
    rs = make_record_set(
        make_record(user="u", ts=0, content="a", cents=500),
        make_record(user="u", ts=MONTH + 5, content="b", cents=10),
        make_record(user="v", ts=0, content="a", cents=500),
        make_record(user="v", ts=10, content="b", cents=500),
    )
    out = filter_inactive(rs)
    assert out.users == ("v",)


def test_filter_is_idempotent_on_random_logs():
    rng = np.random.default_rng(0)
    records = []
    for u in range(40):
        n = int(rng.integers(1, 6))
        base = int(rng.integers(0, 3 * MONTH))
        for t in range(n):
            records.append(make_record(
                user=f"u{u}", ts=base + int(rng.integers(0, 3 * MONTH)),
                content=f"c{t}", cents=int(rng.integers(0, 300))))
    rs = make_record_set(*records)
    once = filter_inactive(rs)
    twice = filter_inactive(once)
    assert rows(once) == rows(twice)
