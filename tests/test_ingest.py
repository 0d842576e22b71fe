import csv
import dataclasses
import json
import operator
import random

import numpy as np
import pytest

from conftest import make_record, make_record_set, rows
from persona_forge import artifacts, cli, ingest
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


def _reference_row(user_id, timestamp, offset, content_id, txn_type,
                   net_price, genre, release_year):
    """One row by the per-row rules, each check in its message order."""
    ts = int(timestamp)
    offset = int(offset)
    if not -14 * 60 <= offset <= 14 * 60:
        raise ValueError(f"implausible region offset {offset}")
    code = txn_type.strip()
    if code not in ("R", "P"):
        raise ValueError(f"unknown txn_type {code!r}")
    cents = parse_price_cents(net_price)
    genre = genre.strip()
    if genre not in ingest.GENRE_INDEX:
        raise ValueError(f"unknown genre {genre!r}")
    year = int(release_year)
    if not ingest.MIN_RELEASE_YEAR <= year <= ingest.MAX_RELEASE_YEAR:
        raise ValueError(f"release_year {year} out of range")
    user_id = user_id.strip()
    content_id = content_id.strip()
    if not user_id or not content_id:
        raise ValueError("empty user_id or content_id")
    if max(abs(ts), cents) >= 2**53:
        raise ValueError(f"timestamp {ts} or price out of range")
    return (user_id, ts, offset, content_id, code == "R", cents,
            ingest.GENRE_INDEX[genre], year)


def _reference_parse_log(path):
    """The row-at-a-time parser: csv.reader rows, one tuple per accepted
    row, and a set of the keys seen so far."""
    rows, diagnostics, seen = [], [], set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header required") from None
        for name in ingest.CSV_COLUMNS:
            if name not in header:
                raise IngestError(f"{path}: header missing column {name!r}")
        pick = operator.itemgetter(*map(header.index, ingest.CSV_COLUMNS))
        for i, raw in enumerate(reader, start=1):
            if len(raw) != len(header):
                diagnostics.append(ingest.RowDiagnostic(
                    i, "wrong field count"))
                continue
            try:
                cells = _reference_row(*pick(raw))
            except ValueError as exc:
                diagnostics.append(ingest.RowDiagnostic(i, str(exc)))
                continue
            key = (cells[0], cells[1], cells[3])
            if key in seen:
                diagnostics.append(ingest.RowDiagnostic(
                    i, f"duplicate key {key}"))
                continue
            seen.add(key)
            rows.append(cells)
    n_rows = len(rows) + len(diagnostics)
    if n_rows and len(diagnostics) > ingest.MAX_BAD_FRACTION * n_rows:
        raise IngestError(
            f"{path}: {len(diagnostics)}/{n_rows} rows malformed "
            f"(limit {ingest.MAX_BAD_FRACTION:.0%}); first: "
            f"row {diagnostics[0].row}: {diagnostics[0].message}")
    columns = list(zip(*rows)) or [()] * len(ingest.CSV_COLUMNS)
    rs = ingest.RecordSet.build(*ingest._intern(columns[0]), *columns[1:3],
                                *ingest._intern(columns[3]), *columns[4:])
    return ingest.ParseResult(rs, diagnostics)


def _outcome(parse, path):
    """Everything a parse gives: each column's dtype and bytes, the id
    tuples and the diagnostics, or the error it raises."""
    try:
        result = parse(path)
    except (IngestError, csv.Error, ValueError) as exc:
        return type(exc), str(exc)
    return ([(f.name, getattr(result.record_set, f.name)) if f.name in (
                "users", "contents") else
             (f.name, getattr(result.record_set, f.name).dtype.str,
              getattr(result.record_set, f.name).tobytes())
             for f in dataclasses.fields(result.record_set)],
            [(d.row, d.message) for d in result.diagnostics])


# Cell texts by column: the valid texts first, then ones that test how a
# rule reads whitespace, signs, underscores, non-ASCII digits and bounds.
FUZZ_CELLS = {
    "user_id": (["u1", "u2", "u3", "ü4"],
                [" u1", "u2 ", "", "  ", "\t"]),
    "timestamp": ([str(t) for t in range(100, 160)],
                  [" 12", "+5", "1_000", "\u0661\u0662", "\u00b2", "1.", "x",
                   "-7", "", "9007199254740991", "9007199254740992",
                   "-9007199254740992", "-9223372036854775808",
                   "99999999999999999999"]),
    "region_offset_minutes": (["0", "-60", "330"],
                              ["840", "841", "-841", " 5", "+5", "1_0", "x",
                               ""]),
    "content_id": (["c1", "c2"], [" c1", "c2 ", "", " "]),
    "txn_type": (["R", "P"], [" R", "r", "X", ""]),
    "net_price": (["1.99", "0", "12", "3.5"],
                  ["1.", ".5", "1.999", "-1.99", "\u0661\u0662", "\u00b2",
                   " 3.5", "+5", "1_000", "", "90071992547409.91",
                   "90071992547409.92"]),
    "genre": (["Drama", "Horror", "Sci-Fi"],
              [" Drama", "drama", "Jazz", "", "Comedy "]),
    "release_year": (["2010", "1900", "2100"],
                     ["1899", "2101", " 2000", "+2000", "2_000", "x",
                      "\u0662\u0660\u0661\u0660"]),
}


def _fuzz_log(rng: random.Random, path):
    """A seeded log: header order, widths, blank lines, repeated lines and
    odd cells vary; every tenth log is quoted by the csv module."""
    names = list(ingest.CSV_COLUMNS) + ["extra"] * (rng.random() < 0.2)
    if rng.random() < 0.5:
        rng.shuffle(names)
    odd_share = rng.choice([0.0, 0.003, 0.03, 0.2])
    lines = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if lines and roll < 0.03:
            lines.append(rng.choice(lines))      # a repeated row
            continue
        if roll < 0.04:
            lines.append([])                     # a blank line
            continue
        row = []
        for name in names:
            good, odd = FUZZ_CELLS.get(name, (["e"], ["e,f"]))
            row.append(rng.choice(odd if rng.random() < odd_share else good))
        if roll < 0.05:
            row.pop(rng.randrange(len(row)))     # a short row
        elif roll < 0.06:
            row.append("")                       # a long row
        lines.append(row)
    if rng.random() < 0.1:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=rng.choice(
                [csv.QUOTE_ALL, csv.QUOTE_MINIMAL])).writerows(
                    [names, *lines])
        return
    text = "\n".join(",".join(row) for row in [names, *lines])
    path.write_text(text + "\n" * (rng.random() < 0.9), encoding="utf-8")


def test_parse_log_equals_the_row_parser_on_fuzzed_logs(tmp_path,
                                                        monkeypatch):
    rng = random.Random(20261021)
    path = tmp_path / "log.csv"
    n_parsed = n_rejected = 0
    for case in range(300):
        _fuzz_log(rng, path)
        monkeypatch.setattr(ingest, "CHUNK_CHARS",
                            rng.choice([1, 40, 300, 1 << 18]))
        monkeypatch.setattr(ingest, "CHUNK_ROWS", rng.choice([1, 3, 4096]))
        # at 1.0 every diagnostic is compared, not only the first
        monkeypatch.setattr(ingest, "MAX_BAD_FRACTION", rng.choice([0.1, 1.0]))
        expected = _outcome(_reference_parse_log, path)
        assert _outcome(parse_log, path) == expected, (case,
                                                       path.read_text())
        n_parsed += isinstance(expected[1], list)
        n_rejected += isinstance(expected[1], list) and bool(expected[1])
    # the seed reaches both outcomes, and logs with diagnostics
    assert n_parsed > 150 and n_rejected > 100


def _plain(n, start=0):
    return "".join(f"u{i % 3},{100 + i},0,c{i % 2},R,1.99,Drama,2010\n"
                   for i in range(start, start + n))


HEADER = ",".join(ingest.CSV_COLUMNS) + "\n"
LONG = "x" * (csv.field_size_limit() + 1)
EDGE_LOGS = {
    "wrong-widths-and-blank-lines": HEADER + _plain(5) + "\n" + "u1,1,0\n"
    + "u1,1,0,c1,R,1.99,Drama,2010,9\n" + _plain(5, 5),
    "duplicates-of-accepted-and-rejected-rows": HEADER + _plain(6)
    + _plain(2) + "u1,5,0,c1,X,1.99,Drama,2010\n" * 2 + _plain(1, 3),
    "padded-ids-are-one-key": HEADER + _plain(8)
    + " u0 ,100, 0, c0 , R ,1.99, Drama ,2010\n",
    "quote-after-the-first-chunk": HEADER + _plain(20)
    + '"u,1",300,0,c1,R,1.99,Drama,2010\n' + _plain(20, 20),
    "quoted-ids-with-comma-quote-newline": HEADER
    + '"u,1",1,0,"c""1",R,1.99,Drama,2010\n'
    + '"u\n2",2,0,c1,R,1.99,Drama,2010\n' + _plain(10),
    "crlf": (HEADER + _plain(12)).replace("\n", "\r\n"),
    "crlf-after-the-first-chunk": HEADER + _plain(12)
    + _plain(12, 12).replace("\n", "\r\n"),
    "lone-cr": HEADER + _plain(6) + _plain(6, 6).replace("\n", "\r"),
    "nul": HEADER + _plain(10) + "u1\0,7,0,c1,R,1.99,Drama,2010\n"
    + _plain(10, 10),
    "over-limit-field-after-the-first-chunk": HEADER + _plain(20)
    + f"u1,1,0,{LONG},R,1.99,Drama,2010\n",
    "over-limit-field-in-a-short-row": HEADER + _plain(20) + f"{LONG}\n",
    "over-limit-field-after-a-quote": HEADER
    + '"u1",1,0,c1,R,1.99,Drama,2010\n' + _plain(20) + f"u1,1,0,{LONG},R,1.99,Drama,2010\n",
    "field-at-the-limit": HEADER + _plain(20)
    + f"u1,1,0,{LONG[1:]},R,1.99,Drama,2010\n",
    "timestamps-past-2**53": HEADER + _plain(6)
    + "u1,-9223372036854775808,0,c1,R,1.99,Drama,2010\n"
    + "u1,9007199254740992,0,c1,R,1.99,Drama,2010\n" + _plain(6, 6),
    "header-only": HEADER,
    "header-only-no-newline": HEADER[:-1],
    "no-final-newline": HEADER + _plain(12)[:-1],
    "bom": "\ufeff" + HEADER + _plain(12),
    "bom-before-another-first-column": "\ufeffextra," + HEADER
    + "".join(f"e,{line}" for line in _plain(12).splitlines(True)),
    "header-in-another-order": ",".join(reversed(ingest.CSV_COLUMNS))
    + "\n" + "".join(",".join(reversed(line.split(","))) + "\n"
                     for line in _plain(12).splitlines()),
    "too-many-malformed": HEADER + _plain(3) + "u1,x,0,c1,R,1,Drama,2010\n",
}


@pytest.mark.parametrize("name", EDGE_LOGS)
def test_parse_log_equals_the_row_parser_on_edge_logs(tmp_path, monkeypatch,
                                                      name):
    monkeypatch.setattr(ingest, "CHUNK_CHARS", 200)
    monkeypatch.setattr(ingest, "CHUNK_ROWS", 5)
    path = tmp_path / "log.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(EDGE_LOGS[name])
    assert _outcome(parse_log, path) == _outcome(_reference_parse_log, path)


# The ingest slice of the exit-code contract: a seeded sweep of corrupted logs.

@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    config = out / "config.json"
    config.write_text(json.dumps({"seed": 3, "synth": {
        "n_users": 30, "months_per_user": 2, "poisson_mean": 4.0}}))
    assert cli.run(config, out, only_stage="synth") == 0
    return (out / "log.csv").read_bytes()


def _corrupt(rng: random.Random, data: bytes) -> bytes:
    """One seeded corruption of a log's bytes."""
    header, *lines = data.decode().splitlines()
    kind = rng.randrange(16)
    j = rng.randrange(len(lines))
    cells = lines[j].split(",")
    if kind == 0:                                # an odd cell
        k = rng.randrange(len(cells))
        cells[k] = rng.choice(FUZZ_CELLS[ingest.CSV_COLUMNS[k]][1])
    elif kind == 1:
        cells.pop()                              # a short row
    elif kind == 2:
        cells.append("1")                        # a long row
    elif kind == 3:
        lines.insert(j, "")                      # a blank line
    elif kind == 4:
        lines.insert(j, lines[rng.randrange(len(lines))])   # a repeat
    elif kind == 5:                              # a quoted id
        cells[0] = '"' + rng.choice(["a,b", 'a""b', "a\nb", "a"]) + '"'
    elif kind == 6:
        return (header + "\r\n" + "\r\n".join(lines) + "\r\n").encode()
    elif kind == 7:
        cells[3] += "\0"                         # NUL in an id
    elif kind == 8:
        cells[rng.randrange(len(cells))] = LONG  # over the field limit
    elif kind == 9:
        return (header + "\n").encode()
    elif kind == 10:
        return data.rstrip(b"\n")               # no final newline
    elif kind == 11:
        return "\ufeff".encode() + data          # a BOM
    elif kind == 12:
        return data[:rng.randrange(len(data))]   # truncated
    elif kind == 13:
        at = rng.randrange(len(data))
        return data[:at] + b"\xff" + data[at:]   # not UTF-8
    elif kind == 14:                             # past MAX_BAD_FRACTION
        for k in rng.sample(range(len(lines)), len(lines) // 5):
            lines[k] = lines[k].replace(",R,", ",X,").replace(",P,", ",X,")
    else:                                        # columns in another order
        order = rng.sample(range(len(cells)), len(cells))
        header = ",".join(header.split(",")[k] for k in order)
        lines = [",".join(line.split(",")[k] for k in order)
                 for line in lines]
    if kind < 9 and kind not in (3, 4, 6):
        lines[j] = ",".join(cells)
    return (header + "\n" + "\n".join(lines) + "\n").encode()


def _listing(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_ingest_exit_codes_on_corrupted_logs(small_log, tmp_path, capsys):
    rng = random.Random(7)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stages": ["ingest"]}))
    codes = []
    for case in range(100):
        out = tmp_path / f"case{case}"
        out.mkdir()
        (out / "log.csv").write_bytes(_corrupt(rng, small_log))
        before = _listing(out)
        capsys.readouterr()
        code = cli.run(config, out, only_stage="ingest")
        codes.append(code)
        err = capsys.readouterr().err
        try:
            reference = _reference_parse_log(out / "log.csv")
        except (IngestError, csv.Error, ValueError):
            reference = None
        if code == 3:
            (line,) = err.splitlines()
            assert json.loads(line)["error"] == "data"
            assert _listing(out) == before, case
            assert reference is None, case
            continue
        assert code == 0 and err == "" and reference is not None, case
        ingest.write_log(filter_inactive(reference.record_set),
                         tmp_path / "filtered.csv")
        artifacts.write_json(tmp_path / "diagnostics.json", [
            {"row": d.row, "message": d.message}
            for d in reference.diagnostics])
        assert (out / "filtered.csv").read_bytes() == (
            tmp_path / "filtered.csv").read_bytes(), case
        assert (out / "ingest_diagnostics.json").read_bytes() == (
            tmp_path / "diagnostics.json").read_bytes(), case
    assert 10 < codes.count(3) < 90
