"""The columnar table against a plain per-row reference.

The reference below is the row-at-a-time algorithm: births as each user's
earliest timestamp, the activity filter with per-pass counters, and one
scalar bin per row summed into a dict of user-month rows. The columnar
`tenure_align`, `filter_inactive` and `aggregate` must agree with it exactly
on random tables that contain each edge case the binning and filter rules
have.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import make_record, make_record_set, rows, user_months
from persona_forge import features
from persona_forge.features import aggregate, tenure_align
from persona_forge.ingest import (GENRES, MIN_MONTH_SPEND_CENTS,
                                  MONTH_SECONDS, RecordSet, filter_inactive)


# ---------------------------------------------------------------------------
# Per-row reference

def ref_births(table):
    births = {}
    for r in table:
        if r.user_id not in births or r.timestamp < births[r.user_id]:
            births[r.user_id] = r.timestamp
    return births


def ref_months(table):
    births = ref_births(table)
    return [(r.timestamp - births[r.user_id]) // MONTH_SECONDS for r in table]


def ref_filter(table):
    while True:
        n_before = len(table)
        counts = Counter(r.user_id for r in table)
        table = [r for r in table if counts[r.user_id] > 1]
        months = ref_months(table)
        spend = Counter()
        for r, m in zip(table, months):
            spend[(r.user_id, m)] += r.cents
        table = [r for r, m in zip(table, months)
                 if spend[(r.user_id, m)] >= MIN_MONTH_SPEND_CENTS]
        if len(table) == n_before:
            return table


def ref_bin_price(rental, cents):
    edges = (features.RENTAL_PRICE_EDGES if rental
             else features.PURCHASE_PRICE_EDGES)
    if cents == 0:
        return 0
    for i, edge in enumerate(edges[1:], start=1):
        if cents <= edge:
            return i
    return len(edges)


def ref_bin(r, ch):
    if ch == "ME":
        b = ref_bin_price(r.rental, r.cents)
        return b if r.rental else len(features.RENTAL_PRICE_LABELS) + b
    if ch == "TF":
        if r.rental:
            return 0 if r.cents <= 300 else 1
        for i, edge in enumerate((800, 1600, 2000)):
            if r.cents <= edge:
                return 2 + i
        return 5
    if ch == "DG":
        return GENRES.index(r.genre)
    if ch == "CR":
        for i, edge in enumerate(features.RECENCY_EDGES):
            if r.year < edge:
                return i
        return len(features.RECENCY_EDGES)
    local = r.timestamp + r.offset * 60
    dow = (local // 86400 + 3) % 7
    hour = (local % 86400) // 3600
    if 17 <= hour < 22:
        slot = 1
    elif hour >= 22 or hour < 5:
        slot = 2
    else:
        slot = 0
    return (0 if dow < 5 else 3) + slot


def ref_aggregate(table, ch):
    d = features.CHARACTERIZATION_DIMS[ch]
    acc = {}
    for r, m in zip(table, ref_months(table)):
        row = acc.setdefault((r.user_id, m), np.zeros(d, dtype=np.int64))
        row[ref_bin(r, ch)] += r.cents if ch == "ME" else 1
    keys = sorted(acc)
    values = (np.stack([acc[k] for k in keys]).astype(np.float64) if keys
              else np.zeros((0, d)))
    if ch == "ME":
        values /= 100.0
    return keys, values


# ---------------------------------------------------------------------------
# Random tables with the edge cases planted

OFFSETS = (-840, -480, -300, -1, 0, 60, 840)
EDGE_CENTS = (100, 300, 500, 800, 1000, 1600, 2000)  # price bin edges, and $1


def random_table(seed, n_users=80):
    rng = np.random.default_rng(seed)
    table = []
    for u in range(n_users):
        n = int(rng.integers(1, 8))  # n == 1: a one-transaction user
        birth = int(rng.integers(0, 400)) * 86400 + int(rng.integers(86400))
        offset = int(OFFSETS[rng.integers(len(OFFSETS))])
        for t in range(n):
            kind = rng.random()
            if t == 0:
                ts = birth
            elif kind < 0.25:  # exactly on a 30-day boundary
                ts = birth + int(rng.integers(1, 4)) * MONTH_SECONDS
            elif kind < 0.5:  # within seconds of a local midnight
                day = (birth + offset * 60) // 86400 + int(rng.integers(1, 90))
                ts = day * 86400 - offset * 60 + int(rng.integers(-3, 4))
            else:
                ts = birth + int(rng.integers(0, 3 * MONTH_SECONDS))
            price = rng.random()
            cents = (0 if price < 0.15                         # zero price
                     else int(rng.integers(1, 60)) if price < 0.45  # sub-$1
                     else int(rng.choice(EDGE_CENTS)) if price < 0.6  # bin edge
                     else int(rng.integers(60, 2600)))
            table.append(make_record(
                user=f"u{u:03d}", ts=ts, offset=offset, content=f"c{t}",
                kind="RP"[int(rng.integers(2))], cents=cents,
                genre=GENRES[int(rng.integers(len(GENRES)))],
                year=int(rng.integers(1960, 2017))))
    return table


def _cases(table):
    """How often each planted edge case occurs in a table."""
    counts = Counter(r.user_id for r in table)
    months = ref_months(table)
    spend = Counter()
    for r, m in zip(table, months):
        spend[(r.user_id, m)] += r.cents
    births = ref_births(table)
    return {
        "one-transaction users": sum(1 for c in counts.values() if c == 1),
        "sub-$1 months": sum(1 for v in spend.values() if v < 100),
        "exactly-$1 months": sum(1 for v in spend.values() if v == 100),
        "30-day boundaries": sum(
            1 for r in table if r.timestamp != births[r.user_id]
            and (r.timestamp - births[r.user_id]) % MONTH_SECONDS == 0),
        "zero prices": sum(1 for r in table if r.cents == 0),
        "prices on a bin edge": sum(1 for r in table
                                    if r.cents in EDGE_CENTS),
        "negative offsets near local midnight": sum(
            1 for r in table if r.offset < 0
            and min((r.timestamp + r.offset * 60) % 86400,
                    86400 - (r.timestamp + r.offset * 60) % 86400) <= 3),
    }


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_tables_hold_every_edge_case(seed):
    for case, count in _cases(random_table(seed)).items():
        assert count > 0, case


@pytest.mark.parametrize("seed", SEEDS)
def test_tenure_align_matches_reference(seed):
    rs = make_record_set(*random_table(seed))
    assert tenure_align(rs).tolist() == ref_months(rows(rs))


@pytest.mark.parametrize("seed", SEEDS)
def test_filter_inactive_matches_reference(seed):
    table = random_table(seed)
    out = filter_inactive(make_record_set(*table))
    expected = ref_filter(rows(make_record_set(*table)))
    assert 0 < len(out) < len(table)
    assert rows(out) == expected
    assert out.users == tuple(sorted({r.user_id for r in expected}))
    assert out.contents == tuple(sorted({r.content_id for r in expected}))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ch", features.CHARACTERIZATIONS)
def test_aggregate_matches_reference(seed, ch):
    rs = make_record_set(*random_table(seed))
    for table in (rs, filter_inactive(rs)):
        cm = aggregate(table, tenure_align(table), ch)
        keys, values = ref_aggregate(rows(table), ch)
        assert user_months(cm) == keys
        assert cm.values.dtype == np.float64
        assert cm.values.tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# The constructor

def test_build_interns_sorted_ids_and_sorts_rows():
    table = [make_record(user="b", ts=5, content="y"),
             make_record(user="a", ts=9, content="x"),
             make_record(user="b", ts=5, content="x"),
             make_record(user="a", ts=1, content="z")]
    rs = make_record_set(*table)
    assert rs.users == ("a", "b") and rs.contents == ("x", "y", "z")
    assert rows(rs) == sorted(
        table, key=lambda r: (r.user_id, r.timestamp, r.content_id))
    assert len(rs) == 4
    assert rs.user.tolist() == [0, 0, 1, 1]
    assert rs.content.tolist() == [2, 0, 0, 1]


def test_build_drops_ids_no_row_uses():
    # codes into ("a", "b", "c") and ("x", "y", "z"), with "b" and "x" unused
    rs = RecordSet.build(("a", "b", "c"), [2, 0, 2], [3, 2, 1], [0, 0, 0],
                         ("x", "y", "z"), [1, 2, 2], [True] * 3, [100] * 3,
                         [0] * 3, [2014] * 3)
    assert rs.users == ("a", "c") and rs.contents == ("y", "z")
    assert [(r.user_id, r.timestamp, r.content_id) for r in rows(rs)] == [
        ("a", 2, "z"), ("c", 1, "z"), ("c", 3, "y")]
    assert rs.user.tolist() == [0, 1, 1] and rs.content.tolist() == [1, 1, 0]


def test_take_picks_rows_in_order_and_drops_unused_ids():
    table = [make_record(user=u, ts=t, content=c, cents=t)
             for u, t, c in (("a", 1, "x"), ("a", 2, "y"), ("b", 3, "z"),
                             ("c", 4, "x"))]
    rs = make_record_set(*table)
    mask = rs.take(np.array([True, False, False, True]))
    index = rs.take(np.array([3, 0]))
    assert rows(mask) == [table[0], table[3]]
    assert rows(index) == [table[3], table[0]]
    for picked in (mask, index):
        assert picked.users == ("a", "c") and picked.contents == ("x",)
        assert picked.user.dtype == picked.cents.dtype == np.int64
    assert len(rs.take(np.zeros(4, bool))) == 0
    assert rows(rs.take(np.arange(4))) == rows(rs)


def test_build_keeps_ids_that_differ_in_trailing_nul():
    table = [make_record(user="u\x00", ts=1), make_record(user="u", ts=2)]
    rs = make_record_set(*table)
    assert rs.users == ("u", "u\x00")
    assert [r.user_id for r in rows(rs)] == ["u", "u\x00"]


def test_empty_table():
    rs = make_record_set()
    assert len(rs) == 0 and rs.users == () and rs.contents == ()
    assert tenure_align(rs).tolist() == []
    assert len(filter_inactive(rs)) == 0
    for ch in features.CHARACTERIZATIONS:
        cm = aggregate(rs, tenure_align(rs), ch)
        assert user_months(cm) == [] and cm.values.shape == (0, cm.d)
