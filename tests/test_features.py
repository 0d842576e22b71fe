import datetime

import numpy as np
import pytest

from conftest import (make_record, make_record_set, random_user_months,
                      user_months)
from persona_forge import features
from persona_forge.features import (aggregate, bin_frequency, bin_price,
                                    bin_recency, bin_timeday, me_index,
                                    read_matrix, tenure_align, write_matrix)
from persona_forge.ingest import MONTH_SECONDS


def _bin_oracle(cents, edges):
    # independent oracle: dedicated zero bin, then left-open interval bins
    if cents == 0:
        return 0
    return 1 + int(np.searchsorted(np.array(edges[1:]), cents, side="left"))


@pytest.mark.parametrize("rental,edges,n_bins", [
    (True, features.RENTAL_PRICE_EDGES, 5),
    (False, features.PURCHASE_PRICE_EDGES, 8),
])
def test_bin_price_matches_oracle(rental, edges, n_bins):
    grid = list(range(0, 2600, 7)) + [1, 100, 101, 300, 301, 500, 501, 800,
                                      801, 1000, 1600, 2000, 2001]
    for cents in grid:
        b = bin_price(rental, cents)
        assert b == min(_bin_oracle(cents, edges), n_bins - 1)
        assert 0 <= b < n_bins
    assert bin_price(rental, grid).tolist() == [bin_price(rental, c)
                                                for c in grid]


def test_bin_price_rejects_negative():
    with pytest.raises(ValueError):
        bin_price(True, -1)
    with pytest.raises(ValueError):
        bin_price(np.array([True, False]), np.array([5, -1]))


def test_me_index_layout():
    assert me_index(True, 0) == 0
    assert me_index(True, 50000) == 4
    assert me_index(False, 0) == 5
    assert me_index(False, 50000) == 12
    cents = np.arange(0, 2600, 3)
    seen = set(me_index(True, cents)) | set(me_index(False, cents))
    assert seen == set(range(13))


def test_bin_frequency_matches_coarse_oracle():
    for cents in range(0, 2600, 3):
        b = bin_frequency(True, cents)
        assert b == (0 if cents <= 300 else 1)
        b = bin_frequency(False, cents)
        if cents <= 800:
            assert b == 2
        elif cents <= 1600:
            assert b == 3
        elif cents <= 2000:
            assert b == 4
        else:
            assert b == 5


def test_bin_recency_edges():
    expected = {1970: 0, 1989: 0, 1990: 1, 1999: 1, 2000: 2, 2009: 2,
                2010: 3, 2013: 3, 2014: 4, 2015: 4}
    for year, b in expected.items():
        assert bin_recency(year) == b


def test_bin_timeday_exhaustive_against_calendar():
    # every hour of a full week, several regions; oracle via datetime on the
    # user's local clock
    for offset in (0, -480, -300, 60):
        for day in range(7):
            for hour in range(24):
                local = (16071 + day) * 86400 + hour * 3600 + 1234
                ts = local - offset * 60
                got = bin_timeday(ts, offset)
                dt = datetime.datetime.fromtimestamp(
                    local, tz=datetime.timezone.utc)
                is_weekend = dt.weekday() >= 5
                if 17 <= dt.hour < 22:
                    slot = 1
                elif dt.hour >= 22 or dt.hour < 5:
                    slot = 2
                else:
                    slot = 0
                assert got == (3 if is_weekend else 0) + slot


def test_late_night_stays_on_same_local_day():
    # 23:00 Friday and 01:00 Saturday are different day types: the late-night
    # slot belongs to the local calendar day of the transaction
    friday = 16072  # 2014-01-02 is Thursday, +1 = Friday? verified below
    base = None
    for day in range(16071, 16079):
        if (day + 3) % 7 == 4:  # Friday
            base = day
            break
    assert bin_timeday(base * 86400 + 23 * 3600, 0) == 2       # weekday late
    assert bin_timeday((base + 1) * 86400 + 1 * 3600, 0) == 5  # weekend late


def test_tenure_align_uses_first_transaction():
    rs = make_record_set(
        make_record(user="a", ts=100 + MONTH_SECONDS, content="z"),
        make_record(user="a", ts=100 + MONTH_SECONDS - 1, content="x"),
        make_record(user="a", ts=100, content="y"),
        make_record(user="b", ts=42, content="x"),
    )
    # rows sort to a@100, a@100+M-1, a@100+M, b@42; births are 100 and 42
    assert tenure_align(rs).tolist() == [0, 0, 1, 0]


def test_aggregate_hand_traced():
    rs = make_record_set(
        make_record(user="a", ts=0, content="x", kind="R", cents=250,
                    genre="Comedy", year=1995),
        make_record(user="a", ts=3600, content="y", kind="P", cents=1850,
                    genre="Drama", year=2015),
        make_record(user="a", ts=MONTH_SECONDS + 1, content="z", kind="R",
                    cents=99, genre="Comedy", year=1970),
        make_record(user="b", ts=7, content="x", kind="P", cents=450,
                    genre="Horror", year=2012),
    )
    months = tenure_align(rs)

    me = aggregate(rs, months, "ME")
    assert user_months(me) == [("a", 0), ("a", 1), ("b", 0)]
    assert me.value_kind == "Amount"
    row_a0 = np.zeros(13)
    row_a0[2] = 2.50   # rental (1,3]
    row_a0[11] = 18.50  # purchase (16,20]
    np.testing.assert_allclose(me.values[0], row_a0)
    np.testing.assert_allclose(me.values[1],
                               np.eye(13)[1] * 0.99)

    tf = aggregate(rs, months, "TF")
    assert tf.values[0].tolist() == [1, 0, 0, 0, 1, 0]
    assert tf.values[2].tolist() == [0, 0, 1, 0, 0, 0]

    dg = aggregate(rs, months, "DG")
    assert dg.values[0][features.GENRES.index("Comedy")] == 1
    assert dg.values[0][features.GENRES.index("Drama")] == 1
    assert dg.values[0].sum() == 2

    cr = aggregate(rs, months, "CR")
    assert cr.values[0].tolist() == [0, 1, 0, 0, 1]
    assert cr.values[1].tolist() == [1, 0, 0, 0, 0]

    tdt = aggregate(rs, months, "TDT")
    assert tdt.values[0].sum() == 2


def test_aggregate_unknown_characterization():
    rs = make_record_set(make_record())
    with pytest.raises(ValueError):
        aggregate(rs, tenure_align(rs), "XX")


def test_aggregate_empty():
    rs = make_record_set()
    cm = aggregate(rs, tenure_align(rs), "TF")
    assert cm.values.shape == (0, 6)
    assert user_months(cm) == []


def test_me_amounts_are_exact_cents():
    # cents accumulate as integers before the single division to USD
    recs = [make_record(user="a", ts=i, content=f"c{i}", cents=1)
            for i in range(3)]
    rs = make_record_set(*recs)
    cm = aggregate(rs, tenure_align(rs), "ME")
    assert cm.values[0][1] == 0.03


def _reference_pool_by_user(keys, values):
    """Each user's rows summed in row order through a dict; (users, rows)."""
    pooled = {}
    for (user, _), row in zip(keys, values):
        acc = pooled.get(user)
        if acc is None:
            pooled[user] = row.copy()
        else:
            acc += row
    users = sorted(pooled)
    if not users:
        return users, np.zeros((0, values.shape[1]))
    return users, np.stack([pooled[u] for u in users])


def test_pool_by_user_matches_reference():
    rng = np.random.default_rng(4)
    for _ in range(300):
        users, user, month = random_user_months(rng)
        d = int(rng.integers(1, 14))
        # USD amounts: sums whose bits depend on the order of addition
        values = np.round(rng.exponential(7.0, (len(user), d)), 2)
        cm = features.CharacterizationMatrix("ME", ("x",) * d, users, user,
                                             month, values, "Amount")
        ref_users, ref = _reference_pool_by_user(
            [(users[u], m) for u, m in zip(user, month)], values)
        assert tuple(ref_users) == cm.users
        assert features.pool_by_user(cm).tobytes() == ref.tobytes()


@pytest.mark.parametrize("ch", features.CHARACTERIZATIONS)
def test_matrix_io_roundtrip(tmp_path, ch):
    rng = np.random.default_rng(1)
    recs = []
    for u in range(5):
        for t in range(4):
            recs.append(make_record(
                user=f"u{u}", ts=int(rng.integers(0, 2 * MONTH_SECONDS)),
                content=f"c{t}", kind="RP"[int(rng.integers(2))],
                cents=int(rng.integers(1, 2500)),
                genre=features.GENRES[int(rng.integers(16))],
                year=int(rng.integers(1970, 2016))))
    rs = make_record_set(*recs)
    cm = aggregate(rs, tenure_align(rs), ch)
    path = tmp_path / f"m_{ch}.csv"
    write_matrix(cm, path)
    back = read_matrix(path)
    assert back.characterization == cm.characterization
    assert back.labels == cm.labels
    assert user_months(back) == user_months(cm)
    assert back.value_kind == cm.value_kind
    np.testing.assert_array_equal(back.values, cm.values)
