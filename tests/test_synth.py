import datetime
import itertools
import math

import numpy as np
import pytest

from conftest import default_config, rows, user_months
from persona_forge import artifacts, features, synth
from persona_forge.features import (bin_frequency, bin_recency, bin_timeday,
                                    me_index, tenure_align)
from persona_forge.ingest import MONTH_SECONDS
from persona_forge.synth import (GeneratorConfig, GeneratorError,
                                 PlantedMixture, SpendModel, generate,
                                 write_ground_truth)

TF = PlantedMixture(np.array([0.5, 0.5]),
                    np.array([[0.7, 0.3, 0, 0, 0, 0.0],
                              [0, 0, 0.2, 0.3, 0.3, 0.2]]))


def test_mixture_validation():
    with pytest.raises(GeneratorError):
        PlantedMixture(np.array([0.5, 0.4]), np.eye(2))  # pi off simplex
    with pytest.raises(GeneratorError):
        PlantedMixture(np.array([0.5, 0.5]),
                       np.array([[0.9, 0.2], [0.5, 0.5]]))  # bad theta row
    with pytest.raises(GeneratorError):
        PlantedMixture(np.array([1.0]), np.array([[1.0]]), niche=(1,))
    with pytest.raises(GeneratorError):  # nan - 1 compares False to any tol
        PlantedMixture(np.array([0.5, np.nan]), np.eye(2))
    with pytest.raises(GeneratorError):
        PlantedMixture(np.array([0.5, 0.5]), np.array([[np.nan, 0.5],
                                                       [0.5, 0.5]]))


def test_spend_model_validation():
    centers = np.zeros((2, 13))
    centers[:, 2] = 5.0
    SpendModel(np.array([0.5, 0.5]), centers)  # fine
    bad = centers.copy()
    bad[0, 0] = 1.0  # exact-zero rental bin cannot carry spend
    with pytest.raises(GeneratorError):
        SpendModel(np.array([0.5, 0.5]), bad)
    with pytest.raises(GeneratorError):
        SpendModel(np.array([0.5, 0.5]), centers[:, :12])
    for value in (np.nan, np.inf):
        bad = centers.copy()
        bad[1, 3] = value
        with pytest.raises(GeneratorError):
            SpendModel(np.array([0.5, 0.5]), bad)
    with pytest.raises(GeneratorError):
        SpendModel(np.array([np.nan, 1.0]), centers)


def test_config_validation():
    with pytest.raises(GeneratorError):
        GeneratorConfig(0, 1, mixtures={"TF": TF})
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, price_mode="tf")  # needs a TF mixture
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, price_mode="me", mixtures={"TF": TF})
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, mixtures={"TF": TF}, migration_rate=1.5)
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, mixtures={"TF": TF}, poisson_mean=0.0)
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, mixtures={"TF": TF}, poisson_mean=float("nan"))
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, mixtures={"TF": TF, "ME": TF})
    with pytest.raises(GeneratorError):
        GeneratorConfig(5, 1, mixtures={"TF": TF}, items_per_cell=0)
    for items in (10**18, 10**30):  # 16 genres x 5 recencies x items > int64
        with pytest.raises(GeneratorError):
            GeneratorConfig(5, 1, mixtures={"TF": TF}, items_per_cell=items)
    with pytest.raises(GeneratorError):  # raised before anything is allocated
        GeneratorConfig(10**30, 1, mixtures={"TF": TF})


def test_generate_is_deterministic():
    cfg = default_config(30, 2, seed=5)
    rs1, gt1 = generate(cfg)
    rs2, gt2 = generate(default_config(30, 2, seed=5))
    assert rows(rs1) == rows(rs2)
    assert gt1.users == gt2.users and gt1.labels.keys() == gt2.labels.keys()
    for ch, table in gt1.labels.items():
        np.testing.assert_array_equal(table, gt2.labels[ch])
    rs3, _ = generate(default_config(30, 2, seed=6))
    assert rows(rs1) != rows(rs3)


def test_every_user_month_has_transactions_and_anchor():
    cfg = default_config(40, 3, seed=1)
    rs, gt = generate(cfg)
    cm = features.aggregate(rs, tenure_align(rs), "TF")
    # tenure alignment reproduces planted user-months (later months may draw
    # zero transactions, so observed keys form a subset)
    assert gt.labels["TF"].shape == (40, 3)
    planted = {(u, m) for u in gt.users for m in range(3)}
    assert set(user_months(cm)) <= planted
    assert {(u, 0) for u in gt.users} <= set(user_months(cm))
    # the first of each user's rows is their earliest: the tenure birth
    starts = np.flatnonzero(np.r_[True, rs.user[1:] != rs.user[:-1]])
    assert np.array_equal(np.minimum.reduceat(rs.timestamp, starts),
                          rs.timestamp[starts])


def test_records_respect_planted_labels():
    cfg = default_config(25, 2, seed=3)
    rs, gt = generate(cfg)
    months = tenure_align(rs)
    mix = cfg.mixtures
    for ch, b in _planted_bins(rs).items():
        labels = gt.label_array(ch, rs.users, rs.user, months)
        assert np.all(mix[ch].theta[labels, b] > 0), ch


def test_me_mode_spend_lands_in_planted_bins():
    cfg = default_config(25, 1, seed=9, price_mode="me",
                         spend_model=synth.default_spend_model())
    rs, gt = generate(cfg)
    centers = cfg.spend_model.centers
    labels = gt.label_array("ME", rs.users, rs.user, tenure_align(rs))
    assert np.all(centers[labels, me_index(rs.rental, rs.cents)] > 0)


def test_no_duplicate_record_keys():
    rs, _ = generate(default_config(60, 2, seed=11))
    keys = [(r.user_id, r.timestamp, r.content_id) for r in rows(rs)]
    assert len(keys) == len(set(keys))


def test_content_ids_key_genre_and_recency():
    # at 12 items per cell, "x10" sorts before "x2": name order is not the
    # order of the cell codes
    for items in (3, 12):
        rs, _ = generate(default_config(20, 1, seed=2, items_per_cell=items))
        for r in rows(rs):
            g = features.GENRES.index(r.genre)
            cr = bin_recency(r.year)
            assert r.content_id.startswith(f"g{g:02d}r{cr}x")
            assert int(r.content_id.rsplit("x", 1)[1]) < items
        assert rs.contents == tuple(sorted({r.content_id for r in rows(rs)}))


def test_migration_only_hits_niche_clusters():
    pi = np.array([0.5, 0.3, 0.2])
    theta = np.eye(3, 6) * 0.9 + 0.1 / 6
    theta /= theta.sum(axis=1, keepdims=True)
    mix = PlantedMixture(pi, theta, niche=(2,))
    cfg = GeneratorConfig(300, 6, seed=4, mixtures={"TF": mix},
                          migration_rate=1.0, poisson_mean=3.0,
                          items_per_cell=1)
    _, gt = generate(cfg)
    t = gt.labels["TF"]
    assert t.shape == (300, 6)
    # non-niche labels never move
    assert np.all((t[:, 1:] == t[:, :-1]) | (t[:, :-1] == 2))
    assert np.any(t[:, 1:] != t[:, :-1])


def test_no_migration_keeps_labels_constant():
    _, gt = generate(default_config(50, 4, seed=8))
    for ch, t in gt.labels.items():
        assert t.shape == (50, 4), ch
        assert np.all(t == t[:, :1]), ch


def _planted_bins(rs):
    """Each row's bin of the four planted count facets."""
    return {"TF": bin_frequency(rs.rental, rs.cents), "DG": rs.genre,
            "CR": bin_recency(rs.year),
            "TDT": bin_timeday(rs.timestamp, rs.offset)}


@pytest.mark.parametrize("price_mode", ["tf", "me"])
def test_rows_keep_the_calendar_invariants(price_mode):
    # TDT label j plants bin j only, and every TDT label may migrate, so a
    # row's drawn TDT bin is its own month's label
    tdt = PlantedMixture(np.full(6, 1 / 6), np.eye(6), niche=tuple(range(6)))
    mixtures = {"TDT": tdt}
    if price_mode == "tf":
        mixtures["TF"] = synth.default_mixtures()["TF"]
    cfg = GeneratorConfig(400, 4, seed=12, mixtures=mixtures,
                          price_mode=price_mode, migration_rate=0.5,
                          spend_model=synth.default_spend_model())
    rs, gt = generate(cfg)
    months = tenure_align(rs)
    local = rs.timestamp + rs.offset * 60
    local_day = local // 86400
    first = np.searchsorted(rs.user, rs.user)  # each row's user's first row
    birth = np.arange(len(rs)) == first
    # the birth row is the user's earliest row and opens month 0
    assert np.all(rs.timestamp >= rs.timestamp[first])
    assert np.all(months[birth] == 0)
    # every later row falls on local days 1-28 of its 30-day month
    day = local_day - local_day[first] - 30 * months
    assert np.all((day[~birth] >= 1) & (day[~birth] <= 28))
    # local hour in the TDT slot, day type matching the TDT bin
    label = gt.label_array("TDT", rs.users, rs.user, months)
    in_slot = np.zeros((3, 24), dtype=bool)
    for slot, size in enumerate(synth._SLOT_SIZES):
        in_slot[slot, synth._SLOT_HOURS[slot, :size]] = True
    assert np.all(in_slot[label % 3, (local % 86400) // 3600])
    weekend = (local_day + 3) % 7 >= 5
    np.testing.assert_array_equal(weekend, label >= 3)
    np.testing.assert_array_equal(bin_timeday(rs.timestamp, rs.offset), label)
    # (user, ts, content) keys are unique
    keys = np.column_stack([rs.user, rs.timestamp, rs.content])
    assert len(np.unique(keys, axis=0)) == len(rs)


def test_planted_ranges_end_in_their_bins():
    # each planted range's ends bin where the readers bin them; one cent or
    # year past an end is in the neighbouring bin wherever that bin exists
    prices = [(synth._TF_LOW, synth._TF_HIGH, synth._TF_RENTAL, bin_frequency),
              (synth._ME_LOW, synth._ME_HIGH, synth._ME_RENTAL, me_index)]
    # only the exact-zero ME bins, where 0 cents falls, are left unplanted
    assert np.all(synth._TF_LOW <= synth._TF_HIGH)
    unplanted = np.flatnonzero(synth._ME_LOW > synth._ME_HIGH)
    np.testing.assert_array_equal(unplanted,
                                  me_index(np.array([True, False]), 0))
    for low, high, rental, to_bin in prices:
        for b in np.flatnonzero(low <= high).tolist():
            r = rental[b]
            assert to_bin(r, low[b]) == b and to_bin(r, high[b]) == b
            if b > 0 and rental[b - 1] == r:
                assert to_bin(r, low[b] - 1) == b - 1
            if b + 1 < len(low) and rental[b + 1] == r:
                assert to_bin(r, high[b] + 1) == b + 1
    low, high = synth._YEAR_LOW, synth._YEAR_HIGH
    assert len(low) == features.CHARACTERIZATION_DIMS["CR"]
    np.testing.assert_array_equal(bin_recency(low), np.arange(len(low)))
    np.testing.assert_array_equal(bin_recency(high), np.arange(len(low)))
    np.testing.assert_array_equal(bin_recency(low[1:] - 1),
                                  np.arange(len(low) - 1))
    np.testing.assert_array_equal(bin_recency(high[:-1] + 1),
                                  np.arange(1, len(low)))


def test_planted_hours_fall_in_their_slots():
    # a week of local days, each hour's first and last second, in every
    # region: the local day type and slot are the planted ones
    epoch = datetime.date(1970, 1, 1)
    day = np.arange(16071, 16078)  # 2014-01-01 to 2014-01-07
    weekend = np.array([(epoch + datetime.timedelta(int(d))).weekday() >= 5
                        for d in day])
    assert weekend.any() and not weekend.all()
    planted = []
    for slot, size in enumerate(synth._SLOT_SIZES.tolist()):
        for hour in synth._SLOT_HOURS[slot, :size].tolist():
            planted.append(hour)
            for second, offset in itertools.product((0, 3599),
                                                    synth.REGION_OFFSETS):
                local = day * 86400 + hour * 3600 + second
                np.testing.assert_array_equal(
                    bin_timeday(local - offset * 60, offset),
                    np.where(weekend, 3, 0) + slot)
    assert sorted(planted) == [h for h in range(24) if not 5 <= h < 10]


def test_weekday_matches_the_calendar():
    epoch = datetime.date(1970, 1, 1)
    days = np.arange(-1000, 1001)
    expected = [(epoch + datetime.timedelta(int(d))).weekday() for d in days]
    np.testing.assert_array_equal(features.weekday(days), expected)


def test_bump_collisions_moves_repeats_one_second_at_a_time():
    user = np.array([0, 0, 0, 0, 1, 0])
    ts = np.array([5, 5, 5, 6, 5, 5])
    code = np.array([1, 1, 1, 1, 1, 2])
    synth._bump_collisions(user, ts, code)
    assert sorted(ts[(user == 0) & (code == 1)]) == [5, 6, 7, 8]
    assert ts[4] == 5 and ts[5] == 5


class _BumpFirst(synth.RecordSet):
    """The generator's former order: every repeated key bumped, then one
    sort. Content codes group rows into keys as the item codes do."""

    @classmethod
    def build(cls, users, user, timestamp, offset, contents, content, *rest):
        timestamp = np.array(timestamp)
        synth._bump_collisions(user, timestamp, content)
        return super().build(users, user, timestamp, offset, contents,
                             content, *rest)


@pytest.mark.parametrize("items_per_cell", [1, 10, 12])
def test_repeated_keys_are_bumped_as_before_one_sort(monkeypatch,
                                                     items_per_cell):
    # one day and one hour per TDT slot, one genre, recency and slot: many
    # rows share a second, some more than once over (items_per_cell > 10
    # sorts content names out of code order)
    one = {ch: PlantedMixture(np.array([1.0]), np.eye(d)[[1]])
           for ch, d in (("DG", 16), ("CR", 5), ("TDT", 6))}
    cfg = GeneratorConfig(30, 2, seed=0, items_per_cell=items_per_cell,
                          poisson_mean=150.0,
                          mixtures={"TF": synth.default_mixtures()["TF"],
                                    **one})
    monkeypatch.setattr(synth, "_SLOT_SIZES", np.ones(3, np.int64))
    monkeypatch.setattr(synth, "_DAYS_PER_TYPE", np.ones(2, np.int64))
    bumps, bump = [], synth._bump_collisions
    monkeypatch.setattr(synth, "_bump_collisions",
                        lambda *args: bumps.append(bump(*args)))
    rs, _ = generate(cfg)
    assert bumps  # the keys did repeat
    monkeypatch.setattr(synth, "RecordSet", _BumpFirst)
    expected, _ = generate(cfg)
    assert rows(rs) == rows(expected)
    keys = {(r.user_id, r.timestamp, r.content_id) for r in rows(rs)}
    assert len(keys) == len(rs)


def test_planted_bin_shares_match_theta():
    # one cluster per facet, so every row draws from one theta row; each
    # share lies within 5 binomial standard errors of its theta entry, and
    # zero-share bins stay empty
    rows = {"TF": synth.DEFAULT_TF_THETA[2], "DG": synth.DEFAULT_DG_THETA[2],
            "CR": synth.DEFAULT_CR_THETA[2], "TDT": synth.DEFAULT_TDT_THETA[2]}
    cfg = GeneratorConfig(3000, 1, seed=21, mixtures={
        ch: PlantedMixture(np.array([1.0]), p[None])
        for ch, p in rows.items()})
    rs, _ = generate(cfg)
    n = len(rs)
    for ch, b in _planted_bins(rs).items():
        p = rows[ch]
        share = np.bincount(b, minlength=len(p)) / n
        assert np.all(np.abs(share - p) <= 5 * np.sqrt(p * (1 - p) / n)), ch


def test_niche_migration_rate():
    # a niche label is redrawn from pi with probability r, so it changes
    # with probability r * (1 - pi[niche]); month-0 labels follow pi
    pi = np.array([0.5, 0.3, 0.2])
    mix = PlantedMixture(pi, synth.DEFAULT_TF_THETA[:3], niche=(2,))
    r = 0.4
    cfg = GeneratorConfig(5000, 4, seed=31, mixtures={"TF": mix},
                          migration_rate=r, poisson_mean=1.0)
    _, gt = generate(cfg)
    t = gt.labels["TF"]
    share = np.bincount(t[:, 0], minlength=3) / len(t)
    assert np.all(np.abs(share - pi) <= 5 * np.sqrt(pi * (1 - pi) / len(t)))
    at_niche = t[:, :-1] == 2
    moved = (t[:, 1:] != 2)[at_niche]
    p = r * (1 - pi[2])
    assert abs(moved.mean() - p) <= 5 * np.sqrt(p * (1 - p) / len(moved))
    assert np.all(t[:, 1:][~at_niche] == t[:, :-1][~at_niche])


def test_spend_realization_is_unbiased():
    rng = np.random.default_rng(0)
    # includes the narrow-bin case where the target falls between feasible sums
    cases = [(13.02, (301, 500)), (23.95, (1601, 2000)), (0.56, (1, 300)),
             (39.86, (1001, 1600)), (2.12, (2001, 2500))]
    for center, (low, high) in cases:
        n = 20000
        _, prices = synth._spend_bin_txns(rng, np.full(n, center), low, high)
        mean_usd = prices.sum() / n / 100.0
        assert abs(mean_usd - center) <= 0.02 * center + 0.02


def _reference_spend_bin_txns(target, coin, low, high):
    """The spend rule of one cell as a price list, given the cell's target
    (cents) and its uniform coin."""
    if target <= 0:
        return []
    if target < low:
        return [low] if coin < target / low else []
    k = max(1, math.ceil(target / high))
    base = target // k
    if base >= low:
        r = target - base * k
        return [base + 1] * r + [base] * (k - r)
    k = target // high
    lo_sum, hi_sum = k * high, (k + 1) * low
    if coin < (target - lo_sum) / (hi_sum - lo_sum):
        return [low] * (k + 1)
    return [high] * k


@pytest.mark.parametrize("low,high", sorted(
    {(lo, hi) for lo, hi in zip(synth._ME_LOW.tolist(),
                                synth._ME_HIGH.tolist()) if lo <= hi}))
def test_spend_cells_match_scalar_rule(low, high):
    centers = np.random.default_rng(3).uniform(0.0, 60.0, 2000)
    centers[::10] = 0.0
    cell, prices = synth._spend_bin_txns(np.random.default_rng(4), centers,
                                         low, high)
    # the same draws, in the helper's order: one scale, then one coin, each
    rng = np.random.default_rng(4)
    scale = np.maximum(0.3, rng.normal(1.0, 0.15, size=len(centers)))
    coin = rng.random(len(centers))
    targets = [int(round(c * 100 * scale[j]))
               for j, c in enumerate(centers.tolist())]
    expected = [(j, p) for j, target in enumerate(targets)
                for p in _reference_spend_bin_txns(target, coin[j], low, high)]
    assert list(zip(cell.tolist(), prices.tolist())) == expected
    # every even cell (k prices of at least the floor) sums to its target
    targets = np.array(targets)
    k = np.maximum(1, -(-targets // high))
    even = (targets >= low) & (targets // k >= low)
    assert even.any()
    sums = np.bincount(cell, weights=prices, minlength=len(targets))
    np.testing.assert_array_equal(sums[even], targets[even])


def test_spend_prices_stay_in_bin():
    rng = np.random.default_rng(1)
    for center in (0.5, 4.0, 23.95, 60.0):
        _, prices = synth._spend_bin_txns(rng, np.full(500, center),
                                          1601, 2000)
        assert np.all((1601 <= prices) & (prices <= 2000))


def test_ground_truth_io_roundtrip(tmp_path):
    _, gt = generate(default_config(10, 2, seed=7))
    path = tmp_path / "gt.csv"
    write_ground_truth(gt, path)
    back = {ch: np.zeros_like(t) for ch, t in gt.labels.items()}
    header, *chunks = artifacts.read_csv(path)
    assert all(good.all() for good, _ in chunks)
    cells = [cell for _, part in chunks for cell in part]
    for user, month, ch, label in zip(*[iter(cells)] * len(header)):
        back[ch][gt.users.index(user), int(month)] = int(label)
    for ch, t in gt.labels.items():
        np.testing.assert_array_equal(back[ch], t)
    assert sum(len(good) for good, _ in chunks) == 4 * 10 * 2


def _reference_write_ground_truth(labels, path):
    """The dict writer: `labels` maps ch -> {(user, month): label}."""
    user, month, ch, label = zip(*(
        (user, month, ch, label) for ch in sorted(labels)
        for (user, month), label in sorted(labels[ch].items())))
    row = np.arange(len(user))  # each row's text in a table of its own
    artifacts.write_csv(
        path, ["user_id", "month_index", "characterization", "label"],
        [(user, row), np.array(month), (ch, row), np.array(label)])


@pytest.mark.parametrize("n_users", [1, 9, 10, 40])
@pytest.mark.parametrize("months", [1, 2, 3, 4])
def test_ground_truth_csv_matches_dict_reference(tmp_path, n_users, months):
    cfg = default_config(n_users, months, seed=n_users + months,
                         price_mode="me", migration_rate=0.5,
                         spend_model=SpendModel(synth.DEFAULT_ME_PI,
                                                synth.DEFAULT_ME_CENTERS,
                                                niche=(0, 2)))
    _, gt = generate(cfg)
    dicts = {ch: {(u, m): int(t[i, m]) for i, u in enumerate(gt.users)
                  for m in range(months)} for ch, t in gt.labels.items()}
    write_ground_truth(gt, tmp_path / "gt.csv")
    _reference_write_ground_truth(dicts, tmp_path / "ref.csv")
    assert (tmp_path / "gt.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


def test_label_array_ordering():
    rs, gt = generate(default_config(15, 2, seed=7))
    cm = features.aggregate(rs, tenure_align(rs), "TF")
    arr = gt.label_array("TF", cm.users, cm.user, cm.month)
    assert arr.shape == (len(cm.user),)
    for j, (u, m) in enumerate(user_months(cm)):
        assert arr[j] == gt.labels["TF"][gt.users.index(u), m]


def test_default_me_pi_is_normalized():
    assert abs(synth.DEFAULT_ME_PI.sum() - 1.0) < 1e-12
    for mix in synth.default_mixtures().values():
        assert abs(mix.pi.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(mix.theta.sum(axis=1), 1.0, atol=1e-12)
