import numpy as np
import pytest

from conftest import rows
from persona_forge import features, synth
from persona_forge.features import (bin_frequency, bin_recency, bin_timeday,
                                    me_index, tenure_align)
from persona_forge.ingest import MONTH_SECONDS
from persona_forge.synth import (GeneratorConfig, GeneratorError,
                                 PlantedMixture, SpendModel, default_config,
                                 generate, read_ground_truth,
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


def test_generate_is_deterministic():
    cfg = default_config(30, 2, seed=5)
    rs1, gt1 = generate(cfg)
    rs2, gt2 = generate(default_config(30, 2, seed=5))
    assert rows(rs1) == rows(rs2)
    assert gt1.labels == gt2.labels
    rs3, _ = generate(default_config(30, 2, seed=6))
    assert rows(rs1) != rows(rs3)


def test_every_user_month_has_transactions_and_anchor():
    cfg = default_config(40, 3, seed=1)
    rs, gt = generate(cfg)
    cm = features.aggregate(rs, tenure_align(rs), "TF")
    # tenure alignment reproduces planted user-months (later months may draw
    # zero transactions, so observed keys form a subset)
    planted = set(gt.labels["TF"])
    assert set(cm.keys) <= planted
    users = {u for u, _ in planted}
    assert {(u, 0) for u in users} <= set(cm.keys)
    # the first of each user's rows is their earliest: the tenure birth
    starts = np.flatnonzero(np.r_[True, rs.user[1:] != rs.user[:-1]])
    assert np.array_equal(np.minimum.reduceat(rs.timestamp, starts),
                          rs.timestamp[starts])


def _row_keys(rs):
    return [(rs.users[u], m)
            for u, m in zip(rs.user.tolist(), tenure_align(rs).tolist())]


def test_records_respect_planted_labels():
    cfg = default_config(25, 2, seed=3)
    rs, gt = generate(cfg)
    keys = _row_keys(rs)
    mix = cfg.mixtures
    bins = {"TF": bin_frequency(rs.rental, rs.cents), "DG": rs.genre,
            "CR": bin_recency(rs.year),
            "TDT": bin_timeday(rs.timestamp, rs.offset)}
    for ch, b in bins.items():
        labels = gt.label_array(ch, keys)
        assert np.all(mix[ch].theta[labels, b] > 0), ch


def test_me_mode_spend_lands_in_planted_bins():
    cfg = default_config(25, 1, seed=9, price_mode="me",
                         spend_model=synth.default_spend_model())
    rs, gt = generate(cfg)
    centers = cfg.spend_model.centers
    labels = gt.label_array("ME", _row_keys(rs))
    assert np.all(centers[labels, me_index(rs.rental, rs.cents)] > 0)


def test_no_duplicate_record_keys():
    rs, _ = generate(default_config(60, 2, seed=11))
    keys = [(r.user_id, r.timestamp, r.content_id) for r in rows(rs)]
    assert len(keys) == len(set(keys))


def test_content_ids_key_genre_and_recency():
    rs, _ = generate(default_config(20, 1, seed=2, items_per_cell=3))
    for r in rows(rs):
        g = features.GENRES.index(r.genre)
        cr = bin_recency(r.year)
        assert r.content_id.startswith(f"g{g:02d}r{cr}x")
        assert int(r.content_id.rsplit("x", 1)[1]) < 3


def test_migration_only_hits_niche_clusters():
    pi = np.array([0.5, 0.3, 0.2])
    theta = np.eye(3, 6) * 0.9 + 0.1 / 6
    theta /= theta.sum(axis=1, keepdims=True)
    mix = PlantedMixture(pi, theta, niche=(2,))
    cfg = GeneratorConfig(300, 6, seed=4, mixtures={"TF": mix},
                          migration_rate=1.0, poisson_mean=3.0)
    _, gt = generate(cfg)
    table = gt.labels["TF"]
    users = {u for u, _ in table}
    for u in users:
        labs = [table[(u, m)] for m in range(6)]
        for a, b in zip(labs, labs[1:]):
            if a != 2:
                assert b == a  # non-niche labels never move


def test_no_migration_keeps_labels_constant():
    _, gt = generate(default_config(50, 4, seed=8))
    for ch, table in gt.labels.items():
        users = {u for u, _ in table}
        for u in users:
            labs = {table[(u, m)] for m in range(4)}
            assert len(labs) == 1, ch


def test_spend_realization_is_unbiased():
    rng = np.random.default_rng(0)
    # includes the narrow-bin case where the target falls between feasible sums
    cases = [(13.02, (301, 500)), (23.95, (1601, 2000)), (0.56, (1, 300)),
             (39.86, (1001, 1600)), (2.12, (2001, 2500))]
    for center, price_range in cases:
        total = 0
        n = 20000
        for _ in range(n):
            total += sum(synth._spend_bin_txns(rng, center, price_range))
        mean_usd = total / n / 100.0
        assert abs(mean_usd - center) <= 0.02 * center + 0.02


def test_spend_prices_stay_in_bin():
    rng = np.random.default_rng(1)
    for center in (0.5, 4.0, 23.95, 60.0):
        for _ in range(500):
            for p in synth._spend_bin_txns(rng, center, (1601, 2000)):
                assert 1601 <= p <= 2000


def test_ground_truth_io_roundtrip(tmp_path):
    _, gt = generate(default_config(10, 2, seed=7))
    path = tmp_path / "gt.csv"
    write_ground_truth(gt, path)
    back = read_ground_truth(path)
    assert back.labels == gt.labels


def test_label_array_ordering():
    rs, gt = generate(default_config(15, 2, seed=7))
    cm = features.aggregate(rs, tenure_align(rs), "TF")
    arr = gt.label_array("TF", cm.keys)
    assert arr.shape == (len(cm.keys),)
    assert arr[0] == gt.labels["TF"][cm.keys[0]]


def test_default_me_pi_is_normalized():
    assert abs(synth.DEFAULT_ME_PI.sum() - 1.0) < 1e-12
    for mix in synth.default_mixtures().values():
        assert abs(mix.pi.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(mix.theta.sum(axis=1), 1.0, atol=1e-12)
