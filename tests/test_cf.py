import json
from fractions import Fraction

import numpy as np
import pytest

from persona_forge import artifacts, cf
from persona_forge.cf import (CfError, FactorConfig, TemporalContext, cosine,
                              factor_model_to_dict, fit_factor, jaccard,
                              predict_similarity, predict_similarity_temporal,
                              rmse)


def test_cosine_basics():
    assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.zeros(2), np.array([1.0, 1.0])) == 0.0


def test_jaccard_basics():
    assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)
    assert jaccard(set(), set()) == 0.0
    assert jaccard({1}, {1}) == 1.0


def test_predict_similarity_hand_computed():
    sims = {"v1": 0.5, "v2": 0.25, "v3": 0.25}
    transacted = {"v1": 4.0, "v2": 2.0}
    pred = predict_similarity("u", "i", ["v1", "v2", "v3", "u"], transacted,
                              lambda a, b: sims[b])
    # rating: (0.5*4 + 0.25*2) / 0.75; probability: 0.75 / 1.0
    assert pred.rating == pytest.approx(float(Fraction(5, 2) / Fraction(3, 4)))
    assert pred.probability == pytest.approx(0.75)
    assert pred.candidates_examined == 3


def test_predict_similarity_no_transacting_neighbors():
    pred = predict_similarity("u", "i", ["v1"], {}, lambda a, b: 0.4)
    assert pred.rating is None
    assert pred.probability == 0.0


def test_predict_similarity_rejects_negative_similarity():
    with pytest.raises(CfError):
        predict_similarity("u", "i", ["v"], {}, lambda a, b: -0.1)


def test_temporal_prediction_restricts_to_cluster():
    feats = {0: {"u": np.array([1.0, 0.0]), "a": np.array([1.0, 0.1]),
                 "b": np.array([0.9, 0.2])}}
    clusters = {0: {"u": 0, "a": 0, "b": 1}}
    transacted = {0: {"i": {"a": 3.0, "b": 5.0}}}
    ctx = TemporalContext(feats, clusters, transacted)
    pred = predict_similarity_temporal(ctx, "u", "i", horizon=0)
    assert pred.candidates_examined == 1  # only the same-cluster neighbor
    assert pred.rating == pytest.approx(3.0)
    assert pred.probability == pytest.approx(1.0)
    wide = predict_similarity_temporal(ctx, "u", "i", horizon=0,
                                       restrict_to_cluster=False)
    assert wide.candidates_examined == 2


def test_temporal_probability_is_bounded():
    rng = np.random.default_rng(0)
    feats = {t: {f"v{j}": rng.random(3) for j in range(8)} for t in range(3)}
    for t in feats:
        feats[t]["u"] = rng.random(3)
    clusters = {t: {v: 0 for v in feats[t]} for t in feats}
    transacted = {t: {"i": {f"v{j}": 1.0 for j in range(4)}} for t in feats}
    ctx = TemporalContext(feats, clusters, transacted)
    for horizon in range(3):
        pred = predict_similarity_temporal(ctx, "u", "i", horizon)
        assert 0.0 <= pred.probability <= 1.0


def test_temporal_weights_and_horizon():
    feats = {0: {"u": np.ones(2), "a": np.ones(2)},
             1: {"u": np.ones(2), "b": np.ones(2)}}
    clusters = {0: {"u": 0, "a": 0}, 1: {"u": 0, "b": 0}}
    transacted = {0: {"i": {"a": 2.0}}, 1: {"i": {"b": 4.0}}}
    ctx = TemporalContext(feats, clusters, transacted)
    only0 = predict_similarity_temporal(ctx, "u", "i", horizon=0)
    assert only0.rating == pytest.approx(2.0)
    both = predict_similarity_temporal(ctx, "u", "i", horizon=1,
                                       weights={0: 1.0, 1: 3.0})
    assert both.rating == pytest.approx((2.0 + 3 * 4.0) / 4.0)
    with pytest.raises(CfError):
        predict_similarity_temporal(ctx, "u", "i", 1, weights={0: -1.0})


def _toy_ratings(seed=0, n_users=40, n_items=25, per_user=8):
    rng = np.random.default_rng(seed)
    ratings = []
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            ratings.append((u, int(i), float(rng.integers(1, 6))))
    return n_users, n_items, ratings


def test_fit_factor_validation():
    with pytest.raises(CfError):
        fit_factor(2, 2, [(0, 0, 1.0)], "z")
    with pytest.raises(CfError):
        fit_factor(2, 2, [], "vanilla")


@pytest.mark.parametrize("variant", ["vanilla", "d"])
def test_diverging_sgd_raises(variant):
    n_users, n_items, ratings = _toy_ratings(seed=3)
    clusters = np.arange(n_users) % 2
    with pytest.raises(CfError, match="diverged in epoch 1"):
        fit_factor(n_users, n_items, ratings, variant, clusters,
                   config=FactorConfig(lr=5.0, epochs=3, seed=1))


def test_vanilla_training_reduces_rmse():
    n_users, n_items, ratings = _toy_ratings()
    model = fit_factor(n_users, n_items, ratings, "vanilla",
                       config=FactorConfig(epochs=10, seed=1))
    assert model.rmse_trace[-1] < model.rmse_trace[0]
    assert rmse(model, ratings) == pytest.approx(model.rmse_trace[-1])


def test_variant_b_zero_augmentation_matches_vanilla():
    n_users, n_items, ratings = _toy_ratings(seed=2)
    cfg = FactorConfig(epochs=5, seed=4)
    vanilla = fit_factor(n_users, n_items, ratings, "vanilla", config=cfg)
    # no cluster (negative labels): the augmented user vector reduces to p_u
    reduced = fit_factor(n_users, n_items, ratings, "b",
                         clusters=np.full(n_users, -1), config=cfg)
    for u, i, _ in ratings[:50]:
        assert abs(vanilla.predict(u, i) - reduced.predict(u, i)) <= 1e-12


def test_variant_c_zero_augmentation_matches_vanilla():
    n_users, n_items, ratings = _toy_ratings(seed=3)
    cfg = FactorConfig(epochs=5, seed=4)
    vanilla = fit_factor(n_users, n_items, ratings, "vanilla", config=cfg)
    static = np.zeros((n_users, 4))
    reduced = fit_factor(n_users, n_items, ratings, "c", static=static,
                         config=cfg)
    for u, i, _ in ratings[:50]:
        assert abs(vanilla.predict(u, i) - reduced.predict(u, i)) <= 1e-12


def test_variant_a_zero_bias_matches_vanilla_predictions():
    n_users, n_items, ratings = _toy_ratings(seed=5)
    cfg = FactorConfig(epochs=5, seed=4)
    vanilla = fit_factor(n_users, n_items, ratings, "vanilla", config=cfg)
    reduced = fit_factor(n_users, n_items, ratings, "a",
                         clusters=np.full(n_users, -1), config=cfg)
    for u, i, _ in ratings[:50]:
        assert abs(vanilla.predict(u, i) - reduced.predict(u, i)) <= 1e-12


def test_variant_d_partitions_users():
    n_users, n_items, ratings = _toy_ratings(seed=6)
    partition = np.array([u % 2 for u in range(n_users)])
    model = fit_factor(n_users, n_items, ratings, "d", clusters=partition,
                       config=FactorConfig(epochs=5, seed=1))
    assert set(model.submodels) == {0, 1}
    assert model.empty_clusters == []
    u, i, _ = ratings[0]
    assert model.predict(u, i) == model.submodels[partition[u]].predict(u, i)


def test_variant_d_empty_cluster_falls_back_to_mean():
    n_users, n_items, ratings = _toy_ratings(seed=7, n_users=10)
    partition = np.zeros(10, dtype=int)
    partition[-1] = 3
    ratings = [(u, i, r) for u, i, r in ratings if u != 9]
    model = fit_factor(10, n_items, ratings, "d", clusters=partition,
                       config=FactorConfig(epochs=3, seed=1))
    assert model.empty_clusters == [3]
    assert model.predict(9, 0) == model.mu


def test_static_features_shape_check():
    with pytest.raises(CfError):
        fit_factor(3, 3, [(0, 0, 1.0)], "c", static=np.zeros((2, 2)))


@pytest.mark.parametrize("variant", ["a", "b", "d"])
def test_clusters_shape_check(variant):
    with pytest.raises(CfError):
        fit_factor(3, 3, [(0, 0, 1.0)], variant, clusters=[0, 1])
    with pytest.raises(CfError):
        fit_factor(3, 3, [(0, 0, 1.0)], variant)


def _reference_predict(model, u, i):
    """One row's prediction, added up in the order of the per-row model."""
    if model.variant == "d":
        sub = model.submodels.get(int(model.clusters[u]))
        return model.mu if sub is None else _reference_predict(sub, u, i)
    r = model.mu + model.bi[i] + model.bu[u]
    c = -1 if model.clusters is None else model.clusters[u]
    if model.variant == "a" and c >= 0:
        r += model.ba[c]
    p = model.P[u]
    if model.variant == "b" and c >= 0:
        p = p + model.Y[c]
    r += float(model.Q[i] @ p)
    if model.variant == "c":
        r += float(model.Qs[i] @ model.static[u])
    return float(r)


@pytest.mark.parametrize("f", [3, 8, 16])
@pytest.mark.parametrize("variant", ["vanilla", "a", "b", "c", "d"])
def test_batched_predict_matches_per_row_reference(variant, f):
    n_users, n_items, ratings = _toy_ratings(seed=12, n_users=60)
    # labels -1, 0, 1 and 2: a and b see users without a cluster, d sees
    # one submodel per label
    clusters = np.arange(n_users) % 4 - 1
    static = np.random.default_rng(1).random((n_users, 5))
    model = fit_factor(n_users, n_items, ratings, variant, clusters=clusters,
                       static=static, config=FactorConfig(f=f, epochs=3,
                                                          seed=2))
    users = np.array([u for u, _, _ in ratings] + [0, 59])
    items = np.array([i for _, i, _ in ratings] + [3, 24])
    expected = [_reference_predict(model, u, i) for u, i in zip(users, items)]
    assert model.predict(users, items).tolist() == expected
    assert [model.predict(int(u), int(i))
            for u, i in zip(users, items)] == expected
    errs = [(r - _reference_predict(model, u, i)) ** 2 for u, i, r in ratings]
    assert rmse(model, ratings) == float(np.sqrt(np.mean(errs)))
    assert model.rmse_trace[-1] == rmse(model, ratings)


def test_fit_is_deterministic():
    n_users, n_items, ratings = _toy_ratings(seed=8)
    cfg = FactorConfig(epochs=4, seed=9)
    m1 = fit_factor(n_users, n_items, ratings, "vanilla", config=cfg)
    m2 = fit_factor(n_users, n_items, ratings, "vanilla", config=cfg)
    np.testing.assert_array_equal(m1.P, m2.P)
    np.testing.assert_array_equal(m1.bu, m2.bu)
    assert m1.rmse_trace == m2.rmse_trace


def test_factor_model_json():
    n_users, n_items, ratings = _toy_ratings(seed=10, n_users=6, n_items=5,
                                             per_user=4)
    model = fit_factor(n_users, n_items, ratings, "vanilla",
                       config=FactorConfig(epochs=2, seed=1))
    text = artifacts.to_json(factor_model_to_dict(model))
    payload = json.loads(text)
    assert payload["variant"] == "vanilla"
    assert artifacts.to_json(factor_model_to_dict(model)) == text
