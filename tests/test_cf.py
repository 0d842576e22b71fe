import json
from fractions import Fraction

import numpy as np
import pytest

from persona_forge import artifacts, cf, features, mixture, synth
from persona_forge.cf import (CfError, FactorConfig, factor_model_to_dict,
                              fit_factor, predict_similarity,
                              predict_similarity_temporal, rmse)


def _reference_cosine(a, b):
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b) / (na * nb)


def _reference_predict_similarity(user, candidates, transacted, sim):
    """One candidate at a time: `transacted` maps the candidates that rated
    the item to their ratings, `sim(user, v)` gives a similarity."""
    num_r = den_r = total = 0.0
    examined = 0
    for v in candidates:
        if v == user:
            continue
        s = sim(user, v)
        if s < 0:
            raise CfError("similarities must be non-negative")
        examined += 1
        total += s
        r = transacted.get(v)
        if r is not None:
            num_r += s * r
            den_r += s
    rating = num_r / den_r if den_r > 0 else None
    probability = den_r / total if total > 0 else 0.0
    return cf.SimilarityPrediction(rating, probability, examined)


def _reference_predict_similarity_temporal(feats, clusters, transacted, user,
                                           horizon, weights=None,
                                           restrict_to_cluster=True):
    """Month by month over dicts: `feats[t][v]` is v's month-t row,
    `clusters[t][v]` its label and `transacted[t][v]` its rating."""
    num_r = den_r = den_p = 0.0
    examined = 0
    for t in sorted(feats):
        if t > horizon or user not in feats[t]:
            continue
        w = 1.0 if weights is None else float(weights.get(t, 0.0))
        if w < 0:
            raise CfError("weights must be non-negative")
        if w == 0.0:
            continue
        label = clusters[t].get(user)
        for v, v_t in feats[t].items():
            if v == user or (restrict_to_cluster
                             and clusters[t].get(v) != label):
                continue
            s = w * _reference_cosine(feats[t][user], v_t)
            examined += 1
            den_p += s
            r = transacted.get(t, {}).get(v)
            if r is not None:
                num_r += s * r
                den_r += s
    rating = num_r / den_r if den_r > 0 else None
    probability = den_r / den_p if den_p > 0 else 0.0
    return cf.SimilarityPrediction(rating, probability, examined)


def _month_dicts(keys, values, labels, ratings):
    """The row arrays as the reference's per-month dicts."""
    feats, clusters, transacted = {}, {}, {}
    for (user, t), row, label, r in zip(keys, values, labels, ratings):
        feats.setdefault(t, {})[user] = row
        clusters.setdefault(t, {})[user] = int(label)
        if not np.isnan(r):
            transacted.setdefault(t, {})[user] = float(r)
    return feats, clusters, transacted


def _same(pred, ref):
    assert pred.candidates_examined == ref.candidates_examined
    assert (pred.rating is None) == (ref.rating is None)
    if ref.rating is not None:
        assert abs(pred.rating - ref.rating) <= 1e-12 * max(1, abs(ref.rating))
    assert abs(pred.probability - ref.probability) <= 1e-12


def test_predict_similarity_hand_computed():
    # rating: (0.5*4 + 0.25*2) / 0.75; probability: 0.75 / 1.0
    pred = predict_similarity([0.5, 0.25, 0.25], [4.0, 2.0, np.nan])
    assert pred.rating == pytest.approx(float(Fraction(5, 2) / Fraction(3, 4)))
    assert pred.probability == pytest.approx(0.75)
    assert pred.candidates_examined == 3


def test_predict_similarity_no_transacting_neighbors():
    pred = predict_similarity([0.4], [np.nan])
    assert pred.rating is None
    assert pred.probability == 0.0


def test_predict_similarity_rejects_negative_similarity():
    with pytest.raises(CfError):
        predict_similarity([-0.1], [np.nan])


def test_predict_similarity_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(0, 12))
        sims = rng.random(n) * (rng.random(n) < 0.8)
        ratings = np.where(rng.random(n) < 0.5, rng.uniform(1, 5, n), np.nan)
        candidates = [f"v{j}" for j in range(n)]
        ref = _reference_predict_similarity(
            "u", candidates + ["u"],
            {v: r for v, r in zip(candidates, ratings) if not np.isnan(r)},
            lambda a, b: sims[candidates.index(b)])
        _same(predict_similarity(sims, ratings), ref)


def test_temporal_prediction_restricts_to_cluster():
    # users a, b, u, z (codes 0-3) in month 0; the query is u
    user, month = [0, 1, 2, 3], [0, 0, 0, 0]
    values = [[1.0, 0.1], [0.9, 0.2], [1.0, 0.0], [0.0, 0.0]]
    labels = [0, 1, 0, 0]
    ratings = [3.0, 5.0, np.nan, 1.0]
    pred = predict_similarity_temporal(user, month, values, labels, ratings,
                                       2, horizon=0)
    # the same-cluster neighbours a and z; z's zero row has similarity 0
    assert pred.candidates_examined == 2
    assert pred.rating == pytest.approx(3.0)
    assert pred.probability == pytest.approx(1.0)
    wide = predict_similarity_temporal(user, month, values, labels, ratings,
                                       2, horizon=0, restrict_to_cluster=False)
    assert wide.candidates_examined == 3


def test_temporal_probability_is_bounded():
    rng = np.random.default_rng(0)
    # users v0-v7 (codes 0-7) and the query u (code 8), months 0-2 each
    user, month = np.repeat(np.arange(9), 3), np.tile(np.arange(3), 9)
    ratings = np.where(user < 4, 1.0, np.nan)
    values = rng.random((len(user), 3))
    labels = np.zeros(len(user), dtype=np.int64)
    for horizon in range(3):
        pred = predict_similarity_temporal(user, month, values, labels,
                                           ratings, 8, horizon)
        assert 0.0 <= pred.probability <= 1.0


def test_temporal_weights_and_horizon():
    # rows a0, u0, b1, u1 with codes a 0, b 1, u 2; the query is u
    user, month = [0, 2, 1, 2], [0, 0, 1, 1]
    values = np.ones((4, 2))
    labels = [0, 0, 0, 0]
    ratings = [2.0, np.nan, 4.0, np.nan]
    only0 = predict_similarity_temporal(user, month, values, labels, ratings,
                                        2, horizon=0)
    assert only0.rating == pytest.approx(2.0)
    both = predict_similarity_temporal(user, month, values, labels, ratings,
                                       2, horizon=1, weights={0: 1.0, 1: 3.0})
    assert both.rating == pytest.approx((2.0 + 3 * 4.0) / 4.0)
    with pytest.raises(CfError):
        predict_similarity_temporal(user, month, values, labels, ratings, 2,
                                    1, weights={0: -1.0})


def _random_rows(rng):
    """User-month rows of a few users: count features (some all zero),
    labels and ratings; a query user, a horizon and month weights."""
    n_months = int(rng.integers(1, 5))
    keys = [(f"v{j}", t) for j in range(int(rng.integers(2, 10)))
            for t in range(n_months) if rng.random() < 0.8]
    values = rng.integers(0, 3, (len(keys), int(rng.integers(1, 5))))
    labels = rng.integers(0, int(rng.integers(1, 4)), len(keys))
    ratings = np.where(rng.random(len(keys)) < 0.4,
                       rng.integers(1, 6, len(keys)), np.nan)
    user = keys[int(rng.integers(len(keys)))][0] if keys else "v0"
    horizon = int(rng.integers(-1, n_months + 1))
    weights = None if rng.random() < 0.3 else {
        t: float(rng.uniform(0, 2)) * (rng.random() < 0.8)
        for t in range(n_months) if rng.random() < 0.8}
    return (keys, values.astype(float), labels, ratings, user, horizon,
            weights)


def test_temporal_prediction_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(600):
        keys, values, labels, ratings, user, horizon, weights = (
            _random_rows(rng))
        ids = sorted({v for v, _ in keys} | {user})
        codes = [ids.index(v) for v, _ in keys]
        months = [t for _, t in keys]
        for restrict in (True, False):
            pred = predict_similarity_temporal(codes, months, values, labels,
                                               ratings, ids.index(user),
                                               horizon, weights, restrict)
            ref = _reference_predict_similarity_temporal(
                *_month_dicts(keys, values, labels, ratings), user, horizon,
                weights, restrict)
            _same(pred, ref)


def test_temporal_prediction_on_pipeline_rows():
    rs, _ = synth.generate(synth.GeneratorConfig(
        n_users=80, months_per_user=2, seed=3,
        mixtures=synth.default_mixtures(), poisson_mean=6.0,
        items_per_cell=1))
    months = features.tenure_align(rs)
    cm = features.aggregate(rs, months, "TF")
    _, assign = mixture.fit_em(cm.values, 3, mixture.EMConfig(restarts=1,
                                                              seed=0))
    # the row user's count of the most rented item in that month
    item = int(np.bincount(rs.content).argmax())
    # cm.users is rs.users, so both share user codes
    row = {key: j for j, key in enumerate(zip(cm.user.tolist(),
                                              cm.month.tolist()))}
    ratings = np.full(len(cm.user), np.nan)
    for u, t in zip(rs.user[rs.content == item].tolist(),
                    months[rs.content == item].tolist()):
        j = row[(u, t)]
        ratings[j] = (0.0 if np.isnan(ratings[j]) else ratings[j]) + 1.0
    query = int(cm.user[0])
    narrow = predict_similarity_temporal(cm.user, cm.month, cm.values,
                                         assign.hard, ratings, query,
                                         horizon=1)
    wide = predict_similarity_temporal(cm.user, cm.month, cm.values,
                                       assign.hard, ratings, query,
                                       horizon=1, restrict_to_cluster=False)
    assert 0 < narrow.candidates_examined < wide.candidates_examined
    for pred in (narrow, wide):
        assert 0.0 <= pred.probability <= 1.0


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


@np.errstate(over="ignore", invalid="ignore")
def _reference_fit_factor(n_users, n_items, ratings, variant, clusters=None,
                          static=None, config=FactorConfig()):
    """The scalar SGD loop: numpy scalar biases, copied factor rows and one
    row update at a time, in the order of the model's equations."""
    users, items, values = columns = cf._columns(ratings)
    mu = float(np.mean(values))
    if variant not in ("a", "b", "d"):
        clusters = None
    if variant == "d":
        submodels, empty = {}, []
        for c in np.unique(clusters).tolist():
            rows = clusters[users] == c
            if not rows.any():
                empty.append(c)
                continue
            submodels[c] = _reference_fit_factor(
                n_users, n_items, np.column_stack(columns)[rows], "vanilla",
                config=FactorConfig(config.f, config.lr, config.reg,
                                    config.epochs, config.seed + c + 1))
        model = cf.FactorModel("d", mu, np.zeros(n_users), np.zeros(n_items),
                               np.zeros((n_users, 1)), np.zeros((n_items, 1)),
                               clusters=clusters, submodels=submodels,
                               empty_clusters=empty)
        model.rmse_trace = [cf._rmse(model, columns)]
        return model
    rng = np.random.default_rng(config.seed)
    scale = cf.INIT_SCALE / np.sqrt(config.f)
    model = cf.FactorModel(
        variant, mu, np.zeros(n_users), np.zeros(n_items),
        rng.normal(0.0, scale, (n_users, config.f)),
        rng.normal(0.0, scale, (n_items, config.f)), clusters=clusters)
    aug_rng = np.random.default_rng((config.seed, 1))
    if variant == "a":
        model.ba = np.zeros(int(clusters.max(initial=-1)) + 1)
    if variant == "b":
        model.Y = aug_rng.normal(0.0, scale,
                                 (int(clusters.max(initial=-1)) + 1, config.f))
    if variant == "c":
        model.static = np.asarray(static, dtype=np.float64)
        model.Qs = aug_rng.normal(0.0, scale, (n_items, model.static.shape[1]))
    P, Q, bu, bi = model.P, model.Q, model.bu, model.bi
    ba, Y, Qs, static = model.ba, model.Y, model.Qs, model.static
    labels = [-1] * n_users if clusters is None else clusters.tolist()
    order = np.arange(len(values))
    reg = config.reg
    for epoch in range(config.epochs):
        lr = config.lr / np.sqrt(1.0 + epoch)
        rng.shuffle(order)
        for u, i, r in zip(users[order].tolist(), items[order].tolist(),
                           values[order].tolist()):
            c = labels[u]
            p = P[u].copy()
            q = Q[i].copy()
            pred = mu + bi[i] + bu[u]
            if c >= 0 and ba is not None:
                pred += ba[c]
            user_vec = p + Y[c] if c >= 0 and Y is not None else p
            pred += Q[i] @ user_vec
            if static is not None:
                pred += Qs[i] @ static[u]
            err = r - pred
            bu[u] += lr * (err - reg * bu[u])
            bi[i] += lr * (err - reg * bi[i])
            if c >= 0 and ba is not None:
                ba[c] += lr * (err - reg * ba[c])
            P[u] = p + lr * (err * q - reg * p)
            Q[i] = q + lr * (err * user_vec - reg * q)
            if c >= 0 and Y is not None:
                Y[c] += lr * (err * q - reg * Y[c])
            if static is not None:
                Qs[i] += lr * (err * static[u] - reg * Qs[i])
        model.rmse_trace.append(cf._rmse(model, columns))
    return model


@pytest.mark.parametrize("variant", ["vanilla", "a", "b", "c", "d"])
def test_fit_factor_matches_scalar_reference(variant):
    n_users, n_items, ratings = _toy_ratings(seed=13, n_users=50)
    # labels -1..3: a and b see users without a cluster; c a static block
    clusters = np.arange(n_users) % 5 - 1
    static = np.random.default_rng(2).random((n_users, 3))
    cfg = FactorConfig(f=6, epochs=4, seed=5)
    model = fit_factor(n_users, n_items, ratings, variant, clusters=clusters,
                       static=static, config=cfg)
    ref = _reference_fit_factor(n_users, n_items, ratings, variant,
                                clusters=clusters, static=static, config=cfg)
    pairs = [(model, ref)]
    if variant == "d":
        assert model.submodels.keys() == ref.submodels.keys()
        pairs += [(model.submodels[c], ref.submodels[c])
                  for c in ref.submodels]
    for got, want in pairs:
        for name in ("P", "Q", "bu", "bi", "ba", "Y", "Qs"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            assert a is None or a.tobytes() == b.tobytes(), name
        assert got.rmse_trace == want.rmse_trace


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
