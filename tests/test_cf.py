import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from persona_forge import artifacts, cf
from persona_forge.cf import (CfError, FactorConfig, factor_model_from_dict,
                              factor_model_to_dict, fit_factor, rmse)


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


def _loop_dot(x, y):
    """x . y as Python floats: the products added in k order from 0.0."""
    total = 0.0
    for k in range(len(x)):
        total += float(x[k]) * float(y[k])
    return total


@np.errstate(over="ignore", invalid="ignore")
def _reference_fit_factor(n_users, n_items, ratings, variant, clusters=None,
                          static=None, config=FactorConfig()):
    """The scalar SGD loop: numpy scalar biases, copied factor rows, a
    Python-float loop for each dot product and one row update at a time, in
    the order of the model's equations."""
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
        model = cf.FactorModel("d", mu, clusters=clusters,
                               submodels=submodels, empty_clusters=empty)
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
            pred += _loop_dot(Q[i], user_vec)
            if static is not None:
                pred += _loop_dot(Qs[i], static[u])
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
    # OpenBLAS switches its dot to a SIMD block kernel from n = 16
    for f in (6, 16, 32):
        cfg = FactorConfig(f=f, epochs=4, seed=5)
        model = fit_factor(n_users, n_items, ratings, variant,
                           clusters=clusters, static=static, config=cfg)
        ref = _reference_fit_factor(n_users, n_items, ratings, variant,
                                    clusters=clusters, static=static,
                                    config=cfg)
        pairs = [(model, ref)]
        if variant == "d":
            assert model.submodels.keys() == ref.submodels.keys()
            pairs += [(model.submodels[c], ref.submodels[c])
                      for c in ref.submodels]
        for got, want in pairs:
            for name in ("P", "Q", "bu", "bi", "ba", "Y", "Qs"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), (f, name)
                assert a is None or a.tobytes() == b.tobytes(), (f, name)
            assert got.rmse_trace == want.rmse_trace, f


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
    r += _loop_dot(model.Q[i], p)
    if model.variant == "c":
        r += _loop_dot(model.Qs[i], model.static[u])
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


@pytest.mark.parametrize("variant", ["vanilla", "a", "b", "c", "d"])
def test_saved_model_reproduces_its_predictions(variant):
    n_users, n_items, ratings = _toy_ratings(seed=14, n_users=30)
    static = np.random.default_rng(3).random((n_users, 4))
    # labels -1..2, and 3 for a user without ratings: an empty d cluster;
    # then no label at all: a and b get no cluster parameters
    labelled = np.arange(n_users) % 4 - 1
    labelled[0] = 3
    ratings = [(u, i, r) for u, i, r in ratings if u != 0]
    users, items, _ = cf._columns(ratings)
    for clusters in (labelled, np.full(n_users, -1)):
        model = fit_factor(n_users, n_items, ratings, variant, clusters,
                           static, FactorConfig(f=5, epochs=3, seed=3))
        text = artifacts.to_json(factor_model_to_dict(model))
        loaded = factor_model_from_dict(json.loads(text))
        assert (loaded.predict(users, items).tobytes()
                == model.predict(users, items).tobytes())
        assert loaded.rmse_trace == model.rmse_trace
        for name in cf.FLOAT_ARRAYS:
            a, b = getattr(loaded, name), getattr(model, name)
            assert (a is None) == (b is None), name
            assert a is None or a.shape == b.shape, name
        assert artifacts.to_json(factor_model_to_dict(loaded)) == text


FIT_EVERY_VARIANT = """
import numpy as np
from persona_forge import artifacts, cf
rng = np.random.default_rng(0)
ratings = [(u, int(i), float(rng.integers(1, 6))) for u in range(60)
           for i in rng.choice(30, size=8, replace=False)]
clusters = np.arange(60) % 4 - 1
static = np.random.default_rng(1).random((60, 5))
print(artifacts.to_json([cf.factor_model_to_dict(cf.fit_factor(
    60, 30, ratings, variant, clusters, static,
    cf.FactorConfig(f=8, epochs=3, seed=2)))
    for variant in ("vanilla", "a", "b", "c")]))
"""


def test_fitted_model_does_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its dot kernel by CPU; OPENBLAS_CORETYPE forces one
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(cf.__file__).parents[1])
    outputs = []
    for core in ({"OPENBLAS_CORETYPE": "Nehalem"},
                 {"OPENBLAS_CORETYPE": "Prescott"}, {}):
        result = subprocess.run([sys.executable, "-c", FIT_EVERY_VARIANT],
                                capture_output=True, text=True,
                                env={**env, **core})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
