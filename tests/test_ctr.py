import numpy as np
import pytest

from conftest import rows
from persona_forge import ctr, features, mixture, synth
from persona_forge.ctr import (CTR_CHARACTERIZATIONS, CtrError,
                               FeatureModeRecipe, auc_score, build_dataset,
                               design, fit_item_model, fit_mode_h,
                               item_user_sets, kkt_violation,
                               persona_features, predict_scores,
                               predict_scores_h, smooth_gradient, split_users,
                               top_items)


def test_recipe_validation():
    FeatureModeRecipe({"CR": "c", "DG": "s", "ME": "-"})
    with pytest.raises(CtrError):
        FeatureModeRecipe({"XX": "c"})
    with pytest.raises(CtrError):
        FeatureModeRecipe({"CR": "q"})
    with pytest.raises(CtrError):
        FeatureModeRecipe({"CR": "h", "DG": "h"})
    r = FeatureModeRecipe({"CR": "h", "DG": "c"})
    assert r.hard_characterization == "CR"
    assert r.mode("ME") == "-"
    assert r.name() == "h,c,-"


def _toy_features():
    rng = np.random.default_rng(0)
    matrices = {}
    models = {}
    specs = {"CR": 5, "DG": 16, "ME": 13}
    users = [f"u{i}" for i in range(30)]
    for ch, d in specs.items():
        keys, rows = [], []
        for u in users:
            for m in (0, 1):
                keys.append((u, m))
                rows.append(rng.integers(0, 5, d).astype(float))
        matrices[ch] = features.CharacterizationMatrix(
            ch, tuple(f"x{i}" for i in range(d)), keys, np.stack(rows),
            "Amount" if ch == "ME" else "Count")
        if ch == "ME":
            models[ch], _ = mixture.fit_kmeans(
                matrices[ch].values, 3, mixture.KMeansConfig(restarts=2, seed=1))
        else:
            models[ch], _ = mixture.fit_em(
                matrices[ch].values, 3, mixture.EMConfig(restarts=2, seed=1))
    return matrices, models, users


def test_persona_features_pools_months():
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    assert feats.users == sorted(users)
    u = feats.users[0]
    i = feats.index[u]
    manual = sum(row for (user, _), row in
                 zip(matrices["CR"].keys, matrices["CR"].values) if user == u)
    np.testing.assert_allclose(feats.raw["CR"][i], manual)
    assert feats.soft["CR"].shape == (30, 3)
    assert feats.hard["DG"].shape == (30,)


def test_persona_features_user_mismatch():
    matrices, models, _ = _toy_features()
    bad = matrices["DG"]
    matrices["DG"] = features.CharacterizationMatrix(
        "DG", bad.labels, bad.keys[:-2], bad.values[:-2], "Count")
    with pytest.raises(CtrError):
        persona_features(matrices, models)


def _layout(recipe, feats):
    """(characterization, mode, width) blocks in table column order."""
    return [(ch, recipe.mode(ch),
             design(feats, FeatureModeRecipe({ch: recipe.mode(ch)})).shape[1])
            for ch in CTR_CHARACTERIZATIONS]


def test_feature_layout_widths():
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    layout = _layout(FeatureModeRecipe(
        {"CR": "c", "DG": "s", "ME": "-"}), feats)
    assert layout == [("CR", "c", 5), ("DG", "s", 3), ("ME", "-", 0)]
    layout = _layout(FeatureModeRecipe(
        {"CR": "h", "DG": "c", "ME": "c"}), feats)
    assert [w for _, _, w in layout] == [0, 16, 13]


def test_build_dataset_labels_and_negatives():
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    items = {"i0": set(users[:4])}
    recipe = FeatureModeRecipe({"CR": "c", "DG": "-", "ME": "-"})
    ds = build_dataset(items, feats, recipe, "i0", neg_ratio=2, seed=1)
    assert ds.y.sum() == 4
    assert len(ds.y) == 12
    assert not ds.negatives_short
    assert ds.X.shape == (12, 5)
    for u, y in zip(ds.users, ds.y):
        assert (u in items["i0"]) == bool(y)


def test_build_dataset_negatives_short():
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    items = {"i0": set(users[:25])}
    recipe = FeatureModeRecipe({"CR": "c"})
    ds = build_dataset(items, feats, recipe, "i0", neg_ratio=5, seed=1)
    assert ds.negatives_short
    assert len(ds.y) == 30


def test_build_dataset_eligible_users_restrict():
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    items = {"i0": set(users[:10])}
    eligible = sorted(users)[:15]
    recipe = FeatureModeRecipe({"CR": "c"})
    ds = build_dataset(items, feats, recipe, "i0", neg_ratio=1, seed=1,
                       eligible_users=eligible)
    assert set(ds.users) <= set(eligible)


def test_build_dataset_validation():
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    recipe = FeatureModeRecipe({"CR": "c"})
    with pytest.raises(CtrError):
        build_dataset({}, feats, recipe, "missing")
    with pytest.raises(CtrError):
        build_dataset({"i0": {"u0"}}, feats, recipe, "i0", neg_ratio=0)


def test_smooth_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (40, 6))
    y = (rng.random(40) < 0.4).astype(float)
    w = rng.normal(0, 0.5, 6)
    b = 0.3
    g, gb = smooth_gradient(w, b, X, y)

    def loss(w_, b_):
        z = X @ w_ + b_
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    eps = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = eps
        fd = (loss(w + e, b) - loss(w - e, b)) / (2 * eps)
        assert abs(fd - g[j]) < 1e-5 * max(1.0, abs(fd))
    fd_b = (loss(w, b + eps) - loss(w, b - eps)) / (2 * eps)
    assert abs(fd_b - gb) < 1e-5 * max(1.0, abs(fd_b))


def test_fit_item_model_converges_with_kkt():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (300, 8))
    w_true = np.array([2.0, -1.5, 0, 0, 1.0, 0, 0, 0])
    y = (rng.random(300) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
    model = fit_item_model(X, y, lam=0.01)
    assert model.converged
    assert model.kkt_violation <= 1e-5
    scores = predict_scores(model, X)
    assert auc_score(y, scores) > 0.85


def test_fit_item_model_evaluates_loss_once_per_trial(monkeypatch):
    calls = {"loss": 0, "trial": 0}
    loss, soft = ctr._loss, ctr._soft

    def counted_loss(z, y):
        calls["loss"] += 1
        return loss(z, y)

    def counted_soft(v, t):  # one proximal step per backtracking trial
        calls["trial"] += 1
        return soft(v, t)

    monkeypatch.setattr(ctr, "_loss", counted_loss)
    monkeypatch.setattr(ctr, "_soft", counted_soft)
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (300, 8))
    y = (rng.random(300) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    model = fit_item_model(X, y, lam=0.01)
    assert model.converged and calls["trial"] > 1
    # the starting point's loss, then the accepted trial's loss carries over
    assert calls["loss"] == calls["trial"] + 1


def test_large_penalty_zeroes_weights():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (100, 5))
    y = (rng.random(100) < 0.3).astype(float)
    model = fit_item_model(X, y, lam=10.0)
    np.testing.assert_array_equal(model.weights, 0.0)
    # unpenalized intercept still matches the base rate
    base = np.log(y.sum() / (len(y) - y.sum()))
    assert abs(model.intercept - base) < 0.05


def test_fit_item_model_requires_both_classes():
    X = np.zeros((4, 2))
    with pytest.raises(CtrError):
        fit_item_model(X, np.ones(4), lam=0.1)


def test_constant_columns_are_safe():
    rng = np.random.default_rng(5)
    X = np.hstack([np.ones((60, 1)), rng.normal(0, 1, (60, 2))])
    y = (rng.random(60) < 0.5).astype(float)
    model = fit_item_model(X, y, lam=0.01)
    assert np.isfinite(predict_scores(model, X)).all()


def _reference_kkt_violation(w, grad, grad_b, lam):
    """The two-pass form: zero and nonzero weights indexed separately."""
    viol = abs(grad_b)
    zero = w == 0
    if np.any(zero):
        viol = max(viol, float(np.maximum(np.abs(grad[zero]) - lam, 0.0).max()))
    if np.any(~zero):
        viol = max(viol, float(
            np.abs(grad[~zero] + lam * np.sign(w[~zero])).max()))
    return viol


def test_kkt_violation_matches_two_pass_reference():
    rng = np.random.default_rng(11)
    for trial in range(500):
        p = int(rng.integers(0, 9))
        w = rng.normal(0, 1, p) * (rng.random(p) < 0.5)  # about half zero
        grad = rng.normal(0, 0.1, p)
        grad_b = float(rng.normal(0, 0.05))
        lam = float(10 ** rng.uniform(-4, 0))
        if trial % 5 == 0:  # a zero weight's |grad| at exactly lam
            grad[w == 0] = lam
        assert (kkt_violation(w, grad, grad_b, lam)
                == _reference_kkt_violation(w, grad, grad_b, lam))


def test_kkt_violation_zero_at_subgradient_optimum():
    # w=0 with |grad| <= lam satisfies the stationarity conditions exactly
    w = np.zeros(3)
    grad = np.array([0.05, -0.02, 0.0])
    assert kkt_violation(w, grad, 0.0, lam=0.1) == 0.0
    assert kkt_violation(w, grad, 0.5, lam=0.1) == 0.5
    w = np.array([1.0, 0.0, 0.0])
    grad = np.array([-0.1, 0.0, 0.0])
    assert kkt_violation(w, grad, 0.0, lam=0.1) == 0.0


def test_auc_hand_values():
    y = np.array([1, 0, 1, 0])
    assert auc_score(y, np.array([0.9, 0.1, 0.8, 0.2])) == 1.0
    assert auc_score(y, np.array([0.1, 0.9, 0.2, 0.8])) == 0.0
    assert auc_score(y, np.array([0.5, 0.5, 0.5, 0.5])) == 0.5
    assert auc_score(np.array([1, 0]), np.array([0.7, 0.7])) == 0.5
    with pytest.raises(CtrError):
        auc_score(np.array([1, 1]), np.array([0.1, 0.2]))


def test_mode_h_single_class_fallback():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (80, 4))
    y = np.zeros(80)
    y[:20] = 1.0
    hard = np.zeros(80, dtype=int)
    hard[40:] = 1  # cluster 1 rows are all negative
    model = fit_mode_h(X, y, hard, lam=0.01)
    assert model.single_class == [1]
    assert set(model.submodels) == {0}
    scores = predict_scores_h(model, X, hard)
    np.testing.assert_allclose(scores[40:], model.fallback_intercept)


def test_top_items_ranking_and_tie_break():
    items = {"b": {"u1", "u2"}, "a": {"u1", "u2"}, "c": {"u1", "u2", "u3"}}
    assert top_items(items, 2) == ["c", "a"]
    assert top_items(items, 10) == ["c", "a", "b"]


def test_split_users_deterministic_and_disjoint():
    users = [f"u{i}" for i in range(50)]
    train1, test1 = split_users(users, 0.2, seed=3)
    train2, test2 = split_users(users, 0.2, seed=3)
    assert (train1, test1) == (train2, test2)
    assert len(test1) == 10
    assert set(train1) | set(test1) == set(users)
    assert not set(train1) & set(test1)


def test_item_user_sets_from_records():
    rs, _ = synth.generate(synth.default_config(10, 1, seed=1))
    expected = {}
    for r in rows(rs):
        expected.setdefault(r.content_id, set()).add(r.user_id)
    assert item_user_sets(rs) == expected


def test_run_ctr_experiment_smoke():
    rng = np.random.default_rng(8)
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    items = {f"i{k}": {u for u in users if rng.random() < 0.4}
             for k in range(6)}
    items = {k: v for k, v in items.items() if v}
    recipe = FeatureModeRecipe({"CR": "c", "DG": "s", "ME": "-"})
    cfg = ctr.CtrExperimentConfig(lam=0.01, neg_ratio=2, top_n=4,
                                  test_fraction=0.3, seed=1)
    ev = ctr.run_ctr_experiment(items, feats, recipe, cfg)
    assert ev.p == 8
    assert len(ev.per_item) + len(ev.skipped) == 4
    for auc in ev.per_item.values():
        assert 0.0 <= auc <= 1.0


def _reference_run_ctr_experiment(items, features, recipe, config):
    """The two-path loop: a plain fit without 'h', per-cluster fits with it;
    p summed from per-mode block widths."""
    train_users, test_users = split_users(features.users,
                                          config.test_fraction, config.seed)
    p = sum(features.raw[ch].shape[1] if recipe.mode(ch) == "c"
            else features.soft[ch].shape[1] if recipe.mode(ch) == "s" else 0
            for ch in CTR_CHARACTERIZATIONS)
    per_item, skipped, n_rows = {}, [], []
    for j, item in enumerate(top_items(items, config.top_n)):
        train = build_dataset(items, features, recipe, item,
                              neg_ratio=config.neg_ratio,
                              seed=config.seed * 100003 + j,
                              eligible_users=train_users)
        test = build_dataset(items, features, recipe, item,
                             neg_ratio=config.neg_ratio,
                             seed=config.seed * 100003 + j + 1,
                             eligible_users=test_users)
        if test.y.sum() == 0 or test.y.sum() == len(test.y):
            skipped.append(item)
            continue
        if train.y.sum() == 0 or train.y.sum() == len(train.y):
            skipped.append(item)
            continue
        n_rows.append(len(train.y))
        if recipe.hard_characterization:
            model = fit_mode_h(train.X, train.y, train.hard, config.lam)
            scores = predict_scores_h(model, test.X, test.hard)
        else:
            model = fit_item_model(train.X, train.y, config.lam)
            scores = predict_scores(model, test.X)
        per_item[item] = auc_score(test.y, scores)
    mean_n = float(np.mean(n_rows)) if n_rows else 0.0
    return per_item, skipped, p, mean_n


@pytest.mark.parametrize("modes", ["c,c,c", "s,s,s", "h,c,c", "-,-,-",
                                   "-,h,-"])
def test_run_ctr_experiment_matches_two_path_reference(modes):
    rng = np.random.default_rng(8)
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    items = {f"i{k}": {u for u in users if rng.random() < 0.4}
             for k in range(6)}
    items = {k: v for k, v in items.items() if v}
    recipe = FeatureModeRecipe(dict(zip(CTR_CHARACTERIZATIONS,
                                        modes.split(","))))
    cfg = ctr.CtrExperimentConfig(lam=0.01, neg_ratio=2, top_n=6,
                                  test_fraction=0.3, seed=1)
    ev = ctr.run_ctr_experiment(items, feats, recipe, cfg)
    per_item, skipped, p, mean_n = _reference_run_ctr_experiment(
        items, feats, recipe, cfg)
    assert ev.per_item and ev.per_item == per_item
    assert (ev.skipped, ev.p, ev.mean_n) == (skipped, p, mean_n)
