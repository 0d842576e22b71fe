import warnings

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import rankdata

from conftest import default_config, rows
from persona_forge import ctr, features, mixture, synth
from persona_forge.ingest import RecordSet, _intern
from persona_forge.ctr import (CTR_CHARACTERIZATIONS, CtrError,
                               FeatureModeRecipe, auc_score, build_dataset,
                               design, fit_item_model, fit_mode_h,
                               item_user_sets, kkt_violation,
                               persona_features, predict_scores,
                               predict_scores_h, sigmoid, smooth_gradient,
                               split_users, top_items)


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
    by_name = sorted(range(30), key=users.__getitem__)
    for ch, d in specs.items():
        # users[i]'s months 0 and 1 are rows 2i and 2i + 1 of X
        X = np.stack([rng.integers(0, 5, d).astype(float) for _ in range(60)])
        matrices[ch] = features.CharacterizationMatrix(
            ch, tuple(f"x{i}" for i in range(d)), tuple(sorted(users)),
            np.repeat(np.arange(30), 2), np.tile([0, 1], 30),
            X.reshape(30, 2, d)[by_name].reshape(60, d),
            "Amount" if ch == "ME" else "Count")
        if ch == "ME":
            models[ch], _ = mixture.fit_kmeans(
                X, 3, mixture.KMeansConfig(restarts=2, seed=1))
        else:
            models[ch], _ = mixture.fit_em(
                X, 3, mixture.EMConfig(restarts=2, seed=1))
    return matrices, models, users


def test_persona_features_pools_months():
    matrices, models, users = _toy_features()
    feats = persona_features(matrices, models)
    assert feats.users == tuple(sorted(users))
    cm = matrices["CR"]
    manual = cm.values[cm.user == 0].sum(axis=0)
    np.testing.assert_allclose(feats.raw["CR"][0], manual)
    assert feats.soft["CR"].shape == (30, 3)
    assert feats.hard["DG"].shape == (30,)


def test_persona_features_user_mismatch():
    matrices, models, _ = _toy_features()
    bad = matrices["DG"]
    matrices["DG"] = features.CharacterizationMatrix(
        "DG", bad.labels, bad.users[:-1], bad.user[:-2], bad.month[:-2],
        bad.values[:-2], "Count")
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


def _sample(feats, recipe, ds):
    """A row sample's design rows and partition labels (all 0 without 'h')."""
    ch = recipe.hard_characterization
    hard = (feats.hard[ch][ds.rows] if ch
            else np.zeros(len(ds.rows), dtype=np.int64))
    return design(feats, recipe)[ds.rows], hard


def test_build_dataset_labels_and_negatives():
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    items = {"i0": np.array([3, 9, 17, 28])}
    recipe = FeatureModeRecipe({"CR": "c", "DG": "-", "ME": "-"})
    ds = build_dataset(items, len(feats.users), "i0", neg_ratio=2, seed=1)
    assert ds.y.sum() == 4
    assert len(ds.y) == 12
    assert not ds.negatives_short
    assert design(feats, recipe)[ds.rows].shape == (12, 5)
    assert ds.rows[:4].tolist() == [3, 9, 17, 28]
    for u, y in zip(ds.rows, ds.y):
        assert (u in items["i0"]) == bool(y)


def test_build_dataset_negatives_short():
    items = {"i0": np.arange(25)}
    ds = build_dataset(items, 30, "i0", neg_ratio=5, seed=1)
    assert ds.negatives_short
    assert len(ds.y) == 30


def test_build_dataset_eligible_users_restrict():
    items = {"i0": np.arange(0, 30, 3)}
    eligible = np.arange(15)
    ds = build_dataset(items, 30, "i0", neg_ratio=1, seed=1,
                       eligible_users=eligible)
    assert set(ds.rows.tolist()) <= set(eligible.tolist())
    assert ds.y.sum() == 5


def test_build_dataset_validation():
    with pytest.raises(CtrError):
        build_dataset({}, 30, "missing")
    with pytest.raises(CtrError):
        build_dataset({"i0": np.array([0])}, 30, "i0", neg_ratio=0)


def test_smooth_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (40, 6))
    y = (rng.random(40) < 0.4).astype(float)
    w = rng.normal(0, 0.5, 6)
    b = 0.3
    g, gb = smooth_gradient(X, y, X @ w + b)

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


def _ulps(a, b):
    """Units in the last place between arrays of positive floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_sigmoid_within_4_ulps_of_expit():
    normal = np.random.default_rng(3).normal(0.0, 1.0, 10 ** 5)
    grid = np.linspace(-700.0, 700.0, 140_001)
    for z in (normal, grid):
        assert _ulps(sigmoid(z), expit(z)).max() <= 4


def test_sigmoid_extremes_stay_in_range_without_warnings():
    z = np.array([-np.inf, -1000.0, 1000.0, np.inf])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sigmoid(z)
        g, gb = smooth_gradient(np.ones((4, 1)), y, z)
    assert np.all((s >= 0.0) & (s <= 1.0))
    assert s[0] < 1e-300 and s[1] < 1e-300 and s[2] == s[3] == 1.0
    assert np.isfinite(g).all() and np.isfinite(gb)


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
    X, y, lam = _reference_case("backtracks")
    model = fit_item_model(X, y, lam)
    _, _, _, _, counts, _ = _reference_fit_item_model(X, y, lam)
    assert model.converged and calls["trial"] > 1 and counts["momentum"] > 0
    # the start's loss, one per backtracking trial and one per momentum
    # point; the accepted trial's loss carries over
    assert calls["loss"] == 1 + calls["trial"] + counts["momentum"]


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


def _standardize(X):
    mu = X.mean(axis=0) if X.shape[1] else np.zeros(0)
    sd = X.std(axis=0) if X.shape[1] else np.zeros(0)
    return (X - mu) / np.where(sd == 0, 1.0, sd)


def _plain_gradient(Xs, y, w, b, lam):
    """Gradient at (w, b), margins recomputed, with np.mean and the `where`
    form of the KKT check."""
    r = sigmoid(Xs @ w + b) - y
    g, gb = Xs.T @ r / len(y), float(r.mean())
    viol = max(abs(gb), float(np.where(
        w == 0, np.maximum(np.abs(g) - lam, 0.0),
        np.abs(g + lam * np.sign(w))).max(initial=0.0)))
    return g, gb, viol


def _plain_step(Xs, y, w, b, lam, g, gb, f0, step, loss):
    """One backtracking proximal step from (w, b), whose loss is f0; also
    returns the count of halvings."""
    halvings = 0
    while True:
        v = w - step * g
        w_new = np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0)
        b_new = b - step * gb
        dw, db = w_new - w, b_new - b
        f_new = loss(w_new, b_new)
        if f_new <= (f0 + g @ dw + gb * db
                     + ((dw @ dw) + db * db) / (2.0 * step)) + 1e-12:
            break
        step *= 0.5
        halvings += 1
        if step < 1e-12:
            break
    return w_new, b_new, f_new, step, halvings


def _reference_fit_item_model(X, y, lam):
    """The FISTA loop in plain form: margins recomputed from (w, b), np.mean
    and the `where` form of the KKT check. Also returns the counts of
    gradients, backtracking halvings, momentum points and restarts, and the
    objective of each accepted iterate."""
    Xs = _standardize(X)

    def loss(w, b):
        z = Xs @ w + b
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    n_pos = int(y.sum())
    w = np.zeros(X.shape[1])
    b = float(np.log(n_pos / (len(y) - n_pos)))
    f = loss(w, b)
    objectives = [f]
    w_v, b_v, f_v = w, b, f
    t, beta, step, viol = 1.0, 0.0, 1.0, np.inf
    gradients = halvings = momentum = restarts = 0
    while gradients < ctr.MAX_ITER:
        gradients += 1
        g, gb, viol = _plain_gradient(Xs, y, w_v, b_v, lam)
        if viol <= ctr.KKT_TOL or gradients == ctr.MAX_ITER:
            break
        w_new, b_new, f_new, step, h = _plain_step(Xs, y, w_v, b_v, lam, g,
                                                   gb, f_v, step, loss)
        halvings += h
        F_new = f_new + lam * float(np.abs(w_new).sum())
        if F_new > objectives[-1] and beta > 0.0:
            t, beta, restarts = 1.0, 0.0, restarts + 1
            w_v, b_v, f_v = w, b, f
            continue
        t_next = (1.0 + (1.0 + 4.0 * t * t) ** 0.5) / 2.0
        beta = (t - 1.0) / t_next
        if beta > 0.0:
            w_v = w_new + beta * (w_new - w)
            b_v = b_new + beta * (b_new - b)
            f_v = loss(w_v, b_v)
            momentum += 1
        else:
            w_v, b_v, f_v = w_new, b_new, f_new
        w, b, f, t = w_new, b_new, f_new, t_next
        objectives.append(F_new)
        step = min(step * 1.5, 1e4)
    counts = {"gradients": gradients, "halvings": halvings,
              "momentum": momentum, "restarts": restarts}
    return w_v, b_v, viol, viol <= ctr.KKT_TOL, counts, objectives


def _ista_fit_item_model(X, y, lam):
    """The backtracking ISTA loop that FISTA replaced, kept as an objective
    oracle; returns (w, b, converged, gradients)."""
    Xs = _standardize(X)

    def loss(w, b):
        z = Xs @ w + b
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    n_pos = int(y.sum())
    w = np.zeros(X.shape[1])
    b = float(np.log(n_pos / (len(y) - n_pos)))
    step, f0 = 1.0, loss(w, b)
    for gradients in range(1, ctr.MAX_ITER + 1):
        g, gb, viol = _plain_gradient(Xs, y, w, b, lam)
        if viol <= ctr.KKT_TOL:
            return w, b, True, gradients
        w, b, f0, step, _ = _plain_step(Xs, y, w, b, lam, g, gb, f0, step,
                                        loss)
        step = min(step * 1.5, 1e4)
    return w, b, False, ctr.MAX_ITER


def _objective(X, y, lam, w, b):
    z = _standardize(X) @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z)) + lam * np.abs(w).sum()


def _reference_case(case):
    rng = np.random.default_rng(21)
    X = rng.gamma(1.0, 2.0, (200, 0 if case == "p0" else 12))
    if case == "constant":
        X[:, 3] = 4.0
    y = (rng.random(200) < 1 / (1 + np.exp(-(X[:, :2].sum(1) - 4.0)))
         if X.shape[1] else rng.random(200) < 0.3).astype(float)
    lam = {"zeroed": 10.0, "backtracks": 1e-4}.get(case, 2e-3)
    return X, y, lam


def _kkt_fixtures():
    """The fitted problems of test_acceptance's test_solver_kkt_and_gradient,
    drawn from the same stream."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(3, 10))
        X = rng.normal(0, 1, (n, d))
        w_true = rng.normal(0, 1, d) * (rng.random(d) < 0.6)
        y = (rng.random(n) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        yield X, y, float(10 ** rng.uniform(-3, -1))


def _correlated_fixture():
    """Six near-copies of one column at a small penalty: ISTA creeps along
    the ridge and FISTA's momentum overshoots it, so restarts fire."""
    rng = np.random.default_rng(7)
    base = rng.normal(0, 1, (300, 1))
    X = base + 0.01 * rng.normal(0, 1, (300, 6))
    y = (rng.random(300) < 1 / (1 + np.exp(-2.0 * base[:, 0]))).astype(float)
    return X, y, 1e-4


CASES = ["p0", "constant", "zeroed", "backtracks"]


@pytest.mark.parametrize("case", CASES)
def test_fit_item_model_matches_reference_loop(case):
    X, y, lam = _reference_case(case)
    model = fit_item_model(X, y, lam)
    w, b, viol, converged, counts, _ = _reference_fit_item_model(X, y, lam)
    assert model.weights.tobytes() == w.tobytes()
    assert (model.intercept, model.kkt_violation, model.converged,
            model.n_iter) == (b, viol, converged, counts["gradients"])
    if case == "zeroed":
        assert not w.any()
    if case == "backtracks":
        assert counts["halvings"] > 0 and counts["momentum"] > 0


def _fit_counting_gradients(X, y, lam, monkeypatch):
    calls = []
    inner = ctr.smooth_gradient

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(ctr, "smooth_gradient", counted)
    model = fit_item_model(X, y, lam)
    monkeypatch.setattr(ctr, "smooth_gradient", inner)
    return model, len(calls)


@pytest.mark.parametrize("case", CASES + ["kkt"])
def test_fista_objective_within_ista_oracle(case, monkeypatch):
    problems = (_kkt_fixtures() if case == "kkt"
                else [_reference_case(case)])
    for X, y, lam in problems:
        model, gradients = _fit_counting_gradients(X, y, lam, monkeypatch)
        w, b, converged, ista_gradients = _ista_fit_item_model(X, y, lam)
        assert model.converged and converged
        assert (_objective(X, y, lam, model.weights, model.intercept)
                <= _objective(X, y, lam, w, b) + 1e-6)
        if case != "kkt":
            # fewer gradients, except where the start already meets the KKT
            # conditions (p0, zeroed) and both take one
            assert (gradients < ista_gradients
                    or gradients == ista_gradients == 1)


def test_restart_keeps_accepted_objective_monotone():
    X, y, lam = _correlated_fixture()
    model = fit_item_model(X, y, lam)
    w, b, viol, converged, counts, objectives = _reference_fit_item_model(
        X, y, lam)
    assert model.weights.tobytes() == w.tobytes()
    assert counts["restarts"] > 0
    assert np.all(np.diff(objectives) <= 0.0)
    assert model.converged and model.kkt_violation <= ctr.KKT_TOL
    assert model.n_iter == counts["gradients"]


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


def _reference_auc_score(y, scores):
    """The rank-statistic AUC, ties given average ranks."""
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    rank_sum = float(rankdata(scores)[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@pytest.mark.parametrize("levels", [None, 2, 5, 40])
def test_auc_matches_rank_formula_exactly(levels):
    # `levels` distinct score values force ties; None draws continuous scores
    rng = np.random.default_rng(0 if levels is None else levels)
    for _ in range(300):
        n = int(rng.integers(2, 120))
        y = (rng.random(n) < rng.random()).astype(float)
        y[:2] = (1.0, 0.0)
        rng.shuffle(y)
        scores = (rng.random(n) if levels is None
                  else rng.integers(0, levels, n) / levels)
        assert auc_score(y, scores) == _reference_auc_score(y, scores)


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
    items = {"b": np.array([1, 2]), "a": np.array([1, 2]),
             "c": np.array([1, 2, 3])}
    assert top_items(items, 2) == ["c", "a"]
    assert top_items(items, 10) == ["c", "a", "b"]


def test_split_users_deterministic_and_disjoint():
    train1, test1 = split_users(50, 0.2, seed=3)
    train2, test2 = split_users(50, 0.2, seed=3)
    np.testing.assert_array_equal(train1, train2)
    np.testing.assert_array_equal(test1, test2)
    assert len(test1) == 10
    assert sorted(np.concatenate([train1, test1]).tolist()) == list(range(50))


def test_item_user_sets_from_records():
    rs, _ = synth.generate(default_config(10, 1, seed=1))
    expected = {}
    for r in rows(rs):
        expected.setdefault(r.content_id, set()).add(r.user_id)
    items = item_user_sets(rs)
    assert {item: {rs.users[u] for u in codes.tolist()}
            for item, codes in items.items()} == expected
    for codes in items.values():
        assert np.all(np.diff(codes) > 0)


def _reference_item_user_sets(rs):
    """Each item's set of user ids."""
    order = np.argsort(rs.content, kind="stable")
    codes, starts = np.unique(rs.content[order], return_index=True)
    users = np.asarray(rs.users, dtype=object)[rs.user[order]]
    return {rs.contents[c]: set(group)
            for c, group in zip(codes.tolist(), np.split(users, starts[1:]))}


def _reference_split_users(users, test_fraction, seed):
    """Sorted (train, test) id lists from a shuffled copy of `users`."""
    rng = np.random.default_rng(seed)
    order = list(users)
    rng.shuffle(order)
    n_test = int(round(test_fraction * len(order)))
    return sorted(order[n_test:]), sorted(order[:n_test])


def _reference_build_dataset(items, features, recipe, item_id, neg_ratio,
                             seed, eligible_users):
    """`build_dataset` on id sets and id lists; returns the row ids."""
    index = {u: i for i, u in enumerate(features.users)}
    universe = eligible_users if eligible_users is not None else features.users
    universe = [u for u in universe if u in index]
    positives = sorted(u for u in universe if u in items[item_id])
    candidates = sorted(u for u in universe if u not in items[item_id])
    wanted = neg_ratio * len(positives)
    rng = np.random.default_rng(seed)
    short = wanted > len(candidates)
    if short:
        negatives = candidates
    else:
        pick = rng.choice(len(candidates), size=wanted, replace=False)
        negatives = [candidates[i] for i in sorted(pick)]
    users = positives + negatives
    rows = np.array([index[u] for u in users], dtype=np.int64)
    X = design(features, recipe)[rows]
    y = np.zeros(len(users))
    y[:len(positives)] = 1.0
    hard_ch = recipe.hard_characterization
    hard = (features.hard[hard_ch][rows] if hard_ch
            else np.zeros(len(rows), dtype=np.int64))
    return X, y, users, hard, short


def _random_record_set(rng):
    n = int(rng.integers(1, 40))
    users = [f"u{j}" for j in range(int(rng.integers(1, 12)))]
    contents = [f"c{j}" for j in range(int(rng.integers(1, 6)))]
    return RecordSet.build(
        *_intern(rng.choice(users, n).tolist()), rng.integers(0, 50, n),
        np.zeros(n, np.int64), *_intern(rng.choice(contents, n).tolist()),
        rng.random(n) < 0.5, rng.integers(1, 900, n), rng.integers(0, 16, n),
        rng.integers(1970, 2016, n))


def _random_persona_features(rng, users):
    n = len(users)
    widths = {"CR": 5, "DG": 16, "ME": 13}
    return ctr.UserPersonaFeatures(
        users, {ch: rng.random((n, d)) for ch, d in widths.items()},
        {ch: rng.random((n, 3)) for ch in widths},
        {ch: rng.integers(0, 3, n) for ch in widths})


def test_item_user_sets_matches_id_set_reference():
    rng = np.random.default_rng(31)
    for _ in range(200):
        rs = _random_record_set(rng)
        items = item_user_sets(rs)
        assert {item: {rs.users[u] for u in codes.tolist()}
                for item, codes in items.items()} == (
            _reference_item_user_sets(rs))
        for codes in items.values():
            assert codes.dtype == np.int64 and np.all(np.diff(codes) > 0)


def test_split_users_matches_id_shuffle_reference():
    rng = np.random.default_rng(32)
    sizes = [1, 2, 7, 50, 400, 20000,
             *rng.integers(1, 100, 200).tolist()]
    for n in sizes:
        ids = tuple(sorted(f"u{j}" for j in range(n)))
        fraction, seed = float(rng.random()), int(rng.integers(0, 1000))
        train, test = split_users(n, fraction, seed)
        ref_train, ref_test = _reference_split_users(ids, fraction, seed)
        assert [ids[u] for u in train.tolist()] == ref_train
        assert [ids[u] for u in test.tolist()] == ref_test


def test_build_dataset_matches_id_list_reference():
    """Single-user universes, items every eligible user bought, empty
    eligible sets and neg_ratio values that run short."""
    rng = np.random.default_rng(33)
    recipes = [FeatureModeRecipe(dict(zip(CTR_CHARACTERIZATIONS, m)))
               for m in ("ccc", "ss-", "hc-", "-h-", "---")]
    shorts = 0
    for case in range(300):
        n = 1 if case % 10 == 0 else int(rng.integers(2, 25))
        users = tuple(sorted(f"u{j}" for j in rng.choice(500, n,
                                                         replace=False)))
        feats = _random_persona_features(rng, users)
        if case % 4 == 0:
            eligible = None
        elif case % 4 == 1:
            eligible = np.zeros(0, dtype=np.int64)
        else:
            eligible = np.flatnonzero(rng.random(n) < rng.random())
        within = np.arange(n) if eligible is None else eligible
        items = {"i": np.flatnonzero(rng.random(n) < rng.random()),
                 "all": within if len(within) else np.array([0])}
        items = {k: v for k, v in items.items() if len(v)}
        item = str(rng.choice(sorted(items)))
        recipe = recipes[case % len(recipes)]
        neg_ratio, seed = int(rng.integers(1, 7)), int(rng.integers(0, 99))
        ds = build_dataset(items, n, item, neg_ratio=neg_ratio, seed=seed,
                           eligible_users=eligible)
        X, y, ref_users, hard, short = _reference_build_dataset(
            {k: {users[u] for u in v.tolist()} for k, v in items.items()},
            feats, recipe, item, neg_ratio, seed,
            None if eligible is None else [users[u] for u in eligible])
        assert [users[u] for u in ds.rows.tolist()] == ref_users
        ds_X, ds_hard = _sample(feats, recipe, ds)
        np.testing.assert_array_equal(ds_X, X)
        np.testing.assert_array_equal(ds.y, y)
        np.testing.assert_array_equal(ds_hard, hard)
        assert ds.negatives_short == short
        shorts += short
    assert 0 < shorts < 300


def _toy_items():
    """Six items, each bought by a random 40 % of the 30 toy users."""
    rng = np.random.default_rng(8)
    items = {f"i{k}": np.flatnonzero(rng.random(30) < 0.4) for k in range(6)}
    return {k: v for k, v in items.items() if len(v)}


def test_run_ctr_experiment_smoke():
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    items = _toy_items()
    recipe = FeatureModeRecipe({"CR": "c", "DG": "s", "ME": "-"})
    cfg = ctr.CtrExperimentConfig(lam=0.01, neg_ratio=2, top_n=4,
                                  test_fraction=0.3, seed=1)
    ev = ctr.run_ctr_experiment(items, feats, recipe, cfg)
    assert ev.p == 8
    assert len(ev.per_item) + len(ev.skipped) == 4
    for auc in ev.per_item.values():
        assert 0.0 <= auc <= 1.0


def test_run_ctr_experiment_diagnostics_count_fallbacks_and_short_negatives():
    # an 'h' recipe with an item its second cluster never buys, and an item
    # bought by more users than the negatives can match
    rng = np.random.default_rng(5)
    users = tuple(f"u{j:02d}" for j in range(40))
    feats = _random_persona_features(rng, users)
    hard = np.repeat([0, 1], 20)
    feats.hard = {ch: hard for ch in feats.hard}
    items = {"common": np.arange(30),
             "cluster0": np.flatnonzero((hard == 0) & (rng.random(40) < 0.5))}
    ev = ctr.run_ctr_experiment(
        items, feats, FeatureModeRecipe({"CR": "h", "DG": "c"}),
        ctr.CtrExperimentConfig(lam=0.01, neg_ratio=1, top_n=2,
                                test_fraction=0.25, seed=3))
    report = ev.diagnostics()
    assert len(ev.per_item) == 2
    assert report["recipe"] == "h,c,-"
    assert report["negatives_short"] >= 1
    assert report["single_class_partitions"] >= 1
    assert report["fits"] == len(ev.fits) >= 1
    assert report["converged"] == report["fits"]
    assert report["max_iterations"] == max(m.n_iter for m in ev.fits)


def _reference_run_ctr_experiment(items, features, recipe, config):
    """The two-path loop: a plain fit without 'h', per-cluster fits with it;
    p summed from per-mode block widths."""
    train_users, test_users = split_users(len(features.users),
                                          config.test_fraction, config.seed)
    p = sum(features.raw[ch].shape[1] if recipe.mode(ch) == "c"
            else features.soft[ch].shape[1] if recipe.mode(ch) == "s" else 0
            for ch in CTR_CHARACTERIZATIONS)
    per_item, skipped, n_rows = {}, [], []
    for j, item in enumerate(top_items(items, config.top_n)):
        train = build_dataset(items, len(features.users), item,
                              neg_ratio=config.neg_ratio,
                              seed=config.seed * 100003 + j,
                              eligible_users=train_users)
        test = build_dataset(items, len(features.users), item,
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
        (train_X, train_hard), (test_X, test_hard) = (
            _sample(features, recipe, ds) for ds in (train, test))
        if recipe.hard_characterization:
            model = fit_mode_h(train_X, train.y, train_hard, config.lam)
            scores = predict_scores_h(model, test_X, test_hard)
        else:
            model = fit_item_model(train_X, train.y, config.lam)
            scores = predict_scores(model, test_X)
        per_item[item] = auc_score(test.y, scores)
    mean_n = float(np.mean(n_rows)) if n_rows else 0.0
    return per_item, skipped, p, mean_n


@pytest.mark.parametrize("modes", ["c,c,c", "s,s,s", "h,c,c", "-,-,-",
                                   "-,h,-"])
def test_run_ctr_experiment_matches_two_path_reference(modes):
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    items = _toy_items()
    recipe = FeatureModeRecipe(dict(zip(CTR_CHARACTERIZATIONS,
                                        modes.split(","))))
    cfg = ctr.CtrExperimentConfig(lam=0.01, neg_ratio=2, top_n=6,
                                  test_fraction=0.3, seed=1)
    ev = ctr.run_ctr_experiment(items, feats, recipe, cfg)
    per_item, skipped, p, mean_n = _reference_run_ctr_experiment(
        items, feats, recipe, cfg)
    assert ev.per_item and ev.per_item == per_item
    assert (ev.skipped, ev.p, ev.mean_n) == (skipped, p, mean_n)


def test_run_ctr_experiment_without_features_fits_intercepts_only():
    # an all-'-' recipe has p = 0: each item model is its intercept, the log
    # odds of its training set, so every test score ties and the AUC is 1/2
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    recipe = FeatureModeRecipe(dict.fromkeys(CTR_CHARACTERIZATIONS, "-"))
    cfg = ctr.CtrExperimentConfig(lam=0.01, neg_ratio=2, top_n=6,
                                  test_fraction=0.3, seed=1)
    items = _toy_items()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = ctr.run_ctr_experiment(items, feats, recipe, cfg)
    assert ev.p == 0 and ev.complexity_proxy == 0.0
    assert ev.per_item and len(ev.fits) == len(ev.per_item)
    train_users = split_users(len(feats.users), cfg.test_fraction,
                              cfg.seed)[0]
    chosen = top_items(items, cfg.top_n)
    for item, m in zip(ev.per_item, ev.fits):
        y = build_dataset(items, len(feats.users), item,
                          neg_ratio=cfg.neg_ratio,
                          seed=cfg.seed * 100003 + chosen.index(item),
                          eligible_users=train_users).y
        assert m.weights.shape == m.feature_means.shape == (0,)
        assert m.converged and m.n_iter == 1
        assert m.intercept == np.log(y.sum() / (len(y) - y.sum()))
    assert set(ev.per_item.values()) == {0.5} and ev.mean_auc == 0.5


@pytest.mark.parametrize("modes", ["c,s,-", "h,c,c"])
def test_run_ctr_experiment_builds_the_design_once(modes, monkeypatch):
    matrices, models, _ = _toy_features()
    feats = persona_features(matrices, models)
    recipe = FeatureModeRecipe(dict(zip(CTR_CHARACTERIZATIONS,
                                        modes.split(","))))
    calls = []

    def counted(features, recipe):
        calls.append(recipe.name())
        return design(features, recipe)

    monkeypatch.setattr(ctr, "design", counted)
    cfg = ctr.CtrExperimentConfig(lam=0.01, neg_ratio=2, top_n=4,
                                  test_fraction=0.3, seed=1)
    ev = ctr.run_ctr_experiment(_toy_items(), feats, recipe, cfg)
    assert len(ev.per_item) + len(ev.skipped) == 4
    assert calls == [modes]
