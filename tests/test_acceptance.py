"""End-to-end acceptance suite: planted-truth recovery, exact oracles, and
pattern-level reproduction of the relevance/scalability tradeoff."""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from persona_forge import analysis, cf, cli, ctr, features, mixture, synth


def _aggregate(rs, ch):
    return features.aggregate(rs, features.tenure_align(rs), ch)


def _relabel(fit_centers, true_centers, labels, metric="euclidean"):
    rows, cols, _ = mixture.match_clusters(fit_centers, true_centers,
                                           metric=metric)
    to_true = np.empty(len(rows), dtype=int)
    to_true[rows] = cols
    return to_true, to_true[labels]


# ---------------------------------------------------------------------------
# 1. EM correctness and runtime

def test_em_monotone_normalized_and_fast():
    rng = np.random.default_rng(0)
    theta = rng.dirichlet(np.ones(16), 3)
    z = rng.integers(0, 3, 50000)
    X = np.stack([rng.multinomial(25, theta[c]) for c in z])
    t0 = time.perf_counter()
    model, assign = mixture.fit_em(X, 3, mixture.EMConfig(restarts=10, seed=1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    trace = np.array(model.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
    np.testing.assert_allclose(assign.tau.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# 2. Posterior oracle equivalence (exact rational Bayes rule)

def test_posteriors_match_exact_bayes_on_small_grid():
    models = {
        (2, 1): ([Fraction(1)], [[Fraction(2, 5), Fraction(3, 5)]]),
        (2, 2): ([Fraction(1, 3), Fraction(2, 3)],
                 [[Fraction(1, 4), Fraction(3, 4)],
                  [Fraction(7, 10), Fraction(3, 10)]]),
        (3, 1): ([Fraction(1)],
                 [[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]]),
        (3, 2): ([Fraction(2, 5), Fraction(3, 5)],
                 [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
                  [Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)]]),
    }
    for (d, k), (pi, theta) in models.items():
        model = mixture.MixtureModel(
            k, d, np.array([float(p) for p in pi]),
            np.array([[float(v) for v in row] for row in theta]))
        grid = list(itertools.product(range(4), repeat=d))
        for start in range(0, len(grid), 8):  # instances of n <= 8 rows
            X = np.array(grid[start:start + 8], dtype=float)
            tau = mixture.e_step(model, X)
            for i, x in enumerate(X):
                weights = []
                for z in range(k):
                    w = pi[z]
                    for j in range(d):
                        w *= theta[z][j] ** int(x[j])
                    weights.append(w)
                total = sum(weights)
                for z in range(k):
                    exact = (weights[z] / total if total > 0
                             else Fraction(pi[z]))
                    assert abs(tau[i, z] - float(exact)) < 1e-12


# ---------------------------------------------------------------------------
# 3. Planted parameter recovery at n=20000 users

def test_planted_recovery_frequency_and_spending():
    t0 = time.perf_counter()

    # frequency mixture with the published center rows and mixing shares
    pi = np.array([0.71, 0.21, 0.045, 0.025])
    pi = pi / pi.sum()
    cfg = synth.default_config(20000, 1, seed=7, poisson_mean=30.0)
    cfg.mixtures["TF"] = synth.PlantedMixture(pi, synth.DEFAULT_TF_THETA)
    rs, gt = synth.generate(cfg)
    cm = _aggregate(rs, "TF")
    model, assign = mixture.fit_em(cm.values, 4,
                                   mixture.EMConfig(restarts=10, seed=3), "TF")
    to_true, labels = _relabel(model.theta, synth.DEFAULT_TF_THETA,
                               assign.hard)
    assert np.abs(model.pi[np.argsort(to_true)] - pi).max() <= 0.02
    order = np.argsort(to_true)
    assert np.abs(model.theta[order] - synth.DEFAULT_TF_THETA).max() <= 0.02
    truth = gt.label_array("TF", cm.users, cm.user, cm.month)
    assert (labels == truth).mean() >= 0.95

    # spending clusters under the published per-bin dollar centers
    cfg = synth.default_config(20000, 1, seed=17, price_mode="me",
                               spend_model=synth.default_spend_model())
    rs, gt = synth.generate(cfg)
    cm = _aggregate(rs, "ME")
    km, assign = mixture.fit_kmeans(cm.values, 4,
                                    mixture.KMeansConfig(restarts=8, seed=2),
                                    "ME")
    to_true, labels = _relabel(km.centers, synth.DEFAULT_ME_CENTERS,
                               assign.hard)
    order = np.argsort(to_true)
    center_err = np.linalg.norm(km.centers[order]
                                - synth.DEFAULT_ME_CENTERS, axis=1)
    assert center_err.max() <= 1.0  # matched centers within one dollar (l2)
    shares = np.bincount(labels, minlength=4) / len(labels)
    assert np.abs(shares - synth.DEFAULT_ME_PI).max() <= 0.02
    truth = gt.label_array("ME", cm.users, cm.user, cm.month)
    assert (labels == truth).mean() >= 0.95

    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. Stability and dominance; over-specified K must fail

def test_stability_dominance_and_overspecified_failure():
    pi = np.array([0.71, 0.21, 0.045, 0.025])
    pi = pi / pi.sum()
    cfg = synth.default_config(6000, 1, seed=7, poisson_mean=30.0)
    cfg.mixtures["TF"] = synth.PlantedMixture(pi, synth.DEFAULT_TF_THETA)
    rs, _ = synth.generate(cfg)
    X = _aggregate(rs, "TF").values
    fit_cfg = mixture.EMConfig(restarts=4, max_iter=200, tol=1e-7)

    report = analysis.stability_check(X, 4, epsilon=0.05, delta=0.10,
                                      runs=10, seed=11, fit_config=fit_cfg)
    assert report.passed, (report.epsilon_observed, report.delta_observed)

    _, assign = mixture.fit_em(X, 4, mixture.EMConfig(restarts=6, seed=3))
    dom = analysis.dominance_check(assign.hard, kappa=0.02, k_max=6,
                                   k=assign.tau.shape[1])
    assert dom.passed, dom.shares

    failures = sum(
        not analysis.stability_check(X, 6, epsilon=0.05, delta=0.10,
                                     runs=10, seed=s,
                                     fit_config=fit_cfg).passed
        for s in range(10))
    assert failures >= 8, failures


# ---------------------------------------------------------------------------
# 5. Migration matrix under planted niche migration

def test_migration_matrix_recovers_planted_rate():
    pi = np.array([0.71, 0.21, 0.045, 0.025])
    pi = pi / pi.sum()
    cfg = synth.default_config(6000, 5, seed=13, poisson_mean=30.0,
                               migration_rate=0.5)
    cfg.mixtures["TF"] = synth.PlantedMixture(pi, synth.DEFAULT_TF_THETA,
                                              niche=(2,))
    rs, _ = synth.generate(cfg)
    cm = _aggregate(rs, "TF")
    model, assign = mixture.fit_em(cm.values, 4,
                                   mixture.EMConfig(restarts=6, seed=3), "TF")
    _, labels = _relabel(model.theta, synth.DEFAULT_TF_THETA, assign.hard)
    mm = analysis.migration_matrix(cm.user, cm.month, labels, 4, "TF")
    assert mm.support.sum() >= 20000
    diag = np.diag(mm.matrix)
    assert abs(diag[2] - 0.5) <= 0.05       # niche row: 1 - migration_rate
    for j in (0, 1, 3):
        assert diag[j] >= 0.98              # dominant rows stay put


# ---------------------------------------------------------------------------
# 6. Divisive hierarchy: two-way split refines into its own subclusters

def test_hierarchy_parents_send_mass_to_own_children():
    theta4 = np.array([
        [0.15, 0.80, 0.03, 0.01, 0.005, 0.005],   # light renters
        [0.60, 0.33, 0.03, 0.02, 0.01, 0.01],     # economic renters
        [0.05, 0.10, 0.80, 0.03, 0.01, 0.01],     # casual purchasers
        [0.04, 0.08, 0.05, 0.55, 0.20, 0.08],     # heavy purchasers
    ])
    theta4 = theta4 / theta4.sum(axis=1, keepdims=True)
    pi4 = np.array([0.35, 0.30, 0.20, 0.15])
    cfg = synth.default_config(8000, 1, seed=21, poisson_mean=30.0)
    cfg.mixtures["TF"] = synth.PlantedMixture(pi4, theta4)
    rs, _ = synth.generate(cfg)
    X = _aggregate(rs, "TF").values
    _, a2 = mixture.fit_em(X, 2, mixture.EMConfig(restarts=6, seed=5), "TF")
    m4, a4 = mixture.fit_em(X, 4, mixture.EMConfig(restarts=8, seed=5), "TF")
    overlap = analysis.divisive_overlap(a2.hard, a4.hard, 2, 4)

    to_true, _ = _relabel(m4.theta, theta4, a4.hard)
    for parent in range(2):
        children = np.argsort(overlap[parent])[-2:]
        assert overlap[parent, children].sum() >= 0.9
        # the two children are the planted renter pair or purchaser pair
        pair = sorted(int(to_true[c]) for c in children)
        assert pair in ([0, 1], [2, 3])


# ---------------------------------------------------------------------------
# 7. Layered fits separate independent from dependent structure

def test_layered_divergence_separates_independence():
    rng = np.random.default_rng(5)
    k_in, d = 3, 16
    theta = np.full((k_in, d), 0.01)
    theta[0, :5] += 0.19
    theta[1, 5:10] += 0.19
    theta[2, 10:] += 0.95 / 6
    theta = theta / theta.sum(axis=1, keepdims=True)
    pi_in = np.array([0.4, 0.35, 0.25])

    n = 24000
    parents = rng.integers(0, 2, size=n)
    z = rng.choice(k_in, size=n, p=pi_in)
    counts = rng.poisson(30, size=n).clip(min=1)
    X = np.stack([rng.multinomial(c, theta[zz]) for c, zz in zip(counts, z)])
    cfg = mixture.EMConfig(restarts=4, seed=2)
    independent = analysis.layered_fit(X, parents, k_in, cfg)
    assert independent.divergence < 0.05

    theta_dep = theta.copy()
    theta_dep[0, :5] = 0.01
    theta_dep[0, 5:10] += 0.19
    theta_dep = theta_dep / theta_dep.sum(axis=1, keepdims=True)
    X2 = np.stack([rng.multinomial(c, (theta if p == 0 else theta_dep)[zz])
                   for c, zz, p in zip(counts, z, parents)])
    dependent = analysis.layered_fit(X2, parents, k_in, cfg)
    assert dependent.divergence > 0.2


# ---------------------------------------------------------------------------
# 8. Relevance/scalability tradeoff pattern of the per-item models

def test_feature_mode_tradeoff_pattern():
    t0 = time.perf_counter()
    cr_theta = np.array([
        [0.70, 0.15, 0.05, 0.05, 0.05],
        [0.05, 0.15, 0.60, 0.15, 0.05],
        [0.03, 0.05, 0.07, 0.15, 0.70],
    ])
    cr_pi = np.array([0.40, 0.35, 0.25])
    dg_theta = np.full((3, 16), 0.01)
    dg_theta[0, 0:5] += 0.17
    dg_theta[1, 5:10] += 0.17
    dg_theta[2, 10:16] += 0.85 / 6
    dg_theta = dg_theta / dg_theta.sum(axis=1, keepdims=True)
    dg_pi = np.array([0.35, 0.35, 0.30])

    cfg = synth.default_config(6000, 2, seed=42, poisson_mean=12.0,
                               items_per_cell=2)
    cfg.mixtures["CR"] = synth.PlantedMixture(cr_pi, cr_theta)
    cfg.mixtures["DG"] = synth.PlantedMixture(dg_pi, dg_theta)
    rs, _ = synth.generate(cfg)

    months = features.tenure_align(rs)
    matrices = {ch: features.aggregate(rs, months, ch)
                for ch in ("CR", "DG", "ME")}
    models = {
        "CR": mixture.fit_em(matrices["CR"].values, 3,
                             mixture.EMConfig(restarts=5, seed=1), "CR")[0],
        "DG": mixture.fit_em(matrices["DG"].values, 3,
                             mixture.EMConfig(restarts=5, seed=1), "DG")[0],
        "ME": mixture.fit_kmeans(matrices["ME"].values, 4,
                                 mixture.KMeansConfig(restarts=5, seed=1),
                                 "ME")[0],
    }
    feats = ctr.persona_features(matrices, models)
    items = ctr.item_user_sets(rs)
    econf = ctr.CtrExperimentConfig(lam=2e-3, top_n=100, seed=9)

    results = {}
    for modes in [("c", "c", "c"), ("s", "s", "s"), ("h", "c", "c"),
                  ("-", "c", "c")]:
        recipe = ctr.FeatureModeRecipe(
            dict(zip(ctr.CTR_CHARACTERIZATIONS, modes)))
        results[recipe.name()] = ctr.run_ctr_experiment(items, feats, recipe,
                                                        econf)

    ccc = results["c,c,c"]
    assert len(ccc.per_item) == 100
    assert ccc.p == 34  # 5 recency + 16 genre + 13 expenditure columns
    assert ccc.mean_auc - results["s,s,s"].mean_auc <= 0.03
    assert abs(results["h,c,c"].mean_auc - ccc.mean_auc) <= 0.02
    assert ccc.mean_auc - results["-,c,c"].mean_auc >= 0.05
    # dimension strictly decreases counts -> soft -> omitted, per block
    for ch in ctr.CTR_CHARACTERIZATIONS:
        widths = [ctr.design(feats, ctr.FeatureModeRecipe({ch: m})).shape[1]
                  for m in ("c", "s", "-")]
        assert widths[0] > widths[1] > widths[2]
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 9. AUC rank statistic equals exhaustive pair counting exactly

def test_auc_equals_exhaustive_pair_counting():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        y = np.zeros(n)
        y[:int(rng.integers(1, n))] = 1.0
        rng.shuffle(y)
        scores = rng.integers(0, 6, n) / 2.0  # coarse grid forces ties
        n_pos = int(y.sum())
        n_neg = n - n_pos
        numerator = 0.0
        for i in range(n):
            if y[i] != 1:
                continue
            for j in range(n):
                if y[j] != 0:
                    continue
                if scores[i] > scores[j]:
                    numerator += 1.0
                elif scores[i] == scores[j]:
                    numerator += 0.5
        assert ctr.auc_score(y, scores) == numerator / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# 10. L1 solver: KKT optimality and analytic gradient

def test_solver_kkt_and_gradient():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(3, 10))
        X = rng.normal(0, 1, (n, d))
        w_true = rng.normal(0, 1, d) * (rng.random(d) < 0.6)
        y = (rng.random(n) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        lam = float(10 ** rng.uniform(-3, -1))
        model = ctr.fit_item_model(X, y, lam)
        assert model.kkt_violation <= 1e-4

    X = rng.normal(0, 1, (60, 7))
    y = (rng.random(60) < 0.4).astype(float)
    w = rng.normal(0, 0.5, 7)
    b = -0.2
    g, gb = ctr.smooth_gradient(X, y, X @ w + b)

    def loss(w_, b_):
        z = X @ w_ + b_
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    eps = 1e-6
    for j in range(7):
        e = np.zeros(7)
        e[j] = eps
        fd = (loss(w + e, b) - loss(w - e, b)) / (2 * eps)
        assert abs(fd - g[j]) <= 1e-5 * max(1.0, abs(fd))
    fd_b = (loss(w, b + eps) - loss(w, b - eps)) / (2 * eps)
    assert abs(fd_b - gb) <= 1e-5 * max(1.0, abs(fd_b))


# ---------------------------------------------------------------------------
# 11. Collaborative filtering: invariances, bias recovery, reductions

def test_cf_invariances_bias_recovery_and_reductions():
    # per-cluster bias recovery and held-out improvement
    rng = np.random.default_rng(7)
    n_users, n_items = 2000, 300
    clusters = rng.integers(0, 3, size=n_users)
    bu = rng.normal(0, 0.3, n_users)
    bi = rng.normal(0, 0.3, n_items)
    planted = np.array([1.0, 0.0, 0.0])
    train, test = [], []
    for u in range(n_users):
        for j, i in enumerate(rng.choice(n_items, size=25, replace=False)):
            r = 3.0 + bu[u] + bi[i] + planted[clusters[u]] + rng.normal(0, 0.3)
            (test if j < 5 else train).append((u, int(i), float(r)))
    fcfg = cf.FactorConfig(f=4, epochs=40, reg=0.005, seed=3)
    model_a = cf.fit_factor(n_users, n_items, train, "a", clusters=clusters,
                            config=fcfg)
    vanilla = cf.fit_factor(n_users, n_items, train, "vanilla", config=fcfg)
    # the decomposition is identifiable up to a per-cluster shift between the
    # cluster bias and its members' user biases, so compare cluster offsets
    offsets = np.array([model_a.ba[c] + model_a.bu[clusters == c].mean()
                        for c in range(3)])
    assert abs((offsets[0] - offsets[1:].mean()) - 1.0) <= 0.05
    assert cf.rmse(model_a, test) < cf.rmse(vanilla, test)

    # zero-augmentation reductions collapse to the vanilla predictor
    small = [(u, i, r) for u, i, r in train[:600]]
    cfg_small = cf.FactorConfig(f=4, epochs=5, seed=11)
    base = cf.fit_factor(n_users, n_items, small, "vanilla", config=cfg_small)
    red_b = cf.fit_factor(n_users, n_items, small, "b",
                          clusters=np.full(n_users, -1), config=cfg_small)
    red_c = cf.fit_factor(n_users, n_items, small, "c",
                          static=np.zeros((n_users, 3)), config=cfg_small)
    for u, i, _ in small[:100]:
        assert abs(base.predict(u, i) - red_b.predict(u, i)) <= 1e-12
        assert abs(base.predict(u, i) - red_c.predict(u, i)) <= 1e-12


# ---------------------------------------------------------------------------
# 12. Byte-identical determinism of the configured pipeline

def test_pipeline_determinism(tmp_path):
    config = {
        "seed": 23,
        "stages": ["synth", "ingest", "featurize", "cluster", "analyze",
                   "ctr", "cf"],
        "synth": {"n_users": 300, "months_per_user": 2, "poisson_mean": 8.0},
        "cluster": {"restarts": 3},
        "analyze": {"stability": {"characterization": "TF", "runs": 3}},
        "ctr": {"top_n": 4},
        "cf": {"variant": "a", "epochs": 3, "f": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, out_a) == 0
    assert cli.run(path, out_b) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
