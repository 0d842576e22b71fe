import inspect
import json
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from persona_forge import analysis, artifacts, mixture
from persona_forge.mixture import (AssignmentSet, EMConfig, KMeansConfig,
                                   KMeansModel, MixtureModel, e_step, fit_em,
                                   fit_kmeans,
                                   hard_labels, m_step, match_clusters,
                                   model_from_dict, model_to_dict,
                                   penalized_loglik, soft_features)


def _exact_posteriors(pi, theta, X):
    """Bayes rule in exact rational arithmetic (multinomial coefficients
    cancel in the normalization)."""
    out = []
    for x in X:
        weights = []
        for z in range(len(pi)):
            w = Fraction(pi[z])
            for j, c in enumerate(x):
                w *= Fraction(theta[z][j]) ** int(c)
            weights.append(w)
        total = sum(weights)
        out.append([w / total for w in weights])
    return out


def test_e_step_matches_exact_bayes():
    pi = [Fraction(1, 3), Fraction(2, 3)]
    theta = [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
             [Fraction(1, 10), Fraction(3, 10), Fraction(3, 5)]]
    X = np.array([[3, 0, 1], [0, 0, 0], [2, 2, 2], [0, 5, 1]])
    model = MixtureModel(2, 3, np.array([float(p) for p in pi]),
                         np.array([[float(v) for v in row] for row in theta]))
    tau = e_step(model, X)
    exact = _exact_posteriors(pi, theta, X)
    for i in range(len(X)):
        for z in range(2):
            assert abs(tau[i, z] - float(exact[i][z])) < 1e-12


def test_e_step_zero_row_degenerates_to_pi():
    model = MixtureModel(2, 3, np.array([0.3, 0.7]),
                         np.array([[0.5, 0.25, 0.25], [0.1, 0.3, 0.6]]))
    tau = e_step(model, np.zeros((1, 3)))
    np.testing.assert_allclose(tau[0], [0.3, 0.7], atol=1e-15)


def test_m_step_hand_computed():
    tau = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    X = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
    pi, theta = m_step(tau, X, smoothing=0.5)
    np.testing.assert_allclose(pi, [1.5 / 3, 1.5 / 3])
    # cluster 0 counts: (2.5, 0.5) + smoothing 0.5 -> (3.0, 1.0) / 4.0
    np.testing.assert_allclose(theta[0], [3.0 / 4.0, 1.0 / 4.0])
    np.testing.assert_allclose(theta[1], [1.0 / 6.0, 5.0 / 6.0])
    np.testing.assert_allclose(theta.sum(axis=1), 1.0, atol=1e-15)


def test_m_step_reseeds_empty_cluster():
    tau = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    X = np.array([[5.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    pi, theta = m_step(tau, X, smoothing=0.5)
    # the empty cluster takes a 1/K share and the worst-fit row's profile
    assert pi[1] > 0.2
    np.testing.assert_allclose(pi.sum(), 1.0, atol=1e-15)
    assert theta[1, 1] > theta[1, 0] or theta[1, 0] > theta[1, 1]


def test_m_step_no_reseed_floors_pi():
    tau = np.array([[1.0, 0.0], [1.0, 0.0]])
    X = np.array([[3.0, 1.0], [1.0, 3.0]])
    pi, theta = m_step(tau, X, smoothing=0.5, reseed=False)
    assert 0 < pi[1] < 1e-200
    np.testing.assert_allclose(theta[1], [0.5, 0.5])  # smoothing-only row


def _draw(rng, n, pi, theta, total=30):
    z = rng.choice(len(pi), size=n, p=pi)
    return np.stack([rng.multinomial(total, theta[c]) for c in z]), z


def test_fit_em_monotone_and_normalized():
    rng = np.random.default_rng(0)
    theta = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    X, _ = _draw(rng, 400, [0.6, 0.4], theta)
    model, assign = fit_em(X, 2, EMConfig(restarts=3, seed=1))
    trace = np.array(model.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))
    np.testing.assert_allclose(assign.tau.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.pi.sum(), 1.0, atol=1e-12)
    assert model.reseed_iters == []


def test_fit_em_recovers_separated_clusters():
    rng = np.random.default_rng(3)
    theta = np.array([[0.85, 0.1, 0.05], [0.05, 0.1, 0.85]])
    X, z = _draw(rng, 600, [0.5, 0.5], theta)
    model, assign = fit_em(X, 2, EMConfig(restarts=4, seed=2))
    rows, cols, _ = match_clusters(model.theta, theta)
    relabel = np.empty(2, dtype=int)
    relabel[rows] = cols
    acc = (relabel[assign.hard] == z).mean()
    assert acc > 0.98


def test_fit_em_argument_validation():
    X = np.ones((5, 3))
    with pytest.raises(ValueError):
        fit_em(X, 0)
    with pytest.raises(ValueError):
        fit_em(X, 6)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    X, _ = _draw(rng, 100, [0.5, 0.3, 0.2],
                 np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
    model, _ = fit_em(X, 3, EMConfig(restarts=2, seed=0))
    perm = [2, 0, 1]
    permuted = MixtureModel(3, model.d, model.pi[perm], model.theta[perm])
    assert abs(penalized_loglik(model, X)
               - penalized_loglik(permuted, X)) < 1e-8


def test_match_clusters_identity_on_permutation():
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    rows, cols, dist = match_clusters(centers[[2, 0, 1]], centers)
    assert list(cols[np.argsort(rows)]) == [2, 0, 1]
    assert dist.tolist() == [0.0, 0.0, 0.0]


def _shapes():
    """(n_a, n_b) for sizes 1-10: square, more rows, more columns."""
    return [(n, n) for n in range(1, 11)] + [
        (n, m) for n in range(1, 11) for m in range(1, 11) if n != m]


def test_match_clusters_equals_scipy_without_ties():
    rng = np.random.default_rng(11)
    for n_a, n_b in _shapes():
        for d in (2, 5, 16):
            a, b = rng.random((n_a, d)), rng.random((n_b, d))
            rows, cols, dist = match_clusters(a, b)
            cost = cdist(a, b)
            want = linear_sum_assignment(cost)
            assert rows.tolist() == want[0].tolist()
            assert cols.tolist() == want[1].tolist()
            np.testing.assert_allclose(dist, cost[want], rtol=1e-12)


@pytest.mark.parametrize("kind", ["integer", "d1", "cityblock"])
def test_match_clusters_total_cost_equals_scipy_with_ties(kind):
    rng = np.random.default_rng(12)
    metric = "cityblock" if kind == "cityblock" else "euclidean"
    for n_a, n_b in _shapes():
        for _ in range(4):
            d = 1 if kind == "d1" else int(rng.integers(1, 4))
            if kind == "integer":
                a = rng.integers(0, 3, (n_a, d)).astype(float)
                b = rng.integers(0, 3, (n_b, d)).astype(float)
            else:
                a, b = rng.random((n_a, d)), rng.random((n_b, d))
            cost = cdist(a, b, metric=metric)
            rows, cols, dist = match_clusters(a, b, metric=metric)
            want = linear_sum_assignment(cost)
            assert len(rows) == len(want[0]) == min(n_a, n_b)
            assert np.all(np.diff(rows) > 0)
            assert len(set(cols.tolist())) == len(cols)
            assert abs(cost[rows, cols].sum()
                       - cost[want].sum()) <= 1e-12
            np.testing.assert_allclose(dist, cost[rows, cols], rtol=1e-12,
                                       atol=1e-15)


def test_match_clusters_rejects_unknown_metric_and_nan():
    centers = np.eye(3)
    with pytest.raises(ValueError, match="metric"):
        match_clusters(centers, centers, metric="cosine")
    with pytest.raises(ValueError, match="non-finite"):
        match_clusters(np.array([[np.nan, 0.0, 0.0]]), centers)


def test_kmeans_recovers_blobs():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    z = rng.integers(0, 3, 300)
    X = centers[z] + rng.normal(0, 0.4, (300, 2))
    model, assign = fit_kmeans(X, 3, KMeansConfig(restarts=4, seed=1))
    rows, cols, err = match_clusters(model.centers, centers)
    assert err.max() < 0.3
    relabel = np.empty(3, dtype=int)
    relabel[rows] = cols
    assert (relabel[assign.hard] == z).mean() > 0.99


def test_kmeans_inertia_non_increasing_in_k():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (200, 3))
    inertias = [fit_kmeans(X, k, KMeansConfig(restarts=3, seed=2))[0].inertia
                for k in (1, 2, 4)]
    assert inertias[0] >= inertias[1] >= inertias[2]


def test_kmeans_validation():
    with pytest.raises(ValueError):
        fit_kmeans(np.ones((3, 2)), 4)


def test_fit_kmeans_tau_is_one_hot_of_hard():
    X = np.random.default_rng(5).normal(0, 1, (50, 3))
    model, assign = fit_kmeans(X, 3, KMeansConfig(restarts=2, seed=1))
    assert isinstance(assign, AssignmentSet)
    np.testing.assert_array_equal(assign.tau, np.eye(3)[assign.hard])
    np.testing.assert_array_equal(assign.hard, hard_labels(model, X))


def test_both_models_share_centers_and_width():
    X = np.random.default_rng(6).integers(0, 5, (40, 4)).astype(float)
    em, _ = fit_em(X, 2, EMConfig(restarts=1, seed=0))
    km, _ = fit_kmeans(X, 2, KMeansConfig(restarts=1, seed=0))
    assert em.centers is em.theta
    assert em.d == km.d == 4
    for model in (em, km):
        assert model_to_dict(model)["d"] == model.d
        assert model.centers.shape == (2, 4)


def test_soft_features_shapes_and_zero_rows():
    model = MixtureModel(2, 3, np.array([0.5, 0.5]),
                         np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]]))
    X = np.array([[8.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    D = soft_features(model, X)
    assert D.shape == (2, 2)
    # the zero row becomes uniform proportions: equidistant by symmetry
    assert abs(D[1, 0] - D[1, 1]) < 1e-12
    assert D[0, 0] < D[0, 1]


def test_hard_labels_match_posterior_argmax():
    rng = np.random.default_rng(11)
    theta = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    X, _ = _draw(rng, 50, [0.5, 0.5], theta)
    model = MixtureModel(2, 3, np.array([0.5, 0.5]), theta)
    np.testing.assert_array_equal(hard_labels(model, X),
                                  np.argmax(e_step(model, X), axis=1))


def test_mixture_json_roundtrip():
    rng = np.random.default_rng(13)
    X, _ = _draw(rng, 80, [0.5, 0.5],
                 np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]]))
    model, _ = fit_em(X, 2, EMConfig(restarts=2, seed=3),
                      characterization="TF")
    text = artifacts.to_json(model_to_dict(model))
    back = model_from_dict(json.loads(text))
    assert isinstance(back, MixtureModel)
    np.testing.assert_array_equal(back.pi, model.pi)       # repr is lossless
    np.testing.assert_array_equal(back.theta, model.theta)
    assert back.characterization == "TF"
    assert artifacts.to_json(model_to_dict(model)) == text


def test_kmeans_json_roundtrip():
    rng = np.random.default_rng(17)
    X = rng.normal(0, 1, (40, 4))
    model, _ = fit_kmeans(X, 2, KMeansConfig(restarts=2, seed=1), "ME")
    text = artifacts.to_json(model_to_dict(model))
    back = model_from_dict(json.loads(text))
    np.testing.assert_array_equal(back.centers, model.centers)
    assert back.inertia == model.inertia


def test_overspecified_fit_records_reseeds():
    # two true clusters, K=5: starved components get re-seeded and the model
    # records when that happened
    rng = np.random.default_rng(19)
    theta = np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]])
    X, _ = _draw(rng, 300, [0.5, 0.5], theta, total=40)
    model, assign = fit_em(X, 5, EMConfig(restarts=2, max_iter=100, seed=5))
    np.testing.assert_allclose(assign.tau.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.pi.sum(), 1.0, atol=1e-12)
    assert np.all(np.isfinite(model.loglik_trace))


def _reference_fit_em(X, k, config):
    """EM on every row of X, two log-sum-exp passes per iteration: the
    per-row algorithm that `fit_em` runs on distinct rows."""
    def posterior_and_loglik(model):
        logw = X @ np.log(model.theta).T + np.log(model.pi)
        lse = logsumexp(logw, axis=1, keepdims=True)
        return (np.exp(logw - lse), float(lse.sum())
                + model.smoothing * float(np.log(model.theta).sum()))

    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    rng = np.random.default_rng(config.seed)
    P = mixture._proportions(X)
    best = None
    for _ in range(max(1, config.restarts)):
        labels = _plain_hard_assign(P, _plain_kmeanspp_seed(P, k, rng))
        tau = np.zeros((n, k))
        tau[np.arange(n), labels] = 1.0
        model = MixtureModel(k, d, *m_step(tau, X, mixture.SMOOTHING), [],
                             mixture.SMOOTHING, config.seed)
        ll = posterior_and_loglik(model)[1]
        model.loglik_trace.append(ll)
        reseed_budget = 3 * k
        for it in range(config.max_iter):
            tau = posterior_and_loglik(model)[0]
            starved = int((tau.sum(axis=0) < 1e-10).sum())
            do_reseed = starved > 0 and reseed_budget > 0
            if do_reseed:
                model.reseed_iters.append(it)
                reseed_budget -= starved
            model.pi, model.theta = m_step(tau, X, mixture.SMOOTHING,
                                           reseed=do_reseed)
            ll_new = posterior_and_loglik(model)[1]
            model.loglik_trace.append(ll_new)
            if not starved and abs(ll_new - ll) <= config.tol * (abs(ll) + 1.0):
                break
            ll = ll_new
        if best is None or model.loglik_trace[-1] > best.loglik_trace[-1]:
            best = model
    tau = posterior_and_loglik(best)[0]
    return best, AssignmentSet(tau, np.argmax(tau, axis=1))


def _em_inputs():
    two = np.array([[0.9, 0.05, 0.05], [0.05, 0.05, 0.9]])
    rng = np.random.default_rng(23)
    yield ("duplicates", _draw(rng, 600, [0.5, 0.5], two, total=4)[0], 3,
           EMConfig(restarts=3, seed=1))
    # K=5 over two true clusters: starved components are re-seeded
    yield ("reseeds", _draw(np.random.default_rng(3), 300, [0.5, 0.5], two,
                            total=10)[0], 5,
           EMConfig(restarts=2, max_iter=100, seed=0))
    yield ("distinct", rng.integers(0, 50, (200, 12)), 4,
           EMConfig(restarts=3, seed=2))


@pytest.mark.parametrize("name,X,k,config", list(_em_inputs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_fit_em_on_distinct_rows_matches_per_row_reference(name, X, k,
                                                           config):
    expect_model, expect = _reference_fit_em(X, k, config)
    model, got = fit_em(X, k, config)
    distinct = len(np.unique(X, axis=0))
    assert (distinct == len(X)) == (name == "distinct")
    assert bool(model.reseed_iters) == (name == "reseeds")
    assert model.reseed_iters == expect_model.reseed_iters
    assert len(model.loglik_trace) == len(expect_model.loglik_trace)
    np.testing.assert_allclose(model.loglik_trace, expect_model.loglik_trace,
                               rtol=1e-10, atol=0)
    np.testing.assert_array_equal(got.hard, expect.hard)
    np.testing.assert_allclose(got.tau, expect.tau, rtol=0, atol=1e-12)


def test_m_step_with_counts_equals_expanded_rows():
    rng = np.random.default_rng(29)
    U = rng.integers(0, 6, (7, 4)).astype(float)
    counts = np.array([1, 3, 2, 5, 1, 4, 2])
    tau = rng.dirichlet(np.ones(3), size=7)
    tau[:, 2] = 0.0     # an empty cluster, re-seeded from the worst-fit row
    tau /= tau.sum(axis=1, keepdims=True)
    for reseed in (True, False):
        pi, theta = m_step(tau, U, 0.5, reseed=reseed,
                           counts=counts.astype(float))
        expanded = np.repeat(np.arange(7), counts)
        pi_x, theta_x = m_step(tau[expanded], U[expanded], 0.5,
                               reseed=reseed)
        np.testing.assert_allclose(pi, pi_x, rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose(theta, theta_x, rtol=1e-14)


def test_fit_em_diagnostics():
    rng = np.random.default_rng(31)
    theta = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
    X, _ = _draw(rng, 200, [0.5, 0.5], theta)
    model, _ = fit_em(X, 2, EMConfig(restarts=3, seed=4))
    assert model.converged
    assert model.n_iter == len(model.loglik_trace) - 1 > 0
    assert len(model.restart_logliks) == 3
    assert max(model.restart_logliks) == model.loglik_trace[-1]
    noise = np.random.default_rng(37).integers(0, 50, (100, 12))
    capped, _ = fit_em(noise, 4, EMConfig(restarts=2, max_iter=5, seed=4))
    assert not capped.converged and capped.n_iter == 5
    payload = json.loads(artifacts.to_json(model_to_dict(model)))
    assert payload["diagnostics"] == {
        "converged": True, "n_iter": model.n_iter,
        "restart_logliks": [repr(v) for v in model.restart_logliks]}
    text = artifacts.to_json(model_to_dict(model))
    back = model_from_dict(json.loads(text))
    assert (back.converged, back.n_iter, back.restart_logliks) == (
        True, model.n_iter, model.restart_logliks)
    del payload["diagnostics"]      # a model file written without them
    old = model_from_dict(json.loads(json.dumps(payload)))
    assert (old.converged, old.n_iter, old.restart_logliks) == (False, 0, [])
    # each field of the block has its type; a missing field its default
    for bad in (None, [], {"converged": 1}, {"n_iter": -1}, {"n_iter": 2.0},
                {"n_iter": True}, {"restart_logliks": "x"},
                {"restart_logliks": ["nan"]}, {"restart_logliks": ["1e400"]}):
        payload["diagnostics"] = bad
        with pytest.raises(ValueError, match="diagnostics"):
            model_from_dict(json.loads(json.dumps(payload)))
    payload["diagnostics"] = {"n_iter": 3}
    partial = model_from_dict(json.loads(json.dumps(payload)))
    assert (partial.converged, partial.n_iter) == (False, 3)


# The EM iteration as it stood before reductions over the K posteriors ran
# column by column and per-fit constants were computed once, copied with
# names prefixed and docstrings and logging dropped: the bit-identity
# reference for `fit_em`, `m_step`, `e_step` and `penalized_loglik`.

def _plain_posterior(model, X):
    logw = X @ np.log(model.theta).T + np.log(model.pi)
    top = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - top)
    total = w.sum(axis=1, keepdims=True)
    return w / total, (top + np.log(total))[:, 0]


def _plain_penalized(model, lse, counts=None):
    ll = float(lse.sum() if counts is None else counts @ lse)
    return ll + model.smoothing * float(np.log(model.theta).sum())


def _plain_m_step(tau, X, smoothing=mixture.SMOOTHING, reseed=True,
                  counts=None):
    tau = np.asarray(tau, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    k = tau.shape[1]
    counts = np.ones(X.shape[0]) if counts is None else counts
    mass = tau * counts[:, None]
    weights = mass.sum(axis=0)
    pi = weights / counts.sum()
    num = mass.T @ X + smoothing
    den = mass.T @ X.sum(axis=1) + smoothing * d
    theta = num / den[:, None]
    empty = weights < 1e-10
    if np.any(empty):
        if reseed:
            worst = int(np.argmin(tau.max(axis=1)))
            for j in np.flatnonzero(empty):
                theta[j] = ((X[worst] + smoothing)
                            / (X[worst].sum() + smoothing * d))
                pi[j] = 1.0 / k
        else:
            pi[empty] = 1e-300
        pi = pi / pi.sum()
    return pi, theta


def _plain_fit_em(X, k, config, characterization=""):
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    rng = np.random.default_rng(config.seed)
    P = mixture._proportions(X)
    U, counts, inverse = mixture._distinct_rows(X)
    best = None
    restart_logliks = []
    for _ in range(max(1, config.restarts)):
        tau = np.eye(k)[_plain_hard_assign(P, _plain_kmeanspp_seed(P, k, rng))]
        pi, theta = _plain_m_step(tau, X)
        model = MixtureModel(k, d, pi, theta, [], mixture.SMOOTHING,
                             config.seed, characterization)
        tau, lse = _plain_posterior(model, U)
        ll = _plain_penalized(model, lse, counts)
        model.loglik_trace.append(ll)
        reseed_budget = 3 * k
        for it in range(config.max_iter):
            starved = int(((tau * counts[:, None]).sum(axis=0) < 1e-10).sum())
            do_reseed = starved > 0 and reseed_budget > 0
            if do_reseed:
                model.reseed_iters.append(it)
                reseed_budget -= starved
            model.pi, model.theta = _plain_m_step(tau, U, reseed=do_reseed,
                                                  counts=counts)
            tau, lse = _plain_posterior(model, U)
            ll_new = _plain_penalized(model, lse, counts)
            model.loglik_trace.append(ll_new)
            if not starved and abs(ll_new - ll) <= config.tol * (abs(ll) + 1.0):
                model.converged = True
                break
            ll = ll_new
        model.n_iter = len(model.loglik_trace) - 1
        restart_logliks.append(model.loglik_trace[-1])
        if best is None or model.loglik_trace[-1] > best.loglik_trace[-1]:
            best, best_tau = model, tau
    best.restart_logliks = restart_logliks
    tau = best_tau[inverse]
    return best, AssignmentSet(tau, np.argmax(tau, axis=1))


def _bit_identity_inputs():
    yield from _em_inputs()
    rng = np.random.default_rng(41)
    yield ("fractional", rng.gamma(0.7, 2.0, (250, 5)), 3,
           EMConfig(restarts=3, seed=3))
    zero_rows = rng.integers(0, 6, (200, 7))
    zero_rows[::17] = 0
    yield "zero_rows", zero_rows, 4, EMConfig(restarts=2, seed=5)
    yield ("capped", rng.integers(0, 50, (100, 12)), 4,
           EMConfig(restarts=2, max_iter=5, seed=4))


@pytest.mark.parametrize("name,X,k,config", list(_bit_identity_inputs()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_fit_em_is_bit_identical_to_the_plain_iteration(name, X, k, config):
    expect_model, expect = _plain_fit_em(X, k, config, "TF")
    model, got = fit_em(X, k, config, "TF")
    for a, b in ((model.pi, expect_model.pi),
                 (model.theta, expect_model.theta),
                 (got.tau, expect.tau), (got.hard, expect.hard)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    for attr in ("loglik_trace", "restart_logliks", "reseed_iters", "n_iter",
                 "converged"):
        assert getattr(model, attr) == getattr(expect_model, attr), attr
    if name == "capped":
        assert not model.converged and model.n_iter == config.max_iter
    for U in (X, X[: len(X) // 3]):
        tau, lse = _plain_posterior(model, np.asarray(U, dtype=np.float64))
        assert e_step(model, U).tobytes() == tau.tobytes()
        assert penalized_loglik(model, U) == _plain_penalized(model, lse)


def test_fit_em_at_nine_clusters_is_within_rounding_of_the_plain_iteration():
    # from K = 8 numpy's row sum is pairwise, not in index order: the
    # normaliser may differ in its last bits, nothing more
    X = np.random.default_rng(43).integers(0, 30, (300, 10))
    config = EMConfig(restarts=2, seed=6)
    expect_model, expect = _plain_fit_em(X, 9, config)
    model, got = fit_em(X, 9, config)
    np.testing.assert_array_equal(got.hard, expect.hard)
    np.testing.assert_allclose(got.tau, expect.tau, rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.pi, expect_model.pi, rtol=1e-12)
    np.testing.assert_allclose(model.theta, expect_model.theta, rtol=1e-12)
    assert len(model.loglik_trace) == len(expect_model.loglik_trace)
    np.testing.assert_allclose(model.loglik_trace, expect_model.loglik_trace,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(model.restart_logliks,
                               expect_model.restart_logliks, rtol=1e-12)


def test_m_step_is_bit_identical_to_the_plain_update():
    rng = np.random.default_rng(47)
    U = rng.integers(0, 6, (9, 4)).astype(float)
    counts = rng.integers(1, 5, 9)
    tau = rng.dirichlet(np.ones(3), size=9)
    tau[:, 1] = 0.0
    tau /= tau.sum(axis=1, keepdims=True)
    for kwargs in ({}, {"counts": counts}, {"reseed": False},
                   {"reseed": False, "counts": counts}):
        got = m_step(tau, U, 0.5, **kwargs)
        expect = _plain_m_step(tau, U, 0.5, **kwargs)
        # fit_em's form: the rows and counts handed over as one _Rows
        rows = mixture._Rows.of(U, kwargs.get("counts"))
        handed = m_step(tau, rows, 0.5, reseed=kwargs.get("reseed", True))
        for a, b, c in zip(got, expect, handed):
            assert a.tobytes() == b.tobytes() == c.tobytes()


def test_fit_em_computes_its_row_constants_once(monkeypatch):
    # the rows, counts and totals are built once per fit and handed to every
    # M-step, not rebuilt by each restart or iteration
    calls = []
    inner = mixture._Rows.of

    def counted(cls, X, counts):
        calls.append(len(X))
        return inner(X, counts)

    monkeypatch.setattr(mixture._Rows, "of", classmethod(counted))
    for name, X, k, config in _em_inputs():
        calls.clear()
        model, _ = fit_em(X, k, config)
        assert model.n_iter > 0 and config.restarts > 1
        assert calls == [len(np.unique(X, axis=0))], name


def _plain_starved(tau, counts):
    return int(((tau * counts[:, None]).sum(axis=0) < 1e-10).sum())


@pytest.mark.parametrize("column", [
    np.full(6, 1e-10),                                # entries at 1e-10
    np.array([1e-10, 0, 0, 0, 0, 0]),
    np.full(6, np.nextafter(1e-10, 0)),               # just under each
    np.zeros(6),                                      # all zero
    np.full(6, 2e-11),                                # each under, sum over
    np.array([9e-11, 0, 0, 0, 0, 1.1e-11]),
    np.array([5e-11, 0, 0, 0, 0, 0]),                 # weighted sum 1e-10
    np.array([1e-11, 0, 0, 0, 0, 0]),                 # weighted sum under
], ids=["at", "one-at", "under", "zero", "sum-over", "pair-over",
        "weighted-at", "weighted-under"])
def test_starved_count_equals_the_mass_formula(column):
    counts = np.array([2, 1, 1, 1, 1, 9])
    tau = np.column_stack([np.full(6, 0.5), column, 0.5 - column])
    expect = _plain_starved(tau, counts)
    assert mixture._starved(tau, counts[:, None].astype(float)) == expect
    assert mixture._starved(tau, counts[:, None]) == expect


# Seeding, Lloyd's iteration and cluster matching as they stood before every
# squared distance came from `_sq_distances`, copied with names prefixed:
# the bit-identity reference for `_kmeanspp_seed`, `fit_kmeans`,
# `hard_labels`, `match_clusters` and the matched distances that
# `stability_check` (ε) and `layered_fit` (divergence) read from it.

def _plain_kmeanspp_seed(P, k, rng):
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))
    centers[0] = P[rng.integers(n)]
    d2 = ((P - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = P[idx]
        d2 = np.minimum(d2, ((P - centers[j]) ** 2).sum(axis=1))
    return centers


def _plain_hard_assign(P, centers):
    d2 = np.stack([((P - c) ** 2).sum(axis=1) for c in centers], axis=1)
    return np.argmin(d2, axis=1)


def _plain_fit_kmeans(X, k, config, characterization=""):
    X = np.asarray(X, dtype=np.float64)
    rng = np.random.default_rng(config.seed)
    best_inertia = np.inf
    best_centers = None
    best_labels = None
    for _ in range(max(1, config.restarts)):
        centers = _plain_kmeanspp_seed(X, k, rng)
        labels = _plain_hard_assign(X, centers)
        for _ in range(mixture.KMEANS_MAX_ITER):
            new_centers = centers.copy()
            for j in range(k):
                mask = labels == j
                if np.any(mask):
                    new_centers[j] = X[mask].mean(axis=0)
                else:
                    d2 = ((X - centers[labels]) ** 2).sum(axis=1)
                    new_centers[j] = X[int(np.argmax(d2))]
            new_labels = _plain_hard_assign(X, new_centers)
            moved = float(((new_centers - centers) ** 2).sum())
            centers, labels = new_centers, new_labels
            if moved <= mixture.KMEANS_TOL:
                break
        inertia = float(((X - centers[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_centers, best_labels = inertia, centers, labels
    model = KMeansModel(k, best_centers, best_inertia, config.seed,
                        characterization)
    return model, AssignmentSet(np.eye(k)[best_labels], best_labels)


def _plain_cost(centers_a, centers_b, metric="euclidean"):
    diff = (np.asarray(centers_a, dtype=np.float64)[:, None, :]
            - np.asarray(centers_b, dtype=np.float64)[None, :, :])
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(axis=2))
    return np.abs(diff).sum(axis=2)


def _plain_match_clusters(centers_a, centers_b, metric="euclidean"):
    return mixture._min_cost_assignment(_plain_cost(centers_a, centers_b,
                                                    metric))


def _plain_matched_distances(ca, cb, rows, cols, metric="euclidean"):
    """stability_check's ε terms (euclidean) and layered_fit's divergence
    terms (cityblock), recomputed from the matched centers."""
    if metric == "euclidean":
        return np.linalg.norm(ca[rows] - cb[cols], axis=1)
    return np.abs(ca[rows] - cb[cols]).sum(axis=1)


def _assert_same_bits(*pairs):
    for a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


DIMS = [2, 7, 8, 13, 16]      # from d = 8 numpy sums a row pairwise


def _spread_rows(d, n=240):
    rng = np.random.default_rng(50 + d)
    blobs = rng.normal(0, 4, (5, d))
    return blobs[rng.integers(0, 5, n)] + rng.gamma(0.8, 1.0, (n, d))


@pytest.mark.parametrize("d", DIMS)
def test_sq_distances_are_bit_identical_to_the_plain_sums(d):
    X = _spread_rows(d)
    rng = np.random.default_rng(d)
    for k in (1, 3, 7):
        centers = rng.normal(0, 4, (k, d))
        d2 = mixture._sq_distances(X, centers)
        for j in range(k):
            _assert_same_bits((d2[:, j], ((X - centers[j]) ** 2).sum(axis=1)))
        # Lloyd's empty-cluster pick reads each row's distance from its own
        # centre off the matrix
        labels = rng.integers(0, k, len(X))
        _assert_same_bits((d2[np.arange(len(X)), labels],
                           ((X - centers[labels]) ** 2).sum(axis=1)))
        _assert_same_bits((np.argmin(d2, axis=1),
                           _plain_hard_assign(X, centers)))


@pytest.mark.parametrize("d", DIMS)
def test_kmeanspp_seed_is_bit_identical_to_the_plain_seeding(d):
    X = _spread_rows(d)
    for P in (X, mixture._proportions(X)):
        for k in (1, 2, 5, 8):
            _assert_same_bits(
                (mixture._kmeanspp_seed(P, k, np.random.default_rng(k)),
                 _plain_kmeanspp_seed(P, k, np.random.default_rng(k))))


@pytest.mark.parametrize("d", DIMS)
def test_fit_kmeans_is_bit_identical_to_the_plain_lloyd(d):
    X = _spread_rows(d)
    for k in (1, 4, 6):
        config = KMeansConfig(restarts=3, seed=d + k)
        model, got = fit_kmeans(X, k, config, "ME")
        expect_model, expect = _plain_fit_kmeans(X, k, config, "ME")
        _assert_same_bits((model.centers, expect_model.centers),
                          (got.tau, expect.tau), (got.hard, expect.hard),
                          (hard_labels(model, X),
                           _plain_hard_assign(X, model.centers)))
        assert model.inertia.hex() == expect_model.inertia.hex()


def _empty_cluster_hits(X, k, config):
    """(fit_kmeans(X, k, config), how often its empty-cluster pick ran)."""
    source, first = inspect.getsourcelines(mixture.fit_kmeans)
    line, = (first + i for i, text in enumerate(source)
             if "d2[np.arange(n), labels]" in text)
    hits = []

    def trace(frame, event, arg):
        if frame.f_code is not mixture.fit_kmeans.__code__:
            return None
        if event == "line" and frame.f_lineno == line:
            hits.append(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        fit = fit_kmeans(X, k, config)
    finally:
        sys.settrace(previous)
    return fit, len(hits)


def test_fit_kmeans_empty_cluster_branch_matches_the_plain_lloyd():
    # two distinct rows and k = 3: k-means++ repeats a centre, and the
    # repeat's cluster is empty (argmin takes the lower index on a tie)
    X = np.array([[0.0, 1.0, 4.0], [2.0, 0.5, 3.0]])[np.arange(12) % 2]
    config = KMeansConfig(restarts=3, seed=5)
    (model, got), hits = _empty_cluster_hits(X, 3, config)
    assert hits >= config.restarts
    expect_model, expect = _plain_fit_kmeans(X, 3, config)
    _assert_same_bits((model.centers, expect_model.centers),
                      (got.hard, expect.hard))
    assert model.inertia.hex() == expect_model.inertia.hex() == 0.0.hex()


def test_fit_kmeans_warns_once_on_fewer_distinct_rows_than_k(caplog):
    X = np.array([[0.0, 1.0, 4.0], [2.0, 0.5, 3.0]])[np.arange(12) % 2]
    with caplog.at_level("WARNING", logger="persona_forge.mixture"):
        fit_kmeans(X, 2, KMeansConfig(restarts=3, seed=5), "TF")
        fit_kmeans(np.random.default_rng(0).normal(size=(40, 3)), 3,
                   KMeansConfig(restarts=3, seed=5), "TF")
    assert caplog.records == []
    with caplog.at_level("WARNING", logger="persona_forge.mixture"):
        fit_kmeans(X, 3, KMeansConfig(restarts=3, seed=5), "TF")
    assert [r.getMessage() for r in caplog.records] == [
        "k-means on 'TF': fewer than k=3 distinct rows, so centres repeat "
        "and a cluster stays empty"]


@pytest.mark.parametrize("d", DIMS)
def test_match_clusters_is_bit_identical_to_the_plain_matching(d):
    rng = np.random.default_rng(60 + d)
    for n_a, n_b in ((1, 1), (3, 3), (5, 3), (2, 6), (7, 7)):
        a, b = rng.normal(0, 1, (n_a, d)), rng.gamma(1.0, 1.0, (n_b, d))
        _assert_same_bits((np.sqrt(mixture._sq_distances(a, b)),
                           _plain_cost(a, b)))
        for metric in ("euclidean", "cityblock"):
            rows, cols, dist = match_clusters(a, b, metric)
            want_rows, want_cols = _plain_match_clusters(a, b, metric)
            _assert_same_bits((rows, want_rows), (cols, want_cols),
                              (dist, _plain_matched_distances(
                                  a, b, want_rows, want_cols, metric)))


def test_match_clusters_with_an_empty_center_set():
    some, none = np.ones((3, 2)), np.empty((0, 2))
    assert mixture._sq_distances(some, none).shape == (3, 0)
    for a, b in ((none, some), (some, none), (none, none)):
        for metric in ("euclidean", "cityblock"):
            rows, cols, dist = match_clusters(a, b, metric)
            assert rows.shape == cols.shape == dist.shape == (0,)


def _record(monkeypatch, name):
    """Record every call of analysis.<name> with its result."""
    calls = []
    inner = getattr(analysis, name)

    def recorded(X, k, config, *args):
        result = inner(X, k, config, *args)
        calls.append((X, k, config, result))
        return result
    monkeypatch.setattr(analysis, name, recorded)
    return calls


@pytest.mark.parametrize("kind", ["em", "kmeans"])
def test_stability_report_equals_the_plain_formulas(monkeypatch, kind):
    rng = np.random.default_rng(71)
    if kind == "em":
        theta = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6], [0.3, 0.4, 0.3]])
        X = _draw(rng, 400, [0.4, 0.3, 0.3], theta)[0]
        config, plain_fit = EMConfig(restarts=2), _plain_fit_em
    else:
        X = _spread_rows(8, n=400)
        config, plain_fit = KMeansConfig(restarts=2), _plain_fit_kmeans
    calls = _record(monkeypatch, "fit_model")
    report = analysis.stability_check(X, 3, epsilon=1.0, delta=1.0, runs=4,
                                      seed=3, fit_config=config)
    assert report.failed_runs == [] and len(calls) == 4
    results = []
    for sub, k, cfg, (model, _) in calls:
        expect_model, expect = plain_fit(sub, k, cfg)
        _assert_same_bits((model.centers, expect_model.centers))
        results.append((expect_model.centers,
                        np.bincount(expect.hard, minlength=k) / len(sub)))
    eps = delta = 0.0
    for (ca, sa), (cb, sb) in combinations(results, 2):
        rows, cols = _plain_match_clusters(ca, cb)
        eps = max(eps, float(_plain_matched_distances(ca, cb, rows,
                                                      cols).max()))
        delta = max(delta, float(np.abs(sa[rows] - sb[cols]).max()))
    assert report.epsilon_observed.hex() == eps.hex() != 0.0.hex()
    assert report.delta_observed.hex() == delta.hex()


def test_layered_report_equals_the_plain_formula(monkeypatch):
    rng = np.random.default_rng(73)
    theta = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    X = _draw(rng, 900, [0.5, 0.5], theta)[0]
    parents = rng.integers(0, 3, 900)
    calls = _record(monkeypatch, "fit_em")
    report = analysis.layered_fit(X, parents, 2, EMConfig(restarts=2, seed=1))
    assert len(calls) == 3
    thetas = []
    for rows, k, cfg, (model, _) in calls:
        expect_model = _plain_fit_em(rows, k, cfg)[0]
        _assert_same_bits((model.theta, expect_model.theta))
        thetas.append(expect_model.theta)
    divergence = 0.0
    for ca, cb in combinations(thetas, 2):
        rows, cols = _plain_match_clusters(ca, cb, metric="cityblock")
        divergence = max(divergence, float(_plain_matched_distances(
            ca, cb, rows, cols, "cityblock").max()))
    assert report.divergence.hex() == divergence.hex() != 0.0.hex()


def test_model_from_dict_rejects_a_payload_whose_shape_contradicts_itself():
    X = np.random.default_rng(79).normal(0, 1, (40, 13))
    payload = model_to_dict(fit_kmeans(X, 4, KMeansConfig(seed=1), "ME")[0])
    assert model_from_dict(payload).centers.shape == (4, 13)
    for K, d, rows in ((4, 99, 3), (4, 13, 3), (3, 99, 3), (4, 99, 4),
                       (5, 13, 4)):
        bad = {**payload, "K": K, "d": d, "centers": payload["centers"][:rows]}
        with pytest.raises(ValueError, match="shapes disagree"):
            model_from_dict(bad)
    with pytest.raises(ValueError, match="shapes disagree"):
        KMeansModel(4, np.zeros((3, 13)), 0.0)
    with pytest.raises(ValueError, match="shapes disagree"):
        KMeansModel(3, np.zeros(3), 0.0)
    rng = np.random.default_rng(83)
    em = model_to_dict(fit_em(rng.integers(0, 9, (40, 5)), 3,
                              EMConfig(restarts=1))[0])
    for K, d in ((3, 6), (4, 5), (2, 5)):
        with pytest.raises(ValueError, match="shapes disagree"):
            model_from_dict({**em, "K": K, "d": d})
