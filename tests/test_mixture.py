import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp

from persona_forge import artifacts, mixture
from persona_forge.mixture import (AssignmentSet, EMConfig, KMeansConfig,
                                   MixtureModel, e_step, fit_em, fit_kmeans,
                                   hard_labels, m_step, match_clusters,
                                   model_from_json, model_to_dict,
                                   penalized_loglik, permute_clusters,
                                   soft_features)


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
    rows, cols = match_clusters(model.theta, theta)
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
    permuted = permute_clusters(model, [2, 0, 1])
    assert abs(penalized_loglik(model, X)
               - penalized_loglik(permuted, X)) < 1e-8
    np.testing.assert_array_equal(permuted.pi, model.pi[[2, 0, 1]])


def test_match_clusters_identity_on_permutation():
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    rows, cols = match_clusters(centers[[2, 0, 1]], centers)
    assert list(cols[np.argsort(rows)]) == [2, 0, 1]


def test_kmeans_recovers_blobs():
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    z = rng.integers(0, 3, 300)
    X = centers[z] + rng.normal(0, 0.4, (300, 2))
    model, labels = fit_kmeans(X, 3, KMeansConfig(restarts=4, seed=1))
    rows, cols = match_clusters(model.centers, centers)
    err = np.linalg.norm(model.centers[rows] - centers[cols], axis=1)
    assert err.max() < 0.3
    relabel = np.empty(3, dtype=int)
    relabel[rows] = cols
    assert (relabel[labels] == z).mean() > 0.99


def test_kmeans_inertia_non_increasing_in_k():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (200, 3))
    inertias = [fit_kmeans(X, k, KMeansConfig(restarts=3, seed=2))[0].inertia
                for k in (1, 2, 4)]
    assert inertias[0] >= inertias[1] >= inertias[2]


def test_kmeans_validation():
    with pytest.raises(ValueError):
        fit_kmeans(np.ones((3, 2)), 4)


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
    back = model_from_json(artifacts.to_json(model_to_dict(model)))
    assert isinstance(back, MixtureModel)
    np.testing.assert_array_equal(back.pi, model.pi)       # repr is lossless
    np.testing.assert_array_equal(back.theta, model.theta)
    assert back.characterization == "TF"
    text = artifacts.to_json(model_to_dict(model))
    assert artifacts.to_json(model_to_dict(model)) == text


def test_kmeans_json_roundtrip():
    rng = np.random.default_rng(17)
    X = rng.normal(0, 1, (40, 4))
    model, _ = fit_kmeans(X, 2, KMeansConfig(restarts=2, seed=1), "ME")
    back = model_from_json(artifacts.to_json(model_to_dict(model)))
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
        labels = mixture._hard_assign(P, mixture._kmeanspp_seed(P, k, rng))
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
    back = model_from_json(artifacts.to_json(model_to_dict(model)))
    assert (back.converged, back.n_iter, back.restart_logliks) == (
        True, model.n_iter, model.restart_logliks)
    del payload["diagnostics"]      # a model file written without them
    old = model_from_json(json.dumps(payload))
    assert (old.converged, old.n_iter, old.restart_logliks) == (False, 0, [])
