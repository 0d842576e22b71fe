import numpy as np
import pytest

from conftest import random_user_months
from persona_forge import analysis, mixture
from persona_forge.analysis import (center_report, divisive_overlap,
                                    dominance_check, layered_fit,
                                    migration_matrix, stability_check)


def _blob_counts(rng, n):
    theta = np.array([[0.85, 0.1, 0.05], [0.05, 0.1, 0.85]])
    z = rng.integers(0, 2, n)
    return np.stack([rng.multinomial(40, theta[c]) for c in z])


def test_stability_passes_on_separated_data():
    rng = np.random.default_rng(0)
    X = _blob_counts(rng, 1200)
    report = stability_check(X, 2, epsilon=0.05, delta=0.10, runs=4, seed=1,
                             fit_config=mixture.EMConfig(restarts=2, seed=0))
    assert report.passed
    assert report.epsilon_observed <= 0.05
    assert report.delta_observed <= 0.10
    assert report.failed_runs == []


def test_stability_respects_thresholds():
    rng = np.random.default_rng(0)
    X = _blob_counts(rng, 1200)
    report = stability_check(X, 2, epsilon=1e-9, delta=1e-9, runs=4, seed=1,
                             fit_config=mixture.EMConfig(restarts=2, seed=0))
    assert not report.passed  # finite subsample noise exceeds a zero budget


def test_stability_needs_two_runs():
    with pytest.raises(ValueError):
        stability_check(np.ones((10, 2)), 1, 0.1, 0.1, runs=1)


def test_stability_kmeans_method():
    rng = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0], [20.0, 20.0]])
    X = centers[rng.integers(0, 2, 600)] + rng.normal(0, 0.3, (600, 2))
    report = stability_check(X, 2, epsilon=0.2, delta=0.1, runs=4, seed=2,
                             fit_config=mixture.KMeansConfig(restarts=4))
    assert report.passed


def test_stability_refit_kind_follows_fit_config(monkeypatch):
    # a KMeansConfig refits by k-means alone; the parent's default `method`
    # took EM and failed on the config's missing max_iter
    calls = []

    def spy(name):
        inner = getattr(mixture, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return counted

    for name in ("fit_em", "fit_kmeans"):
        monkeypatch.setattr(mixture, name, spy(name))
    X = np.random.default_rng(4).normal(0, 1, (80, 2))
    report = stability_check(X, 2, epsilon=0.2, delta=0.1, runs=3,
                             fit_config=mixture.KMeansConfig(restarts=4))
    assert report.runs == 3
    assert calls == ["fit_kmeans"] * 3


def test_dominance_check():
    hard = np.array([0] * 70 + [1] * 25 + [2] * 5)
    rep = dominance_check(hard, kappa=0.02, k_max=6, k=3)
    assert rep.passed
    np.testing.assert_allclose(rep.shares, [0.70, 0.25, 0.05])
    assert not dominance_check(hard, kappa=0.10, k_max=6, k=3).passed
    assert not dominance_check(hard, kappa=0.02, k_max=2, k=3).passed
    # an empty cluster (share 0) fails the share floor
    assert not dominance_check(hard, kappa=0.02, k_max=6, k=4).passed


def test_migration_matrix_hand_traced():
    # users a, b, c at months a 0-2, b 0 and 2, c 0-1
    user = np.array([0, 0, 0, 1, 1, 2, 2])
    month = np.array([0, 1, 2, 0, 2, 0, 1])
    labels = np.array([0, 0, 1, 1, 0, 1, 1])
    mm = migration_matrix(user, month, labels, 2, "TF")
    # transitions: a 0->0, a 0->1, c 1->1; b months 0 and 2 are not consecutive
    assert mm.support.tolist() == [[1, 1], [0, 1]]
    np.testing.assert_allclose(mm.matrix, [[0.5, 0.5], [0.0, 1.0]])
    assert mm.characterization == "TF"


def _reference_migration_matrix(keys, labels, k):
    """Transitions counted over per-user month dicts, rows in any order."""
    by_user = {}
    for (user, month), label in zip(keys, labels):
        by_user.setdefault(user, {})[month] = int(label)
    counts = np.zeros((k, k), dtype=np.int64)
    for months in by_user.values():
        for m, a in months.items():
            b = months.get(m + 1)
            if b is not None:
                counts[a, b] += 1
    totals = counts.sum(axis=1, keepdims=True)
    return counts, np.divide(counts, totals, out=np.zeros((k, k)),
                             where=totals > 0)


def test_migration_matrix_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(300):
        users, user, month = random_user_months(rng)
        k = int(rng.integers(1, 7))
        labels = rng.integers(0, k, len(user))
        mm = migration_matrix(user, month, labels, k)
        support, matrix = _reference_migration_matrix(
            [(users[u], m) for u, m in zip(user, month)], labels, k)
        assert mm.support.dtype == support.dtype
        assert mm.support.tolist() == support.tolist()
        assert mm.matrix.tobytes() == matrix.tobytes()


def test_migration_matrix_unsupported_row_is_zero():
    mm = migration_matrix(np.array([0, 0]), np.array([0, 1]),
                          np.array([0, 0]), 3)
    np.testing.assert_allclose(mm.matrix[1], 0.0)
    np.testing.assert_allclose(mm.matrix[2], 0.0)


def test_divisive_overlap_hand_traced():
    parent = np.array([0, 0, 0, 0, 1, 1])
    child = np.array([0, 0, 1, 1, 2, 3])
    ov = divisive_overlap(parent, child, 2, 4)
    np.testing.assert_allclose(ov[0], [0.5, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(ov[1], [0.0, 0.0, 0.5, 0.5])
    np.testing.assert_allclose(ov.sum(axis=1), 1.0)


def test_divisive_overlap_shape_mismatch():
    with pytest.raises(ValueError):
        divisive_overlap(np.zeros(3), np.zeros(4), 1, 1)


def test_layered_fit_skips_tiny_parents():
    rng = np.random.default_rng(1)
    theta = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    X = np.stack([rng.multinomial(30, theta[rng.integers(0, 2)])
                  for _ in range(100)])
    parents = np.zeros(100, dtype=int)
    parents[:1] = 7  # parent 7 has a single row, fewer than K=2
    report = layered_fit(X, parents, 2, mixture.EMConfig(restarts=2, seed=0))
    assert report.skipped == [7]
    assert set(report.models) == {0}
    assert report.divergence == 0.0  # a single fitted parent cannot diverge


def test_layered_fit_detects_shared_structure():
    rng = np.random.default_rng(2)
    theta = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
    z = rng.integers(0, 2, 4000)
    X = np.stack([rng.multinomial(40, theta[c]) for c in z])
    parents = rng.integers(0, 2, 4000)  # independent of the inner labels
    report = layered_fit(X, parents, 2, mixture.EMConfig(restarts=3, seed=1))
    assert report.divergence < 0.1


def test_center_report_layout():
    centers = np.array([[0.5, 0.5], [0.25, 0.75]])
    rows = center_report(centers, ("a", "b"))
    assert rows[0] == ["cluster", "a", "b"]
    assert rows[1] == [0, 50.0, 50.0]
    assert rows[2] == [1, 25.0, 75.0]
    rows = center_report(centers, ("a", "b"), as_percent=False)
    assert rows[1] == [0, 0.5, 0.5]


def test_tables_reject_labels_outside_range():
    # a 1 -> 3 step at k = 3 is no 2 -> 0 step
    with pytest.raises(ValueError):
        migration_matrix(np.array([0, 0]), np.array([0, 1]),
                         np.array([1, 3]), 3)
    with pytest.raises(ValueError):
        migration_matrix(np.array([0, 0]), np.array([0, 1]),
                         np.array([-1, 0]), 3)
    # child -1 is not the last child, and child 2 is no child of k = 2
    for child in ([0, -1], [0, 2]):
        with pytest.raises(ValueError):
            divisive_overlap(np.array([0, 1]), np.array(child), 2, 2)
    with pytest.raises(ValueError):
        divisive_overlap(np.array([0, 2]), np.array([0, 1]), 2, 2)
    # a label on a row with no consecutive-month neighbour is checked too
    with pytest.raises(ValueError):
        migration_matrix(np.array([0, 0, 0]), np.array([0, 1, 3]),
                         np.array([0, 1, 5]), 2)
    with pytest.raises(ValueError):
        migration_matrix(np.array([0, 1]), np.array([0, 0]),
                         np.array([0, -1]), 2)
    # four shares for three clusters
    for hard in ([0, 3], [-1, 0]):
        with pytest.raises(ValueError):
            dominance_check(np.array(hard), kappa=0.02, k_max=6, k=3)


def test_divisive_overlap_and_dominance_match_reference():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        ka, kb = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        a, b = rng.integers(0, ka, n), rng.integers(0, kb, n)
        counts = np.zeros((ka, kb), dtype=np.int64)
        np.add.at(counts, (a, b), 1)
        totals = counts.sum(axis=1, keepdims=True)
        expect = np.divide(counts, totals, out=np.zeros((ka, kb)),
                           where=totals > 0)
        assert divisive_overlap(a, b, ka, kb).tobytes() == expect.tobytes()
        shares = np.sort(np.bincount(b, minlength=kb) / n)[::-1]
        assert dominance_check(b, 0.02, 6, kb).shares.tobytes() == (
            shares.tobytes())
