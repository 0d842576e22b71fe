"""Cluster evaluation: stability, dominance, migrations, hierarchy, layers."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .mixture import (EMConfig, KMeansConfig, MixtureModel, fit_em,
                      fit_kmeans, match_clusters)

log = logging.getLogger(__name__)


@dataclass
class StabilityReport:
    epsilon_observed: float
    delta_observed: float
    runs: int
    passed: bool
    failed_runs: list[int] = field(default_factory=list)


def _fit_subsample(X, k, method, cfg):
    if method == "kmeans":
        model, labels = fit_kmeans(X, k, cfg)
        centers = model.centers
    else:
        model, assign = fit_em(X, k, cfg)
        centers = model.theta
        labels = assign.hard
    shares = np.bincount(labels, minlength=k) / len(labels)
    return centers, shares


def stability_check(X: np.ndarray, k: int, epsilon: float, delta: float,
                    runs: int = 10, seed: int = 0, method: str = "em",
                    fit_config=None) -> StabilityReport:
    """Refit on 50% subsamples and compare matched cluster centers and sizes.

    Clusters are matched across every pair of runs by min-cost bipartite
    matching on center l2 distance; the report carries the worst matched
    center distance and the worst matched size deviation (absolute share
    difference). Runs producing an empty cluster are recorded as failed.
    """
    if runs < 2:
        raise ValueError("stability needs at least 2 subsample runs")
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k > n // 2:
        raise ValueError(f"k = {k} but each 50% subsample has only {n // 2} "
                         f"of the {n} rows")
    rng = np.random.default_rng(seed)
    if fit_config is None:
        fit_config = EMConfig(restarts=4) if method == "em" else KMeansConfig(restarts=4)

    results = []
    for _ in range(runs):
        idx = rng.choice(n, size=n // 2, replace=False)
        cfg = replace(fit_config, seed=int(rng.integers(2 ** 31)))
        results.append(_fit_subsample(X[idx], k, method, cfg))

    failed = [r for r, (_, shares) in enumerate(results)
              if np.any(shares == 0)]
    ok = [r for r in range(runs) if r not in failed]
    eps_obs = 0.0
    delta_obs = 0.0
    for ai in range(len(ok)):
        for bi in range(ai + 1, len(ok)):
            ca, sa = results[ok[ai]]
            cb, sb = results[ok[bi]]
            rows, cols = match_clusters(ca, cb)
            eps_obs = max(eps_obs, float(
                np.linalg.norm(ca[rows] - cb[cols], axis=1).max()))
            delta_obs = max(delta_obs, float(
                np.abs(sa[rows] - sb[cols]).max()))
    passed = (not failed) and eps_obs <= epsilon and delta_obs <= delta
    return StabilityReport(eps_obs, delta_obs, runs, passed, failed)


@dataclass
class DominanceReport:
    passed: bool
    shares: np.ndarray  # sorted descending


def dominance_check(hard: np.ndarray, kappa: float, k_max: int,
                    k: int) -> DominanceReport:
    """True iff every share of the k hard clusters is at least kappa and
    k <= k_max."""
    hard = np.asarray(hard)
    shares = np.bincount(hard, minlength=k) / len(hard)
    shares = np.sort(shares)[::-1]
    passed = bool(k <= k_max and shares.min() >= kappa)
    return DominanceReport(passed, shares)


@dataclass
class MigrationMatrix:
    characterization: str
    matrix: np.ndarray   # (K, K), row-stochastic where supported
    support: np.ndarray  # (K, K) raw transition counts


def migration_matrix(keys: list[tuple[str, int]], labels: np.ndarray, k: int,
                     characterization: str = "") -> MigrationMatrix:
    """Pooled first-order transitions between consecutive tenure months."""
    by_user: dict[str, dict[int, int]] = {}
    for (user, month), label in zip(keys, labels):
        by_user.setdefault(user, {})[month] = int(label)
    counts = np.zeros((k, k), dtype=np.int64)
    for months in by_user.values():
        for m, a in months.items():
            b = months.get(m + 1)
            if b is not None:
                counts[a, b] += 1
    totals = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, totals, out=np.zeros((k, k)),
                       where=totals > 0)
    return MigrationMatrix(characterization, matrix, counts)


def divisive_overlap(labels_parent: np.ndarray, labels_child: np.ndarray,
                     k_parent: int, k_child: int) -> np.ndarray:
    """overlap[a, b] = fraction of parent-cluster-a rows landing in child b."""
    labels_parent = np.asarray(labels_parent)
    labels_child = np.asarray(labels_child)
    if labels_parent.shape != labels_child.shape:
        raise ValueError("assignments cover different rows")
    counts = np.zeros((k_parent, k_child), dtype=np.int64)
    np.add.at(counts, (labels_parent, labels_child), 1)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=np.zeros((k_parent, k_child)),
                     where=totals > 0)


@dataclass
class LayeredReport:
    models: dict[int, MixtureModel]
    divergence: float        # max cross-parent matched-center l1 distance
    skipped: list[int]


def layered_fit(X_inner: np.ndarray, parent_labels: np.ndarray, k_inner: int,
                config: EMConfig | None = None) -> LayeredReport:
    """Fit the inner characterization within each parent cluster.

    Small cross-parent divergence between matched inner centers indicates the
    two characterizations are independent; large divergence indicates the
    inner structure depends on the parent label.
    """
    X_inner = np.asarray(X_inner, dtype=np.float64)
    parent_labels = np.asarray(parent_labels)
    config = config or EMConfig(restarts=5)
    models: dict[int, MixtureModel] = {}
    skipped: list[int] = []
    for parent in sorted(set(int(p) for p in parent_labels)):
        rows = X_inner[parent_labels == parent]
        if rows.shape[0] < k_inner:
            skipped.append(parent)
            log.warning("parent cluster %d has %d rows < K_inner=%d, skipped",
                        parent, rows.shape[0], k_inner)
            continue
        model, _ = fit_em(rows, k_inner, config)
        models[parent] = model

    divergence = 0.0
    parents = sorted(models)
    for i in range(len(parents)):
        for j in range(i + 1, len(parents)):
            ca = models[parents[i]].theta
            cb = models[parents[j]].theta
            rows, cols = match_clusters(ca, cb, metric="cityblock")
            divergence = max(divergence, float(
                np.abs(ca[rows] - cb[cols]).sum(axis=1).max()))
    return LayeredReport(models, divergence, skipped)


def center_report(centers: np.ndarray, labels: tuple[str, ...],
                  as_percent: bool = True) -> list[list]:
    """Human-readable center table rows (appendix heat-table layout)."""
    rows = [["cluster"] + list(labels)]
    for j, center in enumerate(np.asarray(centers)):
        vals = center * 100.0 if as_percent else center
        rows.append([j] + [round(float(v), 2) for v in vals])
    return rows
