"""Cluster evaluation: stability, dominance, migrations, centre tables."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .mixture import EMConfig, fit_model, match_clusters


@dataclass
class StabilityReport:
    epsilon_observed: float
    delta_observed: float
    runs: int
    passed: bool
    failed_runs: list[int] = field(default_factory=list)


def stability_check(X: np.ndarray, k: int, epsilon: float, delta: float,
                    runs: int = 4, seed: int = 0,
                    fit_config=None) -> StabilityReport:
    """Refit on 50% subsamples and compare matched cluster centers and sizes.

    Each refit is `fit_model` under `fit_config` (default
    `EMConfig(restarts=4)`) with a fresh seed: k-means for a KMeansConfig,
    EM otherwise. Clusters are matched across every pair of runs by
    min-cost bipartite matching on center l2 distance; the report carries
    the worst matched center distance and the worst matched size deviation
    (absolute share difference). Runs producing an empty cluster are
    recorded as failed.
    """
    if runs < 2:
        raise ValueError("stability needs at least 2 subsample runs")
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k > n // 2:
        raise ValueError(f"k = {k} but each 50% subsample has only {n // 2} "
                         f"of the {n} rows")
    rng = np.random.default_rng(seed)
    fit_config = fit_config or EMConfig(restarts=4)

    results = []
    for _ in range(runs):
        idx = rng.choice(n, size=n // 2, replace=False)
        cfg = replace(fit_config, seed=int(rng.integers(2 ** 31)))
        model, assign = fit_model(X[idx], k, cfg)
        results.append((model.centers,
                        np.bincount(assign.hard, minlength=k) / len(idx)))

    failed = [r for r, (_, shares) in enumerate(results)
              if np.any(shares == 0)]
    ok = [results[r] for r in range(runs) if r not in failed]
    eps_obs = 0.0
    delta_obs = 0.0
    for (ca, sa), (cb, sb) in combinations(ok, 2):
        rows, cols, dist = match_clusters(ca, cb)
        eps_obs = max(eps_obs, float(dist.max()))
        delta_obs = max(delta_obs, float(
            np.abs(sa[rows] - sb[cols]).max()))
    passed = (not failed) and eps_obs <= epsilon and delta_obs <= delta
    return StabilityReport(eps_obs, delta_obs, runs, passed, failed)


@dataclass
class DominanceReport:
    passed: bool
    shares: np.ndarray  # sorted descending


def _check_range(labels: np.ndarray, k: int) -> None:
    if len(labels) and not 0 <= labels.min() <= labels.max() < k:
        raise ValueError(f"labels outside [0, {k})")


def _crosstab(a: np.ndarray, b: np.ndarray, ka: int,
              kb: int) -> tuple[np.ndarray, np.ndarray]:
    """(counts, shares) of the (ka, kb) table of label pairs (a[i], b[i]);
    each row of `shares` sums to 1, or is all 0 where its row has no count.
    A label outside [0, ka) or [0, kb) raises a ValueError."""
    _check_range(a, ka)
    _check_range(b, kb)
    counts = np.bincount(a * kb + b, minlength=ka * kb).reshape(ka, kb)
    totals = counts.sum(axis=1, keepdims=True)
    return counts, np.divide(counts, totals, out=np.zeros((ka, kb)),
                             where=totals > 0)


def dominance_check(hard: np.ndarray, kappa: float, k_max: int,
                    k: int) -> DominanceReport:
    """True iff every share of the k hard clusters is at least kappa and
    k <= k_max. The shares are the one-row cross-tab of `hard`."""
    hard = np.asarray(hard)
    shares = _crosstab(np.zeros_like(hard), hard, 1, k)[1][0]
    shares = np.sort(shares)[::-1]
    passed = bool(k <= k_max and shares.min() >= kappa)
    return DominanceReport(passed, shares)


@dataclass
class MigrationMatrix:
    matrix: np.ndarray   # (K, K), row-stochastic where supported
    support: np.ndarray  # (K, K) raw transition counts


def migration_matrix(user: np.ndarray, month: np.ndarray, labels: np.ndarray,
                     k: int) -> MigrationMatrix:
    """Pooled first-order transitions between consecutive tenure months of
    user-month rows sorted by (user, month). A label outside [0, k) raises
    a ValueError, on a row with no consecutive-month neighbour too."""
    user, month, labels = (np.asarray(a) for a in (user, month, labels))
    _check_range(labels, k)
    step = (user[1:] == user[:-1]) & (month[1:] == month[:-1] + 1)
    counts, matrix = _crosstab(labels[:-1][step], labels[1:][step], k, k)
    return MigrationMatrix(matrix, counts)


def center_report(centers: np.ndarray, labels: tuple[str, ...],
                  as_percent: bool = True) -> list[list]:
    """Human-readable center table rows (appendix heat-table layout)."""
    rows = [["cluster"] + list(labels)]
    for j, center in enumerate(np.asarray(centers)):
        vals = center * 100.0 if as_percent else center
        rows.append([j] + [round(float(v), 2) for v in vals])
    return rows
