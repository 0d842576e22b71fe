"""Latent cluster models: multinomial mixtures via EM, K-means for amounts."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)

SMOOTHING = 0.5          # Laplace smoothing on theta
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-10       # total squared center movement


@dataclass
class EMConfig:
    max_iter: int = 500
    tol: float = 1e-8        # relative objective change
    restarts: int = 5
    seed: int = 0


@dataclass
class MixtureModel:
    """Mixed multinomial model: mixing weights pi and per-cluster theta rows.

    `loglik_trace` records the smoothed (Dirichlet-penalized) log-likelihood
    maximized by the EM iterations; it is non-decreasing per iteration.
    """
    k: int
    d: int
    pi: np.ndarray
    theta: np.ndarray
    loglik_trace: list[float] = field(default_factory=list)
    smoothing: float = SMOOTHING
    seed: int = 0
    characterization: str = ""
    reseed_iters: list[int] = field(default_factory=list)  # empty-cluster events
    converged: bool = False    # the best restart met the tolerance
    n_iter: int = 0            # EM iterations of the best restart
    restart_logliks: list[float] = field(default_factory=list)  # per restart

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.pi.shape != (self.k,) or self.theta.shape != (self.k, self.d):
            raise ValueError("model parameter shapes disagree")

    @property
    def centers(self) -> np.ndarray:
        """The cluster centers, as for k-means: the theta rows themselves."""
        return self.theta


@dataclass
class AssignmentSet:
    tau: np.ndarray            # (n, K) row-stochastic responsibilities
    hard: np.ndarray           # (n,) argmax labels, lowest-index tie-break


@dataclass
class KMeansConfig:
    restarts: int = 5
    seed: int = 0


@dataclass
class KMeansModel:
    k: int
    centers: np.ndarray
    inertia: float
    seed: int = 0
    characterization: str = ""

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def _proportions(X: np.ndarray) -> np.ndarray:
    """Row-normalized X; all-zero rows become uniform."""
    totals = X.sum(axis=1, keepdims=True)
    zero = totals[:, 0] == 0
    if np.any(zero):
        log.warning("%d all-zero rows mapped to uniform proportions",
                    int(zero.sum()))
    safe = np.where(totals == 0, 1.0, totals)
    P = X / safe
    P[zero] = 1.0 / X.shape[1]
    return P


def _posterior(model: MixtureModel, X: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """(tau, lse): the responsibilities of each row of X and its log
    normaliser log sum_z pi_z prod_j theta_zj^x_j, from one pass over X."""
    logw = X @ np.log(model.theta).T + np.log(model.pi)
    top = logw.max(axis=1, keepdims=True)
    w = np.exp(logw - top)
    total = w.sum(axis=1, keepdims=True)
    return w / total, (top + np.log(total))[:, 0]


def _penalized(model: MixtureModel, lse: np.ndarray,
               counts: np.ndarray | None = None) -> float:
    ll = float(lse.sum() if counts is None else counts @ lse)
    return ll + model.smoothing * float(np.log(model.theta).sum())


def e_step(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """Posterior responsibilities tau[i, z] from Bayes' rule, in log space.

    An all-zero count row carries no evidence and degenerates to tau = pi.
    """
    return _posterior(model, np.asarray(X, dtype=np.float64))[0]


def penalized_loglik(model: MixtureModel, X: np.ndarray) -> float:
    """Observed-data log-likelihood plus the smoothing (Dirichlet) penalty."""
    return _penalized(model, _posterior(model,
                                        np.asarray(X, dtype=np.float64))[1])


def m_step(tau: np.ndarray, X: np.ndarray, smoothing: float = SMOOTHING,
           reseed: bool = True, counts: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-MLE update of (pi, theta) with additive smoothing on theta.

    `counts[i]` is how many times row i occurs in the data (default 1 each),
    so the update on distinct rows equals the one on the expanded rows.
    Near-empty clusters are re-seeded from the row the model currently
    explains worst and handed a 1/K mixing share so they can actually
    recapture mass on the next E-step.  Pass reseed=False to leave starved
    clusters alone (pi floored away from exact zero).
    """
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
            log.debug("re-seeded %d empty cluster(s) from worst-fit row",
                      int(empty.sum()))
        else:
            pi[empty] = 1e-300
        pi = pi / pi.sum()
    return pi, theta


def _kmeanspp_seed(P: np.ndarray, k: int, rng) -> np.ndarray:
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


def _sq_distances(P: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one centre at a time: no n × k × d array."""
    return np.stack([((P - c) ** 2).sum(axis=1) for c in centers], axis=1)


def _hard_assign(P: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return np.argmin(_sq_distances(P, centers), axis=1)


def _distinct_rows(X: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, counts, inverse): the distinct rows of X in order of first
    occurrence, how often each occurs, and X = U[inverse]."""
    _, first, inverse, counts = np.unique(
        X, axis=0, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return (X[first[order]], counts[order],
            np.argsort(order)[inverse.reshape(-1)])


def fit_em(X: np.ndarray, k: int, config: EMConfig | None = None,
           characterization: str = "") -> tuple[MixtureModel, AssignmentSet]:
    """Fit a K-cluster multinomial mixture by EM, best of several restarts.

    EM runs on the distinct rows of X weighted by their multiplicity, which
    is the same fixed-point iteration as on X itself.  Each iteration makes
    one pass over them: the posterior of the model just fitted gives both
    that model's log-likelihood and the next E-step.
    """
    config = config or EMConfig()
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows n={n}")

    rng = np.random.default_rng(config.seed)
    P = _proportions(X)
    U, counts, inverse = _distinct_rows(X)
    best: MixtureModel | None = None
    restart_logliks = []
    for _ in range(max(1, config.restarts)):
        tau = np.eye(k)[_hard_assign(P, _kmeanspp_seed(P, k, rng))]
        pi, theta = m_step(tau, X)
        model = MixtureModel(k, d, pi, theta, [], SMOOTHING, config.seed,
                             characterization)
        tau, lse = _posterior(model, U)
        ll = _penalized(model, lse, counts)
        model.loglik_trace.append(ll)
        reseed_budget = 3 * k   # after this, starved clusters are left dead
        for it in range(config.max_iter):
            starved = int(((tau * counts[:, None]).sum(axis=0) < 1e-10).sum())
            do_reseed = starved > 0 and reseed_budget > 0
            if do_reseed:
                model.reseed_iters.append(it)
                reseed_budget -= starved
            model.pi, model.theta = m_step(tau, U, reseed=do_reseed,
                                           counts=counts)
            tau, lse = _posterior(model, U)
            ll_new = _penalized(model, lse, counts)
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


def fit_kmeans(X: np.ndarray, k: int, config: KMeansConfig | None = None,
               characterization: str = ""
               ) -> tuple[KMeansModel, AssignmentSet]:
    """Lloyd's algorithm with k-means++ seeding, best of several restarts.
    The assignments' `tau` is the one-hot matrix of `hard`."""
    config = config or KMeansConfig()
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows n={n}")

    rng = np.random.default_rng(config.seed)
    best_inertia = np.inf
    best_centers = None
    best_labels = None
    for _ in range(max(1, config.restarts)):
        centers = _kmeanspp_seed(X, k, rng)
        labels = _hard_assign(X, centers)
        for _ in range(KMEANS_MAX_ITER):
            new_centers = centers.copy()
            for j in range(k):
                mask = labels == j
                if np.any(mask):
                    new_centers[j] = X[mask].mean(axis=0)
                else:
                    d2 = ((X - centers[labels]) ** 2).sum(axis=1)
                    new_centers[j] = X[int(np.argmax(d2))]
            new_labels = _hard_assign(X, new_centers)
            moved = float(((new_centers - centers) ** 2).sum())
            centers, labels = new_centers, new_labels
            if moved <= KMEANS_TOL:
                break
        inertia = float(((X - centers[labels]) ** 2).sum())
        if inertia < best_inertia:
            best_inertia, best_centers, best_labels = inertia, centers, labels
    model = KMeansModel(k, best_centers, best_inertia, config.seed,
                        characterization)
    return model, AssignmentSet(np.eye(k)[best_labels], best_labels)


def fit_model(X: np.ndarray, k: int, config: EMConfig | KMeansConfig,
              characterization: str = ""
              ) -> tuple[MixtureModel | KMeansModel, AssignmentSet]:
    """`fit_kmeans` for a KMeansConfig, `fit_em` for an EMConfig."""
    fit = fit_kmeans if isinstance(config, KMeansConfig) else fit_em
    return fit(X, k, config, characterization)


def soft_features(model: MixtureModel | KMeansModel, X: np.ndarray) -> np.ndarray:
    """Distances of each row from the fitted cluster centers.

    For mixture models the row is first normalized to proportions (uniform
    when all-zero); for K-means raw vectors are used.
    """
    X = np.asarray(X, dtype=np.float64)
    points = _proportions(X) if isinstance(model, MixtureModel) else X
    return np.sqrt(_sq_distances(points, model.centers))


def hard_labels(model: MixtureModel | KMeansModel, X: np.ndarray) -> np.ndarray:
    """Hard cluster labels for new rows under a fitted model."""
    if isinstance(model, MixtureModel):
        return np.argmax(e_step(model, X), axis=1)
    return _hard_assign(np.asarray(X, dtype=np.float64), model.centers)


def _min_cost_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-cost matching of the rows of `cost` to its columns by shortest
    augmenting paths with row and column potentials (Kuhn 1955; Jonker &
    Volgenant 1987). Every row is matched when there are no more rows than
    columns, else every column; returns (rows, cols) with rows ascending."""
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix holds a non-finite entry")
    flip = cost.shape[0] > cost.shape[1]
    if flip:
        cost = cost.T
    n, m = cost.shape
    u = np.zeros(n)
    v = np.zeros(m + 1)                      # column m starts every path
    row_of = np.full(m + 1, -1)              # the row matched to a column
    prev = np.zeros(m + 1, dtype=np.intp)    # the path's previous column
    for i in range(n):
        row_of[m] = i
        j = m
        slack = np.full(m + 1, np.inf)
        on_path = np.zeros(m + 1, dtype=bool)
        while row_of[j] >= 0:
            on_path[j] = True
            r = row_of[j]
            reduced = cost[r] - u[r] - v[:m]
            better = ~on_path[:m] & (reduced < slack[:m])
            slack[:m][better] = reduced[better]
            prev[:m][better] = j
            nxt = int(np.argmin(np.where(on_path[:m], np.inf, slack[:m])))
            delta = slack[nxt]
            u[row_of[on_path]] += delta
            v[on_path] -= delta
            slack[~on_path] -= delta
            j = nxt
        while j != m:                        # flip the path's matches
            row_of[j] = row_of[prev[j]]
            j = prev[j]
    cols = np.flatnonzero(row_of[:m] >= 0)
    rows = row_of[cols]
    if flip:
        rows, cols = cols, rows
    order = np.argsort(rows)
    return rows[order], cols[order]


def match_clusters(centers_a: np.ndarray, centers_b: np.ndarray,
                   metric: str = "euclidean") -> tuple[np.ndarray, np.ndarray]:
    """Min-cost bipartite matching of cluster centers under the "euclidean"
    or "cityblock" distance; returns (rows, cols) with rows ascending."""
    diff = (np.asarray(centers_a, dtype=np.float64)[:, None, :]
            - np.asarray(centers_b, dtype=np.float64)[None, :, :])
    if metric == "euclidean":
        cost = np.sqrt((diff * diff).sum(axis=2))
    elif metric == "cityblock":
        cost = np.abs(diff).sum(axis=2)
    else:
        raise ValueError(f"unknown metric {metric!r}: "
                         "use 'euclidean' or 'cityblock'")
    return _min_cost_assignment(cost)


# ---------------------------------------------------------------------------
# Serialization

def model_to_dict(model: MixtureModel | KMeansModel) -> dict:
    shape = {"characterization": model.characterization, "K": model.k,
             "d": model.d}
    if isinstance(model, MixtureModel):
        return {
            "kind": "mmm",
            **shape,
            "pi": [repr(v) for v in model.pi.tolist()],
            "theta": [[repr(v) for v in row] for row in model.theta.tolist()],
            "smoothing": model.smoothing,
            "seed": model.seed,
            "final_loglik": repr(model.loglik_trace[-1]) if model.loglik_trace else None,
            "diagnostics": {
                "converged": model.converged,
                "n_iter": model.n_iter,
                "restart_logliks": [repr(v) for v in model.restart_logliks],
            },
        }
    return {
        "kind": "kmeans",
        **shape,
        "centers": [[repr(v) for v in row] for row in model.centers.tolist()],
        "inertia": repr(model.inertia),
        "seed": model.seed,
    }


def model_from_dict(payload: dict) -> MixtureModel | KMeansModel:
    """The model of a `model_to_dict` payload."""
    names = ("pi", "theta") if payload["kind"] == "mmm" else ("centers",)
    params = [np.array(payload[name], dtype=np.float64) for name in names]
    if not all(np.isfinite(p).all() for p in params):  # JSON null reads nan
        raise ValueError(f"{' or '.join(names)} holds a non-finite value")
    if payload["kind"] == "mmm":
        diag = payload.get("diagnostics", {})
        return MixtureModel(payload["K"], payload["d"], *params, [],
                            payload["smoothing"], payload["seed"],
                            payload["characterization"],
                            converged=diag.get("converged", False),
                            n_iter=diag.get("n_iter", 0),
                            restart_logliks=[float(v) for v in
                                             diag.get("restart_logliks", [])])
    return KMeansModel(payload["K"], *params, float(payload["inertia"]),
                       payload["seed"], payload["characterization"])
