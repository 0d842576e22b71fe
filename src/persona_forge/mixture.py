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

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[0] != self.k:
            raise ValueError("model parameter shapes disagree")

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


def _posterior(X: np.ndarray, log_pi: np.ndarray, log_theta: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """(tau, lse): the responsibilities of each row of X and its log
    normaliser log sum_z pi_z prod_j theta_zj^x_j, from one pass over X.

    The row max and the normaliser are taken over the K columns one by one,
    in index order: numpy's reductions over so narrow an axis cost more than
    the arithmetic.  For K < 8 the normaliser equals `w.sum(axis=1)` bit
    for bit; the max is exact for any K.
    """
    w = X @ log_theta.T
    w += log_pi
    cols = w.T
    top = cols[0].copy()
    for col in cols[1:]:
        np.maximum(top, col, out=top)
    w -= top[:, None]
    np.exp(w, out=w)
    total = cols[0].copy()
    for col in cols[1:]:
        total += col
    w /= total[:, None]
    top += np.log(total)
    return w, top


def _penalized(lse: np.ndarray, log_theta: np.ndarray, smoothing: float,
               counts: np.ndarray | None = None) -> float:
    ll = float(lse.sum() if counts is None else counts @ lse)
    return ll + smoothing * float(log_theta.sum())


def e_step(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """Posterior responsibilities tau[i, z] from Bayes' rule, in log space.

    An all-zero count row carries no evidence and degenerates to tau = pi.
    """
    return _posterior(np.asarray(X, dtype=np.float64), np.log(model.pi),
                      np.log(model.theta))[0]


def penalized_loglik(model: MixtureModel, X: np.ndarray) -> float:
    """Observed-data log-likelihood plus the smoothing (Dirichlet) penalty."""
    log_theta = np.log(model.theta)
    lse = _posterior(np.asarray(X, dtype=np.float64), np.log(model.pi),
                     log_theta)[1]
    return _penalized(lse, log_theta, model.smoothing)


@dataclass(frozen=True)
class _Rows:
    """The rows an M-step weighs, with what it needs of them that does not
    depend on tau: each row's multiplicity as a column, their sum and the
    row totals."""
    X: np.ndarray
    column: np.ndarray
    n: np.number
    totals: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray, counts: np.ndarray | None) -> _Rows:
        c = np.ones(X.shape[0]) if counts is None else counts
        return cls(X, c[:, None], c.sum(), X.sum(axis=1))


def m_step(tau: np.ndarray, X: np.ndarray | _Rows,
           smoothing: float = SMOOTHING, reseed: bool = True,
           counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-MLE update of (pi, theta) with additive smoothing on theta.

    `counts[i]` is how many times row i occurs in the data (default 1 each),
    so the update on distinct rows equals the one on the expanded rows.
    Near-empty clusters are re-seeded from the row the model currently
    explains worst and handed a 1/K mixing share so they can actually
    recapture mass on the next E-step.  Pass reseed=False to leave starved
    clusters alone (pi floored away from exact zero).

    `fit_em` passes its `_Rows` as X: the rows with their counts and the
    terms that do not depend on tau (row totals, the counts' sum), computed
    once per fit; `counts` is then not read.
    """
    tau = np.asarray(tau, dtype=np.float64)
    rows = (X if isinstance(X, _Rows)
            else _Rows.of(np.asarray(X, dtype=np.float64), counts))
    X = rows.X
    d = X.shape[1]
    k = tau.shape[1]
    mass = tau * rows.column
    weights = np.einsum("ik->k", mass)     # mass.sum(axis=0), bit for bit
    pi = weights / rows.n
    theta = mass.T @ X
    theta += smoothing
    den = mass.T @ rows.totals
    den += smoothing * d
    theta /= den[:, None]
    empty = weights < 1e-10
    if empty.any():
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


def _starved(tau: np.ndarray, column: np.ndarray) -> int:
    """How many clusters hold under 1e-10 of the row mass `tau * column`.

    Counts are at least 1 and a rounded sum of non-negative terms is never
    below its largest term, so a column of tau with an entry >= 1e-10 is
    never starved: when every column has one, the count is 0 without
    forming the mass.  (The column maxima are taken on a copy of tau.T:
    numpy's max over axis 0 of so narrow an array is several times slower.)
    """
    if tau.T.copy().max(axis=1).min() >= 1e-10:
        return 0
    return int(((tau * column).sum(axis=0) < 1e-10).sum())


def _sq_distances(P: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, one centre at a time: no n × k × d array."""
    if not len(centers):
        return np.empty((len(P), 0))
    return np.stack([((P - c) ** 2).sum(axis=1) for c in centers], axis=1)


def _kmeanspp_seed(P: np.ndarray, k: int, rng) -> np.ndarray:
    n = P.shape[0]
    centers = np.empty((k, P.shape[1]))
    centers[0] = P[rng.integers(n)]
    d2 = _sq_distances(P, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = P[idx]
        d2 = np.minimum(d2, _sq_distances(P, centers[j:j + 1])[:, 0])
    return centers


def _check_k(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of rows n={n}")


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
    that model's log-likelihood and the next E-step.  What does not change
    during the fit (the rows, their counts and totals) is computed once per
    call and handed to every M-step, each restart's first one included,
    whose one-hot tau holds the k-means++ label of each distinct row.  Log
    theta is taken once per iteration; the row max and normaliser over the
    K posteriors are taken column by column in index order.  That is the
    same arithmetic as numpy's row reductions for k < 8; for k >= 8 results
    may differ from earlier versions in their last bits.
    """
    config = config or EMConfig()
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    _check_k(k, n)

    rng = np.random.default_rng(config.seed)
    P = _proportions(X)
    U, counts, inverse = _distinct_rows(X)
    rows = _Rows.of(U, counts)
    hard = np.empty(len(U), dtype=np.intp)
    best: MixtureModel | None = None
    restart_logliks = []
    for _ in range(max(1, config.restarts)):
        seeds = _kmeanspp_seed(P, k, rng)
        hard[inverse] = np.argmin(_sq_distances(P, seeds), axis=1)
        pi, theta = m_step(np.eye(k)[hard], rows)
        model = MixtureModel(k, d, pi, theta, [], SMOOTHING, config.seed,
                             characterization)
        log_theta = np.log(model.theta)
        tau, lse = _posterior(U, np.log(model.pi), log_theta)
        ll = _penalized(lse, log_theta, SMOOTHING, counts)
        model.loglik_trace.append(ll)
        reseed_budget = 3 * k   # after this, starved clusters stay dead
        for it in range(config.max_iter):
            starved = _starved(tau, rows.column)
            do_reseed = starved > 0 and reseed_budget > 0
            if do_reseed:
                model.reseed_iters.append(it)
                reseed_budget -= starved
            model.pi, model.theta = m_step(tau, rows, reseed=do_reseed)
            log_theta = np.log(model.theta)
            tau, lse = _posterior(U, np.log(model.pi), log_theta)
            ll_new = _penalized(lse, log_theta, SMOOTHING, counts)
            model.loglik_trace.append(ll_new)
            if (not starved
                    and abs(ll_new - ll) <= config.tol * (abs(ll) + 1.0)):
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
    _check_k(k, n)

    rng = np.random.default_rng(config.seed)
    best_inertia = np.inf
    best_centers = None
    best_labels = None
    for restart in range(max(1, config.restarts)):
        centers = _kmeanspp_seed(X, k, rng)
        # k-means++ repeats a seed only once every row is a seed
        if restart == 0 and len(np.unique(centers, axis=0)) < k:
            log.warning("k-means on %r: fewer than k=%d distinct rows, so "
                        "centres repeat and a cluster stays empty",
                        characterization, k)
        d2 = _sq_distances(X, centers)
        labels = np.argmin(d2, axis=1)
        for _ in range(KMEANS_MAX_ITER):
            new_centers = centers.copy()
            for j in range(k):
                mask = labels == j
                if np.any(mask):
                    new_centers[j] = X[mask].mean(axis=0)
                else:
                    new_centers[j] = X[np.argmax(d2[np.arange(n), labels])]
            d2 = _sq_distances(X, new_centers)
            moved = float(((new_centers - centers) ** 2).sum())
            centers, labels = new_centers, np.argmin(d2, axis=1)
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
    X = np.asarray(X, dtype=np.float64)
    return np.argmin(_sq_distances(X, model.centers), axis=1)


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
                   metric: str = "euclidean"
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-cost bipartite matching of cluster centers under the "euclidean"
    or "cityblock" distance: (rows ascending, cols, matched distances)."""
    a = np.asarray(centers_a, dtype=np.float64)
    b = np.asarray(centers_b, dtype=np.float64)
    if metric == "euclidean":
        cost = np.sqrt(_sq_distances(a, b))
    elif metric == "cityblock":
        cost = np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    else:
        raise ValueError(f"unknown metric {metric!r}: "
                         "use 'euclidean' or 'cityblock'")
    rows, cols = _min_cost_assignment(cost)
    return rows, cols, cost[rows, cols]


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
    if params[-1].shape[1:] != (payload["d"],):     # theta or centers
        raise ValueError("model parameter shapes disagree")
    if payload["kind"] == "mmm":
        diag = payload.get("diagnostics", {})
        if not isinstance(diag, dict):
            raise ValueError("diagnostics is not an object")
        converged = diag.get("converged", False)
        n_iter = diag.get("n_iter", 0)
        logliks = diag.get("restart_logliks", [])
        if not isinstance(converged, bool):
            raise ValueError("diagnostics.converged is not a bool")
        if type(n_iter) is not int or n_iter < 0:
            raise ValueError("diagnostics.n_iter is not an int >= 0")
        if not isinstance(logliks, list):
            raise ValueError("diagnostics.restart_logliks is not a list")
        logliks = [float(v) for v in logliks]
        if not np.isfinite(logliks).all():
            raise ValueError("diagnostics.restart_logliks holds a non-finite "
                             "value")
        return MixtureModel(payload["K"], payload["d"], *params, [],
                            payload["smoothing"], payload["seed"],
                            payload["characterization"], converged=converged,
                            n_iter=n_iter, restart_logliks=logliks)
    return KMeansModel(payload["K"], *params, float(payload["inertia"]),
                       payload["seed"], payload["characterization"])
