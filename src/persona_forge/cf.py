"""Persona-aware collaborative filtering: similarity predictors and latent
factor variants."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)


class CfError(Exception):
    pass


@dataclass
class SimilarityPrediction:
    rating: float | None   # None when no rated candidate has similarity
    probability: float
    candidates_examined: int = 0


def predict_similarity(sims, ratings) -> SimilarityPrediction:
    """Similarity-weighted neighbour prediction for one (user, item) pair.

    `sims` holds the candidates' non-negative similarities to the user and
    `ratings` each candidate's rating of the item, nan where it has none.
    The rating is the similarity-weighted mean over the rated candidates;
    the probability is their share of the total candidate similarity.
    """
    sims = np.asarray(sims, dtype=np.float64)
    ratings = np.asarray(ratings, dtype=np.float64)
    if (sims < 0).any():
        raise CfError("similarities must be non-negative")
    rated = ~np.isnan(ratings)
    den_r, total = float(sims[rated].sum()), float(sims.sum())
    rating = float(sims[rated] @ ratings[rated]) / den_r if den_r > 0 else None
    probability = den_r / total if total > 0 else 0.0
    return SimilarityPrediction(rating, probability, len(sims))


def predict_similarity_temporal(keys, values, labels, ratings, user,
                                horizon: int,
                                weights: dict[int, float] | None = None,
                                restrict_to_cluster: bool = True
                                ) -> SimilarityPrediction:
    """Temporally weighted neighbour prediction over months t <= horizon.

    Rows are user-months as in `features_<ch>.csv` and
    `assignments_<ch>.csv`: `keys` (user, tenure month >= 0), `values` the
    feature rows, `labels` the hard labels, and `ratings` the row user's
    rating of the item in that month (nan when none). A candidate is another
    user's row in a month t where `user` has a row and weight > 0; its
    similarity is the cosine to `user`'s month-t row (0 for a zero row)
    times the month's weight. Restricting candidates to `user`'s month-t
    cluster makes the search scale with the cluster's size rather than with
    the whole population.
    """
    ids, months = np.asarray(keys, dtype=object).reshape(-1, 2).T
    months = months.astype(np.int64)
    values = np.asarray(values, dtype=np.float64)
    own = ids == user
    # each row's same-month row of `user`, -1 where `user` has none
    query = np.full(int(months.max(initial=-1)) + 1, -1)
    query[months[own]] = np.flatnonzero(own)
    query = query[months]
    w = np.ones(len(months))
    if weights is not None:
        if min(weights.values(), default=0.0) < 0:
            raise CfError("weights must be non-negative")
        # a month missing from `weights` gets weight 0
        w = (months[:, None] == np.array(list(weights))) @ np.array(
            list(weights.values()), dtype=np.float64)
    mask = (query >= 0) & ~own & (months <= horizon) & (w > 0)
    if restrict_to_cluster:
        mask &= np.asarray(labels) == np.asarray(labels)[query]
    a, b = values[mask], values[query[mask]]
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    cosine = np.divide(np.einsum("ij,ij->i", a, b), norms,
                       out=np.zeros(len(a)), where=norms > 0)
    return predict_similarity(w[mask] * cosine, np.asarray(ratings)[mask])


# ---------------------------------------------------------------------------
# Latent factor models

VARIANTS = ("vanilla", "a", "b", "c", "d")
INIT_SCALE = 0.1   # factor init std, before the 1/sqrt(f) scaling


@dataclass
class FactorConfig:
    f: int = 8
    lr: float = 0.02
    reg: float = 0.02
    epochs: int = 50
    seed: int = 0


@dataclass
class FactorModel:
    variant: str
    mu: float
    bu: np.ndarray                 # (n_users,)
    bi: np.ndarray                 # (n_items,)
    P: np.ndarray                  # (n_users, f)
    Q: np.ndarray                  # (n_items, f)
    ba: np.ndarray | None = None   # (n_clusters,) variant a
    Y: np.ndarray | None = None    # (n_clusters, f) variant b
    clusters: np.ndarray | None = None  # (n_users,) label per user (a, b, d)
    static: np.ndarray | None = None    # (n_users, g) variant c
    Qs: np.ndarray | None = None        # (n_items, g) variant c
    submodels: dict[int, "FactorModel"] | None = None  # variant d
    rmse_trace: list[float] = field(default_factory=list)
    empty_clusters: list[int] = field(default_factory=list)

    def predict(self, users, items):
        """Predicted ratings of (user, item) index pairs, a float for scalar
        indices. A negative cluster label (a, b) adds no cluster term."""
        u, i = np.atleast_1d(users), np.atleast_1d(items)
        if self.variant == "d":
            out = np.full(len(u), self.mu)
            for c, sub in self.submodels.items():
                rows = self.clusters[u] == c
                out[rows] = sub.predict(u[rows], i[rows])
        else:
            out = self.mu + self.bi[i] + self.bu[u]
            p = self.P[u]
            if self.ba is not None:
                rows = self.clusters[u] >= 0
                out[rows] += self.ba[self.clusters[u[rows]]]
            if self.Y is not None:
                rows = self.clusters[u] >= 0
                p[rows] += self.Y[self.clusters[u[rows]]]
            # row-wise matmul gives each row the bits of the 1-D `Q[i] @ p`
            out += np.matmul(self.Q[i][:, None, :], p[:, :, None])[:, 0, 0]
            if self.static is not None:
                out += np.matmul(self.Qs[i][:, None, :],
                                 self.static[u][:, :, None])[:, 0, 0]
        return float(out[0]) if np.ndim(users) == 0 else out


def _columns(ratings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous (users, items, values) columns of (u, i, r) triples."""
    u, i, r = np.array(list(ratings), dtype=np.float64).reshape(-1, 3).T.copy()
    return u.astype(np.int64), i.astype(np.int64), r


@np.errstate(over="ignore", invalid="ignore")  # divergence raises CfError
def fit_factor(n_users: int, n_items: int, ratings, variant: str = "vanilla",
               clusters=None, static=None,
               config: FactorConfig | None = None) -> FactorModel:
    """SGD fit of a biased latent factor model, optionally persona-augmented.

    `ratings` is a sequence of (user_index, item_index, value). Variants a, b
    and d read `clusters`, one int label per user (for a and b a negative
    label means no cluster); variant c reads `static`, one row per user.
    """
    if variant not in VARIANTS:
        raise CfError(f"unknown variant {variant!r}")
    if variant not in ("a", "b", "d"):
        clusters = None
    elif np.shape(clusters) != (n_users,):
        raise CfError(f"variant {variant} needs one cluster label per user")
    if variant == "c" and (np.ndim(static) != 2 or len(static) != n_users):
        raise CfError("variant c needs one static feature row per user")
    config = config or FactorConfig()
    users, items, values = columns = _columns(ratings)
    if not len(values):
        raise CfError("ratings must be non-empty")
    mu = float(np.mean(values))
    if clusters is not None:
        clusters = np.asarray(clusters, dtype=np.int64)

    if variant == "d":
        submodels, empty = {}, []
        for c in np.unique(clusters).tolist():
            rows = clusters[users] == c
            if not rows.any():
                empty.append(c)
                log.warning("variant d cluster %d has no ratings; "
                            "falls back to global mean", c)
                continue
            sub = list(zip(users[rows], items[rows], values[rows]))
            cfg = replace(config, seed=config.seed + c + 1)
            submodels[c] = fit_factor(n_users, n_items, sub, "vanilla", config=cfg)
        model = FactorModel("d", mu, np.zeros(n_users), np.zeros(n_items),
                            np.zeros((n_users, 1)), np.zeros((n_items, 1)),
                            clusters=clusters, submodels=submodels,
                            empty_clusters=empty)
        model.rmse_trace = [_rmse(model, columns)]
        return model

    rng = np.random.default_rng(config.seed)
    scale = INIT_SCALE / np.sqrt(config.f)
    model = FactorModel(
        variant, mu, np.zeros(n_users), np.zeros(n_items),
        rng.normal(0.0, scale, (n_users, config.f)),
        rng.normal(0.0, scale, (n_items, config.f)), clusters=clusters)
    # augmentation parameters come from their own stream so the SGD
    # trajectory of a zero-augmented variant is bit-identical to vanilla
    aug_rng = np.random.default_rng((config.seed, 1))
    if variant == "a":
        model.ba = np.zeros(int(clusters.max(initial=-1)) + 1)
    if variant == "b":
        model.Y = aug_rng.normal(0.0, scale,
                                 (int(clusters.max(initial=-1)) + 1, config.f))
    if variant == "c":
        model.static = np.asarray(static, dtype=np.float64)
        model.Qs = aug_rng.normal(0.0, scale, (n_items, model.static.shape[1]))

    P, Q, bu, bi, ba, Y, Qs, static = (model.P, model.Q, model.bu, model.bi,
                                       model.ba, model.Y, model.Qs, model.static)
    labels = [-1] * n_users if clusters is None else clusters.tolist()
    order = np.arange(len(values))
    reg = config.reg
    for epoch in range(config.epochs):
        lr = config.lr / np.sqrt(1.0 + epoch)
        rng.shuffle(order)
        for u, i, r in zip(users[order].tolist(), items[order].tolist(),
                           values[order].tolist()):
            c = labels[u]
            p = P[u].copy()  # pre-update values for every update below
            q = Q[i].copy()
            pred = mu + bi[i] + bu[u]
            if c >= 0 and ba is not None:
                pred += ba[c]
            user_vec = p + Y[c] if c >= 0 and Y is not None else p
            pred += Q[i] @ user_vec
            if static is not None:
                pred += Qs[i] @ static[u]
            err = r - pred
            bu[u] += lr * (err - reg * bu[u])
            bi[i] += lr * (err - reg * bi[i])
            if c >= 0 and ba is not None:
                ba[c] += lr * (err - reg * ba[c])
            P[u] = p + lr * (err * q - reg * p)
            Q[i] = q + lr * (err * user_vec - reg * q)
            if c >= 0 and Y is not None:
                Y[c] += lr * (err * q - reg * Y[c])
            if static is not None:
                Qs[i] += lr * (err * static[u] - reg * Qs[i])
        model.rmse_trace.append(_rmse(model, columns))
        if not np.isfinite(model.rmse_trace[-1]):
            raise CfError(f"SGD diverged in epoch {epoch + 1}")
    return model


def _rmse(model: FactorModel, ratings) -> float:
    """RMSE over (users, items, values) columns; squares as Python's `**`."""
    users, items, values = ratings
    errs = np.float_power(values - model.predict(users, items), 2.0)
    return float(np.sqrt(np.mean(errs)))


def rmse(model: FactorModel, ratings) -> float:
    """Root-mean-squared prediction error over (u, i, r) triples."""
    return _rmse(model, _columns(ratings))


def factor_model_to_dict(model: FactorModel) -> dict:
    def arr(a):
        return None if a is None else [[repr(float(v)) for v in row]
                                       for row in np.atleast_2d(a).tolist()]

    return {
        "variant": model.variant,
        "mu": repr(model.mu),
        **{k: arr(getattr(model, k)) for k in ("bu", "bi", "P", "Q", "ba", "Y")},
        "final_rmse": repr(model.rmse_trace[-1]) if model.rmse_trace else None,
        "empty_clusters": model.empty_clusters,
    }
