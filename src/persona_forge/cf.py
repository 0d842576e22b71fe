"""Persona-aware collaborative filtering: similarity predictors and latent
factor variants."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)


class CfError(Exception):
    pass


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b) / (na * nb)


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


@dataclass
class SimilarityPrediction:
    rating: float | None   # None when no transacting neighbor has similarity
    probability: float
    candidates_examined: int = 0


def predict_similarity(user, item, candidates, transacted, sim) -> SimilarityPrediction:
    """Similarity-weighted neighbor prediction for one (user, item) pair.

    `transacted` maps neighbors in U(item) to their ratings; `candidates` is
    the full neighbor search set; `sim(user, v)` must be symmetric and
    non-negative. The rating is the similarity-weighted mean over U(item);
    the probability is the transacting share of total candidate similarity.
    """
    num_r = den_r = total = 0.0
    examined = 0
    for v in candidates:
        if v == user:
            continue
        s = sim(user, v)
        if s < 0:
            raise CfError("similarities must be non-negative")
        examined += 1
        total += s
        r = transacted.get(v)
        if r is not None:
            num_r += s * r
            den_r += s
    rating = num_r / den_r if den_r > 0 else None
    probability = den_r / total if total > 0 else 0.0
    return SimilarityPrediction(rating, probability, examined)


@dataclass
class TemporalContext:
    """Per-tenure-month data backing temporal similarity prediction."""
    features: dict[int, dict[str, np.ndarray]]       # t -> user -> u_t
    clusters: dict[int, dict[str, int]]              # t -> user -> label
    transacted: dict[int, dict[str, dict[str, float]]]  # t -> item -> user -> r


def predict_similarity_temporal(ctx: TemporalContext, user, item, horizon: int,
                                weights: dict[int, float] | None = None,
                                sim=cosine,
                                restrict_to_cluster: bool = True
                                ) -> SimilarityPrediction:
    """Temporally weighted similarity prediction over months t <= horizon.

    Neighbor search at month t is restricted to the user's month-t cluster,
    which is what makes the search scale with cluster size rather than with
    the full transacting population. The probability numerator uses
    transaction indicators so the estimate stays in [0, 1].
    """
    num_r = den_r = den_p = 0.0
    examined = 0
    for t in sorted(ctx.features):
        feats = ctx.features[t]
        if t > horizon or user not in feats:
            continue
        w = 1.0 if weights is None else float(weights.get(t, 0.0))
        if w < 0:
            raise CfError("weights must be non-negative")
        if w == 0.0:
            continue
        u_t = feats[user]
        members = ctx.clusters.get(t, {})
        label = members.get(user)
        item_users = ctx.transacted.get(t, {}).get(item, {})
        for v, v_t in feats.items():
            if v == user or (restrict_to_cluster and members.get(v) != label):
                continue
            s = w * sim(u_t, v_t)
            examined += 1
            den_p += s
            r = item_users.get(v)
            if r is not None:
                num_r += s * r
                den_r += s
    rating = num_r / den_r if den_r > 0 else None
    probability = den_r / den_p if den_p > 0 else 0.0
    return SimilarityPrediction(rating, probability, examined)


# ---------------------------------------------------------------------------
# Latent factor models

VARIANTS = ("vanilla", "a", "b", "c", "d")


@dataclass
class FactorConfig:
    f: int = 8
    lr: float = 0.02
    reg: float = 0.02
    epochs: int = 50
    seed: int = 0
    init_scale: float = 0.1


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
    scale = config.init_scale / np.sqrt(config.f)
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
