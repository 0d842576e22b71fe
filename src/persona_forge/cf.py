"""Persona-aware collaborative filtering: similarity predictors and latent
factor variants."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import artifacts

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
    num_r = den_r = 0.0
    total = 0.0
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
    num_r = den_r = 0.0
    num_p = den_p = 0.0
    examined = 0
    for t in sorted(ctx.features):
        if t > horizon:
            continue
        feats = ctx.features[t]
        if user not in feats:
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
            if v == user:
                continue
            if restrict_to_cluster and members.get(v) != label:
                continue
            s = w * sim(u_t, v_t)
            examined += 1
            den_p += s
            r = item_users.get(v)
            if r is not None:
                num_r += s * r
                den_r += s
                num_p += s
    rating = num_r / den_r if den_r > 0 else None
    probability = num_p / den_p if den_p > 0 else 0.0
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
    memberships: list[list[int]] | None = None   # per-user cluster ids (a, b)
    static: np.ndarray | None = None             # (n_users, g) variant c
    Qs: np.ndarray | None = None                 # (n_items, g) variant c
    submodels: dict[int, "FactorModel"] | None = None  # variant d
    partition: np.ndarray | None = None                # (n_users,) variant d
    rmse_trace: list[float] = field(default_factory=list)
    empty_clusters: list[int] = field(default_factory=list)

    def predict(self, u: int, i: int) -> float:
        if self.variant == "d":
            c = int(self.partition[u])
            sub = self.submodels.get(c)
            if sub is None:
                return self.mu
            return sub.predict(u, i)
        r = self.mu + self.bi[i] + self.bu[u]
        if self.variant == "a" and self.memberships is not None:
            for a in self.memberships[u]:
                r += self.ba[a]
        p = self.P[u]
        if self.variant == "b" and self.memberships is not None:
            p = p + sum((self.Y[a] for a in self.memberships[u]),
                        np.zeros_like(p))
        r += float(self.Q[i] @ p)
        if self.variant == "c":
            r += float(self.Qs[i] @ self.static[u])
        return float(r)


def fit_factor(n_users: int, n_items: int, ratings, variant: str = "vanilla",
               cluster_info: dict | None = None,
               config: FactorConfig | None = None) -> FactorModel:
    """SGD fit of a biased latent factor model, optionally persona-augmented.

    `ratings` is a sequence of (user_index, item_index, value). cluster_info
    supplies what the variant needs: 'memberships' (a, b), 'static_features'
    (c), or 'partition' (d).
    """
    if variant not in VARIANTS:
        raise CfError(f"unknown variant {variant!r}")
    config = config or FactorConfig()
    cluster_info = cluster_info or {}
    ratings = [(int(u), int(i), float(r)) for u, i, r in ratings]
    if not ratings:
        raise CfError("ratings must be non-empty")

    if variant == "d":
        partition = np.asarray(cluster_info["partition"], dtype=np.int64)
        mu = float(np.mean([r for _, _, r in ratings]))
        submodels: dict[int, FactorModel] = {}
        empty: list[int] = []
        for c in sorted(set(int(v) for v in partition)):
            sub_ratings = [(u, i, r) for u, i, r in ratings if partition[u] == c]
            if not sub_ratings:
                empty.append(c)
                log.warning("variant d cluster %d has no ratings; "
                            "falls back to global mean", c)
                continue
            sub_cfg = FactorConfig(config.f, config.lr, config.reg,
                                   config.epochs, config.seed + c + 1,
                                   config.init_scale)
            submodels[c] = fit_factor(n_users, n_items, sub_ratings,
                                      "vanilla", None, sub_cfg)
        model = FactorModel("d", mu, np.zeros(n_users), np.zeros(n_items),
                            np.zeros((n_users, 1)), np.zeros((n_items, 1)),
                            submodels=submodels, partition=partition,
                            empty_clusters=empty)
        model.rmse_trace = [_rmse(model, ratings)]
        return model

    rng = np.random.default_rng(config.seed)
    f = config.f
    scale = config.init_scale / np.sqrt(f)
    mu = float(np.mean([r for _, _, r in ratings]))
    model = FactorModel(
        variant, mu, np.zeros(n_users), np.zeros(n_items),
        rng.normal(0.0, scale, (n_users, f)),
        rng.normal(0.0, scale, (n_items, f)))
    # augmentation parameters come from their own stream so the SGD
    # trajectory of a zero-augmented variant is bit-identical to vanilla
    aug_rng = np.random.default_rng((config.seed, 1))
    if variant in ("a", "b"):
        memberships = [list(m) for m in cluster_info["memberships"]]
        n_clusters = 1 + max((max(m) for m in memberships if m), default=-1)
        model.memberships = memberships
        if variant == "a":
            model.ba = np.zeros(n_clusters)
        else:
            model.Y = aug_rng.normal(0.0, scale, (n_clusters, f))
    if variant == "c":
        static = np.asarray(cluster_info["static_features"], dtype=np.float64)
        if static.shape[0] != n_users:
            raise CfError("static_features must have one row per user")
        model.static = static
        model.Qs = aug_rng.normal(0.0, scale, (n_items, static.shape[1]))

    order = np.arange(len(ratings))
    reg = config.reg
    for epoch in range(config.epochs):
        lr = config.lr / np.sqrt(1.0 + epoch)
        rng.shuffle(order)
        for idx in order:
            u, i, r = ratings[idx]
            err = r - model.predict(u, i)
            p = model.P[u].copy()  # pre-update values for every update below
            q = model.Q[i].copy()
            model.bu[u] += lr * (err - reg * model.bu[u])
            model.bi[i] += lr * (err - reg * model.bi[i])
            if variant == "a":
                for a in model.memberships[u]:
                    model.ba[a] += lr * (err - reg * model.ba[a])
                user_vec = p
            elif variant == "b":
                user_vec = p + sum((model.Y[a] for a in model.memberships[u]),
                                   np.zeros(f))
            else:
                user_vec = p
            model.P[u] = p + lr * (err * q - reg * p)
            model.Q[i] = q + lr * (err * user_vec - reg * q)
            if variant == "b":
                for a in model.memberships[u]:
                    model.Y[a] += lr * (err * q - reg * model.Y[a])
            if variant == "c":
                model.Qs[i] += lr * (err * model.static[u] - reg * model.Qs[i])
        model.rmse_trace.append(_rmse(model, ratings))
    return model


def _rmse(model: FactorModel, ratings) -> float:
    errs = [(r - model.predict(u, i)) ** 2 for u, i, r in ratings]
    return float(np.sqrt(np.mean(errs)))


def rmse(model: FactorModel, ratings) -> float:
    """Root-mean-squared prediction error over (u, i, r) triples."""
    return _rmse(model, [(int(u), int(i), float(r)) for u, i, r in ratings])


def factor_model_to_dict(model: FactorModel) -> dict:
    def arr(a):
        return None if a is None else [[repr(float(v)) for v in row]
                                       for row in np.atleast_2d(a).tolist()]

    return {
        "variant": model.variant,
        "mu": repr(model.mu),
        "bu": arr(model.bu),
        "bi": arr(model.bi),
        "P": arr(model.P),
        "Q": arr(model.Q),
        "ba": arr(model.ba),
        "Y": arr(model.Y),
        "final_rmse": repr(model.rmse_trace[-1]) if model.rmse_trace else None,
        "empty_clusters": model.empty_clusters,
    }


def factor_model_to_json(model: FactorModel) -> str:
    return artifacts.to_json(factor_model_to_dict(model))
