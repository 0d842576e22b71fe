"""Persona-aware collaborative filtering: latent factor models."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

log = logging.getLogger(__name__)


class CfError(Exception):
    pass


VARIANTS = ("vanilla", "a", "b", "c", "d")
CLUSTER_VARIANTS = ("a", "b", "d")  # the variants that take cluster labels
INIT_SCALE = 0.1   # factor init std, before the 1/sqrt(f) scaling


@dataclass
class FactorConfig:
    f: int = 8
    lr: float = 0.02
    reg: float = 0.02
    epochs: int = 20
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
    u, i, r = np.asarray(ratings, dtype=np.float64).reshape(-1, 3).T.copy()
    return u.astype(np.int64), i.astype(np.int64), r


@np.errstate(over="ignore", invalid="ignore")  # divergence raises CfError
def fit_factor(n_users: int, n_items: int, ratings, variant: str = "vanilla",
               clusters=None, static=None,
               config: FactorConfig | None = None) -> FactorModel:
    """SGD fit of a biased latent factor model, optionally persona-augmented.

    `ratings` holds (user_index, item_index, value) rows, an (n, 3) array or
    a sequence of triples; `len(ratings)` is the rating count. Variants a, b
    and d read `clusters`, one int label per user (for a and b a negative
    label means no cluster); variant c reads `static`, one row per user.
    """
    if variant not in VARIANTS:
        raise CfError(f"unknown variant {variant!r}")
    if variant not in CLUSTER_VARIANTS:
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
            cfg = replace(config, seed=config.seed + c + 1)
            submodels[c] = fit_factor(n_users, n_items,
                                      np.column_stack(columns)[rows],
                                      "vanilla", config=cfg)
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

    P, Q, Y, Qs, static = model.P, model.Q, model.Y, model.Qs, model.static
    # the biases are Python floats during an epoch: the same IEEE double
    # arithmetic as numpy scalars, without numpy's dispatch per operation
    bu, bi = model.bu.tolist(), model.bi.tolist()
    ba = None if model.ba is None else model.ba.tolist()
    labels = [-1] * n_users if clusters is None else clusters.tolist()
    order = np.arange(len(values))
    reg = config.reg
    for epoch in range(config.epochs):
        lr = float(config.lr / np.sqrt(1.0 + epoch))
        rng.shuffle(order)
        for u, i, r in zip(users[order].tolist(), items[order].tolist(),
                           values[order].tolist()):
            c = labels[u]
            p, q = P[u], Q[i]  # views: every use below precedes their write
            pred = mu + bi[i] + bu[u]
            if c >= 0 and ba is not None:
                pred += ba[c]
            user_vec = p + Y[c] if c >= 0 and Y is not None else p
            pred += float(q.dot(user_vec))
            if static is not None:
                pred += float(Qs[i].dot(static[u]))
            err = r - pred
            bu[u] += lr * (err - reg * bu[u])
            bi[i] += lr * (err - reg * bi[i])
            if c >= 0 and ba is not None:
                ba[c] += lr * (err - reg * ba[c])
            if c >= 0 and Y is not None:
                Y[c] += lr * (err * q - reg * Y[c])
            if static is not None:
                Qs[i] += lr * (err * static[u] - reg * Qs[i])
            # P[u] and Q[i] in one (2, f) pass over rows [p; q] and
            # partners [q; user_vec]: element for element the operations
            # of p + lr * (err * q - reg * p) and of its Q twin
            stacked = np.array((p, q, user_vec))
            rows = stacked[:2]
            new = rows + lr * (err * stacked[1:] - reg * rows)
            P[u] = new[0]
            Q[i] = new[1]
        model.bu[:], model.bi[:] = bu, bi
        if ba is not None:
            model.ba[:] = ba
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
        return None if a is None else [[repr(v) for v in row]
                                       for row in np.atleast_2d(a).tolist()]

    return {
        "variant": model.variant,
        "mu": repr(model.mu),
        **{k: arr(getattr(model, k)) for k in ("bu", "bi", "P", "Q", "ba", "Y")},
        "final_rmse": repr(model.rmse_trace[-1]) if model.rmse_trace else None,
        "empty_clusters": model.empty_clusters,
    }
