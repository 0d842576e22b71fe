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
    bu: np.ndarray | None = None   # (n_users,) all but variant d
    bi: np.ndarray | None = None   # (n_items,)
    P: np.ndarray | None = None    # (n_users, f)
    Q: np.ndarray | None = None    # (n_items, f)
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
            out += _dot(self.Q[i].T, p.T)
            if self.static is not None:
                out += _dot(self.Qs[i].T, self.static[u].T)
        return float(out[0]) if np.ndim(users) == 0 else out


def _dot(x, y):
    """The products x[k] * y[k] added in k order, starting from 0.0.

    The one dot product of the SGD step and of `FactorModel.predict`, which
    passes columns and gets every row's sum with the same bits. BLAS picks
    its dot kernel by CPU, and `sum` compensates from Python 3.12.
    """
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


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
        model = FactorModel("d", mu, clusters=clusters, submodels=submodels,
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

    # an epoch runs on Python floats and lists: the same IEEE double
    # arithmetic as numpy's, in the same order, without its dispatch per
    # operation; each factor row is rebuilt element by element
    P, Q, Y, Qs, static, bu, bi, ba = (
        None if a is None else a.tolist()
        for a in (model.P, model.Q, model.Y, model.Qs, model.static,
                  model.bu, model.bi, model.ba))
    labels = [-1] * n_users if clusters is None else clusters.tolist()
    order = np.arange(len(values))
    reg = config.reg
    for epoch in range(config.epochs):
        lr = float(config.lr / np.sqrt(1.0 + epoch))
        rng.shuffle(order)
        for u, i, r in zip(users[order].tolist(), items[order].tolist(),
                           values[order].tolist()):
            c = labels[u]
            p, q = P[u], Q[i]
            pred = mu + bi[i] + bu[u]
            if c >= 0 and ba is not None:
                pred += ba[c]
            if c >= 0 and Y is not None:
                user_vec = [a + b for a, b in zip(p, Y[c])]
            else:
                user_vec = p
            pred += _dot(q, user_vec)
            if static is not None:
                pred += _dot(Qs[i], static[u])
            err = r - pred
            bu[u] += lr * (err - reg * bu[u])
            bi[i] += lr * (err - reg * bi[i])
            if c >= 0 and ba is not None:
                ba[c] += lr * (err - reg * ba[c])
            if c >= 0 and Y is not None:
                Y[c] = [y + lr * (err * b - reg * y) for y, b in zip(Y[c], q)]
            if static is not None:
                Qs[i] = [w + lr * (err * s - reg * w)
                         for w, s in zip(Qs[i], static[u])]
            P[u] = [a + lr * (err * b - reg * a) for a, b in zip(p, q)]
            Q[i] = [b + lr * (err * v - reg * b) for b, v in zip(q, user_vec)]
        for array, rows in ((model.P, P), (model.Q, Q), (model.Y, Y),
                            (model.Qs, Qs), (model.bu, bu), (model.bi, bi),
                            (model.ba, ba)):
            if rows:  # None when unused; an empty Y or ba has no rows
                array[:] = rows
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


FLOAT_ARRAYS = ("bu", "bi", "P", "Q", "ba", "Y", "static", "Qs")


def factor_model_to_dict(model: FactorModel) -> dict:
    """Every field `predict` reads, and the RMSE trace: float arrays as
    (row) lists of `repr` strings, `None` when unused; labels as ints."""
    def text(v):
        return [text(x) for x in v] if isinstance(v, list) else repr(v)

    return {
        "variant": model.variant,
        "mu": repr(model.mu),
        **{k: None if getattr(model, k) is None
           else text(getattr(model, k).tolist()) for k in FLOAT_ARRAYS},
        "clusters": None if model.clusters is None
        else model.clusters.tolist(),
        "submodels": None if model.submodels is None
        else {str(c): factor_model_to_dict(sub)
              for c, sub in model.submodels.items()},
        "rmse_trace": text(model.rmse_trace),
        "final_rmse": repr(model.rmse_trace[-1]) if model.rmse_trace else None,
        "empty_clusters": model.empty_clusters,
    }


def factor_model_from_dict(payload: dict) -> FactorModel:
    """The model of a `factor_model_to_dict` payload."""
    arrays = {k: np.array(payload[k], dtype=np.float64)
              for k in FLOAT_ARRAYS if payload[k] is not None}
    if "Y" in arrays:  # a Y without rows keeps its f columns
        arrays["Y"] = arrays["Y"].reshape(-1, arrays["P"].shape[1])
    clusters, submodels = payload["clusters"], payload["submodels"]
    return FactorModel(
        payload["variant"], float(payload["mu"]), **arrays,
        clusters=None if clusters is None
        else np.array(clusters, dtype=np.int64),
        submodels=None if submodels is None
        else {int(c): factor_model_from_dict(sub)
              for c, sub in submodels.items()},
        rmse_trace=[float(v) for v in payload["rmse_trace"]],
        empty_clusters=payload["empty_clusters"])
