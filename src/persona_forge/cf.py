"""Persona-aware collaborative filtering: latent factor models."""

from __future__ import annotations

import functools
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

    The one dot product rule. `FactorModel.predict` passes columns and gets
    every row's sum with the same bits; each generated SGD epoch (`_epoch`)
    writes it out term by term, in this order. BLAS picks its dot kernel by
    CPU, and `sum` compensates from Python 3.12.
    """
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def _epoch_source(variant: str, f: int, g: int = 0) -> str:
    """Python source of `epoch`, one SGD epoch of `variant` at factor width
    f (g: the static width of variant c), as straight-line code.

    Each factor row is unpacked into locals and rebuilt as a list display;
    each dot product is `d = 0.0` then one `d += x * y` statement per term,
    `_dot`'s order (a single `+` expression of thousands of terms overflows
    the compiler's recursion limit). Only the terms of `variant` are
    written: a and b keep their `c >= 0` test. The IEEE operations are
    those of the model's equations, in their order.
    """
    def names(prefix, n):
        return [f"{prefix}{k}" for k in range(n)]

    def unpack(targets, row):
        return [f"{', '.join(targets)}, = {row}"] if targets else []

    def dot(x, y):
        return ["d = 0.0", *(f"d += {a} * {b}" for a, b in zip(x, y)),
                "pred += d"]

    def step(row, old, grad):  # row = old + lr * (err * grad - reg * old)
        terms = (f"{o} + lr * (err * {x} - reg * {o})"
                 for o, x in zip(old, grad))
        return [f"{row} = [{', '.join(terms)}]"]

    def when_clustered(lines):
        return ["if c >= 0:", *(f"    {line}" for line in lines)]

    p, q, y = names("p", f), names("q", f), names("y", f)
    w, s = names("w", g), names("s", g)
    v = names("v", f) if variant == "b" else p  # the user vector
    body = ["c = labels[u]"] if variant in ("a", "b") else []
    body += [*unpack(p, "P[u]"), *unpack(q, "Q[i]"),
             "bu_u = bu[u]", "bi_i = bi[i]", "pred = mu + bi_i + bu_u"]
    if variant == "a":
        body += when_clustered(["pred += ba[c]"])
    if variant == "b" and f:  # an empty `if` block is a SyntaxError
        body += when_clustered([*unpack(y, "Y[c]"),
                                *(f"{a} = {b} + {x}"
                                  for a, b, x in zip(v, p, y))])
        body += ["else:", *(f"    {a} = {b}" for a, b in zip(v, p))]
    body += dot(q, v)
    if variant == "c":
        body += [*unpack(w, "Qs[i]"), *unpack(s, "static[u]"), *dot(w, s)]
    body += ["err = r - pred",
             "bu[u] = bu_u + lr * (err - reg * bu_u)",
             "bi[i] = bi_i + lr * (err - reg * bi_i)"]
    if variant == "a":
        body += when_clustered(["ba[c] += lr * (err - reg * ba[c])"])
    if variant == "b":
        body += when_clustered(step("Y[c]", y, q))
    if variant == "c":
        body += step("Qs[i]", w, s)
    body += [*step("P[u]", p, q), *step("Q[i]", q, v)]
    return "\n".join([
        "def epoch(users, items, values, lr, reg, mu, P, Q, bu, bi, labels,",
        "          ba, Y, Qs, static):",
        "    for u, i, r in zip(users, items, values):",
        *(f"        {line}" for line in body), ""])


@functools.lru_cache(maxsize=32)
def _epoch(variant: str, f: int, g: int = 0):
    """The compiled `_epoch_source` function, made once per (variant, f, g)
    at fit time. It runs one SGD epoch over the shuffled rating columns
    (Python lists), updating the factor and bias lists in place."""
    namespace: dict = {}
    exec(compile(_epoch_source(variant, f, g),
                 f"<cf epoch {variant} f={f} g={g}>", "exec"), namespace)
    return namespace["epoch"]


def _columns(ratings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous (users, items, values) columns of (u, i, r) triples."""
    u, i, r = np.asarray(ratings, dtype=np.float64).reshape(-1, 3).T.copy()
    return u.astype(np.int64), i.astype(np.int64), r


def _check_ratings(table: np.ndarray, n_users: int, n_items: int) -> None:
    """Raise CfError unless the float `table` holds one or more rows of
    three: an integer user index in [0, n_users), an integer item index in
    [0, n_items) and a finite value."""
    if not table.size:
        raise CfError("ratings must be non-empty")
    if table.ndim != 2 or table.shape[1] != 3:
        raise CfError(f"ratings must be (user, item, value) rows, not an "
                      f"array of shape {table.shape}")
    for column, name, n in ((0, "user", n_users), (1, "item", n_items)):
        index = table[:, column]
        bad = np.flatnonzero((index != np.floor(index)) | (index < 0)
                             | (index >= n))
        if len(bad):
            raise CfError(f"rating row {bad[0]}: {name} index "
                          f"{float(index[bad[0]])!r} is not an integer in "
                          f"[0, {n})")
    bad = np.flatnonzero(~np.isfinite(table[:, 2]))
    if len(bad):
        raise CfError(f"rating row {bad[0]}: value "
                      f"{float(table[bad[0], 2])!r} is not finite")


@np.errstate(over="ignore", invalid="ignore")  # divergence raises CfError
def fit_factor(n_users: int, n_items: int, ratings, variant: str = "vanilla",
               clusters=None, static=None,
               config: FactorConfig | None = None) -> FactorModel:
    """SGD fit of a biased latent factor model, optionally persona-augmented.

    `ratings` holds (user_index, item_index, value) rows, an (n, 3) array or
    a sequence of triples; `len(ratings)` is the rating count. An index that
    is not an integer in range, or a non-finite value, raises CfError before
    training. Variants a, b and d read `clusters`, one int label per user
    (for a and b a negative label means no cluster); variant c reads
    `static`, one row per user. Each epoch runs `_epoch(variant, f, g)`.
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
    table = np.asarray(ratings, dtype=np.float64)
    _check_ratings(table, n_users, n_items)
    users, items, values = columns = _columns(table)
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
    # operation
    P, Q, Y, Qs, static, bu, bi, ba = (
        None if a is None else a.tolist()
        for a in (model.P, model.Q, model.Y, model.Qs, model.static,
                  model.bu, model.bi, model.ba))
    labels = None if clusters is None else clusters.tolist()
    run = _epoch(variant, config.f,
                 0 if static is None else model.static.shape[1])
    order = np.arange(len(values))
    for epoch in range(config.epochs):
        lr = float(config.lr / np.sqrt(1.0 + epoch))
        rng.shuffle(order)
        run(users[order].tolist(), items[order].tolist(),
            values[order].tolist(), lr, config.reg, mu, P, Q, bu, bi, labels,
            ba, Y, Qs, static)
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
