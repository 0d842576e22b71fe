"""Per-item L1 logistic CTR models over persona feature modes c/s/h/-."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

from .features import CharacterizationMatrix, pool_by_user
from .ingest import RecordSet
from .mixture import KMeansModel, MixtureModel, hard_labels, soft_features

log = logging.getLogger(__name__)

CTR_CHARACTERIZATIONS = ("CR", "DG", "ME")  # order mirrors the tradeoff table
MODES = ("c", "s", "h", "-")


class CtrError(Exception):
    pass


@dataclass(frozen=True)
class FeatureModeRecipe:
    """Per-characterization feature mode: counts, soft distances, hard split,
    or omitted."""
    modes: dict[str, str]

    def __post_init__(self):
        unknown = set(self.modes) - set(CTR_CHARACTERIZATIONS)
        if unknown:
            raise CtrError(f"unknown characterizations {sorted(unknown)}")
        bad = {ch: m for ch, m in self.modes.items() if m not in MODES}
        if bad:
            raise CtrError(f"unknown modes {bad}")
        if sum(1 for m in self.modes.values() if m == "h") > 1:
            raise CtrError("at most one characterization may use mode 'h'")

    def mode(self, ch: str) -> str:
        return self.modes.get(ch, "-")

    @property
    def hard_characterization(self) -> str | None:
        for ch, m in self.modes.items():
            if m == "h":
                return ch
        return None

    def name(self) -> str:
        return ",".join(self.mode(ch) for ch in CTR_CHARACTERIZATIONS)


@dataclass
class UserPersonaFeatures:
    """Per-user pooled characterization vectors plus fitted-model summaries."""
    users: list[str]
    raw: dict[str, np.ndarray]    # ch -> (n_users, d) pooled counts/amounts
    soft: dict[str, np.ndarray]   # ch -> (n_users, K) center distances
    hard: dict[str, np.ndarray]   # ch -> (n_users,) hard labels
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {u: i for i, u in enumerate(self.users)}


def persona_features(matrices: dict[str, CharacterizationMatrix],
                     models: dict[str, MixtureModel | KMeansModel]
                     ) -> UserPersonaFeatures:
    """Pool each user's months and compute soft/hard persona summaries."""
    users: list[str] | None = None
    raw: dict[str, np.ndarray] = {}
    soft: dict[str, np.ndarray] = {}
    hard: dict[str, np.ndarray] = {}
    for ch in CTR_CHARACTERIZATIONS:
        ch_users, X = pool_by_user(matrices[ch])
        if users is None:
            users = ch_users
        elif users != ch_users:
            raise CtrError("characterization matrices cover different users")
        raw[ch] = X
        model = models[ch]
        soft[ch] = soft_features(model, X)
        hard[ch] = hard_labels(model, X)
    return UserPersonaFeatures(users or [], raw, soft, hard)


def design(features: UserPersonaFeatures,
           recipe: FeatureModeRecipe) -> np.ndarray:
    """(n_users, p) design matrix: the recipe's raw ('c') and soft ('s')
    blocks in table column order; 'h' partitions rows and '-' omits, so
    neither adds columns."""
    blocks = [features.raw[ch] if recipe.mode(ch) == "c" else features.soft[ch]
              for ch in CTR_CHARACTERIZATIONS if recipe.mode(ch) in ("c", "s")]
    if not blocks:
        return np.zeros((len(features.users), 0))
    return np.concatenate(blocks, axis=1)


@dataclass
class CtrDataset:
    X: np.ndarray
    y: np.ndarray
    users: list[str]
    hard: np.ndarray                # partition labels, all 0 without 'h'
    negatives_short: bool = False   # fewer eligible negatives than requested


def item_user_sets(rs: RecordSet) -> dict[str, set[str]]:
    order = np.argsort(rs.content, kind="stable")
    codes, starts = np.unique(rs.content[order], return_index=True)
    users = np.asarray(rs.users, dtype=object)[rs.user[order]]
    return {rs.contents[c]: set(group)
            for c, group in zip(codes.tolist(), np.split(users, starts[1:]))}


def build_dataset(items: dict[str, set[str]],
                  features: UserPersonaFeatures, recipe: FeatureModeRecipe,
                  item_id: str, neg_ratio: int = 5, seed: int = 0,
                  eligible_users: list[str] | None = None) -> CtrDataset:
    """Labeled per-item rows: transacting users plus sampled non-transactors.

    `items` maps each item to its users (`item_user_sets`). `eligible_users`
    restricts both classes (e.g. to a train or test split); negatives are
    sampled uniformly without replacement.
    """
    if neg_ratio < 1:
        raise CtrError("neg_ratio must be at least 1")
    if item_id not in items:
        raise CtrError(f"item {item_id!r} has no transactions")
    universe = eligible_users if eligible_users is not None else features.users
    universe = [u for u in universe if u in features.index]
    positives = sorted(u for u in universe if u in items[item_id])
    candidates = sorted(u for u in universe if u not in items[item_id])
    wanted = neg_ratio * len(positives)
    rng = np.random.default_rng(seed)
    short = wanted > len(candidates)
    if short:
        negatives = candidates
        log.debug("item %s: only %d of %d requested negatives", item_id,
                  len(candidates), wanted)
    else:
        pick = rng.choice(len(candidates), size=wanted, replace=False)
        negatives = [candidates[i] for i in sorted(pick)]
    users = positives + negatives
    rows = np.array([features.index[u] for u in users], dtype=np.int64)
    X = design(features, recipe)[rows]
    y = np.zeros(len(users))
    y[:len(positives)] = 1.0
    hard_ch = recipe.hard_characterization
    hard = (features.hard[hard_ch][rows] if hard_ch
            else np.zeros(len(rows), dtype=np.int64))
    return CtrDataset(X, y, users, hard, short)


# ---------------------------------------------------------------------------
# L1-penalized logistic regression via monotone proximal gradient

MAX_ITER = 2000
KKT_TOL = 1e-5    # subgradient optimality tolerance


@dataclass
class CtrItemModel:
    weights: np.ndarray      # in standardized feature space
    intercept: float
    feature_means: np.ndarray
    feature_scales: np.ndarray
    kkt_violation: float
    converged: bool


def _loss(z: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def smooth_gradient(w: np.ndarray, b: float, X: np.ndarray,
                    y: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of the mean logistic loss (the smooth part of the objective)."""
    z = X @ w + b
    r = expit(z) - y
    return X.T @ r / len(y), float(r.mean())


def kkt_violation(w: np.ndarray, grad: np.ndarray, grad_b: float,
                  lam: float) -> float:
    """Max violation of the L1 subgradient optimality conditions."""
    viol = np.where(w == 0, np.maximum(np.abs(grad) - lam, 0.0),
                    np.abs(grad + lam * np.sign(w)))
    return max(abs(grad_b), float(viol.max(initial=0.0)))


def _soft(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_item_model(X: np.ndarray, y: np.ndarray, lam: float) -> CtrItemModel:
    """Minimize mean logistic loss + lam*||w||_1 by backtracking ISTA.

    Features are z-scored with the training statistics (constant columns get
    unit scale); the intercept is unpenalized. The objective is non-increasing
    across iterations.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise CtrError("training rows must contain both classes")

    mu = X.mean(axis=0) if X.shape[1] else np.zeros(0)
    sd = X.std(axis=0) if X.shape[1] else np.zeros(0)
    sd = np.where(sd == 0, 1.0, sd)
    Xs = (X - mu) / sd

    w = np.zeros(X.shape[1])
    b = float(np.log(n_pos / (len(y) - n_pos)))
    step = 1.0
    viol = np.inf
    converged = False
    f0 = _loss(Xs @ w + b, y)
    for _ in range(MAX_ITER):
        g, gb = smooth_gradient(w, b, Xs, y)
        viol = kkt_violation(w, g, gb, lam)
        if viol <= KKT_TOL:
            converged = True
            break
        while True:
            w_new = _soft(w - step * g, step * lam)
            b_new = b - step * gb
            dw = w_new - w
            db = b_new - b
            f_new = _loss(Xs @ w_new + b_new, y)
            quad = (f0 + g @ dw + gb * db
                    + ((dw @ dw) + db * db) / (2.0 * step))
            if f_new <= quad + 1e-12:
                break
            step *= 0.5
            if step < 1e-12:
                break
        w, b, f0 = w_new, b_new, f_new
        step = min(step * 1.5, 1e4)
    return CtrItemModel(w, b, mu, sd, viol, converged)


def predict_scores(model: CtrItemModel, X: np.ndarray) -> np.ndarray:
    Xs = (np.asarray(X, dtype=np.float64) - model.feature_means) / model.feature_scales
    return Xs @ model.weights + model.intercept


@dataclass
class HardModeModel:
    submodels: dict[int, CtrItemModel]
    fallback_intercept: float
    single_class: list[int] = field(default_factory=list)


def fit_mode_h(X: np.ndarray, y: np.ndarray, hard: np.ndarray, lam: float,
               item_id: str = "") -> HardModeModel:
    """One model per hard cluster (a single one for a recipe without 'h');
    single-class clusters fall back to an intercept-only prior."""
    hard = np.asarray(hard)
    pooled_pos = max(1, int(y.sum()))
    pooled_neg = max(1, int(len(y) - y.sum()))
    fallback = float(np.log(pooled_pos / pooled_neg))
    submodels: dict[int, CtrItemModel] = {}
    single: list[int] = []
    for c in sorted(set(int(v) for v in hard)):
        mask = hard == c
        yc = y[mask]
        if yc.sum() == 0 or yc.sum() == len(yc):
            single.append(c)
            log.debug("item %s cluster %d is single-class, intercept fallback",
                      item_id, c)
            continue
        submodels[c] = fit_item_model(X[mask], yc, lam)
    return HardModeModel(submodels, fallback, single)


def predict_scores_h(model: HardModeModel, X: np.ndarray,
                     hard: np.ndarray) -> np.ndarray:
    scores = np.full(len(X), model.fallback_intercept)
    for c, sub in model.submodels.items():
        mask = np.asarray(hard) == c
        if np.any(mask):
            scores[mask] = predict_scores(sub, X[mask])
    return scores


# ---------------------------------------------------------------------------
# Evaluation

def auc_score(y: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC via the rank statistic, ties handled by average ranks."""
    y = np.asarray(y)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise CtrError("AUC needs both classes")
    ranks = rankdata(scores)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass
class CtrEvaluation:
    recipe: str
    mean_auc: float
    per_item: dict[str, float]
    p: int
    mean_n: float
    complexity_proxy: float  # mean_n * p^2
    skipped: list[str] = field(default_factory=list)


@dataclass
class CtrExperimentConfig:
    lam: float = 2e-3
    neg_ratio: int = 5
    top_n: int = 100
    test_fraction: float = 0.2
    seed: int = 0


def split_users(users: list[str], test_fraction: float,
                seed: int) -> tuple[list[str], list[str]]:
    rng = np.random.default_rng(seed)
    order = list(users)
    rng.shuffle(order)
    n_test = int(round(test_fraction * len(order)))
    test = sorted(order[:n_test])
    train = sorted(order[n_test:])
    return train, test


def top_items(items: dict[str, set[str]], top_n: int) -> list[str]:
    ranked = sorted(items, key=lambda i: (-len(items[i]), i))
    return ranked[:top_n]


def run_ctr_experiment(items: dict[str, set[str]],
                       features: UserPersonaFeatures,
                       recipe: FeatureModeRecipe,
                       config: CtrExperimentConfig | None = None
                       ) -> CtrEvaluation:
    """Train per-item models on a user-disjoint split and report mean AUC
    over the most popular items."""
    config = config or CtrExperimentConfig()
    train_users, test_users = split_users(features.users,
                                          config.test_fraction, config.seed)
    chosen = top_items(items, config.top_n)
    p = design(features, recipe).shape[1]

    per_item: dict[str, float] = {}
    skipped: list[str] = []
    n_rows = []
    for j, item in enumerate(chosen):
        train = build_dataset(items, features, recipe, item,
                              neg_ratio=config.neg_ratio,
                              seed=config.seed * 100003 + j,
                              eligible_users=train_users)
        test = build_dataset(items, features, recipe, item,
                             neg_ratio=config.neg_ratio,
                             seed=config.seed * 100003 + j + 1,
                             eligible_users=test_users)
        if any(ds.y.sum() in (0, len(ds.y)) for ds in (test, train)):
            skipped.append(item)  # a split lacks positive or negative rows
            continue
        n_rows.append(len(train.y))
        model = fit_mode_h(train.X, train.y, train.hard, config.lam,
                           item_id=item)
        per_item[item] = auc_score(test.y,
                                   predict_scores_h(model, test.X, test.hard))

    mean_auc = float(np.mean(list(per_item.values()))) if per_item else float("nan")
    mean_n = float(np.mean(n_rows)) if n_rows else 0.0
    return CtrEvaluation(recipe.name(), mean_auc, per_item, p, mean_n,
                         mean_n * p * p, skipped)
