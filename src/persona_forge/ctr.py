"""Per-item L1 logistic CTR models over persona feature modes c/s/h/-."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

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
    users: tuple[str, ...]
    raw: dict[str, np.ndarray]    # ch -> (n_users, d) pooled counts/amounts
    soft: dict[str, np.ndarray]   # ch -> (n_users, K) center distances
    hard: dict[str, np.ndarray]   # ch -> (n_users,) hard labels


def persona_features(matrices: dict[str, CharacterizationMatrix],
                     models: dict[str, MixtureModel | KMeansModel]
                     ) -> UserPersonaFeatures:
    """Pool each user's months and compute soft/hard persona summaries."""
    users = matrices[CTR_CHARACTERIZATIONS[0]].users
    raw: dict[str, np.ndarray] = {}
    soft: dict[str, np.ndarray] = {}
    hard: dict[str, np.ndarray] = {}
    for ch in CTR_CHARACTERIZATIONS:
        if matrices[ch].users != users:
            raise CtrError("characterization matrices cover different users")
        raw[ch] = X = pool_by_user(matrices[ch])
        model = models[ch]
        soft[ch] = soft_features(model, X)
        hard[ch] = hard_labels(model, X)
    return UserPersonaFeatures(users, raw, soft, hard)


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
    rows: np.ndarray                # user codes: rows of the design matrix
    y: np.ndarray
    negatives_short: bool = False   # fewer eligible negatives than requested


def item_user_sets(rs: RecordSet) -> dict[str, np.ndarray]:
    """Each item's sorted distinct user codes into `rs.users`."""
    n_users = len(rs.users)
    content, user = np.divmod(np.unique(rs.content * n_users + rs.user),
                              n_users)
    codes, starts = np.unique(content, return_index=True)
    return {rs.contents[c]: group
            for c, group in zip(codes.tolist(), np.split(user, starts[1:]))}


def build_dataset(items: dict[str, np.ndarray], n_users: int, item_id: str,
                  neg_ratio: int = 5, seed: int = 0,
                  eligible_users: np.ndarray | None = None) -> CtrDataset:
    """Labeled per-item rows: transacting users plus sampled non-transactors.

    `items` maps each item to its user codes into the `n_users` sorted user
    ids (`item_user_sets`). `eligible_users`, sorted distinct codes,
    restricts both classes (e.g. to a train or test split); negatives are
    sampled uniformly without replacement.
    """
    if neg_ratio < 1:
        raise CtrError("neg_ratio must be at least 1")
    if item_id not in items:
        raise CtrError(f"item {item_id!r} has no transactions")
    universe = (np.arange(n_users) if eligible_users is None
                else np.asarray(eligible_users, dtype=np.int64))
    bought = np.isin(universe, items[item_id])
    positives, candidates = universe[bought], universe[~bought]
    wanted = neg_ratio * len(positives)
    rng = np.random.default_rng(seed)
    short = wanted > len(candidates)
    if short:
        negatives = candidates
        log.debug("item %s: only %d of %d requested negatives", item_id,
                  len(candidates), wanted)
    else:
        pick = rng.choice(len(candidates), size=wanted, replace=False)
        negatives = candidates[np.sort(pick)]
    rows = np.concatenate([positives, negatives])
    y = np.zeros(len(rows))
    y[:len(positives)] = 1.0
    return CtrDataset(rows, y, short)


# ---------------------------------------------------------------------------
# L1-penalized logistic regression via accelerated proximal gradient (FISTA,
# Beck & Teboulle 2009) with function-value restart (O'Donoghue & Candes
# 2015): a step that would raise the objective from a momentum point is
# dropped and the momentum reset, so the accepted iterates never rise (beyond
# the backtracking test's 1e-12 slack, which bounds a step from x itself).

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
    n_iter: int              # gradient evaluations, one per iteration


# Means are `.sum() / n`: the bits of `np.mean` (an add.reduce divided by
# the count) without its Python-level wrapper, which the solver calls
# thousands of times per fit.

def _loss(z: np.ndarray, y: np.ndarray) -> float:
    return float((np.logaddexp(0.0, z) - y * z).sum() / len(z))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic 1 / (1 + exp(-z)), computed in one new array.

    -z is capped at 709 so `exp` never overflows, which changes only
    values below 1.2e-308; with no overflow there is no warning to silence.
    """
    t = np.minimum(-z, 709.0)
    np.exp(t, out=t)
    t += 1.0
    return np.reciprocal(t, out=t)


def smooth_gradient(X: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> tuple[np.ndarray, float]:
    """Gradient of the mean logistic loss (the smooth part of the objective)
    at the margins `z = X @ w + b`."""
    r = sigmoid(z)
    r -= y
    n = len(y)
    return X.T @ r / n, float(r.sum() / n)


def kkt_violation(w: np.ndarray, grad: np.ndarray, grad_b: float,
                  lam: float) -> float:
    """Max violation of the L1 subgradient optimality conditions.

    A nonzero weight's violation is |grad + lam*sign(w)|; a zero weight's,
    |grad| - lam, counts only when positive, which `initial=0.0` ensures.
    """
    viol = np.abs(grad + lam * np.sign(w)) - lam * (w == 0)
    return max(abs(grad_b), float(viol.max(initial=0.0)))


def _soft(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_item_model(X: np.ndarray, y: np.ndarray, lam: float) -> CtrItemModel:
    """Minimize mean logistic loss + lam*||w||_1 by FISTA with backtracking
    and function-value restart.

    Features are z-scored with the training statistics (constant columns get
    unit scale); the intercept is unpenalized. Each iteration takes one
    gradient, at the momentum point v, and returns v once it meets the KKT
    conditions; so the returned point is the first point that meets them
    (or, after MAX_ITER gradients, the last point checked). The accepted
    iterates x are monotone: their objective never rises.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise CtrError("training rows must contain both classes")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    Xs = (X - mu) / sd

    # x = (w, b) is the last accepted iterate, v = (w_v, b_v) the point the
    # gradient is taken at; z and f are margins and loss, F the objective
    w = np.zeros(X.shape[1])
    b = float(np.log(n_pos / (len(y) - n_pos)))
    z = Xs @ w + b
    f = F = _loss(z, y)
    w_v, b_v, z_v, f_v = w, b, z, f
    t, beta, step, viol, n_iter = 1.0, 0.0, 1.0, np.inf, 0
    while n_iter < MAX_ITER:
        n_iter += 1
        g, gb = smooth_gradient(Xs, y, z_v)
        viol = kkt_violation(w_v, g, gb, lam)
        if viol <= KKT_TOL or n_iter == MAX_ITER:
            break
        while True:
            w_new = _soft(w_v - step * g, step * lam)
            b_new = b_v - step * gb
            dw = w_new - w_v
            db = b_new - b_v
            z_new = Xs @ w_new + b_new
            f_new = _loss(z_new, y)
            quad = (f_v + g @ dw + gb * db
                    + ((dw @ dw) + db * db) / (2.0 * step))
            if f_new <= quad + 1e-12:
                break
            step *= 0.5
            if step < 1e-12:
                break
        F_new = f_new + lam * float(np.abs(w_new).sum())
        if F_new > F and beta > 0.0:  # restart from x, dropping the step
            t, beta = 1.0, 0.0
            w_v, b_v, z_v, f_v = w, b, z, f
            continue
        t_next = (1.0 + (1.0 + 4.0 * t * t) ** 0.5) / 2.0
        beta = (t - 1.0) / t_next
        if beta > 0.0:
            w_v = w_new + beta * (w_new - w)
            b_v = b_new + beta * (b_new - b)
            z_v = Xs @ w_v + b_v
            f_v = _loss(z_v, y)
        else:
            w_v, b_v, z_v, f_v = w_new, b_new, z_new, f_new
        w, b, z, f, F, t = w_new, b_new, z_new, f_new, F_new, t_next
        step = min(step * 1.5, 1e4)
    return CtrItemModel(w_v, b_v, mu, sd, viol, viol <= KKT_TOL, n_iter)


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
    """ROC AUC: the share of (positive, negative) pairs the scores order
    right, a tie counting one half (the Mann-Whitney statistic)."""
    y, scores = np.asarray(y), np.asarray(scores)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise CtrError("AUC needs both classes")
    neg, pos = np.sort(scores[y != 1]), scores[y == 1]
    # per positive: 2 * (negatives below it) + (negatives tied with it)
    twice = (np.searchsorted(neg, pos, "left")
             + np.searchsorted(neg, pos, "right")).sum()
    return float(twice) / (2 * n_pos * n_neg)


@dataclass
class CtrEvaluation:
    recipe: str
    mean_auc: float
    per_item: dict[str, float]
    p: int
    mean_n: float
    complexity_proxy: float  # mean_n * p^2
    skipped: list[str] = field(default_factory=list)
    fits: list[CtrItemModel] = field(default_factory=list)
    single_class: int = 0     # partitions fitted by the intercept fallback
    negatives_short: int = 0  # train and test sets short of negatives

    def diagnostics(self) -> dict:
        """The recipe's solver diagnostics: deterministic, unlike timings."""
        iters = [m.n_iter for m in self.fits]
        return {
            "recipe": self.recipe,
            "fits": len(self.fits),
            "converged": sum(m.converged for m in self.fits),
            "mean_iterations": sum(iters) / len(iters) if iters else 0.0,
            "max_iterations": max(iters, default=0),
            "max_kkt_violation": max(
                (m.kkt_violation for m in self.fits), default=0.0),
            "skipped_items": list(self.skipped),
            "single_class_partitions": self.single_class,
            "negatives_short": self.negatives_short,
        }


@dataclass
class CtrExperimentConfig:
    lam: float = 2e-3
    neg_ratio: int = 5
    top_n: int = 20
    test_fraction: float = 0.2
    seed: int = 0


def split_users(n_users: int, test_fraction: float,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (train, test) user codes of a seeded random split."""
    order = np.random.default_rng(seed).permutation(n_users)
    n_test = int(round(test_fraction * n_users))
    return np.sort(order[n_test:]), np.sort(order[:n_test])


def top_items(items: dict[str, np.ndarray], top_n: int) -> list[str]:
    ranked = sorted(items, key=lambda i: (-len(items[i]), i))
    return ranked[:top_n]


def run_ctr_experiment(items: dict[str, np.ndarray],
                       features: UserPersonaFeatures,
                       recipe: FeatureModeRecipe,
                       config: CtrExperimentConfig | None = None
                       ) -> CtrEvaluation:
    """Train per-item models on a user-disjoint split and report mean AUC
    over the most popular items. Each item's train and test sets are row
    samples of one design matrix and one array of partition labels."""
    config = config or CtrExperimentConfig()
    n_users = len(features.users)
    train_users, test_users = split_users(n_users, config.test_fraction,
                                          config.seed)
    chosen = top_items(items, config.top_n)
    X = design(features, recipe)
    p = X.shape[1]
    hard_ch = recipe.hard_characterization
    hard = (features.hard[hard_ch] if hard_ch
            else np.zeros(n_users, dtype=np.int64))

    per_item: dict[str, float] = {}
    skipped: list[str] = []
    n_rows = []
    fits: list[CtrItemModel] = []
    single_class = short = 0
    for j, item in enumerate(chosen):
        train = build_dataset(items, n_users, item,
                              neg_ratio=config.neg_ratio,
                              seed=config.seed * 100003 + j,
                              eligible_users=train_users)
        test = build_dataset(items, n_users, item,
                             neg_ratio=config.neg_ratio,
                             seed=config.seed * 100003 + j + 1,
                             eligible_users=test_users)
        short += train.negatives_short + test.negatives_short
        if any(ds.y.sum() in (0, len(ds.y)) for ds in (test, train)):
            skipped.append(item)  # a split lacks positive or negative rows
            continue
        n_rows.append(len(train.y))
        model = fit_mode_h(X[train.rows], train.y, hard[train.rows],
                           config.lam, item_id=item)
        fits += model.submodels.values()
        single_class += len(model.single_class)
        per_item[item] = auc_score(test.y, predict_scores_h(
            model, X[test.rows], hard[test.rows]))

    mean_auc = float(np.mean(list(per_item.values()))) if per_item else float("nan")
    mean_n = float(np.mean(n_rows)) if n_rows else 0.0
    return CtrEvaluation(recipe.name(), mean_auc, per_item, p, mean_n,
                         mean_n * p * p, skipped, fits, single_class, short)
