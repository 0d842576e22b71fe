"""Synthetic transaction logs with planted persona ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .ingest import MONTH_SECONDS, RecordSet

SIMPLEX_TOL = 1e-12

# Inclusive cent ranges backing each coarse transaction-frequency bin.
TF_PRICE_RANGES = (
    (1, 300),      # R 0-3
    (301, 500),    # R >3
    (1, 800),      # P 0-8
    (801, 1600),   # P 8-16
    (1601, 2000),  # P 16-20
    (2001, 2500),  # P >20
)
TF_IS_RENTAL = (True, True, False, False, False, False)

# Inclusive cent ranges backing the 13 monthly-expenditure bins; the two
# exact-zero bins cannot carry spend and are None.
ME_PRICE_RANGES = (
    None, (1, 100), (101, 300), (301, 500), (501, 800),          # rentals
    None, (1, 300), (301, 500), (501, 800), (801, 1000),         # purchases
    (1001, 1600), (1601, 2000), (2001, 2500),
)
ME_IS_RENTAL = tuple(i < 5 for i in range(13))

RECENCY_YEAR_RANGES = ((1970, 1989), (1990, 1999), (2000, 2009),
                       (2010, 2013), (2014, 2015))

TDT_SLOT_HOURS = ((10, 11, 12, 13, 14, 15, 16),
                  (17, 18, 19, 20, 21),
                  (22, 23, 0, 1, 2, 3, 4))

REGION_OFFSETS = (-480, -420, -360, -300, -240, 0, 60)

BASE_EPOCH = 1388534400  # 2014-01-01T00:00:00Z


class GeneratorError(Exception):
    """Raised for infeasible or invalid generator configurations."""


def _check_simplex(vec, what):
    vec = np.asarray(vec, dtype=np.float64)
    if vec.ndim != 1 or np.any(vec < 0) or abs(vec.sum() - 1.0) > SIMPLEX_TOL:
        raise GeneratorError(f"{what} is not a probability vector")
    return vec


@dataclass
class PlantedMixture:
    """A planted mixture: mixing weights and per-cluster category distributions."""
    pi: np.ndarray
    theta: np.ndarray          # (K, d), each row on the simplex
    niche: tuple[int, ...] = ()  # clusters whose labels may resample monthly

    def __post_init__(self):
        self.pi = _check_simplex(self.pi, "pi")
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2 or self.theta.shape[0] != len(self.pi):
            raise GeneratorError("theta shape does not match pi")
        for j, row in enumerate(self.theta):
            _check_simplex(row, f"theta row {j}")
        if any(not 0 <= j < len(self.pi) for j in self.niche):
            raise GeneratorError("niche cluster index out of range")

    @property
    def k(self) -> int:
        return len(self.pi)


@dataclass
class SpendModel:
    """Planted spending clusters: average monthly USD per expenditure bin."""
    pi: np.ndarray
    centers: np.ndarray  # (K, 13) USD amounts
    niche: tuple[int, ...] = ()

    def __post_init__(self):
        self.pi = _check_simplex(self.pi, "pi")
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape != (len(self.pi), 13):
            raise GeneratorError("spend centers must be (K, 13)")
        if np.any(self.centers < 0):
            raise GeneratorError("spend centers must be non-negative")
        for j in range(len(self.pi)):
            for b in (0, 5):
                if self.centers[j, b] > 0:
                    raise GeneratorError(
                        f"cluster {j} plants spend in exact-zero price bin {b}")

    @property
    def k(self) -> int:
        return len(self.pi)


@dataclass
class GeneratorConfig:
    n_users: int
    months_per_user: int
    seed: int = 0
    # Planted mixtures keyed by characterization ("TF", "DG", "CR", "TDT").
    mixtures: dict[str, PlantedMixture] = field(default_factory=dict)
    spend_model: SpendModel | None = None
    price_mode: str = "tf"        # "tf": prices follow the TF label;
                                  # "me": amounts follow the spend model
    poisson_mean: float = 6.0     # transactions per month, price_mode "tf"
    migration_rate: float = 0.0
    items_per_cell: int = 1       # content ids per (genre, recency) cell

    def __post_init__(self):
        if self.n_users < 1 or self.months_per_user < 1:
            raise GeneratorError("n_users and months_per_user must be positive")
        if self.price_mode not in ("tf", "me"):
            raise GeneratorError(f"unknown price_mode {self.price_mode!r}")
        if self.price_mode == "tf" and "TF" not in self.mixtures:
            raise GeneratorError("price_mode 'tf' requires a TF mixture")
        if self.price_mode == "me" and self.spend_model is None:
            raise GeneratorError("price_mode 'me' requires a spend model")
        if not 0.0 <= self.migration_rate <= 1.0:
            raise GeneratorError("migration_rate must be in [0, 1]")
        if not self.poisson_mean > 0:  # also rejects nan
            raise GeneratorError("poisson_mean must be positive")
        if self.items_per_cell < 1:
            raise GeneratorError("items_per_cell must be positive")
        for ch in self.mixtures:
            if ch not in ("TF", "DG", "CR", "TDT"):
                raise GeneratorError(f"cannot plant characterization {ch!r}")

    @property
    def planted(self) -> tuple[str, ...]:
        chars = list(self.mixtures)
        if self.spend_model is not None:
            chars.append("ME")
        return tuple(chars)


@dataclass
class GroundTruth:
    """True cluster label per user per tenure month, per characterization."""
    labels: dict[str, dict[tuple[str, int], int]]

    def label_array(self, ch: str, keys: list[tuple[str, int]]) -> np.ndarray:
        table = self.labels[ch]
        return np.array([table[k] for k in keys], dtype=np.int64)


def _sample_labels(rng, mix, months, migration_rate):
    labels = np.empty(months, dtype=np.int64)
    labels[0] = rng.choice(mix.k, p=mix.pi)
    niche = set(mix.niche)
    for m in range(1, months):
        prev = labels[m - 1]
        if prev in niche and migration_rate > 0 and rng.random() < migration_rate:
            labels[m] = rng.choice(mix.k, p=mix.pi)
        else:
            labels[m] = prev
    return labels


def _spend_bin_txns(rng, center_usd, price_range):
    """Realize one month's spend target for one price bin as a price list."""
    low, high = price_range
    target = int(round(center_usd * 100 * max(0.3, rng.normal(1.0, 0.15))))
    if target <= 0:
        return []
    if target < low:
        # Too small for a single transaction in this bin: occasional txn at
        # the bin floor so the long-run mean matches the planted center.
        if rng.random() < target / low:
            return [low]
        return []
    k = max(1, math.ceil(target / high))
    base = target // k
    if base >= low:
        prices = [base] * k
        prices[0] = min(high, base + target - base * k)
        return prices
    # Narrow bin: target falls between k*high and (k+1)*low.  Randomize the
    # transaction count so the expected sum still matches the target.
    k = target // high
    lo_sum, hi_sum = k * high, (k + 1) * low
    if rng.random() < (target - lo_sum) / (hi_sum - lo_sum):
        return [low] * (k + 1)
    return [high] * k


def _month_day_pool(local_day0):
    """Days 1..28 of a 30-day window split by local weekday/weekend."""
    weekday, weekend = [], []
    for d in range(1, 29):
        (weekday if (local_day0 + d + 3) % 7 < 5 else weekend).append(d)
    return weekday, weekend


def _local_ts(rng, local_day, tdt_bin):
    hours = TDT_SLOT_HOURS[tdt_bin % 3]
    hour = int(hours[rng.integers(len(hours))])
    return local_day * 86400 + hour * 3600 + int(rng.integers(3600))


def generate(cfg: GeneratorConfig) -> tuple[RecordSet, GroundTruth]:
    """Generate a transaction log whose binned features follow planted labels.

    Deterministic given cfg.seed. Every user's first transaction anchors their
    tenure birth; all later transactions land strictly inside their planted
    30-day month so tenure alignment reproduces the planted month indices.
    """
    rng = np.random.default_rng(cfg.seed)
    truth: dict[str, dict[tuple[str, int], int]] = {ch: {} for ch in cfg.planted}
    rows: list[tuple] = []  # cells in CSV_COLUMNS order
    base_day = BASE_EPOCH // 86400
    uid_width = max(6, len(str(cfg.n_users - 1)))

    for u in range(cfg.n_users):
        uid = f"u{u:0{uid_width}d}"
        offset = int(REGION_OFFSETS[rng.integers(len(REGION_OFFSETS))])
        months = cfg.months_per_user

        labels = {ch: _sample_labels(rng, mix, months, cfg.migration_rate)
                  for ch, mix in cfg.mixtures.items()}
        if cfg.spend_model is not None:
            labels["ME"] = _sample_labels(rng, cfg.spend_model, months,
                                          cfg.migration_rate)
        for ch, lab in labels.items():
            for m in range(months):
                truth[ch][(uid, m)] = int(lab[m])

        tdt_mix = cfg.mixtures.get("TDT")
        dg_mix = cfg.mixtures.get("DG")
        cr_mix = cfg.mixtures.get("CR")

        birth = None
        seen: set[tuple[int, str]] = set()
        for m in range(months):
            if cfg.price_mode == "tf":
                n = int(rng.poisson(cfg.poisson_mean))
                if m == 0:
                    n = max(1, n)
                if n == 0:
                    continue
                theta = cfg.mixtures["TF"].theta[labels["TF"][m]]
                bins = rng.choice(6, size=n, p=theta)
                prices = [int(rng.integers(TF_PRICE_RANGES[b][0],
                                           TF_PRICE_RANGES[b][1] + 1))
                          for b in bins]
                rentals = [TF_IS_RENTAL[b] for b in bins]
            else:
                centers = cfg.spend_model.centers[labels["ME"][m]]
                prices, rentals = [], []
                for b in range(13):
                    if ME_PRICE_RANGES[b] is None:
                        continue
                    for p in _spend_bin_txns(rng, centers[b], ME_PRICE_RANGES[b]):
                        prices.append(p)
                        rentals.append(ME_IS_RENTAL[b])
                if m == 0 and not prices:
                    b = int(np.argmax(centers))
                    lo, hi = ME_PRICE_RANGES[b] or (101, 300)
                    prices, rentals = [lo], [ME_IS_RENTAL[b]]
                if not prices:
                    continue

            n = len(prices)
            if dg_mix is not None:
                genres = rng.choice(16, size=n, p=dg_mix.theta[labels["DG"][m]])
            else:
                genres = rng.integers(0, 16, size=n)
            if cr_mix is not None:
                cr_bins = rng.choice(5, size=n, p=cr_mix.theta[labels["CR"][m]])
            else:
                cr_bins = rng.integers(0, 5, size=n)
            years = [int(rng.integers(RECENCY_YEAR_RANGES[b][0],
                                      RECENCY_YEAR_RANGES[b][1] + 1))
                     for b in cr_bins]
            if tdt_mix is not None:
                tdt_bins = rng.choice(6, size=n, p=tdt_mix.theta[labels["TDT"][m]])
            else:
                tdt_bins = rng.integers(0, 6, size=n)

            if birth is None:
                # Anchor the tenure birth on a local time matching the first
                # transaction's drawn time-day bin.
                b0 = int(tdt_bins[0])
                d0 = base_day + int(rng.integers(0, 365))
                want_weekday = b0 < 3
                day = next(d for d in range(d0, d0 + 7)
                           if ((d + 3) % 7 < 5) == want_weekday)
                birth = _local_ts(rng, day, b0) - offset * 60

            window_start = birth + m * MONTH_SECONDS
            local_day0 = (window_start + offset * 60) // 86400
            weekday_pool, weekend_pool = _month_day_pool(local_day0)

            for i in range(n):
                if m == 0 and i == 0:
                    ts = birth
                else:
                    b = int(tdt_bins[i])
                    pool = weekday_pool if b < 3 else weekend_pool
                    day = local_day0 + pool[rng.integers(len(pool))]
                    ts = _local_ts(rng, day, b) - offset * 60
                cell = int(rng.integers(cfg.items_per_cell))
                content = f"g{int(genres[i]):02d}r{int(cr_bins[i])}x{cell}"
                while (ts, content) in seen:
                    ts += 1
                seen.add((ts, content))
                rows.append((uid, int(ts), offset, content, rentals[i],
                             int(prices[i]), int(genres[i]), years[i]))

    return (RecordSet.build(*zip(*rows)),
            GroundTruth(truth))


def write_ground_truth(gt: GroundTruth, path) -> None:
    artifacts.write_csv(
        path, ["user_id", "month_index", "characterization", "label"],
        ([user, month, ch, label]
         for ch in sorted(gt.labels)
         for (user, month), label in sorted(gt.labels[ch].items())))


def read_ground_truth(path) -> GroundTruth:
    labels: dict[str, dict[tuple[str, int], int]] = {}
    for user, month, ch, label in artifacts.read_csv(path):
        labels.setdefault(ch, {})[(user, int(month))] = int(label)
    return GroundTruth(labels)


# ---------------------------------------------------------------------------
# Default planted parameters: the published persona center tables, normalized.

def _norm_rows(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return arr / arr.sum(axis=1, keepdims=True)


DEFAULT_TF_PI = np.array([0.61, 0.21, 0.12, 0.06])
DEFAULT_TF_THETA = _norm_rows([
    [10, 86, 0, 3, 1, 0],
    [60, 33, 2, 5, 0, 0],
    [8, 29, 4, 43, 13, 3],
    [5, 12, 78, 4, 0, 1],
])

DEFAULT_DG_PI = np.array([0.23, 0.40, 0.37])
DEFAULT_DG_THETA = _norm_rows([
    [5, 13, 5, 28, 20, 2, 2, 2.5, 0, 4, 2, 4, 0, 0, 3, 7],
    [28, 10, 4, 1, 0, 3, 10, 0, 4, 0, 5, 7, 0, 4, 0, 20],
    [15, 6, 20, 1, 0, 12, 2, 8, 4, 4, 1, 1, 5, 2, 0, 14],
])

DEFAULT_CR_PI = np.array([0.40, 0.30, 0.30])
DEFAULT_CR_THETA = _norm_rows([
    [0, 0, 3, 9, 88],
    [0, 0, 3, 88, 9],
    [8, 9, 28, 32, 33],
])

DEFAULT_TDT_PI = np.array([0.24, 0.24, 0.42, 0.10])
DEFAULT_TDT_THETA = _norm_rows([
    [0, 1, 10, 1, 24, 62],
    [8, 18, 68, 0, 0, 5],
    [4, 9, 45, 3, 6, 31],
    [2, 2, 10, 4, 7, 56],
])

# Published shares sum to 0.99; normalized onto the simplex.
_ME_SHARES = np.array([0.71, 0.21, 0.045, 0.025])
DEFAULT_ME_PI = _ME_SHARES / _ME_SHARES.sum()
DEFAULT_ME_CENTERS = np.array([
    [0, 0, 0.97, 2.38, 2.41, 0, 0.56, 0.01, 0.04, 0.33, 1.07, 0, 0.44],
    [0, 0, 1.48, 13.02, 1.79, 0, 0.36, 0.01, 0.03, 0.34, 0.87, 0.04, 0.16],
    [0, 0, 0.82, 3.35, 2.46, 0, 0.56, 0.02, 0.10, 1.10, 3.74, 23.95, 0.09],
    [0, 0, 1.8, 6.02, 3.19, 0, 1.11, 0.08, 0.39, 4.29, 39.86, 6.49, 2.12],
])


def default_mixtures() -> dict[str, PlantedMixture]:
    return {
        "TF": PlantedMixture(DEFAULT_TF_PI, DEFAULT_TF_THETA),
        "DG": PlantedMixture(DEFAULT_DG_PI, DEFAULT_DG_THETA),
        "CR": PlantedMixture(DEFAULT_CR_PI, DEFAULT_CR_THETA),
        "TDT": PlantedMixture(DEFAULT_TDT_PI, DEFAULT_TDT_THETA),
    }


def default_spend_model() -> SpendModel:
    return SpendModel(DEFAULT_ME_PI, DEFAULT_ME_CENTERS)


def default_config(n_users: int, months_per_user: int, seed: int = 0,
                   **overrides) -> GeneratorConfig:
    """A full-pipeline config planted from the published persona tables."""
    params = dict(mixtures=default_mixtures(), poisson_mean=8.0,
                  items_per_cell=2)
    params.update(overrides)
    return GeneratorConfig(n_users=n_users, months_per_user=months_per_user,
                           seed=seed, **params)
