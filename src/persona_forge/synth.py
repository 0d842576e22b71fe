"""Synthetic transaction logs with planted persona ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .features import (CHARACTERIZATION_DIMS, PURCHASE_PRICE_EDGES,
                       RECENCY_EDGES, RENTAL_PRICE_EDGES, TF_PURCHASE_EDGES,
                       TF_RENTAL_EDGES, VALUE_KINDS, time_slot, weekday)
from .ingest import MONTH_SECONDS, RecordSet, _intern

SIMPLEX_TOL = 1e-12

# Per price bin, rentals first: the lowest and highest planted cents, from
# 1 cent up to caps of 500 (TF rentals), 800 (ME rentals) and 2,500. A
# left-open bin (e, e'] holds e + 1 to e' cents, so an exact-zero bin (an
# edge at 0) is empty, its low 1 above its high 0.
_TF_LOW = np.array((0, *TF_RENTAL_EDGES, 0, *TF_PURCHASE_EDGES)) + 1
_TF_HIGH = np.array((*TF_RENTAL_EDGES, 500, *TF_PURCHASE_EDGES, 2500))
_TF_RENTAL = np.arange(len(_TF_LOW)) <= len(TF_RENTAL_EDGES)
_ME_LOW = np.array((0, *RENTAL_PRICE_EDGES, 0, *PURCHASE_PRICE_EDGES)) + 1
_ME_HIGH = np.array((*RENTAL_PRICE_EDGES, 800, *PURCHASE_PRICE_EDGES, 2500))
_ME_RENTAL = np.arange(len(_ME_LOW)) <= len(RENTAL_PRICE_EDGES)
_ME_BINS = np.flatnonzero(_ME_LOW <= _ME_HIGH)  # the bins that carry spend
# A month-0 fallback transaction's price, by its bin; an exact-zero bin
# (only when every center is zero) falls back to 101 cents.
_ME_FALLBACK_LOW = np.where(_ME_LOW <= _ME_HIGH, _ME_LOW, 101)
_YEAR_LOW = np.array((1970, *RECENCY_EDGES))  # release years 1970-2015
_YEAR_HIGH = np.array((*RECENCY_EDGES, 2016)) - 1
# Each TDT slot's hours, padded to one width, and its true size: hours from
# 10:00 round to 04:59, so none is planted 05:00-09:59.
_HOURS = np.arange(10, 29) % 24
_SLOT_SIZES = np.bincount(time_slot(_HOURS))
_SLOT_HOURS = np.array([np.resize(_HOURS[time_slot(_HOURS) == s],
                                  _SLOT_SIZES.max())
                        for s in range(len(_SLOT_SIZES))])
# The facets a mixture can plant: every count facet.
PLANTED = tuple(ch for ch, kind in VALUE_KINDS.items() if kind == "Count")
_RECENCY_BINS = CHARACTERIZATION_DIMS["CR"]

REGION_OFFSETS = (-480, -420, -360, -300, -240, 0, 60)

BASE_EPOCH = 1388534400  # 2014-01-01T00:00:00Z


def _day_table():
    """Local days 1-28 after a window's first local day, by that day mod 7
    and by day type (0 weekday, 1 weekend). Any 28 consecutive days hold 20
    weekdays and 8 weekend days; the weekend rows are padded with 0."""
    days = np.arange(1, 29)
    table = np.zeros((7, 2, 20), dtype=np.int64)
    for r in range(7):
        weekend = weekday(r + days) >= 5
        table[r, 0] = days[~weekend]
        table[r, 1, :8] = days[weekend]
    return table


_DAY_TABLE = _day_table()
_DAYS_PER_TYPE = np.array([20, 8])


class GeneratorError(Exception):
    """Raised for infeasible or invalid generator configurations."""


def _check_niche(niche, k):
    if not all(isinstance(j, (int, np.integer)) and not isinstance(j, bool)
               and 0 <= j < k for j in niche):
        raise GeneratorError(f"niche clusters must be ints in [0, {k})")


def _check_simplex(vec, what):
    vec = np.asarray(vec, dtype=np.float64)
    if (vec.ndim != 1 or not np.all(np.isfinite(vec) & (vec >= 0))
            or abs(vec.sum() - 1.0) > SIMPLEX_TOL):
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
        _check_niche(self.niche, len(self.pi))


@dataclass
class SpendModel:
    """Planted spending clusters: average monthly USD per expenditure bin."""
    pi: np.ndarray
    centers: np.ndarray  # (K, 13) USD amounts, one per ME bin
    niche: tuple[int, ...] = ()

    def __post_init__(self):
        self.pi = _check_simplex(self.pi, "pi")
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.shape != (len(self.pi), len(_ME_LOW)):
            raise GeneratorError(f"spend centers must be (K, {len(_ME_LOW)})")
        if not np.all(np.isfinite(self.centers) & (self.centers >= 0)):
            raise GeneratorError("spend centers must be finite and >= 0")
        _check_niche(self.niche, len(self.pi))
        spent = np.argwhere((self.centers > 0) & (_ME_LOW > _ME_HIGH))
        if len(spent):  # the first (cluster, exact-zero bin) pair
            raise GeneratorError(f"cluster {spent[0][0]} plants spend in "
                                 f"exact-zero price bin {spent[0][1]}")


@dataclass
class GeneratorConfig:
    n_users: int
    months_per_user: int
    seed: int = 0
    # Planted mixtures keyed by characterization, each in PLANTED.
    mixtures: dict[str, PlantedMixture] = field(default_factory=dict)
    spend_model: SpendModel | None = None
    price_mode: str = "tf"        # "tf": prices follow the TF label;
                                  # "me": amounts follow the spend model
    poisson_mean: float = 8.0     # transactions per month, price_mode "tf"
    migration_rate: float = 0.0
    items_per_cell: int = 2       # content ids per (genre, recency) cell

    def __post_init__(self):
        if self.n_users < 1 or self.months_per_user < 1:
            raise GeneratorError("n_users and months_per_user must be positive")
        if self.n_users * self.months_per_user > np.iinfo(np.intp).max // 8:
            raise GeneratorError("too many user-months for one numpy array")
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
        cells = CHARACTERIZATION_DIMS["DG"] * _RECENCY_BINS
        if cells * self.items_per_cell > np.iinfo(np.int64).max:
            raise GeneratorError("items_per_cell overflows the content code")
        check_mixtures(self.mixtures)


def check_mixtures(mixtures: dict[str, PlantedMixture]) -> None:
    """Raise a GeneratorError unless each mixture fits a facet in PLANTED."""
    for ch, mix in mixtures.items():
        if ch not in PLANTED:
            raise GeneratorError(f"cannot plant characterization {ch!r}")
        if mix.theta.shape[1] != CHARACTERIZATION_DIMS[ch]:
            raise GeneratorError(f"{ch} theta rows have {mix.theta.shape[1]} "
                                 f"bins, not {CHARACTERIZATION_DIMS[ch]}")


@dataclass
class GroundTruth:
    """True cluster label per user per tenure month, per characterization."""
    users: tuple[str, ...]          # sorted ids
    labels: dict[str, np.ndarray]   # ch -> (n_users, months) int64

    def label_array(self, ch: str, users, user, month) -> np.ndarray:
        """Labels of the rows whose `user` codes index `users`."""
        code = {u: i for i, u in enumerate(self.users)}
        codes = np.array([code[u] for u in users], dtype=np.int64)
        return self.labels[ch][codes[user], month]


def _categorical(rng, p, rows):
    """One draw per entry of `rows`: bin b with probability p[row, b], by
    inverse CDF. Each row's cumulative shares are scaled so the last is
    exactly 1; a uniform draw u then passes only edges below 1, so the bin
    stays below d, and zero-share bins (equal neighbouring edges) are never
    drawn. Edge by edge, bin b is the count of edges at or below u."""
    cum = np.cumsum(p, axis=1)
    cum /= cum[:, -1:]
    u = rng.random(len(rows))
    bins = np.zeros(len(rows), dtype=np.int64)
    for edge in cum[:, :-1].T:
        bins += u >= edge[rows]
    return bins


def _sample_labels(rng, mix, n_users, months, migration_rate):
    """(n_users, months) labels: month 0 from pi; each later month keeps the
    last label, except that a niche label is redrawn from pi with
    probability `migration_rate`."""
    labels = np.empty((n_users, months), dtype=np.int64)
    labels[:, 0] = _categorical(rng, mix.pi[None], np.zeros(n_users, np.int64))
    niche = np.asarray(mix.niche, dtype=np.int64)
    for m in range(1, months):
        labels[:, m] = labels[:, m - 1]
        if migration_rate > 0 and len(niche):
            move = (np.isin(labels[:, m], niche)
                    & (rng.random(n_users) < migration_rate))
            labels[move, m] = _categorical(rng, mix.pi[None],
                                           np.zeros(move.sum(), np.int64))
    return labels


def _spend_bin_txns(rng, center_usd, low, high):
    """Realize the spend target of each (user, month, bin) cell as
    transactions priced in the cell's bin [low, high] (cents).

    `center_usd` holds one cell's planted monthly USD each; `low` and `high`
    are per cell or scalars. Returns each transaction's cell index (cells in
    order) and its price. A target below the bin floor is one transaction at
    the floor with probability target / low, so the long-run mean matches the
    planted center; otherwise k = ceil(target / high) even prices `base` =
    target // k carry it, the first r = target - k·base of them one cent
    more, so they sum to the target exactly. When that leaves prices below
    the floor, the target falls between j·high and (j + 1)·low for
    j = target // high, and j transactions at the ceiling or j + 1 at the
    floor are drawn so that the expected sum still matches the target.
    """
    n = len(center_usd)
    target = np.rint(center_usd * 100 * np.maximum(
        0.3, rng.normal(1.0, 0.15, size=n))).astype(np.int64)
    coin = rng.random(n)
    k = np.maximum(1, -(-target // high))
    base = target // k
    floor = (target > 0) & (target < low)
    even = (target >= low) & (base >= low)
    narrow = (target >= low) & (base < low)
    k_high = target // high
    up = coin * ((k_high + 1) * low - k_high * high) < target - k_high * high
    count = np.select([floor, even, narrow],
                      [coin * low < target, k, k_high + up], 0)
    price = np.select([floor, even, narrow],
                      [low, base, np.where(up, low, high)], 0)
    extra = np.where(even, target - base * k, 0)  # base + 1 <= high if > 0
    cell = np.repeat(np.arange(n), count)
    nth = np.arange(len(cell)) - (np.cumsum(count) - count)[cell]
    return cell, price[cell] + (nth < extra[cell])


def _spend_rows(rng, model, labels):
    """The rows of price mode "me" in (user, month) order: user, month,
    cents and rental. A user with no month-0 spend gets one transaction at
    the floor of their largest center's bin, which anchors their birth."""
    n_users, months = labels.shape
    centers = model.centers[labels]                      # (users, months, 13)
    cells = n_users * months
    cell, cents = _spend_bin_txns(rng, centers[..., _ME_BINS].ravel(),
                                  np.tile(_ME_LOW[_ME_BINS], cells),
                                  np.tile(_ME_HIGH[_ME_BINS], cells))
    user_month, b = np.divmod(cell, len(_ME_BINS))
    user, month = np.divmod(user_month, months)
    bins = _ME_BINS[b]
    lone = np.setdiff1d(np.arange(n_users), user[month == 0])
    lone_bins = centers[lone, 0].argmax(axis=1)
    user = np.concatenate([user, lone])
    month = np.concatenate([month, np.zeros(len(lone), np.int64)])
    cents = np.concatenate([cents, _ME_FALLBACK_LOW[lone_bins]])
    bins = np.concatenate([bins, lone_bins])
    order = np.argsort(user * months + month, kind="stable")
    return user[order], month[order], cents[order], _ME_RENTAL[bins[order]]


def _facet_bins(rng, cfg, truth, ch, user, month):
    """Each row's bin of count facet `ch`: drawn from the planted theta row
    of its user-month's label, or uniformly when `ch` is not planted."""
    if ch in cfg.mixtures:
        return _categorical(rng, cfg.mixtures[ch].theta,
                            truth[ch][user, month])
    return rng.integers(CHARACTERIZATION_DIMS[ch], size=len(user))


def _bump_collisions(user, ts, code):
    """Make the (user, ts, code) keys unique in place: every repeat of a key
    moves one second later, pass by pass until no repeat is left."""
    while True:
        order = np.lexsort((code, ts, user))
        u, t, c = user[order], ts[order], code[order]
        repeat = (u[1:] == u[:-1]) & (t[1:] == t[:-1]) & (c[1:] == c[:-1])
        if not repeat.any():
            return
        ts[order[1:][repeat]] += 1


def generate(cfg: GeneratorConfig) -> tuple[RecordSet, GroundTruth]:
    """Generate a transaction log whose binned features follow planted labels.

    Deterministic given cfg.seed. Every user's first transaction anchors their
    tenure birth; all later transactions land on local days 1-28 of their
    planted 30-day month so tenure alignment reproduces the planted month
    indices. Every draw is one array call over all users, user-months or
    rows.
    """
    rng = np.random.default_rng(cfg.seed)
    n_users, months = cfg.n_users, cfg.months_per_user
    offset = np.asarray(REGION_OFFSETS)[
        rng.integers(len(REGION_OFFSETS), size=n_users)]
    truth = {ch: _sample_labels(rng, mix, n_users, months, cfg.migration_rate)
             for ch, mix in cfg.mixtures.items()}
    if cfg.spend_model is not None:
        truth["ME"] = _sample_labels(rng, cfg.spend_model, n_users, months,
                                     cfg.migration_rate)

    if cfg.price_mode == "tf":
        counts = rng.poisson(cfg.poisson_mean, size=(n_users, months))
        counts[:, 0] = np.maximum(counts[:, 0], 1)
        user = np.repeat(np.arange(n_users), counts.sum(axis=1))
        month = np.repeat(np.tile(np.arange(months), n_users), counts.ravel())
        tf = _categorical(rng, cfg.mixtures["TF"].theta,
                          truth["TF"][user, month])
        cents = rng.integers(_TF_LOW[tf], _TF_HIGH[tf] + 1)
        rental = _TF_RENTAL[tf]
    else:
        user, month, cents, rental = _spend_rows(rng, cfg.spend_model,
                                                 truth["ME"])
    n = len(user)
    genre, cr, tdt = [_facet_bins(rng, cfg, truth, ch, user, month)
                      for ch in ("DG", "CR", "TDT")]
    year = rng.integers(_YEAR_LOW[cr], _YEAR_HIGH[cr] + 1)
    cell = rng.integers(cfg.items_per_cell, size=n)

    # A user's first row (month 0) is their birth: a local day of its TDT
    # day type within a week of a uniform day of the base year. Every later
    # row falls on local days 1-28 of its month's 30-day window.
    first = np.searchsorted(user, np.arange(n_users))
    weekend, slot = np.divmod(tdt, 3)  # day type 0 weekday, 1 weekend
    day0 = BASE_EPOCH // 86400 + rng.integers(365, size=n_users)
    dow = weekday(day0)
    birth_day = day0 + np.where(weekend[first] == 1, np.maximum(0, 5 - dow),
                                np.where(dow < 5, 0, 7 - dow))
    window_day = birth_day[user] + month * (MONTH_SECONDS // 86400)
    day = window_day + _DAY_TABLE[window_day % 7, weekend,
                                 rng.integers(_DAYS_PER_TYPE[weekend])]
    day[first] = birth_day
    hour = _SLOT_HOURS[slot, rng.integers(_SLOT_SIZES[slot])]
    ts = (day * 86400 + hour * 3600 + rng.integers(3600, size=n)
          - offset[user] * 60)

    code = (genre * _RECENCY_BINS + cr) * cfg.items_per_cell + cell
    distinct, content = np.unique(code, return_inverse=True)
    gr, x = np.divmod(distinct, cfg.items_per_cell)
    g, r = np.divmod(gr, _RECENCY_BINS)
    contents, cell_code = _intern([f"g{a:02d}r{b}x{c}" for a, b, c in
                                   zip(g.tolist(), r.tolist(), x.tolist())])
    # same-width zero-padded numbers sort as the ints they write
    uid_width = max(6, len(str(n_users - 1)))
    uids = tuple(f"u{u:0{uid_width}d}" for u in range(n_users))
    rs = RecordSet.build(uids, user, ts, offset[user], contents,
                         cell_code[content], rental, cents, genre, year)
    # A repeated (user, ts, content) key sits next to its twin in the built
    # table; only then are the rows bumped and sorted again.
    if ((np.diff(rs.user) == 0) & (np.diff(rs.timestamp) == 0)
            & (np.diff(rs.content) == 0)).any():
        _bump_collisions(user, ts, code)
        rs = RecordSet.build(uids, user, ts, offset[user], contents,
                             cell_code[content], rental, cents, genre, year)
    return rs, GroundTruth(uids, truth)


def write_ground_truth(gt: GroundTruth, path) -> None:
    """Rows user_id,month_index,characterization,label, by characterization
    name, then user, then month."""
    chars = sorted(gt.labels)
    labels = np.stack([gt.labels[ch] for ch in chars])  # (ch, user, month)
    ch, user, month = np.indices(labels.shape).reshape(3, -1)
    artifacts.write_csv(
        path, ["user_id", "month_index", "characterization", "label"],
        [(gt.users, user), month, (chars, ch), labels.ravel()])


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
    params = dict(mixtures=default_mixtures())
    params.update(overrides)
    return GeneratorConfig(n_users=n_users, months_per_user=months_per_user,
                           seed=seed, **params)
