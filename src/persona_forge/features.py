"""Binned monthly characterization matrices over tenure-aligned months."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .ingest import GENRES, RecordSet, _intern
from .ingest import tenure_align  # noqa: F401  (re-export)

# Price bins in cents; interval bins are left-open/right-closed, with a
# dedicated exact-zero bin.
RENTAL_PRICE_EDGES = (0, 100, 300, 500)
RENTAL_PRICE_LABELS = ("R 0", "R 0-1", "R 1-3", "R 3-5", "R >5")
PURCHASE_PRICE_EDGES = (0, 300, 500, 800, 1000, 1600, 2000)
PURCHASE_PRICE_LABELS = ("P 0", "P 0-3", "P 3-5", "P 5-8", "P 8-10",
                         "P 10-16", "P 16-20", "P >20")

ME_LABELS = RENTAL_PRICE_LABELS + PURCHASE_PRICE_LABELS

TF_LABELS = ("R 0-3", "R >3", "P 0-8", "P 8-16", "P 16-20", "P >20")

RECENCY_LABELS = ("Old", "Nostalgia", "NotNew", "Recent", "Latest")
RECENCY_EDGES = (1990, 2000, 2010, 2014)  # half-open [edge_i, edge_{i+1})

TDT_LABELS = ("Weekday 10-17", "Weekday 17-22", "Weekday 22-05",
              "Weekend 10-17", "Weekend 17-22", "Weekend 22-05")

CHARACTERIZATIONS = ("ME", "TF", "DG", "CR", "TDT")
CHARACTERIZATION_LABELS: dict[str, tuple[str, ...]] = {
    "ME": ME_LABELS,
    "TF": TF_LABELS,
    "DG": GENRES,
    "CR": RECENCY_LABELS,
    "TDT": TDT_LABELS,
}
CHARACTERIZATION_DIMS = {ch: len(v) for ch, v in CHARACTERIZATION_LABELS.items()}
VALUE_KINDS = {"ME": "Amount", "TF": "Count", "DG": "Count", "CR": "Count",
               "TDT": "Count"}


def bin_price(rental, cents):
    """Bin prices into their per-type category (5 rental / 8 purchase bins)."""
    cents = np.asarray(cents)
    if np.any(cents < 0):
        raise ValueError("negative price")
    # The count of edges below a price is its bin, the zero bin included.
    return np.where(rental, np.searchsorted(RENTAL_PRICE_EDGES, cents),
                    np.searchsorted(PURCHASE_PRICE_EDGES, cents))


def me_index(rental, cents):
    """Index into the 13 monthly-expenditure bins (rentals first)."""
    return bin_price(rental, cents) + np.where(rental, 0,
                                               len(RENTAL_PRICE_LABELS))


def bin_frequency(rental, cents):
    """Index into the 6 coarse transaction-frequency price bins."""
    return np.where(rental, np.searchsorted((300,), cents),
                    2 + np.searchsorted((800, 1600, 2000), cents))


def bin_recency(release_year):
    return np.searchsorted(RECENCY_EDGES, release_year, side="right")


def bin_timeday(timestamp, region_offset_minutes):
    """Map transactions to one of 6 (day type, time slot) bins.

    The slot is determined from the user's local clock; hours in [22, 24) and
    [0, 5) share the late-night slot of the same local calendar day, and early
    mornings [5, 10) fold into the office-hours slot.
    """
    local = np.asarray(timestamp) + np.asarray(region_offset_minutes) * 60
    dow = (local // 86400 + 3) % 7  # epoch day 0 is a Thursday; Monday == 0
    hour = (local % 86400) // 3600
    slot = np.where((17 <= hour) & (hour < 22), 1,
                    np.where((hour >= 22) | (hour < 5), 2, 0))
    return np.where(dow < 5, 0, 3) + slot


@dataclass
class CharacterizationMatrix:
    characterization: str
    labels: tuple[str, ...]
    users: tuple[str, ...]        # sorted distinct user ids
    user: np.ndarray              # int64 codes into `users`
    month: np.ndarray             # int64 tenure months; rows sorted by
                                  # (user, month) without repeats
    values: np.ndarray            # (n, d); counts or USD amounts
    value_kind: str               # "Count" | "Amount"

    @property
    def d(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        if (self.values.shape != (len(self.user), self.d)
                or len(self.month) != len(self.user)):
            raise ValueError("matrix shape does not match rows/labels")


_FACET_BINS = {  # each row's bin index, per characterization
    "ME": lambda rs: me_index(rs.rental, rs.cents),
    "TF": lambda rs: bin_frequency(rs.rental, rs.cents),
    "DG": lambda rs: rs.genre,
    "CR": lambda rs: bin_recency(rs.year),
    "TDT": lambda rs: bin_timeday(rs.timestamp, rs.offset),
}


def aggregate(rs: RecordSet, months: np.ndarray,
              ch: str) -> CharacterizationMatrix:
    """Aggregate rows into per-user-month binned features for one facet;
    `months` is each row's tenure month (`tenure_align`)."""
    if ch not in CHARACTERIZATIONS:
        raise ValueError(f"unknown characterization {ch!r}")
    d = CHARACTERIZATION_DIMS[ch]
    span = int(months.max(initial=0)) + 1
    keys, user_month = np.unique(rs.user * span + months, return_inverse=True)
    values = np.bincount(user_month * d + _FACET_BINS[ch](rs),
                         weights=rs.cents if ch == "ME" else None,
                         minlength=len(keys) * d)
    values = values.reshape(len(keys), d).astype(np.float64)
    if ch == "ME":
        values /= 100.0  # cents summed exactly in float64, reported in USD
    return CharacterizationMatrix(ch, CHARACTERIZATION_LABELS[ch], rs.users,
                                  keys // span, keys % span, values,
                                  VALUE_KINDS[ch])


def write_rows(path, cm: CharacterizationMatrix, names, cells) -> None:
    """A user-month CSV: the rows of `cm` as user_id,month_index, then the
    `names` columns, each row's text in `cells`."""
    artifacts.write_csv(
        path, ["user_id", "month_index", *names],
        ([cm.users[u], m, *row] for u, m, row in
         zip(cm.user.tolist(), cm.month.tolist(), cells)))


def read_rows(path):
    """A `write_rows` CSV as (users, user, month, each row's other cells).
    Rows strictly increase in (user_id, month_index); no month is negative."""
    rows = list(artifacts.read_csv(path))
    users, user = _intern([row[0] for row in rows])
    month = np.array([row[1] for row in rows], dtype=np.int64)
    step = np.diff(user)
    behind = np.flatnonzero((step < 0) | ((step == 0) & (np.diff(month) <= 0)))
    if len(behind):  # 1-based data rows
        raise ValueError(f"row {behind[0] + 2} does not follow row "
                         f"{behind[0] + 1} in (user_id, month_index) order")
    if (month < 0).any():
        raise ValueError("negative month_index")
    return users, user, month, [row[2:] for row in rows]


def write_matrix(cm: CharacterizationMatrix, path) -> None:
    """CSV rows user_id,month_index,v0..v{d-1} plus a JSON sidecar descriptor.

    Count cells are written as integers, Amount cells as floats.
    """
    path = str(path)
    values = cm.values.astype(np.int64 if cm.value_kind == "Count" else float)
    write_rows(path, cm, [f"v{i}" for i in range(cm.d)],
               (row.tolist() for row in values))
    artifacts.write_json(path + ".json", {
        "characterization": cm.characterization,
        "labels": list(cm.labels),
        "value_kind": cm.value_kind,
    })


def read_matrix(path) -> CharacterizationMatrix:
    """Read a `write_matrix` CSV and its sidecar. A cell that is negative or
    not finite, or not a whole number in a Count matrix, raises ValueError."""
    path = str(path)
    with open(path + ".json", encoding="utf-8") as fh:
        descriptor = json.load(fh)
    users, user, month, cells = read_rows(path)
    labels = tuple(descriptor["labels"])
    values = np.array(cells, dtype=float).reshape(len(cells), len(labels))
    whole = descriptor["value_kind"] == "Count"
    bad = ~(np.isfinite(values) & (values >= 0))
    if whole:
        bad |= values != np.floor(values)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        kind = "whole number" if whole else "finite number"
        raise ValueError(f"{path}: row {r + 1} cell v{c} = "
                         f"{float(values[r, c])!r} is not a non-negative "
                         f"{kind}")
    return CharacterizationMatrix(descriptor["characterization"], labels,
                                  users, user, month, values,
                                  descriptor["value_kind"])


def pool_by_user(cm: CharacterizationMatrix) -> np.ndarray:
    """(len(cm.users), d): each user's monthly rows summed in month order."""
    pooled = np.zeros((len(cm.users), cm.d))
    np.add.at(pooled, cm.user, cm.values)
    return pooled
