"""Binned monthly characterization matrices over tenure-aligned months."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .ingest import GENRES, GENRE_INDEX, RecordSet, TenureIndex, TxnType
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

# Default cluster counts per characterization used by the CLI pipeline.
DEFAULT_K = {"ME": 4, "TF": 4, "DG": 3, "CR": 3, "TDT": 4}


def bin_price(txn_type: TxnType, price_cents: int) -> int:
    """Bin a price into its per-type category (5 rental / 8 purchase bins)."""
    if price_cents < 0:
        raise ValueError("negative price")
    edges = (RENTAL_PRICE_EDGES if txn_type is TxnType.RENTAL
             else PURCHASE_PRICE_EDGES)
    if price_cents == 0:
        return 0
    for i, edge in enumerate(edges[1:], start=1):
        if price_cents <= edge:
            return i
    return len(edges)


def me_index(txn_type: TxnType, price_cents: int) -> int:
    """Index into the 13 monthly-expenditure bins (rentals first)."""
    b = bin_price(txn_type, price_cents)
    return b if txn_type is TxnType.RENTAL else len(RENTAL_PRICE_LABELS) + b


def bin_frequency(txn_type: TxnType, price_cents: int) -> int:
    """Index into the 6 coarse transaction-frequency price bins."""
    if txn_type is TxnType.RENTAL:
        return 0 if price_cents <= 300 else 1
    if price_cents <= 800:
        return 2
    if price_cents <= 1600:
        return 3
    if price_cents <= 2000:
        return 4
    return 5


def bin_recency(release_year: int) -> int:
    for i, edge in enumerate(RECENCY_EDGES):
        if release_year < edge:
            return i
    return len(RECENCY_EDGES)


def bin_timeday(timestamp: int, region_offset_minutes: int) -> int:
    """Map a transaction to one of 6 (day type, time slot) bins.

    The slot is determined from the user's local clock; hours in [22, 24) and
    [0, 5) share the late-night slot of the same local calendar day, and early
    mornings [5, 10) fold into the office-hours slot.
    """
    local = timestamp + region_offset_minutes * 60
    day = local // 86400
    dow = (day + 3) % 7  # epoch day 0 is a Thursday; Monday == 0
    hour = (local % 86400) // 3600
    if 17 <= hour < 22:
        slot = 1
    elif hour >= 22 or hour < 5:
        slot = 2
    else:
        slot = 0
    return (0 if dow < 5 else 3) + slot


@dataclass
class CharacterizationMatrix:
    characterization: str
    labels: tuple[str, ...]
    keys: list[tuple[str, int]]   # (user_id, month_index), sorted
    values: np.ndarray            # (n, d); counts or USD amounts
    value_kind: str               # "Count" | "Amount"

    @property
    def d(self) -> int:
        return len(self.labels)

    def __post_init__(self):
        if self.values.shape != (len(self.keys), self.d):
            raise ValueError("matrix shape does not match keys/labels")


def aggregate(rs: RecordSet, ti: TenureIndex, ch: str) -> CharacterizationMatrix:
    """Aggregate records into per-user-month binned features for one facet."""
    if ch not in CHARACTERIZATIONS:
        raise ValueError(f"unknown characterization {ch!r}")
    d = CHARACTERIZATION_DIMS[ch]
    acc: dict[tuple[str, int], np.ndarray] = {}
    for r in rs.records:
        key = (r.user_id, ti.month_of(r.user_id, r.timestamp))
        row = acc.get(key)
        if row is None:
            row = acc[key] = np.zeros(d, dtype=np.int64)
        if ch == "ME":
            row[me_index(r.txn_type, r.price_cents)] += r.price_cents
        elif ch == "TF":
            row[bin_frequency(r.txn_type, r.price_cents)] += 1
        elif ch == "DG":
            row[GENRE_INDEX[r.genre]] += 1
        elif ch == "CR":
            row[bin_recency(r.release_year)] += 1
        else:  # TDT
            row[bin_timeday(r.timestamp, r.region_offset_minutes)] += 1
    keys = sorted(acc)
    if keys:
        values = np.stack([acc[k] for k in keys]).astype(np.float64)
    else:
        values = np.zeros((0, d))
    if ch == "ME":
        values /= 100.0  # cents accumulated exactly, reported in USD
    return CharacterizationMatrix(ch, CHARACTERIZATION_LABELS[ch], keys,
                                  values, VALUE_KINDS[ch])


def write_matrix(cm: CharacterizationMatrix, path) -> None:
    """CSV rows user_id,month_index,v0..v{d-1} plus a JSON sidecar descriptor.

    Count cells are written as integers, Amount cells as `repr` floats.
    """
    path = str(path)
    cell = int if cm.value_kind == "Count" else float
    artifacts.write_csv(
        path, ["user_id", "month_index"] + [f"v{i}" for i in range(cm.d)],
        ([user, month] + [repr(cell(v)) for v in row]
         for (user, month), row in zip(cm.keys, cm.values)))
    artifacts.write_json(path + ".json", {
        "characterization": cm.characterization,
        "labels": list(cm.labels),
        "value_kind": cm.value_kind,
    })


def read_matrix(path) -> CharacterizationMatrix:
    path = str(path)
    with open(path + ".json", encoding="utf-8") as fh:
        descriptor = json.load(fh)
    keys: list[tuple[str, int]] = []
    rows: list[list[float]] = []
    for raw in artifacts.read_csv(path):
        keys.append((raw[0], int(raw[1])))
        rows.append([float(v) for v in raw[2:]])
    labels = tuple(descriptor["labels"])
    values = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(labels)))
    return CharacterizationMatrix(descriptor["characterization"], labels,
                                  keys, values, descriptor["value_kind"])


def pool_by_user(cm: CharacterizationMatrix) -> tuple[list[str], np.ndarray]:
    """Sum each user's monthly rows in month order; (sorted users, rows)."""
    pooled: dict[str, np.ndarray] = {}
    for (user, _), row in zip(cm.keys, cm.values):
        acc = pooled.get(user)
        if acc is None:
            pooled[user] = row.copy()
        else:
            acc += row
    users = sorted(pooled)
    if not users:
        return users, np.zeros((0, cm.d))
    return users, np.stack([pooled[u] for u in users])
