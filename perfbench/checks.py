"""Correctness checks on a run's artifact directory.

The checks read artifacts with their own code and compare them with the
workload's reference data; they import nothing from the program. Each
problem is charged to the stage that produced the artifact, which is what
``failed`` and ``failed_ratio`` count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import MONTH_SECONDS

FACETS = ("ME", "TF", "DG", "CR", "TDT")
PLANTED = ("TF", "DG", "CR", "TDT")
MIN_MONTH_SPEND_CENTS = 100   # README: months under $1 of spend are dropped

# Floors on the outputs. The planted structure is recovered well above them
# at the benchmark's sizes (and at the smoke test's); a breach means wrong
# output, not a slow run.
LABEL_AGREEMENT_FLOOR = 0.85
AUC_FLOOR = 0.7

ARTIFACTS = {
    "synth": ["log.csv", "ground_truth.csv"],
    "ingest": ["filtered.csv", "ingest_diagnostics.json"],
    "featurize": [f"features_{ch}.csv{ext}" for ch in FACETS
                  for ext in ("", ".json")],
    "cluster": [f"{kind}_{ch}.{ext}" for ch in FACETS
                for kind, ext in (("model", "json"), ("assignments", "csv"))],
    "analyze": [f"{kind}_{ch}.csv" for ch in FACETS
                for kind in ("migration", "centers")]
               + ["analyze_report.json"],
    "ctr": ["ctr_eval.csv"],
    "cf": ["cf_model.json"],
}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: Path, pattern: str = "*") -> str:
    """One digest over the names and bytes of the files under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(bytes.fromhex(sha256(path)))
    return h.hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def stage_problems(out: Path, stage: str) -> list[str]:
    """Missing artifacts and manifest digests that do not match the files."""
    problems = [f"{stage}: missing {name}" for name in ARTIFACTS[stage]
                if not (out / name).is_file()]
    manifest = out / f"manifest_{stage}.json"
    if not manifest.is_file():
        return problems + [f"{stage}: missing {manifest.name}"]
    recorded = json.loads(manifest.read_text(encoding="utf-8"))
    for section in ("inputs", "outputs"):
        for name, digest in recorded.get(section, {}).items():
            if not (out / name).is_file() or sha256(out / name) != digest:
                problems.append(f"{stage}: manifest digest of {name} "
                                "does not match the file")
    return problems


def expected_filtered_rows(clean_log: Path) -> int:
    """Rows the activity filter keeps, computed from the rule in the README:
    drop one-time users and sub-$1 tenure months until nothing changes."""
    rows = [(r[0], int(r[1]), round(float(r[5]) * 100))
            for r in _read_csv(clean_log)[1:]]
    while True:
        before = len(rows)
        counts = Counter(user for user, _, _ in rows)
        rows = [r for r in rows if counts[r[0]] > 1]
        birth: dict[str, int] = {}
        for user, ts, _ in rows:
            birth[user] = min(ts, birth.get(user, ts))
        spend: Counter = Counter()
        for user, ts, cents in rows:
            spend[user, (ts - birth[user]) // MONTH_SECONDS] += cents
        rows = [r for r in rows
                if spend[r[0], (r[1] - birth[r[0]]) // MONTH_SECONDS]
                >= MIN_MONTH_SPEND_CENTS]
        if len(rows) == before:
            return before


def dirty_ingest_problems(out: Path, reference: Path,
                          expected_rows: int) -> list[str]:
    injected = json.loads((reference / "injected.json").read_text())
    problems = []
    diagnostics = json.loads((out / "ingest_diagnostics.json").read_text())
    want = injected["malformed"] + injected["duplicates"]
    if len(diagnostics) != want:
        problems.append(f"ingest: {len(diagnostics)} diagnostics, injected "
                        f"{want} bad and duplicate rows")
    kept = len(_read_csv(out / "filtered.csv")) - 1
    if kept != expected_rows:
        problems.append(f"ingest: filtered log has {kept} rows, expected "
                        f"{expected_rows}")
    return problems


def label_agreement(out: Path, ground_truth: Path) -> float:
    """Mean over the planted facets of the share of user-months whose hard
    label matches the planted one after Hungarian matching of clusters."""
    truth: dict[str, dict[tuple[str, str], int]] = {ch: {} for ch in PLANTED}
    for user, month, ch, label in _read_csv(ground_truth)[1:]:
        if ch in truth:
            truth[ch][user, month] = int(label)
    scores = []
    for ch in PLANTED:
        rows = _read_csv(out / f"assignments_{ch}.csv")[1:]
        fit = np.array([int(r[-1]) for r in rows])
        true = np.array([truth[ch][r[0], r[1]] for r in rows])
        confusion = np.zeros((fit.max() + 1, true.max() + 1))
        np.add.at(confusion, (fit, true), 1)
        r, c = linear_sum_assignment(-confusion)
        scores.append(confusion[r, c].sum() / len(rows))
    return float(np.mean(scores))


def stability_eps(out: Path) -> float:
    report = json.loads((out / "analyze_report.json").read_text())
    return float(report["stability"]["epsilon_observed"])


def ctr_auc(out: Path) -> dict[str, float]:
    """Mean AUC per recipe, keyed by the recipe's (uniform) mode."""
    rows = _read_csv(out / "ctr_eval.csv")
    head = rows[0]
    return {r[0]: float(r[head.index("F")]) for r in rows[1:]}


def cf_rmse(out: Path) -> float:
    return float(json.loads((out / "cf_model.json").read_text())["final_rmse"])


def quality(out: Path) -> dict[str, float]:
    """Quality metrics of one full pipeline run's artifacts."""
    auc = ctr_auc(out)
    return {"label_agreement": label_agreement(out, out / "ground_truth.csv"),
            "stability_eps": stability_eps(out),
            "ctr_auc.c": auc.get("c", math.nan),
            "ctr_auc.s": auc.get("s", math.nan),
            "cf_rmse": cf_rmse(out)}


def quality_problems(q: dict[str, float]) -> dict[str, list[str]]:
    """Floor breaches of ``quality(out)``, keyed by the stage at fault."""
    by_stage: dict[str, list[str]] = {}
    if not q["label_agreement"] >= LABEL_AGREEMENT_FLOOR:
        by_stage.setdefault("cluster", []).append(
            f"cluster: label_agreement {q['label_agreement']:.4f} below "
            f"{LABEL_AGREEMENT_FLOOR}")
    if not math.isfinite(q["stability_eps"]):
        by_stage.setdefault("analyze", []).append(
            "analyze: stability epsilon is not finite")
    for key in ("ctr_auc.c", "ctr_auc.s"):
        if not AUC_FLOOR < q[key] <= 1.0:
            by_stage.setdefault("ctr", []).append(
                f"ctr: {key} {q[key]} not in ({AUC_FLOOR}, 1]")
    if not (math.isfinite(q["cf_rmse"]) and q["cf_rmse"] > 0):
        by_stage.setdefault("cf", []).append(
            f"cf: final_rmse {q['cf_rmse']} is not a positive number")
    return by_stage


def input_properties(out: Path) -> dict:
    """Workload fingerprint read from one input set's artifacts."""
    rows = _read_csv(out / "log.csv")[1:]
    props = {"rows": len(rows), "users": len({r[0] for r in rows})}
    unique = {}
    for ch in PLANTED:
        values = [tuple(r[2:]) for r in _read_csv(out / f"features_{ch}.csv")[1:]]
        unique[ch] = len(set(values)) / len(values) if values else 0.0
        props["user_months"] = len(values)
    props["unique_row_ratio"] = unique
    return props
