"""Workload definitions: configs, input preparation and seeded corruption.

Every workload is a closed loop with one caller: its timed stages run in
order through ``persona_forge.cli.run``, one config per input set. The
program sees only the generated config and its input files; everything the
correctness checks need (the clean log, injection counts) stays in
``reference/``.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

MONTHS = 3
MONTH_SECONDS = 30 * 86400  # tenure month length fixed by the README
STAGES = ("synth", "ingest", "featurize", "cluster", "analyze", "ctr", "cf")
CTR_RECIPES = [{"CR": "c", "DG": "c", "ME": "c"},
               {"CR": "s", "DG": "s", "ME": "s"}]

# Shares of the clean log that ingest_dirty_l corrupts.
MALFORMED_SHARE = 0.05      # of rows: bad field count, genre, offset or price
DUPLICATE_SHARE = 0.01      # of rows: a second row with an existing key
SUB_DOLLAR_USER_SHARE = 0.05  # of users: an extra sub-$1 month before birth


@dataclass(frozen=True)
class Workload:
    """``sets`` independent inputs of ``n_users`` each, derived from the seed,
    go through the timed stages one after another in every repetition. How
    long EM and the CTR solver run depends on the input, so several inputs per
    repetition keep that input-to-input spread out of the run-to-run spread."""
    name: str
    n_users: int
    sets: int
    timed_stages: tuple[str, ...]
    why: str

    def users(self, scale: float) -> int:
        return max(30, int(round(self.n_users * scale)))


WORKLOADS = {w.name: w for w in (
    Workload("pipeline_s", 400, 2, STAGES,
             "the full run users do, all seven stages; the only workload "
             "where mixture, analysis, ctr and cf work"),
    Workload("ingest_dirty_l", 1500, 1, ("ingest", "featurize"),
             "parse, diagnostics, duplicate and filter fixed-point paths on "
             "a corrupted log; mixture, ctr and cf do no work"),
)}


def set_seed(seed: int, index: int) -> int:
    """Seed of input set ``index`` of a run with ``seed``."""
    return seed * 100 + index


def timed_config(workload: Workload, seed: int, n_users: int) -> dict:
    """The config the timed stages of one input set run with."""
    config: dict = {"seed": seed, "stages": list(workload.timed_stages)}
    if workload.name == "pipeline_s":
        config.update({
            "synth": {"n_users": n_users, "months_per_user": MONTHS},
            "cluster": {"restarts": 5},
            "analyze": {"stability": {"characterization": "TF", "runs": 4}},
            "ctr": {"top_n": 20, "recipes": CTR_RECIPES},
            "cf": {"variant": "a", "epochs": 10, "f": 8},
        })
    return config


def prepare(workload: Workload, seed: int, scale: float, dest: Path) -> None:
    """Write every input set of a run under ``dest/set<j>/``: its
    ``config.json``, the files the program gets (``inputs/``) and the data
    the checks need (``reference/``)."""
    for j in range(workload.sets):
        set_dir = dest / f"set{j}"
        (set_dir / "inputs").mkdir(parents=True)
        (set_dir / "reference").mkdir()
        n_users = workload.users(scale)
        (set_dir / "config.json").write_text(json.dumps(
            timed_config(workload, set_seed(seed, j), n_users), indent=2),
            encoding="utf-8")
        if workload.name == "ingest_dirty_l":
            _prepare_dirty_log(set_seed(seed, j), n_users, set_dir)


def _prepare_dirty_log(seed: int, n_users: int, set_dir: Path) -> None:
    from persona_forge import cli

    scratch = set_dir / "synth"
    scratch.mkdir()
    config = scratch / "config.json"
    config.write_text(json.dumps({"seed": seed, "synth": {
        "n_users": n_users, "months_per_user": MONTHS}}), encoding="utf-8")
    code = cli.run(config, scratch, None, "synth")
    if code != 0:
        raise RuntimeError(f"set-up synth stage exited with {code}")
    clean = set_dir / "reference" / "clean_log.csv"
    shutil.move(scratch / "log.csv", clean)
    counts = corrupt_log(clean, set_dir / "inputs" / "log.csv", seed)
    (set_dir / "reference" / "injected.json").write_text(json.dumps(counts),
                                                         encoding="utf-8")
    shutil.rmtree(scratch)


def _malformed(row: list[str], kind: int) -> list[str]:
    bad = list(row)
    if kind == 0:
        bad.pop()                     # wrong field count
    elif kind == 1:
        bad[6] = "Western"            # genre outside the closed list
    elif kind == 2:
        bad[2] = "2000"               # offset beyond +-14 h
    else:
        bad[5] = "-" + bad[5]         # negative price
    return bad


def corrupt_log(clean: Path, dirty: Path, seed: int) -> dict:
    """Copy ``clean`` to ``dirty`` with seeded, countable damage.

    Malformed rows and duplicate keys are extra rows placed after a real one,
    so each yields exactly one ingest diagnostic and the first occurrence of
    every key stays the clean row. Each sub-$1 row sits a whole number of
    30-day months before its user's first transaction: it opens a tenure
    month of its own that ``filter_inactive`` must drop, after which the
    user's months line up as in the clean log. The filtered log is therefore
    the clean log's filtered log.
    """
    rng = random.Random(seed)
    with open(clean, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n = len(body)
    bad_at = set(rng.sample(range(n), round(MALFORMED_SHARE * n)))
    dup_at = set(rng.sample(range(n), round(DUPLICATE_SHARE * n)))
    first_row = {}
    for j, row in enumerate(body):
        first_row.setdefault(row[0], j)
    users = sorted(first_row)
    sub_users = set(rng.sample(users, round(SUB_DOLLAR_USER_SHARE
                                            * len(users))))
    n_bad = 0
    with open(dirty, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for j, row in enumerate(body):
            if row[0] in sub_users and first_row[row[0]] == j:
                early = list(row)
                early[1] = str(int(row[1])
                               - rng.randint(1, 3) * MONTH_SECONDS)
                early[4] = "R"
                early[5] = f"0.{rng.randint(1, 99):02d}"
                writer.writerow(early)
            writer.writerow(row)
            if j in dup_at:
                writer.writerow(row)
            if j in bad_at:
                writer.writerow(_malformed(row, n_bad % 4))
                n_bad += 1
    return {"clean_rows": n, "malformed": len(bad_at),
            "duplicates": len(dup_at), "sub_dollar_rows": len(sub_users)}
