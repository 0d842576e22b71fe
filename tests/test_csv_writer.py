"""`artifacts.write_csv`, the one CSV writer, against the csv module on random
tables, and every CSV artifact against the row-wise writer it replaced: the
csv module fed one list per row."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from persona_forge import analysis, artifacts, cli, ctr, features, ingest
from persona_forge.ingest import GENRES, format_price
from persona_forge.synth import default_config, generate, write_ground_truth

TEXTS = ("", " ", "plain", "a,b", 'say "hi"', '"', ",", "cr\r", "two\nlines",
         "\r\n", " padded ", "ünï ☃ 名前")
INTS = (0, -1, 7, -(2**63), 2**63 - 1, 2**53 + 1, -(2**53) - 1)
FLOATS = (0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 0.1 + 0.2, 5e-324,
          1e300, -2.5, 1 / 3)


def _reference_write_csv(path, header, rows):
    """The row-wise writer: the csv module writes each row."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _random_column(rng, n):
    """(a write_csv column, its n cell values as the row writer gets them)."""
    kind = rng.integers(6)
    if kind == 0:
        values = np.where(rng.random(n) < 0.5,
                          np.array(INTS)[rng.integers(len(INTS), size=n)],
                          rng.integers(-10**6, 10**6, size=n))
    elif kind == 1:
        values = np.where(rng.random(n) < 0.5,
                          np.array(FLOATS)[rng.integers(len(FLOATS), size=n)],
                          rng.standard_normal(n) * 1e3)
    elif kind == 2:
        values = rng.random(n) < 0.5
    elif kind == 3:  # few distinct ints, at the ends of int64 too
        base = int(rng.choice([0, -(2**63), 2**63 - 2, 2**53]))
        values = np.array([base + int(b) for b in rng.integers(2, size=n)],
                          dtype=np.int64)
    elif kind == 4:
        values = (np.uint64(2**64 - 2)
                  + rng.integers(2, size=n).astype(np.uint64))
    else:
        texts = [TEXTS[i] for i in rng.permutation(len(TEXTS))[
            :rng.integers(1, len(TEXTS) + 1)]]
        codes = rng.integers(len(texts), size=n)
        return (texts, codes), [texts[c] for c in codes.tolist()]
    return values, values.tolist()


@pytest.mark.parametrize("seed", range(40))
def test_write_csv_matches_the_csv_module(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(artifacts, "CHUNK_ROWS", 3)  # rows cross chunk edges
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(0, 11)), int(rng.integers(1, 5))
    columns, cells = zip(*(_random_column(rng, n) for _ in range(width)))
    header = [f"c{j}" for j in range(width)]
    artifacts.write_csv(tmp_path / "cols.csv", header, columns)
    _reference_write_csv(tmp_path / "rows.csv", header, zip(*cells))
    assert (tmp_path / "cols.csv").read_bytes() == (
        tmp_path / "rows.csv").read_bytes()


def test_write_csv_quotes_a_lone_empty_cell(tmp_path):
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ["x"], [(["", "a,b"], np.array([0, 1, 0]))])
    assert path.read_bytes() == b'x\n""\n"a,b"\n""\n'
    artifacts.write_csv(path, ["x", "y"],
                        [(["", "a"], np.array([0, 1])), np.array([0.5, -0.0])])
    assert path.read_bytes() == b"x,y\n,0.5\na,-0.0\n"
    artifacts.write_csv(path, ["x"], [np.zeros(0, np.int64)])
    assert path.read_bytes() == b"x\n"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="2 columns under 1 names"):
        artifacts.write_csv(tmp_path / "t.csv", ["a"],
                            [np.arange(2), np.arange(2)])
    with pytest.raises(ValueError, match="different lengths"):
        artifacts.write_csv(tmp_path / "t.csv", ["a", "b"],
                            [np.arange(2), np.arange(3)])


# --- every artifact against the row-wise writer it replaced -----------------

def _reference_write_log(rs, path):
    _reference_write_csv(path, ingest.CSV_COLUMNS, (
        [rs.users[u], ts, offset, rs.contents[c], "R" if rental else "P",
         format_price(cents), GENRES[g], year]
        for u, ts, offset, c, rental, cents, g, year in zip(
            rs.user.tolist(), rs.timestamp.tolist(), rs.offset.tolist(),
            rs.content.tolist(), rs.rental.tolist(), rs.cents.tolist(),
            rs.genre.tolist(), rs.year.tolist())))


def _reference_write_rows(path, cm, names, cells):
    _reference_write_csv(
        path, ["user_id", "month_index", *names],
        ([cm.users[u], m, *row] for u, m, row in
         zip(cm.user.tolist(), cm.month.tolist(), cells)))


def _reference_write_matrix(cm, path):
    values = cm.values.astype(np.int64 if cm.value_kind == "Count" else float)
    _reference_write_rows(path, cm, [f"v{i}" for i in range(cm.d)],
                          (row.tolist() for row in values))


def _reference_write_assignments(path, cm, tau, hard):
    _reference_write_rows(
        path, cm, [f"tau_{j}" for j in range(tau.shape[1])] + ["hard"],
        (row.tolist() + [label] for row, label in zip(tau, hard)))


def _reference_write_ground_truth(gt, path):
    _reference_write_csv(
        path, ["user_id", "month_index", "characterization", "label"],
        ([user, month, ch, label]
         for ch in sorted(gt.labels)
         for user, row in zip(gt.users, gt.labels[ch].tolist())
         for month, label in enumerate(row)))


def _reference_write_ctr_eval(runs, path):
    _reference_write_csv(
        path, ["recency", "genre", "economic", "F", "n", "p", "O_proxy"],
        ([recipe.mode("CR"), recipe.mode("DG"), recipe.mode("ME"),
          round(e.mean_auc, 6), round(e.mean_n, 2), e.p,
          round(e.complexity_proxy, 2)] for recipe, e in runs))


def _same_bytes(written, write_reference, *args):
    reference = written.with_name("reference_" + written.name)
    write_reference(*args, reference)
    assert written.read_bytes() == reference.read_bytes(), written.name


@pytest.mark.parametrize("n_users,months,seed", [(1, 1, 0), (40, 3, 1),
                                                 (300, 2, 2)])
def test_generated_artifacts_match_the_row_writers(tmp_path, n_users, months,
                                                   seed):
    rs, gt = generate(default_config(n_users, months, seed=seed,
                                     items_per_cell=12))
    for name, table in (("log.csv", rs),
                        ("filtered.csv", ingest.filter_inactive(rs))):
        ingest.write_log(table, tmp_path / name)
        _same_bytes(tmp_path / name, _reference_write_log, table)
    write_ground_truth(gt, tmp_path / "ground_truth.csv")
    _same_bytes(tmp_path / "ground_truth.csv", _reference_write_ground_truth,
                gt)
    months_of = ingest.tenure_align(rs)
    rng = np.random.default_rng(seed)
    for ch in features.CHARACTERIZATIONS:  # ME is the Amount matrix
        cm = features.aggregate(rs, months_of, ch)
        features.write_matrix(cm, tmp_path / f"features_{ch}.csv")
        _same_bytes(tmp_path / f"features_{ch}.csv", _reference_write_matrix,
                    cm)
        tau = rng.dirichlet(np.ones(3), len(cm.user))
        path = tmp_path / f"assignments_{ch}.csv"
        cli._write_assignments(path, cm, tau, tau.argmax(axis=1))
        _same_bytes(path, lambda p: _reference_write_assignments(
            p, cm, tau, tau.argmax(axis=1)))


@pytest.fixture(scope="module")
def quoted_run(tmp_path_factory):
    """A run from an `ingest.input` log whose user and content ids hold `,`,
    `"` and a newline, with K = 1 on TF; every migration matrix, centre
    table and CTR evaluation the stages made, by file name."""
    tmp = tmp_path_factory.mktemp("quoted")
    rs, _ = generate(default_config(150, 3, seed=4))
    # a shared prefix and suffix keep the ids in their sorted order
    rs = dataclasses.replace(
        rs, users=tuple(f'a,"{u}"\nz' for u in rs.users),
        contents=tuple(f'"{c},\n.' for c in rs.contents))
    _reference_write_log(rs, tmp / "quoted.csv")
    config = tmp / "config.json"
    config.write_text(json.dumps({
        "seed": 5, "stages": ["ingest", "featurize", "cluster", "analyze",
                              "ctr"],
        "ingest": {"input": str(tmp / "quoted.csv")},
        "cluster": {"restarts": 2, "k": {"TF": 1}},
        "analyze": {"stability": {"characterization": "DG", "runs": 2}},
        "ctr": {"top_n": 4, "recipes": [{"CR": "c", "DG": "s", "ME": "c"},
                                        {"CR": "s", "DG": "c", "ME": "s"}]},
    }))
    made, runs = {}, []
    labels_of = {v: ch for ch, v in features.CHARACTERIZATION_LABELS.items()}

    def migration(user, month, hard, k, ch):
        made[f"migration_{ch}.csv"] = mig = real_migration(user, month, hard,
                                                           k, ch)
        return mig

    def centers(centers, labels, as_percent=True):
        table = real_centers(centers, labels, as_percent)
        made[f"centers_{labels_of[tuple(labels)]}.csv"] = table
        return table

    def experiment(items, persona, recipe, cfg):
        runs.append((recipe, real_experiment(items, persona, recipe, cfg)))
        return runs[-1][1]

    real_migration, real_centers = (analysis.migration_matrix,
                                    analysis.center_report)
    real_experiment = ctr.run_ctr_experiment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "migration_matrix", migration)
        mp.setattr(analysis, "center_report", centers)
        mp.setattr(ctr, "run_ctr_experiment", experiment)
        assert cli.run(config, tmp / "out") == 0
    return tmp / "out", made, runs


def test_quoted_ids_survive_the_pipeline(quoted_run):
    out, _, _ = quoted_run
    rs = ingest.parse_log(out / "filtered.csv").record_set
    assert all(u.startswith('a,"') and u.endswith('"\nz') for u in rs.users)
    assert all(c.startswith('"') and c.endswith(",\n.")
               for c in rs.contents)


def test_pipeline_artifacts_match_the_row_writers(quoted_run):
    out, made, runs = quoted_run
    _same_bytes(out / "filtered.csv", _reference_write_log,
                ingest.parse_log(out / "filtered.csv").record_set)
    for ch in features.CHARACTERIZATIONS:
        path = out / f"features_{ch}.csv"
        _same_bytes(path, _reference_write_matrix, features.read_matrix(path))
        path = out / f"assignments_{ch}.csv"
        users, user, month, tau, hard = cli.read_assignments(path)
        cm = features.CharacterizationMatrix(
            ch, ("x",), users, user, month, np.zeros((len(user), 1)), "Count")
        _same_bytes(path, lambda p: _reference_write_assignments(p, cm, tau,
                                                                  hard))
    assert made["migration_TF.csv"].matrix.shape == (1, 1)
    for name, made_by in made.items():
        if name.startswith("migration_"):
            k = made_by.matrix.shape[1]
            _same_bytes(out / name, lambda p: _reference_write_csv(
                p, [f"to_{j}" for j in range(k)],
                (row.tolist() for row in made_by.matrix)))
        else:
            _same_bytes(out / name, lambda p: _reference_write_csv(
                p, made_by[0], made_by[1:]))
    assert len(made) == 2 * len(features.CHARACTERIZATIONS)
    assert len(runs) == 2
    _same_bytes(out / "ctr_eval.csv", _reference_write_ctr_eval, runs)
