"""The hand-off table: a stage's written object reaches later readers in the
same process only while the file holds the bytes it was written with."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from persona_forge import artifacts, cli, features, ingest, synth

README_CONFIG = {
    "seed": 7,
    "stages": ["synth", "ingest", "featurize", "cluster", "analyze", "ctr",
               "cf"],
    "synth": {"n_users": 1000, "months_per_user": 3},
    "cluster": {"restarts": 5},
    "analyze": {"stability": {"characterization": "TF", "runs": 10}},
    "ctr": {"top_n": 20, "recipes": [{"CR": "c", "DG": "c", "ME": "c"},
                                     {"CR": "s", "DG": "s", "ME": "s"}]},
    "cf": {"variant": "a", "epochs": 10, "f": 8},
}
SMALL = {"synth": {"n_users": 150, "months_per_user": 3},
         "cluster": {"restarts": 2},
         "analyze": {"stability": {"runs": 2}},
         "ctr": {"top_n": 4}, "cf": {"variant": "a", "epochs": 2, "f": 4}}
TF_NICHE = {"pi": synth.DEFAULT_TF_PI.tolist(),
            "theta": synth.DEFAULT_TF_THETA.tolist(), "niche": [2]}
CONFIGS = {
    "readme": README_CONFIG,
    "price-me": {**SMALL, "synth": {**SMALL["synth"], "price_mode": "me",
                                    "items_per_cell": 12},
                 "cf": {"variant": "d", "value": "spend", "epochs": 2}},
    "migration": {**SMALL, "synth": {**SMALL["synth"], "migration_rate": 0.3,
                                     "mixtures": {"TF": TF_NICHE}}},
    "no-filter": {**SMALL, "ingest": {"filter": False},
                  "cf": {"variant": "c", "epochs": 2}},
    "dirty-input": {**SMALL, "ingest": {"input": "dirty.csv"}},
}
# each handed file and the reader of its object
HANDED = {
    "log.csv": ingest.parse_log,
    "filtered.csv": ingest.parse_log,
    **{f"features_{ch}.csv": features.read_matrix
       for ch in features.CHARACTERIZATIONS},
    **{f"assignments_{ch}.csv": cli.read_assignments
       for ch in features.CHARACTERIZATIONS},
}


def _write_dirty_log(tmp_path):
    """A log with malformed, duplicate and sub-$1 rows, as `dirty.csv`."""
    clean = tmp_path / "clean"
    config = tmp_path / "clean.json"
    config.write_text(json.dumps({"stages": ["synth"],
                                  "synth": SMALL["synth"]}))
    assert cli.run(config, clean) == 0
    header, *lines = (clean / "log.csv").read_text().splitlines()
    user = lines[0].split(",", 1)[0]
    body = [lines[0], lines[0],                        # a duplicate key
            lines[1].rsplit(",", 1)[0],                # a short row
            lines[2].replace(",R,", ",X,").replace(",P,", ",X,"),
            f"{user},1000,0,cx,R,0.50,Drama,2010",     # a sub-$1 month
            *lines[1:]]
    (tmp_path / "dirty.csv").write_text("\n".join([header, *body]) + "\n")


def _assert_same(handed, parsed, where):
    assert type(handed) is type(parsed), where
    if isinstance(parsed, np.ndarray):
        assert (handed.dtype, handed.shape) == (parsed.dtype,
                                                parsed.shape), where
        assert (handed.flags.c_contiguous
                == parsed.flags.c_contiguous), where
        assert handed.tobytes() == parsed.tobytes(), where
        # a parse gives read-only arrays too, so no caller can tell them apart
        assert not (handed.flags.writeable or parsed.flags.writeable), where
    elif dataclasses.is_dataclass(parsed):
        for f in dataclasses.fields(parsed):
            _assert_same(getattr(handed, f.name), getattr(parsed, f.name),
                         f"{where}.{f.name}")
    elif isinstance(parsed, tuple) and any(isinstance(x, np.ndarray)
                                           for x in parsed):
        assert len(handed) == len(parsed), where
        for j, (a, b) in enumerate(zip(handed, parsed)):
            _assert_same(a, b, f"{where}[{j}]")
    else:
        assert handed == parsed, where


@pytest.mark.parametrize("name", list(CONFIGS))
def test_handed_objects_equal_a_fresh_parse(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # a relative ingest.input is read from here
    if name == "dirty-input":
        _write_dirty_log(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    reads = []
    check = artifacts.handed

    def spy(path):
        obj = check(path)
        reads.append((Path(path).name, obj is not None))
        return obj

    monkeypatch.setattr(artifacts, "handed", spy)
    out = tmp_path / "out"
    assert cli.run(config, out) == 0
    # every stage took each file of this run that it read from the table
    dirty = name == "dirty-input"
    assert sorted(set(reads)) == sorted(
        {(file, file in HANDED) for file, _ in reads}), reads
    assert {file for file, _ in reads} - set(HANDED) == (
        {"dirty.csv"} if dirty else set())
    assert ("log.csv", True) in reads or dirty
    assert bool(json.loads((out / "ingest_diagnostics.json")
                           .read_text())) == dirty
    copy = shutil.copytree(out, tmp_path / "copy")
    for file, reader in HANDED.items():
        if not (out / file).exists():
            continue
        hit, parsed = reader(out / file), reader(copy / file)
        assert artifacts.handed(copy / file) is None  # a copy is parsed
        if reader is ingest.parse_log:
            assert hit.diagnostics == parsed.diagnostics == []
            assert hit.record_set is artifacts.handed(out / file)
        _assert_same(hit, parsed, file)


def test_table_keeps_one_directory_and_freezes_arrays(tmp_path):
    rs = ingest.parse_log(_small_log(tmp_path)).record_set
    first, second = tmp_path / "a", tmp_path / "b"
    for out in (first, second):
        out.mkdir()
        ingest.write_log(rs, out / "log.csv")
    artifacts.hand_off(rs, first / "log.csv")
    assert ingest.parse_log(first / "log.csv").record_set is rs
    with pytest.raises(ValueError):
        rs.cents[0] = 0
    artifacts.hand_off(rs, second / "log.csv")
    # the first directory's file is unchanged, but its entry is gone
    assert artifacts.handed(first / "log.csv") is None
    assert artifacts.handed(second / "log.csv") is rs


def _small_log(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(",".join(ingest.CSV_COLUMNS) + "\n"
                    "u1,10,0,c1,R,1.99,Drama,2010\n"
                    "u1,20,0,c2,P,15.00,Kids,1999\n"
                    "u2,30,60,c1,R,0.99,Drama,2010\n")
    return path


def test_handed_matrix_cannot_change(tmp_path):
    rs = ingest.parse_log(_small_log(tmp_path)).record_set
    cm = features.aggregate(rs, features.tenure_align(rs), "TF")
    path = tmp_path / "features_TF.csv"
    features.write_matrix(cm, path)
    artifacts.hand_off(cm, path, str(path) + ".json")
    assert features.read_matrix(path) is cm
    with pytest.raises(ValueError):
        cm.values[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cm.values = np.zeros_like(cm.values)
    # an edited sidecar is parsed
    sidecar = tmp_path / "features_TF.csv.json"
    sidecar.write_text(sidecar.read_text().replace('"Count"', '"Amount"'))
    assert features.read_matrix(path).value_kind == "Amount"


def test_manifest_records_the_bytes_read(tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL, "stages": ["synth", "ingest",
                                                      "featurize"]}))
    assert cli.run(config, out) == 0
    read_digest = artifacts.sha256(out / "filtered.csv")
    hashed = []
    sha256, aggregate = artifacts.sha256, features.aggregate

    def count(path):
        hashed.append(Path(path).name)
        return sha256(path)

    def edit_after_read(rs, months, ch):  # featurize has read its input
        with open(out / "filtered.csv", "a") as fh:
            fh.write("u9,1,0,c1,R,1.00,Drama,2010\n")
        return aggregate(rs, months, ch)

    monkeypatch.setattr(artifacts, "sha256", count)
    monkeypatch.setattr(features, "aggregate", edit_after_read)
    assert cli.run(config, out, only_stage="featurize") == 0
    manifest = json.loads((out / "manifest_featurize.json").read_text())
    assert manifest["inputs"] == {"filtered.csv": read_digest}
    # each file is hashed once: an input when read, a handed output when
    # handed off, and the manifest takes their digests from the table
    assert hashed.count("filtered.csv") == 1
    assert hashed.count("features_TF.csv") == 1
    assert manifest["outputs"]["features_TF.csv"] == artifacts.sha256(
        out / "features_TF.csv")


# users whose ids the csv module must quote: a comma, a quote, a newline
ODD_IDS = {"plain": [f"u{j:02d}" for j in range(40)],
           "quoted": [f"u{j:02d}" for j in range(37)] + ["w,1", 'w"2', "w\n3"]}


@pytest.mark.parametrize("ids,crlf", [("plain", False), ("quoted", False),
                                      ("plain", True)])
def test_parsed_user_month_files_equal_the_handed_objects(tmp_path,
                                                          monkeypatch, ids,
                                                          crlf):
    # chunks of a few lines, so the rows of each file span many chunks on
    # either read path
    monkeypatch.setattr(artifacts, "CHUNK_CHARS", 64)
    monkeypatch.setattr(artifacts, "READER_ROWS", 3)
    rng = np.random.default_rng(5)
    users = tuple(sorted(ODD_IDS[ids]))
    months = [np.sort(rng.choice(4, rng.integers(1, 4), replace=False))
              for _ in users]
    user = np.repeat(np.arange(len(users)), [len(m) for m in months])
    cm = features.CharacterizationMatrix(
        "ME", features.ME_LABELS, users, user, np.concatenate(months),
        rng.integers(0, 5000, (len(user), 13)) / 100.0, "Amount")
    tau = rng.dirichlet(np.ones(4), len(user))
    out, copy = tmp_path / "out", tmp_path / "copy"
    out.mkdir()
    matrix, assignments = out / "features_ME.csv", out / "assignments_ME.csv"
    features.write_matrix(cm, matrix)
    artifacts.hand_off(cm, matrix, str(matrix) + ".json")
    cli._write_assignments(assignments, cm, tau, tau.argmax(axis=1))
    artifacts.hand_off((users, user, cm.month, tau, tau.argmax(axis=1)),
                       assignments)
    shutil.copytree(out, copy)
    if crlf:
        for path in (copy / matrix.name, copy / assignments.name):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for reader, name in ((features.read_matrix, matrix.name),
                         (cli.read_assignments, assignments.name)):
        hit, parsed = reader(out / name), reader(copy / name)
        assert artifacts.handed(out / name) is hit
        assert artifacts.handed(copy / name) is None
        _assert_same(hit, parsed, name)
