"""Byte-exact format of every artifact writer on tiny hand-built inputs.

Round-trip tests compare the code with itself; these compare it with literal
text, so a drift in line endings, float or count formatting, quoting or JSON
layout fails here.
"""

import numpy as np

from conftest import make_record, make_record_set, rows, user_months
from persona_forge import artifacts, cli
from persona_forge.features import (TF_LABELS, CharacterizationMatrix,
                                    read_matrix, write_matrix)
from persona_forge.ingest import parse_log, write_log
from persona_forge.synth import GroundTruth, write_ground_truth


def test_log_format(tmp_path):
    rs = make_record_set(
        make_record("u1", 10, -300, "c1", "R", 199, "Drama", 2010),
        make_record("u2", 20, 60, "c,2", "P", 1500, "Super Hero", 1999))
    path = tmp_path / "log.csv"
    write_log(rs, path)
    assert path.read_bytes() == (
        b"user_id,timestamp,region_offset_minutes,content_id,txn_type,"
        b"net_price,genre,release_year\n"
        b"u1,10,-300,c1,R,1.99,Drama,2010\n"
        b'u2,20,60,"c,2",P,15.00,Super Hero,1999\n')
    assert rows(parse_log(path).record_set) == rows(rs)


def test_count_matrix_format(tmp_path):
    cm = CharacterizationMatrix(
        "TF", TF_LABELS, ("u1",), np.array([0, 0]), np.array([0, 1]),
        np.array([[1.0, 0, 2, 0, 0, 0], [0, 3, 0, 0, 0, 12]]), "Count")
    path = tmp_path / "features_TF.csv"
    write_matrix(cm, path)
    assert path.read_bytes() == (b"user_id,month_index,v0,v1,v2,v3,v4,v5\n"
                                 b"u1,0,1,0,2,0,0,0\n"
                                 b"u1,1,0,3,0,0,0,12\n")
    assert (tmp_path / "features_TF.csv.json").read_bytes() == (
        b'{\n  "characterization": "TF",\n  "labels": [\n'
        b'    "R 0-3",\n    "R >3",\n    "P 0-8",\n    "P 8-16",\n'
        b'    "P 16-20",\n    "P >20"\n  ],\n  "value_kind": "Count"\n}\n')


def test_amount_matrix_format(tmp_path):
    cm = CharacterizationMatrix(
        "ME", ("R 1-3", "P >20"), ("u1", "u2"), np.array([0, 1]),
        np.array([0, 2]),
        np.array([[1.99, 0.1], [20.0, 1 / 3]]), "Amount")
    path = tmp_path / "features_ME.csv"
    write_matrix(cm, path)
    assert path.read_bytes() == (b"user_id,month_index,v0,v1\n"
                                 b"u1,0,1.99,0.1\n"
                                 b"u2,2,20.0,0.3333333333333333\n")
    assert (tmp_path / "features_ME.csv.json").read_bytes() == (
        b'{\n  "characterization": "ME",\n  "labels": [\n'
        b'    "R 1-3",\n    "P >20"\n  ],\n  "value_kind": "Amount"\n}\n')
    back = read_matrix(path)
    assert user_months(back) == user_months(cm)
    np.testing.assert_array_equal(back.values, cm.values)


def test_assignments_format(tmp_path):
    path = tmp_path / "assignments_TF.csv"
    cm = CharacterizationMatrix("TF", ("x",), ("u1", "u2"), np.array([0, 1]),
                                np.array([0, 1]), np.zeros((2, 1)), "Count")
    tau = np.array([[0.25, 0.75], [1.0, 0.0]])
    cli._write_assignments(path, cm, tau, np.array([1, 0]))
    assert path.read_bytes() == (b"user_id,month_index,tau_0,tau_1,hard\n"
                                 b"u1,0,0.25,0.75,1\n"
                                 b"u2,1,1.0,0.0,0\n")
    users, user, month, back_tau, back_hard = cli.read_assignments(path)
    assert (users, user.tolist(), month.tolist()) == (cm.users, [0, 1],
                                                      [0, 1])
    np.testing.assert_array_equal(back_tau, tau)
    assert back_hard.tolist() == [1, 0]


def test_ground_truth_format(tmp_path):
    gt = GroundTruth(("u1", "u2"), {"TF": np.array([[3, 0], [1, 2]]),
                                    "DG": np.array([[2, 1], [0, 0]])})
    path = tmp_path / "ground_truth.csv"
    write_ground_truth(gt, path)
    assert path.read_bytes() == (
        b"user_id,month_index,characterization,label\n"
        b"u1,0,DG,2\n"
        b"u1,1,DG,1\n"
        b"u2,0,DG,0\n"
        b"u2,1,DG,0\n"
        b"u1,0,TF,3\n"
        b"u1,1,TF,0\n"
        b"u2,0,TF,1\n"
        b"u2,1,TF,2\n")


def test_json_format(tmp_path):
    path = tmp_path / "report.json"
    artifacts.write_json(path, {"b": [1, 2.5], "a": {"z": None, "y": "x"}})
    assert path.read_bytes() == (b'{\n  "a": {\n    "y": "x",\n'
                                 b'    "z": null\n  },\n  "b": [\n'
                                 b'    1,\n    2.5\n  ]\n}\n')
    assert artifacts.to_json([]) == "[]\n"


def test_csv_writes_columns_and_reads_after_header(tmp_path):
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ("a", "b"),
                        [np.arange(2), (["x,1", "x,0"], np.array([1, 0]))])
    assert path.read_bytes() == b'a,b\n0,"x,0"\n1,"x,1"\n'
    header, (good, cells) = artifacts.read_csv(path)
    assert header == ["a", "b"] and good.tolist() == [True, True]
    assert cells == ["0", "x,0", "1", "x,1"]


def test_sha256_of_a_multi_chunk_file_without_file_digest(tmp_path,
                                                          monkeypatch):
    # hashlib.file_digest exists only from Python 3.11; the package supports
    # 3.10
    import hashlib
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    data = bytes(range(256)) * 1000  # more than one 64 KiB chunk
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert artifacts.sha256(path) == hashlib.sha256(data).hexdigest()


def test_freeze_passes_over_id_tuples_and_freezes_every_array():
    rs = make_record_set(make_record("u1", 10, 0, "c1", "R", 199, "Drama",
                                     2010))
    ids, codes, loose = ("u1", "u2"), np.arange(3), np.zeros(2)
    nested = (ids, codes, ("label", loose), (), rs)
    assert artifacts.freeze(nested) is nested
    assert artifacts.freeze(ids) is ids
    assert not codes.flags.writeable and not loose.flags.writeable
    assert not any(getattr(rs, name).flags.writeable
                   for name in ("user", "content", "timestamp", "cents"))
