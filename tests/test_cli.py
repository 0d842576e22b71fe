import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from persona_forge import (analysis, artifacts, cf, cli, ctr, ingest,
                           mixture, synth)

SMALL_CONFIG = {
    "seed": 7,
    "stages": ["synth", "ingest", "featurize", "cluster", "analyze", "ctr",
               "cf"],
    "synth": {"n_users": 250, "months_per_user": 2, "poisson_mean": 8.0},
    "cluster": {"restarts": 3},
    "analyze": {"stability": {"characterization": "TF", "runs": 3}},
    "ctr": {"top_n": 4, "recipes": [{"CR": "c", "DG": "c", "ME": "c"},
                                    {"CR": "s", "DG": "s", "ME": "s"}]},
    "cf": {"variant": "a", "epochs": 3, "f": 4},
}

SRC = Path(__file__).resolve().parents[1] / "src"


def _write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    out = tmp_path / "out"
    config = _write_config(tmp_path, SMALL_CONFIG)
    code = cli.run(config, out)
    return code, out


def test_pipeline_exit_code(pipeline):
    code, _ = pipeline
    assert code == 0


def test_pipeline_artifacts_exist(pipeline):
    _, out = pipeline
    expected = ["log.csv", "ground_truth.csv", "filtered.csv",
                "ctr_eval.csv", "cf_model.json", "analyze_report.json"]
    expected += [f"features_{ch}.csv" for ch in
                 ("ME", "TF", "DG", "CR", "TDT")]
    expected += [f"model_{ch}.json" for ch in ("ME", "TF", "DG", "CR", "TDT")]
    expected += [f"assignments_{ch}.csv" for ch in
                 ("ME", "TF", "DG", "CR", "TDT")]
    for name in expected:
        assert (out / name).exists(), name


def test_manifests_carry_verifiable_hashes(pipeline):
    _, out = pipeline
    for stage in SMALL_CONFIG["stages"]:
        manifest = json.loads((out / f"manifest_{stage}.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["seed"] == 7
        assert manifest["outputs"], stage
        for name, digest in {**manifest["inputs"],
                             **manifest["outputs"]}.items():
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
    ctr_inputs = json.loads((out / "manifest_ctr.json").read_text())["inputs"]
    for ch in ("CR", "DG", "ME"):
        assert f"features_{ch}.csv.json" in ctr_inputs, ch


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifests_name_what_each_stage_wrote(pipeline, tmp_path):
    # one stage at a time: each writes its manifest's outputs and the
    # manifest, nothing else, and the files equal those of one full run
    _, full = pipeline
    out = tmp_path / "out"
    config = _write_config(tmp_path, SMALL_CONFIG)
    for stage in SMALL_CONFIG["stages"]:
        before = set(out.iterdir()) if out.exists() else set()
        assert cli.run(config, out, only_stage=stage) == 0
        name = f"manifest_{stage}.json"
        manifest = json.loads((out / name).read_text())
        assert {p.name for p in set(out.iterdir()) - before} == {
            name, *manifest["outputs"]}, stage
    assert sorted(p.name for p in out.iterdir()) == sorted(
        p.name for p in full.iterdir())
    for path in out.iterdir():
        assert path.read_bytes() == (full / path.name).read_bytes(), path.name
    # params are the resolved settings, defaults included
    params = {stage: json.loads((out / f"manifest_{stage}.json").read_text())
              ["params"] for stage in ("cluster", "cf", "featurize")}
    assert params["cluster"] == {"k": {"ME": 4, "TF": 4, "DG": 3, "CR": 3,
                                       "TDT": 4}, "restarts": 3}
    assert params["cf"] == {"variant": "a", "value": "count",
                            "characterization": "TF", "f": 4, "lr": 0.02,
                            "reg": 0.02, "epochs": 3}
    assert params["featurize"] == {}


def test_outside_ingest_input_is_recorded(pipeline, tmp_path, monkeypatch):
    _, full = pipeline
    shutil.copyfile(full / "log.csv", tmp_path / "source.csv")
    monkeypatch.chdir(tmp_path)  # a relative input is read from here
    config = _write_config(tmp_path, {"stages": ["ingest"],
                                      "ingest": {"input": "source.csv"}})
    assert cli.run(config, tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest_ingest.json")
                          .read_text())
    source = tmp_path / "source.csv"
    assert manifest["inputs"] == {str(source): _sha256(source)}
    assert manifest["params"] == {"input": "source.csv", "filter": True}
    assert ((tmp_path / "out" / "filtered.csv").read_bytes()
            == (full / "filtered.csv").read_bytes())


def _copy_pipeline(pipeline, tmp_path):
    code, out = pipeline
    assert code == 0
    return shutil.copytree(out, tmp_path / "out")


@pytest.mark.parametrize("stage", ["featurize", "ctr", "cf"])
def test_later_stage_without_filtered_log_is_data_error(pipeline, tmp_path,
                                                        capsys, stage):
    # log.csv is there, but only ingest reads it
    out = _copy_pipeline(pipeline, tmp_path)
    (out / "filtered.csv").unlink()
    config = _write_config(tmp_path, {"ctr": {"top_n": 4}})
    assert cli.run(config, out, only_stage=stage) == 3
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "data", "message": f"stage {stage!r}: requires "
                     "missing artifact 'filtered.csv'"}


@pytest.mark.parametrize("stage,ch", [("cluster", "TF"), ("analyze", "TF"),
                                      ("ctr", "CR"), ("cf", "TF")])
def test_features_of_another_facet_are_data_error(pipeline, tmp_path, capsys,
                                                  stage, ch):
    # a well-formed DG matrix and sidecar in the place of another facet's
    out = _copy_pipeline(pipeline, tmp_path)
    for suffix in ("", ".json"):
        shutil.copyfile(out / f"features_DG.csv{suffix}",
                        out / f"features_{ch}.csv{suffix}")
    config = _write_config(tmp_path, {"ctr": {"top_n": 4},
                                      "cf": {"variant": "c", "epochs": 1}})
    assert cli.run(config, out, only_stage=stage) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "data"
    for part in (f"stage {stage!r}: ", f"features_{ch}.csv", "facet 'DG'",
                 f"not {ch!r}"):
        assert part in error["message"]


@pytest.mark.parametrize("variant", ["vanilla", "a", "b", "c", "d"])
def test_cf_stage_variants(pipeline, tmp_path, variant):
    out = _copy_pipeline(pipeline, tmp_path)
    config = _write_config(tmp_path, {"seed": 7, "cf": {
        "variant": variant, "epochs": 2, "f": 3}})
    assert cli.run(config, out, only_stage="cf") == 0
    model = json.loads((out / "cf_model.json").read_text())
    assert model["variant"] == variant
    assert float(model["final_rmse"]) > 0
    inputs = set(json.loads((out / "manifest_cf.json").read_text())["inputs"])
    expected = {"filtered.csv"}
    if variant in ("a", "b", "d"):
        expected.add("assignments_TF.csv")
    elif variant == "c":
        expected |= {"features_TF.csv", "features_TF.csv.json"}
    assert inputs == expected


@pytest.mark.parametrize("variant", ["a", "b", "c", "d"])
def test_cf_user_missing_from_cluster_input_is_data_error(pipeline, tmp_path,
                                                          capsys, variant):
    code, built = pipeline
    assert code == 0
    # a, b and d read each user's cluster, c the user's pooled features
    name = "features_TF.csv" if variant == "c" else "assignments_TF.csv"
    config = _write_config(tmp_path, {"cf": {"variant": variant,
                                             "epochs": 1}})
    # a user missing from the cluster input, then a user only it holds
    for dropped_from in (name, "filtered.csv"):
        out = shutil.copytree(built, tmp_path / dropped_from)
        path = out / dropped_from
        header, *rows = path.read_text().splitlines()
        dropped = rows[0].split(",")[0]
        kept = [r for r in rows if r.split(",")[0] != dropped]
        assert len(kept) < len(rows)
        path.write_text("\n".join([header] + kept) + "\n")
        assert cli.run(config, out, only_stage="cf") == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "data"
        assert dropped in error["message"]
        assert name in error["message"]


def test_analyze_stale_assignments_are_data_error(tmp_path, capsys):
    # cluster on the unfiltered log, then filter and featurize again: the
    # assignments hold users that the new features lack
    out = tmp_path / "out"
    synth_cfg = {"n_users": 300, "months_per_user": 2, "poisson_mean": 1}
    stale = _write_config(tmp_path, {
        "seed": 3, "stages": ["synth", "ingest", "featurize", "cluster"],
        "synth": synth_cfg, "ingest": {"filter": False},
        "cluster": {"restarts": 1}}, "stale.json")
    assert cli.run(stale, out) == 0
    refresh = _write_config(tmp_path, {
        "seed": 3, "stages": ["ingest", "featurize", "analyze"],
        "synth": synth_cfg, "analyze": {"stability": {"runs": 2}}})
    assert cli.run(refresh, out, only_stage="ingest") == 0
    assert cli.run(refresh, out, only_stage="featurize") == 0
    capsys.readouterr()
    assert cli.run(refresh, out, only_stage="analyze") == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    for part in ("stage 'analyze': ", "assignments_", "features_TF.csv",
                 "hold different users"):
        assert part in error["message"]
    assert [p.name for p in out.iterdir()
            if p.name.startswith(("manifest_analyze", "analyze_report",
                                  "migration_", "centers_"))] == []


def test_ctr_feature_users_mismatch_is_data_error(pipeline, tmp_path, capsys):
    out = _copy_pipeline(pipeline, tmp_path)
    path = out / "features_CR.csv"
    header, *rows = path.read_text().splitlines()
    dropped = rows[0].split(",")[0]
    path.write_text("\n".join([header] + [r for r in rows
                                          if r.split(",")[0] != dropped]) + "\n")
    config = _write_config(tmp_path, {"ctr": {"top_n": 4}})
    assert cli.run(config, out, only_stage="ctr") == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "data"


def test_missing_matrix_sidecar_is_data_error(pipeline, tmp_path, capsys):
    out = _copy_pipeline(pipeline, tmp_path)
    (out / "features_TF.csv.json").unlink()
    config = _write_config(tmp_path, {"cluster": {"restarts": 1}})
    assert cli.run(config, out, only_stage="cluster") == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    assert "features_TF.csv.json" in error["message"]


def _first_row_last_cell(value):
    def corrupt(text):
        header, first, rest = text.split("\n", 2)
        return "\n".join([header, first[:first.rindex(",") + 1] + value, rest])
    return corrupt


def _widen_model(text):
    # a well-formed model one bin wider than its facet
    model = json.loads(text)
    model["d"] += 1
    model["theta"] = [row + ["0.0"] for row in model["theta"]]
    return json.dumps(model)


def _relabel_model(text):
    return text.replace('"characterization": "CR"', '"characterization": "DG"')


def _swap_first_rows(text):
    header, first, second, rest = text.split("\n", 3)
    return "\n".join([header, second, first, rest])


def _repeat_first_row(text):
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, first, first, rest])


def _drop_first_user(text):
    header, first, *rows = text.splitlines()
    user = first.split(",")[0]
    return "\n".join([header, *(r for r in rows
                                if r.split(",")[0] != user)]) + "\n"


def _drop_first_row_last_cell(text):
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, first[:first.rindex(",")], rest])


def _null_first_pi(text):
    model = json.loads(text)
    model["pi"][0] = None
    return json.dumps(model)


def _drop_last_cluster(text):
    # well-formed assignments of one cluster fewer than the model's K = 4
    rows = [line.split(",") for line in text.splitlines()]
    return "".join(",".join(row[:-2] + [row[-1].replace("3", "0")]) + "\n"
                   for row in rows)


@pytest.mark.parametrize("stage,name,corrupt", [
    ("cluster", "features_TF.csv.json", lambda text: text[:20]),
    # the first row's month cell
    ("cluster", "features_TF.csv", lambda text: text.replace(",0,", ",zero,",
                                                             1)),
    ("ctr", "model_CR.json", lambda text: "oops"),
    # the last row's hard label
    ("analyze", "assignments_TF.csv",
     lambda text: text[:text.rindex(",")] + ",x\n"),
    ("analyze", "assignments_TF.csv",
     lambda text: text[:text.rindex(",")] + ",99\n"),
    # integers too large for int64: the first month cell, the last hard label
    ("cluster", "features_TF.csv",
     lambda text: text.replace(",0,", f",{10**19},", 1)),
    ("analyze", "assignments_TF.csv",
     lambda text: text[:text.rindex(",")] + f",{10**19}\n"),
    ("cluster", "features_TF.csv", _first_row_last_cell("-3")),
    ("cluster", "features_TF.csv", _first_row_last_cell("nan")),
    ("ctr", "model_CR.json", _widen_model),
    ("ctr", "model_CR.json", _relabel_model),
    ("analyze", "model_CR.json", _widen_model),
    ("analyze", "model_CR.json", _relabel_model),
    ("analyze", "assignments_TF.csv", lambda text: text.split("\n", 1)[0]
     + "\n"),
    ("analyze", "assignments_TF.csv", _drop_last_cluster),
    ("ctr", "filtered.csv", _drop_first_user),
    ("ctr", "features_DG.csv", _drop_first_user),
    ("cluster", "features_TF.csv", _drop_first_row_last_cell),
    ("analyze", "assignments_TF.csv", _drop_first_row_last_cell),
    ("ctr", "model_CR.json", _null_first_pi),
    *((stage, name, corrupt)
      for stage, name in (("cluster", "features_CR.csv"),
                          ("analyze", "assignments_TF.csv"),
                          ("cf", "assignments_TF.csv"))
      for corrupt in (_swap_first_rows, _repeat_first_row)),
], ids=["cut-sidecar", "month-cell", "model-json", "hard-label",
        "label-beyond-k", "month-beyond-int64", "label-beyond-int64",
        "negative-cell", "nan-cell", "ctr-model-width", "ctr-model-facet",
        "analyze-model-width", "analyze-model-facet",
        "header-only", "k-below-model", "ctr-filtered-users",
        "ctr-features-users", "features-short-row", "assignments-short-row",
        "model-null-param",
        *(f"{stage}-{case}" for stage in ("cluster", "analyze", "cf-a")
          for case in ("unsorted-rows", "repeated-row"))])
def test_corrupt_artifact_is_data_error(pipeline, tmp_path, capsys, stage,
                                        name, corrupt):
    out = _copy_pipeline(pipeline, tmp_path)
    path = out / name
    text = path.read_text()
    assert corrupt(text) != text
    path.write_text(corrupt(text))
    # the stage reads every input before it writes: none of its files return
    manifest = out / f"manifest_{stage}.json"
    written = [manifest, *(out / n for n in json.loads(manifest.read_text())
                           ["outputs"])]
    for file in written:
        file.unlink()
    config = _write_config(tmp_path, {"ctr": {"top_n": 4},
                                      "analyze": {"stability": {"runs": 2}},
                                      "cf": {"variant": "a", "epochs": 1}})
    assert cli.run(config, out, only_stage=stage) == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    assert error["message"].startswith(f"stage {stage!r}: ")
    assert name in error["message"]
    assert [f.name for f in written if f.exists()] == []


def test_cf_labels_each_user_by_their_month_0_row(pipeline, tmp_path,
                                                 monkeypatch):
    out = _copy_pipeline(pipeline, tmp_path)
    path = out / "assignments_TF.csv"
    header, *lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    k = len(rows[0]) - 3
    month0 = {}
    for row in rows:  # every later row gets a label unlike its month-0 row
        if row[1] == "0":
            month0[row[0]] = int(row[-1])
        else:
            row[-1] = str((month0[row[0]] + 1) % k)
    assert len(month0) < len(rows)
    path.write_text("".join(",".join(row) + "\n" for row in [[header], *rows]))
    seen = []
    fit = cf.fit_factor

    def spy(n_users, n_items, ratings, variant, clusters, *rest):
        seen.append(clusters)
        return fit(n_users, n_items, ratings, variant, clusters, *rest)

    monkeypatch.setattr(cf, "fit_factor", spy)
    config = _write_config(tmp_path, {"cf": {"variant": "a", "epochs": 1}})
    assert cli.run(config, out, only_stage="cf") == 0
    rated = ingest.parse_log(out / "filtered.csv").record_set.users
    (clusters,) = seen
    assert clusters.tolist() == [month0[u] for u in rated]


def test_cf_user_without_month_0_row_is_data_error(pipeline, tmp_path,
                                                  capsys):
    # the user keeps a month-1 row, whose label must not stand in
    out = _copy_pipeline(pipeline, tmp_path)
    path = out / "assignments_TF.csv"
    header, *lines = path.read_text().splitlines()
    user = lines[0].split(",")[0]
    kept = [line for line in lines if not line.startswith(f"{user},0,")]
    assert len(kept) == len(lines) - 1
    assert any(line.startswith(f"{user},") for line in kept)
    path.write_text("\n".join([header] + kept) + "\n")
    config = _write_config(tmp_path, {"cf": {"variant": "a", "epochs": 1}})
    assert cli.run(config, out, only_stage="cf") == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "data"
    for part in ("stage 'cf': ", "assignments_TF.csv", "month-0", user):
        assert part in error["message"]


def test_ctr_without_evaluated_items_is_data_error(tmp_path, capsys):
    # 60 users at test_fraction 0.001 leave no test user, so no item
    # can be evaluated; a nan AUC must not be written
    out = tmp_path / "out"
    path = _write_config(tmp_path, {
        "seed": 7, "stages": ["synth", "ingest", "featurize", "cluster",
                              "ctr"],
        "synth": {"n_users": 60, "months_per_user": 2},
        "cluster": {"restarts": 1},
        "ctr": {"test_fraction": 0.001, "top_n": 3}})
    assert cli.run(path, out) == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    assert "'c,c,c'" in error["message"]
    assert "3 skipped" in error["message"]
    assert not (out / "ctr_eval.csv").exists()
    assert not (out / "manifest_ctr.json").exists()


def test_analyze_report_contents(pipeline):
    _, out = pipeline
    report = json.loads((out / "analyze_report.json").read_text())
    assert report["stability"]["characterization"] == "TF"
    assert set(report["dominance"]) == {"ME", "TF", "DG", "CR", "TDT"}
    for entry in report["dominance"].values():
        assert abs(sum(entry["shares"]) - 1.0) < 1e-6


def test_ctr_eval_table(pipeline):
    _, out = pipeline
    lines = (out / "ctr_eval.csv").read_text().strip().splitlines()
    assert lines[0] == "recency,genre,economic,F,n,p,O_proxy"
    assert len(lines) == 3  # two recipes
    p_ccc = int(lines[1].split(",")[5])
    p_sss = int(lines[2].split(",")[5])
    assert p_ccc > p_sss  # raw counts are wider than soft distances


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_missing_config_is_validation_error(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b'{"seed": "\xff"}')
    assert cli.run(path, tmp_path / "out") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "validation"


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_over_file_is_validation_error(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    path = _write_config(tmp_path, {"stages": ["synth"],
                                    "synth": {"n_users": 5,
                                              "months_per_user": 1}})
    assert cli.run(path, blocker / "out" if under else blocker) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "validation"
    assert blocker.read_text() == "keep"


def test_bad_json_is_validation_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    assert cli.run(path, tmp_path) == 2


def test_unknown_stage_is_validation_error(tmp_path):
    path = _write_config(tmp_path, {"stages": ["transmogrify"]})
    assert cli.run(path, tmp_path) == 2


def test_invalid_synth_section_is_validation_error(tmp_path):
    path = _write_config(tmp_path, {"stages": ["synth"],
                                    "synth": {"n_users": 0,
                                              "months_per_user": 1}})
    assert cli.run(path, tmp_path / "out") == 2


@pytest.mark.parametrize("stage,section", [
    ("cluster", {"restarts": "x"}),
    ("cluster", {"k": {"TF": 0}}),
    ("ctr", {"lambda": "abc"}),
    ("ctr", {"recipes": [{"XX": "c"}]}),
    ("ctr", {"recipes": ["c"]}),
    ("synth", {"n_users": "ten", "months_per_user": 1}),
    ("cf", {"variant": "zz"}),
    ("cf", {"value": "spnd"}),
    ("cf", {"f": 0}),
    ("cf", {"epochs": 0}),
    ("cf", {"characterization": "XX"}),
    ("cluster", {"k": 3}),
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"theta": [[0.5, 0.5]]}}}),
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"pi": [0.7, 0.7],
                                   "theta": [[0.5, 0.5], [0.5, 0.5]]}}}),
    ("synth", {"n_users": 10, "months_per_user": 1, "price_mode": "me",
               "spend_model": {"pi": [1.0]}}),
    ("analyze", {"stability": {"runs": 1}}),
    ("analyze", {"stability": {"characterization": "XX"}}),
    ("run", {"stages": 5}),
    ("run", {"stages": [["x"]]}),
    ("run", {"stages": [], "out_dir": 5}),
    ("ingest", {"input": 5}),
    ("run", {"stages": ["synth"], "seed": -1}),
    ("ctr", {"neg_ratio": 0}),
    ("cf", {"lr": -1}),
    ("ctr", {"test_fraction": 1.5}),
    ("ctr", {"top_n": -3}),
    ("analyze", {"dominance": {"k_max": -1}}),
    ("cluster", {"restarts": 0}),
    ("ctr", {"lambda": -1}),
    ("analyze", {"stability": {"epsilon": -1}}),
    ("ingest", {"filter": "no"}),
    ("run", {"stages": ["cluster"], "clustr": {"restarts": 3}}),
    ("cluster", {"restrats": 3}),
    ("cluster", {"k": {"XX": 3}}),
    ("cf", {"f": 2.7}),
    ("synth", {"n_users": "10", "months_per_user": 1}),
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"pi": [0.5, 0.5], "nich": [1],
                                   "theta": [[0.5, 0.5, 0, 0, 0, 0],
                                             [0, 0, 0.5, 0.5, 0, 0]]}}}),
    ("synth", {"n_users": 10, "months_per_user": 1, "price_mode": "me",
               "spend_model": {"pi": [1.0], "size": 2,
                               "centers": [[0, 2.0] + [0] * 11]}}),
    ("ctr", {"recipes": []}),
    # theta rows of 2 bins for the 6-bin TF facet
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"pi": [0.5, 0.5],
                                   "theta": [[0.5, 0.5], [0.5, 0.5]]}}}),
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"pi": [0.5, 0.5], "niche": [0.5],
                                   "theta": [[0.5, 0.5, 0, 0, 0, 0],
                                             [0, 0, 0.5, 0.5, 0, 0]]}}}),
    ("ingest", {"input": ""}),
    # non-finite planted values: json reads NaN and Infinity
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"pi": [0.5, math.nan],
                                   "theta": [[0.5, 0.5, 0, 0, 0, 0],
                                             [0, 0, 0.5, 0.5, 0, 0]]}}}),
    ("synth", {"n_users": 10, "months_per_user": 1,
               "mixtures": {"TF": {"pi": [0.5, 0.5],
                                   "theta": [[0.5, 0.5, 0, 0, 0, 0],
                                             [math.nan, 0, 0.5, 0.5, 0, 0]]}}}),
    ("synth", {"n_users": 10, "months_per_user": 1, "price_mode": "me",
               "spend_model": {"pi": [1.0],
                               "centers": [[0, math.inf] + [0] * 11]}}),
    # more user-months than numpy's largest int64 array holds
    ("synth", {"n_users": 10**30, "months_per_user": 1}),
])
def test_bad_config_value_is_validation_error(tmp_path, capsys, stage,
                                              section):
    # checked before the stage reads any input, so an empty directory serves;
    # a "run" entry is the whole config, its out_dir taken from the config
    config = section if stage == "run" else {"stages": [stage], stage: section}
    path = _write_config(tmp_path, config)
    assert cli.run(path, None if "out_dir" in config
                   else tmp_path / "out") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "validation"


def test_migration_without_niche_is_validation_error(tmp_path, capsys):
    # synth plants migration only in niche clusters, and the published
    # tables have none, so a migration rate alone would plant nothing
    out = tmp_path / "out"
    planted = {"n_users": 20, "months_per_user": 2, "migration_rate": 0.3}
    path = _write_config(tmp_path, {"stages": ["synth"], "synth": planted})
    assert cli.run(path, out) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "synth.migration_rate" in json.loads(line)["message"]
    assert not out.exists()
    tf = {"pi": synth.DEFAULT_TF_PI.tolist(),
          "theta": synth.DEFAULT_TF_THETA.tolist(), "niche": [2]}
    path = _write_config(tmp_path, {"stages": ["synth"], "synth": {
        **planted, "mixtures": {"TF": tf}}})
    assert cli.run(path, out) == 0
    # the spend model's niche counts only where it plants prices
    me = {**planted, "spend_model": {"niche": [1]}}
    cli.check_config({"stages": ["synth"],
                      "synth": {**me, "price_mode": "me"}})
    with pytest.raises(cli.ConfigError, match="synth.migration_rate"):
        cli.check_config({"stages": ["synth"], "synth": me})


def test_required_keys_and_nulls():
    # a required key is needed only when its stage runs; null stands for a
    # default only where that default is null
    cli.check_config({"stages": ["cluster"], "synth": {"months_per_user": 1}})
    cli.check_config({"stages": ["ingest"], "ingest": {"input": None}})
    for config, name in [({"stages": ["synth"], "synth": {"n_users": 5}},
                          "synth.months_per_user"),
                         ({"stages": ["cf"], "cf": {"lr": None}}, "cf.lr")]:
        with pytest.raises(cli.ConfigError, match=name):
            cli.check_config(config)


@pytest.mark.parametrize("section,value,name", [
    ("cf", {"lr": -1}, "cf.lr"),
    ("ctr", {"recipes": [{"CR": "c"}, {"CR": "h", "DG": "h"}]},
     "ctr.recipes"),
], ids=["cf-lr", "ctr-recipe"])
def test_bad_section_fails_before_any_stage_writes(tmp_path, capsys, section,
                                                   value, name):
    out = tmp_path / "out"
    path = _write_config(tmp_path, {**SMALL_CONFIG, section: value})
    assert cli.run(path, out) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert name in json.loads(line)["message"]
    assert not (out / "log.csv").exists()
    assert not list(out.glob("manifest_*.json"))


def test_config_defaults_are_the_library_defaults():
    # one default per setting: each table row equals its library twin
    table = {f"{s}.{k}".lstrip("."): default
             for s, k, _, default, _ in cli.CONFIG_TABLE}
    exp, fac = ctr.CtrExperimentConfig(), cf.FactorConfig()
    gen = synth.GeneratorConfig(1, 1, mixtures=synth.default_mixtures())
    twins = [
        *((f"synth.{key}", getattr(gen, key)) for key in (
            "price_mode", "poisson_mean", "migration_rate", "items_per_cell")),
        ("cluster.restarts", mixture.EMConfig().restarts),
        ("cluster.restarts", mixture.KMeansConfig().restarts),
        ("analyze.stability.runs", inspect.signature(
            analysis.stability_check).parameters["runs"].default),
        ("ctr.lambda", exp.lam), ("ctr.neg_ratio", exp.neg_ratio),
        ("ctr.top_n", exp.top_n), ("ctr.test_fraction", exp.test_fraction),
        ("cf.f", fac.f), ("cf.lr", fac.lr), ("cf.reg", fac.reg),
        ("cf.epochs", fac.epochs),
    ]
    assert [(name, table[name]) for name, _ in twins] == twins


def _readme():
    return (Path(__file__).parents[1] / "README.md").read_text("utf-8")


def _readme_config():
    return json.loads(_readme().split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_config_matches_code():
    readme = _readme()
    cli.check_config(_readme_config())
    # the config reference lists every key of the table, and nothing else
    reference = readme.split("## Config reference", 1)[1].split("\n## ")[0]
    rows = [line for line in reference.splitlines() if line.startswith("| `")]
    expected = []
    for section, key, kind, default, rule in cli.CONFIG_TABLE:
        shown = "required" if default is cli.REQUIRED else (
            f"`{json.dumps(default)}`")
        rule = ", ".join(f"`{c}`" for c in rule) if isinstance(
            rule, tuple) else rule or "—"
        expected.append(f"| `{section}.{key}`".replace("`.", "`")
                        + f" | {kind} | {shown} | {rule} |")
    assert rows == expected


def test_cluster_k_beyond_feature_rows_is_data_error(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write_config(tmp_path, {
        "seed": 3, "stages": ["synth", "ingest", "featurize", "cluster"],
        "synth": {"n_users": 30, "months_per_user": 1},
        "cluster": {"k": {"TF": 5000}}})
    assert cli.run(path, out) == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    rows = len((out / "features_TF.csv").read_text().splitlines()) - 1
    for part in ("'TF'", "5000", f"only {rows} feature rows"):
        assert part in error["message"]
    assert not list(out.glob("model_*.json"))


def test_stability_k_beyond_subsample_is_data_error(tmp_path, capsys):
    # k = 4 fits the 6 feature rows but not a 50% stability subsample
    out = tmp_path / "out"
    path = _write_config(tmp_path, {
        "seed": 3, "stages": ["synth", "ingest", "featurize", "cluster",
                              "analyze"],
        "synth": {"n_users": 6, "months_per_user": 1},
        "cluster": {"k": {"TF": 4}},
        "analyze": {"stability": {"characterization": "TF", "runs": 2}}})
    assert cli.run(path, out) == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    rows = len((out / "features_TF.csv").read_text().splitlines()) - 1
    for part in ("'TF'", "k = 4", f"only {rows // 2} of the {rows} rows"):
        assert part in error["message"]
    assert not (out / "analyze_report.json").exists()


def test_diverging_cf_is_numerical_error(pipeline, tmp_path, capsys):
    out = _copy_pipeline(pipeline, tmp_path)
    (out / "cf_model.json").unlink()
    (out / "manifest_cf.json").unlink()
    config = _write_config(tmp_path, {"cf": {"lr": 5, "epochs": 2}})
    assert cli.run(config, out, only_stage="cf") == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "numerical"
    assert not (out / "cf_model.json").exists()
    assert not (out / "manifest_cf.json").exists()


def test_missing_artifact_is_data_error(tmp_path):
    path = _write_config(tmp_path, {"stages": ["featurize"]})
    assert cli.run(path, tmp_path / "empty") == 3


def test_missing_ingest_input_is_data_error(tmp_path):
    path = _write_config(tmp_path, {
        "stages": ["ingest"], "ingest": {"input": str(tmp_path / "no.csv")}})
    assert cli.run(path, tmp_path / "out") == 3


@pytest.mark.parametrize("kind", ["directory", "not utf-8", "long field"])
def test_unreadable_ingest_input_is_data_error(tmp_path, capsys, kind):
    source = tmp_path / "input"
    if kind == "directory":
        source.mkdir()
    elif kind == "not utf-8":
        source.write_bytes(b"user_id,timestamp\n\xff\xfe\n")
    else:  # beyond the csv module's field limit of 131,072 characters
        source.write_text(",".join(ingest.CSV_COLUMNS) + "\n"
                          + "u" * (1 << 18) + ",0,0,c1,R,1.99,Drama,2010\n")
    path = _write_config(tmp_path, {"stages": ["ingest"],
                                    "ingest": {"input": str(source)}})
    assert cli.run(path, tmp_path / "out") == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    assert error["message"].startswith(f"stage 'ingest': corrupt artifact "
                                       f"{source}: ")


def test_corrupt_log_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,timestamp,region_offset_minutes,content_id,"
                   "txn_type,net_price,genre,release_year\n"
                   "u1,notatime,0,c1,R,1.99,Drama,2010\n"
                   "u2,notatime,0,c1,R,1.99,Drama,2010\n")
    path = _write_config(tmp_path, {"stages": ["ingest"],
                                    "ingest": {"input": str(bad)}})
    assert cli.run(path, tmp_path / "out") == 3


def test_stages_run_in_pipeline_order_once(tmp_path, monkeypatch):
    synth = {"n_users": 20, "months_per_user": 1}
    for name, stages in (("ordered", ["synth", "ingest", "featurize"]),
                         ("shuffled", ["featurize", "ingest", "synth"])):
        config = _write_config(tmp_path, {"stages": stages, "synth": synth},
                               f"{name}.json")
        assert cli.run(config, tmp_path / name) == 0
    ordered, shuffled = tmp_path / "ordered", tmp_path / "shuffled"
    names = sorted(p.name for p in ordered.iterdir())
    assert names == sorted(p.name for p in shuffled.iterdir())
    for name in names:
        assert (ordered / name).read_bytes() == (shuffled / name).read_bytes()
    calls = []
    stage_synth = cli.STAGE_FUNCS["synth"]

    def spy(*args):
        calls.append(args)
        return stage_synth(*args)

    monkeypatch.setitem(cli.STAGE_FUNCS, "synth", spy)
    config = _write_config(tmp_path, {"stages": ["synth", "synth", "ingest"],
                                      "synth": synth}, "repeated.json")
    assert cli.run(config, tmp_path / "repeated") == 0
    assert len(calls) == 1
    assert (tmp_path / "repeated" / "manifest_ingest.json").exists()


def test_stage_gets_the_params_its_manifest_records(tmp_path, monkeypatch):
    seen = {}

    def spy(stage):
        inner = cli.STAGE_FUNCS[stage]

        def recorded(params, *args):
            seen[stage] = json.loads(json.dumps(params))  # before any pop
            return inner(params, *args)
        return recorded

    for stage in ("synth", "ingest", "featurize"):
        monkeypatch.setitem(cli.STAGE_FUNCS, stage, spy(stage))
    config = _write_config(tmp_path, {
        "stages": ["synth", "ingest", "featurize"],
        "synth": {"n_users": 20, "months_per_user": 1, "poisson_mean": 4}})
    assert cli.run(config, tmp_path / "out") == 0
    for stage, params in seen.items():
        manifest = json.loads(
            (tmp_path / "out" / f"manifest_{stage}.json").read_text())
        assert manifest["params"] == params, stage
    assert seen["synth"]["poisson_mean"] == 4.0
    assert seen["synth"]["mixtures"] == dict.fromkeys(
        ("TF", "DG", "CR", "TDT"))


def test_manifest_params_are_the_checked_settings(tmp_path, monkeypatch):
    # `check_config` returns what `run` hands each stage and records; stub
    # stages that read and write nothing keep the README config fast
    config = _readme_config()
    settings = cli.check_config(config)
    assert {key: settings[""][key] for key in ("seed", "stages", "out_dir")
            } == {"seed": 7, "stages": list(cli.STAGES), "out_dir": "."}
    for stage in cli.STAGES:
        monkeypatch.setitem(cli.STAGE_FUNCS, stage, lambda *args: [])
    assert cli.run(_write_config(tmp_path, config), tmp_path / "out") == 0
    for stage in cli.STAGES:
        manifest = json.loads(
            (tmp_path / "out" / f"manifest_{stage}.json").read_text())
        assert (artifacts.to_json(manifest["params"])
                == artifacts.to_json(settings.get(stage, {}))), stage


def test_seed_override_changes_synth(tmp_path):
    config = _write_config(tmp_path, {"seed": 1, "stages": ["synth"],
                                      "synth": {"n_users": 20,
                                                "months_per_user": 1}})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(config, out_a) == 0
    assert cli.run(config, out_b, seed_override=2) == 0
    assert (out_a / "log.csv").read_bytes() != (out_b / "log.csv").read_bytes()


def test_main_subcommand(tmp_path):
    config = _write_config(tmp_path, {"seed": 1,
                                      "synth": {"n_users": 15,
                                                "months_per_user": 1}})
    code = cli.main(["synth", "--config", str(config),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "log.csv").exists()


NO_SCIPY_RUN = """
import importlib, pkgutil, sys
import persona_forge
for module in pkgutil.iter_modules(persona_forge.__path__):
    importlib.import_module("persona_forge." + module.name)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"{len(loaded)} scipy modules loaded: {loaded[:3]} ...")
sys.modules["scipy"] = None  # any later scipy import raises ImportError
from persona_forge import cli
codes = {s: cli.run(sys.argv[1], sys.argv[2], only_stage=s)
         for s in cli.STAGES}
sys.exit(0 if set(codes.values()) == {0} else f"exit codes: {codes}")
"""


def test_package_imports_and_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency
    config = _write_config(tmp_path, {
        **SMALL_CONFIG,
        "synth": {"n_users": 120, "months_per_user": 2},
        "cluster": {"restarts": 1},
        "analyze": {"stability": {"characterization": "TF", "runs": 2}},
        "ctr": {"top_n": 2, "recipes": [{"CR": "c", "DG": "s", "ME": "-"}]},
        "cf": {"variant": "a", "epochs": 1, "f": 2}})
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(config),
         str(tmp_path / "out")], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "manifest_cf.json").exists()
