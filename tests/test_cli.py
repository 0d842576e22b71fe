import hashlib
import json
import shutil
from pathlib import Path

import pytest

from persona_forge import cli

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


def _copy_pipeline(pipeline, tmp_path):
    code, out = pipeline
    assert code == 0
    return shutil.copytree(out, tmp_path / "out")


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
    out = _copy_pipeline(pipeline, tmp_path)
    # a, b and d read each user's cluster, c the user's pooled features
    path = out / ("features_TF.csv" if variant == "c"
                  else "assignments_TF.csv")
    header, *rows = path.read_text().splitlines()
    dropped = rows[0].split(",")[0]
    kept = [r for r in rows if r.split(",")[0] != dropped]
    assert len(kept) < len(rows)
    path.write_text("\n".join([header] + kept) + "\n")
    config = _write_config(tmp_path, {"cf": {"variant": variant,
                                             "epochs": 1}})
    assert cli.run(config, out, only_stage="cf") == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "data"
    assert dropped in error["message"]
    assert path.name in error["message"]


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
    ("cluster", "features_TF.csv", _first_row_last_cell("-3")),
    ("cluster", "features_TF.csv", _first_row_last_cell("nan")),
    ("ctr", "model_CR.json", _widen_model),
    ("ctr", "model_CR.json", _relabel_model),
    ("analyze", "model_CR.json", _widen_model),
    ("analyze", "model_CR.json", _relabel_model),
    ("analyze", "assignments_TF.csv", lambda text: text.split("\n", 1)[0]
     + "\n"),
], ids=["cut-sidecar", "month-cell", "model-json", "hard-label",
        "label-beyond-k", "negative-cell", "nan-cell", "ctr-model-width",
        "ctr-model-facet", "analyze-model-width", "analyze-model-facet",
        "header-only"])
def test_corrupt_artifact_is_data_error(pipeline, tmp_path, capsys, stage,
                                        name, corrupt):
    out = _copy_pipeline(pipeline, tmp_path)
    path = out / name
    text = path.read_text()
    assert corrupt(text) != text
    path.write_text(corrupt(text))
    config = _write_config(tmp_path, {"ctr": {"top_n": 4},
                                      "analyze": {"stability": {"runs": 2}}})
    assert cli.run(config, out, only_stage=stage) == 3
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "data"
    assert name in error["message"]


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


def test_readme_config_matches_code():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cli.check_config(json.loads(example))
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


@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_ingest_input_is_data_error(tmp_path, capsys, kind):
    source = tmp_path / "input"
    if kind == "directory":
        source.mkdir()
    else:
        source.write_bytes(b"user_id,timestamp\n\xff\xfe\n")
    path = _write_config(tmp_path, {"stages": ["ingest"],
                                    "ingest": {"input": str(source)}})
    assert cli.run(path, tmp_path / "out") == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "data"


def test_corrupt_log_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("user_id,timestamp,region_offset_minutes,content_id,"
                   "txn_type,net_price,genre,release_year\n"
                   "u1,notatime,0,c1,R,1.99,Drama,2010\n"
                   "u2,notatime,0,c1,R,1.99,Drama,2010\n")
    path = _write_config(tmp_path, {"stages": ["ingest"],
                                    "ingest": {"input": str(bad)}})
    assert cli.run(path, tmp_path / "out") == 3


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
