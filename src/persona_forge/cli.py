"""Config-driven pipeline orchestration with reproducible stage artifacts."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, artifacts, cf, ctr, features, ingest, mixture, synth

STAGES = ("synth", "ingest", "featurize", "cluster", "analyze", "ctr", "cf")


class ConfigError(Exception):
    kind, exit_code = "validation", 2


class DataError(Exception):
    kind, exit_code = "data", 3


class NumericalError(Exception):
    kind, exit_code = "numerical", 4


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out: Path, stage: str, inputs: list[str],
                    outputs: list[str], seed: int, params: dict) -> None:
    artifacts.write_json(out / f"manifest_{stage}.json", {
        "stage": stage,
        "version": __version__,
        "seed": seed,
        "params": params,
        "inputs": {name: _sha256(out / name) for name in sorted(inputs)},
        "outputs": {name: _sha256(out / name) for name in sorted(outputs)},
    })


def _read_artifact(out: Path, stage: str, inputs: list[str], reader,
                   name: str, *sidecars: str):
    """`reader(out / name)`. The artifact and its `sidecars` must exist and
    are recorded as inputs; a reader error is a DataError naming them."""
    for part in (name, *sidecars):
        if not (out / part).exists():
            raise DataError(f"stage {stage!r} requires missing artifact "
                            f"{part!r}")
    inputs += [name, *sidecars]
    try:
        return reader(out / name)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            ingest.IngestError) as exc:
        raise DataError(f"stage {stage!r}: corrupt artifact "
                        f"{', '.join((name, *sidecars))}: {exc}") from None


# Every config key, declared once: (section, key, JSON type, default, range
# or choices). A section is a dotted path, "" the top level; choices bound a
# str, the items of a list or the keys of an object. A None default also
# admits null; a REQUIRED key must be given when its section's stage runs.
REQUIRED = object()
CONFIG_TABLE = (
    ("", "seed", "int", 0, "[0, inf)"),
    ("", "stages", "list", STAGES, STAGES),
    ("", "out_dir", "str", ".", None),
    ("synth", "n_users", "int", REQUIRED, "[1, inf)"),
    ("synth", "months_per_user", "int", REQUIRED, "[1, inf)"),
    ("synth", "price_mode", "str", "tf", ("tf", "me")),
    ("synth", "poisson_mean", "float", 8.0, "(0, inf)"),
    ("synth", "migration_rate", "float", 0.0, "[0, 1]"),
    ("synth", "items_per_cell", "int", 2, "[1, inf)"),
    ("synth", "spend_model", "object", None, ("pi", "centers", "niche")),
    *(("synth.mixtures", ch, "object", None, ("pi", "theta", "niche"))
      for ch in ("TF", "DG", "CR", "TDT")),
    ("ingest", "input", "str", None, None),
    ("ingest", "filter", "bool", True, None),
    ("cluster", "restarts", "int", 5, "[1, inf)"),
    *(("cluster.k", ch, "int", k, "[1, inf)")
      for ch, k in (("ME", 4), ("TF", 4), ("DG", 3), ("CR", 3), ("TDT", 4))),
    ("analyze.stability", "characterization", "str", "TF",
     features.CHARACTERIZATIONS),
    ("analyze.stability", "epsilon", "float", 0.05, "(0, inf)"),
    ("analyze.stability", "delta", "float", 0.10, "[0, 1]"),
    ("analyze.stability", "runs", "int", 4, "[2, inf)"),
    ("analyze.dominance", "kappa", "float", 0.02, "[0, 1]"),
    ("analyze.dominance", "k_max", "int", 6, "[1, inf)"),
    ("ctr", "lambda", "float", 2e-3, "[0, inf)"),
    ("ctr", "neg_ratio", "int", 5, "[1, inf)"),
    ("ctr", "top_n", "int", 20, "[1, inf)"),
    ("ctr", "test_fraction", "float", 0.2, "(0, 1)"),
    ("ctr", "recipes", "list", ({"CR": "c", "DG": "c", "ME": "c"},), None),
    ("cf", "variant", "str", "vanilla", cf.VARIANTS),
    ("cf", "value", "str", "count", ("count", "spend")),
    ("cf", "characterization", "str", "TF", features.CHARACTERIZATIONS),
    ("cf", "f", "int", 8, "[1, inf)"),
    ("cf", "lr", "float", 0.02, "(0, inf)"),
    ("cf", "reg", "float", 0.02, "[0, inf)"),
    ("cf", "epochs", "int", 20, "[1, inf)"),
)
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
          "list": list, "object": dict}
# every section with its parents, a parent before its children
_SECTIONS = sorted({row[0].rsplit(".", n)[0] for row in CONFIG_TABLE
                    for n in range(row[0].count(".") + 1)} | {""})
_NAMES = set(_SECTIONS[1:]) | {f"{s}.{k}".lstrip(".")
                               for s, k, *_ in CONFIG_TABLE}


def check_config(config: dict) -> None:
    """Raise a ConfigError unless every section and key of `config` is
    declared in CONFIG_TABLE and holds a value of its type and range."""
    objects = {"": config}
    for path in _SECTIONS[1:]:
        parent, _, key = path.rpartition(".")
        objects[path] = objects[parent].get(key, {})
        if not isinstance(objects[path], dict):
            raise ConfigError(f"config section {path!r} must be an object")
    for path, given in objects.items():
        for name in (f"{path}.{key}".lstrip(".") for key in given):
            if name not in _NAMES:
                raise ConfigError(f"unknown config key {name!r}")
    for section, key, kind, default, rule in CONFIG_TABLE:  # "stages" first
        name = f"{section}.{key}".lstrip(".")
        value = objects[section].get(key)
        if value is None and (key not in objects[section] or default is None):
            if default is REQUIRED and section in config.get("stages", STAGES):
                raise ConfigError(f"config value {name!r} is required")
        elif not (isinstance(value, _TYPES[kind])
                  and isinstance(value, bool) == (kind == "bool")
                  and (kind != "float" or abs(value) <= sys.float_info.max)):
            raise ConfigError(f"config value {name!r} must be a JSON {kind}, "
                              f"got {value!r}")
        elif isinstance(rule, str):  # an interval: "[0, 1]", "(0, inf)", ...
            low, high = (float(b) for b in rule[1:-1].split(", "))
            if ((value <= low) if rule[0] == "(" else (value < low)) or (
                    (value >= high) if rule[-1] == ")" else (value > high)):
                raise ConfigError(f"config value {name!r} must be in {rule}, "
                                  f"got {value!r}")
        elif isinstance(rule, tuple):
            for member in value if kind in ("list", "object") else [value]:
                if member not in rule:
                    raise ConfigError(f"config value {name!r} takes only "
                                      f"{list(rule)}, got {member!r}")
    if objects["ctr"].get("recipes") == []:
        raise ConfigError("config value 'ctr.recipes' must not be empty")
    for recipe in objects["ctr"].get("recipes", ()):
        try:
            ctr.FeatureModeRecipe(dict(recipe))
        except (ctr.CtrError, TypeError, ValueError) as exc:
            raise ConfigError(f"config value 'ctr.recipes' holds an invalid "
                              f"recipe {recipe!r}: {exc}") from None


def _settings(config: dict, section: str) -> dict:
    """`section` of a config that passed `check_config`, defaults filled in."""
    for part in filter(None, section.split(".")):
        config = config.get(part, {})
    values = {}
    for row_section, key, kind, default, _ in CONFIG_TABLE:
        if row_section == section:
            value = config.get(key)
            values[key] = (default if value is None
                           else float(value) if kind == "float" else value)
    return values


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def stage_synth(config: dict, out: Path, seed: int) -> None:
    params = _settings(config, "synth")
    mixtures = synth.default_mixtures()
    try:
        for ch, spec in _settings(config, "synth.mixtures").items():
            if spec is not None:
                mixtures[ch] = synth.PlantedMixture(
                    np.array(spec["pi"]), np.array(spec["theta"]),
                    tuple(spec.get("niche", ())))
        spend, sm = None, params.pop("spend_model")
        if params["price_mode"] == "me":
            spend = (synth.default_spend_model() if sm is None else
                     synth.SpendModel(np.array(sm["pi"]),
                                      np.array(sm["centers"]),
                                      tuple(sm.get("niche", ()))))
        gen_cfg = synth.GeneratorConfig(seed=seed, mixtures=mixtures,
                                        spend_model=spend, **params)
    except KeyError as exc:
        raise ConfigError(f"invalid synth config: missing key {exc}") from None
    except (synth.GeneratorError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth config: {exc}") from None
    rs, gt = synth.generate(gen_cfg)
    ingest.write_log(rs, out / "log.csv")
    synth.write_ground_truth(gt, out / "ground_truth.csv")
    _write_manifest(out, "synth", [], ["log.csv", "ground_truth.csv"],
                    seed, config.get("synth", {}))


def stage_ingest(config: dict, out: Path, seed: int) -> None:
    params = _settings(config, "ingest")
    inputs: list[str] = []
    if params["input"]:
        try:
            result = ingest.parse_log(Path(params["input"]))
        except (ingest.IngestError, OSError, UnicodeDecodeError) as exc:
            raise DataError(str(exc)) from None
    else:
        result = _read_artifact(out, "ingest", inputs, ingest.parse_log,
                                "log.csv")
    rs = result.record_set
    if params["filter"]:
        rs = ingest.filter_inactive(rs)
    ingest.write_log(rs, out / "filtered.csv")
    artifacts.write_json(out / "ingest_diagnostics.json",
                         [{"row": d.row, "message": d.message}
                          for d in result.diagnostics])
    _write_manifest(out, "ingest", inputs,
                    ["filtered.csv", "ingest_diagnostics.json"], seed,
                    config.get("ingest", {}))


def _load_records(out: Path, stage: str,
                  inputs: list[str]) -> ingest.RecordSet:
    """The records of the filtered log, else of the raw log."""
    name = "filtered.csv" if (out / "filtered.csv").exists() else "log.csv"
    return _read_artifact(out, stage, inputs, ingest.parse_log,
                          name).record_set


def stage_featurize(config: dict, out: Path, seed: int) -> None:
    inputs: list[str] = []
    rs = _load_records(out, "featurize", inputs)
    months = features.tenure_align(rs)
    outputs = []
    for ch in features.CHARACTERIZATIONS:
        cm = features.aggregate(rs, months, ch)
        name = f"features_{ch}.csv"
        features.write_matrix(cm, out / name)
        outputs += [name, name + ".json"]
    _write_manifest(out, "featurize", inputs, outputs, seed, {})


def _write_assignments(path: Path, keys, tau: np.ndarray,
                       hard: np.ndarray) -> None:
    artifacts.write_csv(
        path,
        ["user_id", "month_index"] + [f"tau_{j}" for j in range(tau.shape[1])]
        + ["hard"],
        ([user, month] + [repr(float(v)) for v in row] + [int(label)]
         for (user, month), row, label in zip(keys, tau, hard)))


def read_assignments(path) -> tuple[list[tuple[str, int]], np.ndarray, np.ndarray]:
    keys, taus, hards = [], [], []
    for raw in artifacts.read_csv(path):
        keys.append((raw[0], int(raw[1])))
        taus.append([float(v) for v in raw[2:-1]])
        hards.append(int(raw[-1]))
    if not keys:
        raise ValueError("no assignment rows")
    taus, hards = np.array(taus), np.array(hards, dtype=np.int64)
    if not 0 <= hards.min() <= hards.max() < taus.shape[1]:
        raise ValueError(f"hard labels outside [0, {taus.shape[1]})")
    return keys, taus, hards


def stage_cluster(config: dict, out: Path, seed: int) -> None:
    ks = _settings(config, "cluster.k")
    restarts = _settings(config, "cluster")["restarts"]
    inputs, outputs = [], []
    matrices = {ch: _read_artifact(out, "cluster", inputs,
                                   features.read_matrix, f"features_{ch}.csv",
                                   f"features_{ch}.csv.json")
                for ch in features.CHARACTERIZATIONS}
    for ch, cm in matrices.items():
        if ks[ch] > len(cm.values):
            raise DataError(f"stage 'cluster': facet {ch!r} has k = {ks[ch]} "
                            f"but only {len(cm.values)} feature rows")
    try:
        for ch, cm in matrices.items():
            if ch == "ME":
                model, hard = mixture.fit_kmeans(
                    cm.values, ks[ch],
                    mixture.KMeansConfig(restarts=restarts, seed=seed),
                    characterization=ch)
                tau = np.zeros((len(hard), ks[ch]))
                tau[np.arange(len(hard)), hard] = 1.0
            else:
                model, assign = mixture.fit_em(
                    cm.values, ks[ch],
                    mixture.EMConfig(restarts=restarts, seed=seed),
                    characterization=ch)
                tau, hard = assign.tau, assign.hard
            artifacts.write_json(out / f"model_{ch}.json",
                                 mixture.model_to_dict(model))
            _write_assignments(out / f"assignments_{ch}.csv", cm.keys, tau, hard)
            outputs += [f"model_{ch}.json", f"assignments_{ch}.csv"]
    except (ValueError, FloatingPointError) as exc:
        raise NumericalError(f"cluster stage failed: {exc}") from None
    _write_manifest(out, "cluster", inputs, outputs, seed,
                    {"k": ks, "restarts": restarts})


def _read_model(path: Path, ch: str):
    """A model of facet `ch`: its characterization and width must match."""
    model = mixture.model_from_json(path.read_text(encoding="utf-8"))
    d = (model.d if isinstance(model, mixture.MixtureModel)
         else model.centers.shape[1])
    if (model.characterization, d) != (ch, features.CHARACTERIZATION_DIMS[ch]):
        raise ValueError(f"a model of facet {model.characterization!r} with "
                         f"d = {d}, not of {ch!r} with d = "
                         f"{features.CHARACTERIZATION_DIMS[ch]}")
    return model


def _read_models(out: Path, stage: str, inputs: list[str], chars) -> dict:
    return {ch: _read_artifact(out, stage, inputs,
                               lambda path, ch=ch: _read_model(path, ch),
                               f"model_{ch}.json") for ch in chars}


def stage_analyze(config: dict, out: Path, seed: int) -> None:
    inputs, outputs = [], []
    report: dict = {"dominance": {}, "migration_support": {}}
    stab = _settings(config, "analyze.stability")
    dom = _settings(config, "analyze.dominance")
    ch = stab["characterization"]
    cm = _read_artifact(out, "analyze", inputs, features.read_matrix,
                        f"features_{ch}.csv", f"features_{ch}.csv.json")
    models = _read_models(out, "analyze", inputs, features.CHARACTERIZATIONS)
    try:
        stability = analysis.stability_check(
            cm.values, models[ch].k, epsilon=stab["epsilon"],
            delta=stab["delta"], runs=stab["runs"], seed=seed,
            method="kmeans" if ch == "ME" else "em")
    except ValueError as exc:
        raise DataError(f"stage 'analyze': stability on facet {ch!r}: "
                        f"{exc}") from None
    shown = ("epsilon_observed", "delta_observed", "runs", "passed",
             "failed_runs")
    report["stability"] = {"characterization": ch,
                           **{k: getattr(stability, k) for k in shown}}

    for ch in features.CHARACTERIZATIONS:
        keys, tau, hard = _read_artifact(out, "analyze", inputs,
                                         read_assignments,
                                         f"assignments_{ch}.csv")
        k = tau.shape[1]
        dom_report = analysis.dominance_check(hard, dom["kappa"], dom["k_max"],
                                              k=k)
        report["dominance"][ch] = {
            "passed": dom_report.passed,
            "shares": [round(float(s), 6) for s in dom_report.shares],
        }
        mig = analysis.migration_matrix(keys, hard, k, ch)
        report["migration_support"][ch] = int(mig.support.sum())
        artifacts.write_csv(
            out / f"migration_{ch}.csv", [f"to_{j}" for j in range(k)],
            ([repr(float(v)) for v in row] for row in mig.matrix))
        outputs.append(f"migration_{ch}.csv")

        model = models[ch]
        centers = model.theta if isinstance(model, mixture.MixtureModel) else model.centers
        table = analysis.center_report(centers,
                                       features.CHARACTERIZATION_LABELS[ch],
                                       as_percent=ch != "ME")
        artifacts.write_csv(out / f"centers_{ch}.csv", table[0], table[1:])
        outputs.append(f"centers_{ch}.csv")

    artifacts.write_json(out / "analyze_report.json", report)
    outputs.append("analyze_report.json")
    _write_manifest(out, "analyze", inputs, outputs, seed,
                    config.get("analyze", {}))


def stage_ctr(config: dict, out: Path, seed: int) -> None:
    params = _settings(config, "ctr")
    recipes = [ctr.FeatureModeRecipe(dict(r)) for r in params["recipes"]]
    exp_cfg = ctr.CtrExperimentConfig(
        lam=params["lambda"], neg_ratio=params["neg_ratio"],
        top_n=params["top_n"], test_fraction=params["test_fraction"],
        seed=seed)
    inputs: list[str] = []
    rs = _load_records(out, "ctr", inputs)
    chars = ctr.CTR_CHARACTERIZATIONS
    try:
        persona = ctr.persona_features(
            {ch: _read_artifact(out, "ctr", inputs, features.read_matrix,
                                f"features_{ch}.csv",
                                f"features_{ch}.csv.json") for ch in chars},
            _read_models(out, "ctr", inputs, chars))
    except ctr.CtrError as exc:
        raise DataError(f"stage 'ctr': {exc}") from None
    items = ctr.item_user_sets(rs)
    rows = []
    for recipe in recipes:
        evaluation = ctr.run_ctr_experiment(items, persona, recipe, exp_cfg)
        if not evaluation.per_item:  # no test user, or every item skipped
            raise DataError(f"stage 'ctr': recipe {evaluation.recipe!r} "
                            f"evaluated no item ({len(evaluation.skipped)} "
                            f"skipped: a train or test split lacked positive "
                            f"or negative rows)")
        rows.append([recipe.mode("CR"), recipe.mode("DG"), recipe.mode("ME"),
                     repr(round(evaluation.mean_auc, 6)),
                     repr(round(evaluation.mean_n, 2)), evaluation.p,
                     repr(round(evaluation.complexity_proxy, 2))])
    artifacts.write_csv(out / "ctr_eval.csv",
                        ["recency", "genre", "economic", "F", "n", "p",
                         "O_proxy"], rows)
    _write_manifest(out, "ctr", inputs, ["ctr_eval.csv"], seed,
                    config.get("ctr", {}))


def _per_rated_user(users, table: dict, name: str) -> list:
    missing = [u for u in users if u not in table]
    if missing:
        raise DataError(f"stage 'cf': {len(missing)} rated user(s) have "
                        f"no row in {name!r}, first {missing[0]!r}")
    return [table[u] for u in users]


def stage_cf(config: dict, out: Path, seed: int) -> None:
    params = _settings(config, "cf")
    variant, ch = params["variant"], params["characterization"]
    cfg = cf.FactorConfig(f=params["f"], lr=params["lr"], reg=params["reg"],
                          epochs=params["epochs"], seed=seed)
    inputs: list[str] = []
    rs = _load_records(out, "cf", inputs)
    # One rating per (user, item) pair, its values summed in row order.
    n_items = len(rs.contents)
    pairs, pair = np.unique(rs.user * n_items + rs.content,
                            return_inverse=True)
    values = np.bincount(pair, weights=rs.cents / 100.0
                         if params["value"] == "spend" else None)
    ratings = list(zip(*np.divmod(pairs, n_items), values.tolist()))

    clusters = static = None
    if variant in ("a", "b", "d"):
        name = f"assignments_{ch}.csv"
        keys, _, hard = _read_artifact(out, "cf", inputs, read_assignments,
                                       name)
        label: dict[str, int] = {}
        for (user, month), lab in zip(keys, hard):
            if user not in label or month == 0:
                label[user] = int(lab)
        clusters = np.array(_per_rated_user(rs.users, label, name))
    elif variant == "c":
        cm = _read_artifact(out, "cf", inputs, features.read_matrix,
                            f"features_{ch}.csv", f"features_{ch}.csv.json")
        pooled = dict(zip(*features.pool_by_user(cm)))
        static = np.stack(_per_rated_user(rs.users, pooled,
                                          f"features_{ch}.csv"))
        totals = static.sum(axis=1, keepdims=True)
        static = np.divide(static, totals, out=np.zeros_like(static),
                           where=totals > 0)

    try:
        model = cf.fit_factor(len(rs.users), n_items, ratings, variant,
                              clusters, static, cfg)
    except cf.CfError as exc:
        raise NumericalError(f"cf stage failed: {exc}") from None
    artifacts.write_json(out / "cf_model.json", cf.factor_model_to_dict(model))
    _write_manifest(out, "cf", inputs, ["cf_model.json"], seed,
                    config.get("cf", {}))


STAGE_FUNCS = dict(zip(STAGES, (stage_synth, stage_ingest, stage_featurize,
                                 stage_cluster, stage_analyze, stage_ctr,
                                 stage_cf)))


def run(config_path, out_dir=None, seed_override: int | None = None,
        only_stage: str | None = None) -> int:
    """Execute configured stages in dependency order; returns an exit code."""
    try:
        config = load_config(config_path)
        if seed_override is not None:
            config["seed"] = seed_override
        if only_stage:
            config["stages"] = [only_stage]
        check_config(config)
        top = _settings(config, "")
        out = Path(out_dir or top["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: "
                              f"{exc}") from None
        for stage in top["stages"]:
            STAGE_FUNCS[stage](config, out, top["seed"])
    except (ConfigError, DataError, NumericalError) as exc:
        print(json.dumps({"error": exc.kind, "message": str(exc)}),
              file=sys.stderr)
        return exc.exit_code
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="persona-forge",
        description="Tenure-aligned persona segmentation and prediction "
                    "pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ("run",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    only = None if args.command == "run" else args.command
    return run(args.config, args.out, args.seed, only)


if __name__ == "__main__":
    sys.exit(main())
