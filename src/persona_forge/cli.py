"""Config-driven pipeline orchestration with reproducible stage artifacts."""

from __future__ import annotations

import argparse
import csv
import functools
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


def _write_manifest(out: Path, stage: str, inputs: list[str],
                    outputs: list[str], seed: int, params: dict) -> None:
    """A file in the hand-off table is recorded with the digest the table
    made of it: an input's when the stage read it."""
    artifacts.write_json(out / f"manifest_{stage}.json", {
        "stage": stage,
        "version": __version__,
        "seed": seed,
        "params": params,
        "inputs": {name: artifacts.digest(out / name)
                   for name in sorted(inputs)},
        "outputs": {name: artifacts.digest(out / name)
                    for name in sorted(outputs)},
    })


def _read_artifact(out: Path, inputs: list[str], reader, name: str,
                   *sidecars: str):
    """`reader(out / name)`. The artifact and its `sidecars` must exist and
    are recorded as inputs; a reader error is a DataError naming them. `run`
    hands each stage this function with `out` and `inputs` bound."""
    for part in (name, *sidecars):
        if not (out / part).exists():
            raise DataError(f"requires missing artifact {part!r}")
    inputs += [name, *sidecars]
    try:
        return reader(out / name)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            OverflowError, csv.Error, ingest.IngestError) as exc:
        raise DataError(f"corrupt artifact {', '.join((name, *sidecars))}: "
                        f"{exc}") from None


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
      for ch in synth.PLANTED),
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


def check_config(config: dict) -> dict:
    """Raise a ConfigError unless every section and key of `config` is
    declared in CONFIG_TABLE and holds a value of its type and range. Return
    the settings of every section, "" the top level: each value with its
    default filled in (REQUIRED where its stage does not run) and floats
    cast, each declared subsection under its key."""
    objects, settings = {"": config}, {"": {}}
    for path in _SECTIONS[1:]:
        parent, _, key = path.rpartition(".")
        objects[path] = objects[parent].get(key, {})
        if not isinstance(objects[path], dict):
            raise ConfigError(f"config section {path!r} must be an object")
        settings[path] = settings[parent][key] = {}
    for path, given in objects.items():
        for name in (f"{path}.{key}".lstrip(".") for key in given):
            if name not in _NAMES:
                raise ConfigError(f"unknown config key {name!r}")
    for section, key, kind, default, rule in CONFIG_TABLE:  # "stages" first
        name = f"{section}.{key}".lstrip(".")
        value = objects[section].get(key)
        if value is None and (key not in objects[section] or default is None):
            if default is REQUIRED and section in settings[""]["stages"]:
                raise ConfigError(f"config value {name!r} is required")
            value = default
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
        settings[section][key] = float(value) if kind == "float" else value
    # synth plants migration only in niche clusters; the defaults have none
    gen = _planted(settings["synth"])
    planted = [*gen["mixtures"].values(), gen["spend_model"]]
    if gen["migration_rate"] > 0 and not any(m and m.niche for m in planted):
        raise ConfigError("config value 'synth.migration_rate' > 0 needs a "
                          "'niche' cluster in a given synth.mixtures.<ch> "
                          "or, under price_mode 'me', synth.spend_model")
    for section, key in (("ingest", "input"), ("ctr", "recipes")):
        if settings[section][key] in ("", []):
            raise ConfigError(f"config value '{section}.{key}' must not "
                              "be empty")
    for recipe in settings["ctr"]["recipes"]:
        try:
            ctr.FeatureModeRecipe(dict(recipe))
        except (ctr.CtrError, TypeError, ValueError) as exc:
            raise ConfigError(f"config value 'ctr.recipes' holds an invalid "
                              f"recipe {recipe!r}: {exc}") from None
    return settings


def load_config(path) -> dict:
    try:
        config = artifacts.read_json(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _planted(gen: dict) -> dict:
    """Synth settings `gen` with their planted specs built: a null spec
    plants the published table, and a spend model is planted only under
    price_mode 'me'. A spec that synth rejects is a ConfigError."""
    mixtures, sm, spend = synth.default_mixtures(), gen["spend_model"], None
    try:
        for ch, spec in gen["mixtures"].items():
            if spec is not None:
                mixtures[ch] = synth.PlantedMixture(
                    np.array(spec["pi"]), np.array(spec["theta"]),
                    tuple(spec.get("niche", ())))
        synth.check_mixtures(mixtures)
        if gen["price_mode"] == "me":
            spend = (synth.default_spend_model() if sm is None else
                     synth.SpendModel(np.array(sm["pi"]),
                                      np.array(sm["centers"]),
                                      tuple(sm.get("niche", ()))))
    except KeyError as exc:
        raise ConfigError(f"invalid synth config: missing key {exc}") from None
    except (synth.GeneratorError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth config: {exc}") from None
    return dict(gen, mixtures=mixtures, spend_model=spend)


def stage_synth(params: dict, out: Path, seed: int, read) -> list[str]:
    try:
        gen_cfg = synth.GeneratorConfig(seed=seed, **_planted(params))
    except synth.GeneratorError as exc:
        raise ConfigError(f"invalid synth config: {exc}") from None
    rs, gt = synth.generate(gen_cfg)
    ingest.write_log(rs, out / "log.csv")
    artifacts.hand_off(rs, out / "log.csv")
    synth.write_ground_truth(gt, out / "ground_truth.csv")
    return ["log.csv", "ground_truth.csv"]


def stage_ingest(params: dict, out: Path, seed: int, read) -> list[str]:
    source = params["input"] and str(Path(params["input"]).absolute())
    result = read(ingest.parse_log, source or "log.csv")
    rs = result.record_set
    if params["filter"]:
        rs = ingest.filter_inactive(rs)
    ingest.write_log(rs, out / "filtered.csv")
    artifacts.hand_off(rs, out / "filtered.csv")
    artifacts.write_json(out / "ingest_diagnostics.json",
                         [{"row": d.row, "message": d.message}
                          for d in result.diagnostics])
    return ["filtered.csv", "ingest_diagnostics.json"]


def stage_featurize(params: dict, out: Path, seed: int, read) -> list[str]:
    rs = read(ingest.parse_log, "filtered.csv").record_set
    months = features.tenure_align(rs)
    outputs = []
    for ch in features.CHARACTERIZATIONS:
        cm = features.aggregate(rs, months, ch)
        name = f"features_{ch}.csv"
        features.write_matrix(cm, out / name)
        artifacts.hand_off(cm, out / name, out / (name + ".json"))
        outputs += [name, name + ".json"]
    return outputs


def _write_assignments(path: Path, cm: features.CharacterizationMatrix,
                       tau: np.ndarray, hard: np.ndarray) -> None:
    features.write_rows(
        path, cm, [f"tau_{j}" for j in range(tau.shape[1])] + ["hard"],
        [*tau.T, hard])


def read_assignments(path, k: int | None = None):
    """An `assignments_<ch>.csv` as (users, user, month, tau, hard), its
    arrays read-only; with `k` given, it must have `k` clusters. The rows
    are parsed unless the file still holds the bytes handed off with a
    tuple, which is then returned, shared."""
    rows = artifacts.handed(path)
    if rows is None:
        rows = artifacts.freeze(features.read_rows(path, ints=1))
    else:
        features.check_rows(*rows[1:3])
    *_, taus, hards = rows
    if not len(hards):
        raise ValueError("no assignment rows")
    if not 0 <= hards.min() <= hards.max() < taus.shape[1]:
        raise ValueError(f"hard labels outside [0, {taus.shape[1]})")
    if k not in (None, taus.shape[1]):
        raise ValueError(f"{taus.shape[1]} clusters, not the model's K = {k}")
    return rows


def _check_facet(ch: str, found: str, d: int) -> None:
    """Raise a ValueError unless facet `found` of width `d` is facet `ch`."""
    if (found, d) != (ch, features.CHARACTERIZATION_DIMS[ch]):
        raise ValueError(f"facet {found!r} with d = {d}, not {ch!r} with "
                         f"d = {features.CHARACTERIZATION_DIMS[ch]}")


def _read_features(read, ch: str) -> features.CharacterizationMatrix:
    def checked(path):
        cm = features.read_matrix(path)
        _check_facet(ch, cm.characterization, cm.d)
        if (cm.labels, cm.value_kind) != (features.CHARACTERIZATION_LABELS[ch],
                                          features.VALUE_KINDS[ch]):
            raise ValueError(f"labels or value_kind are not facet {ch!r}'s")
        return cm
    return read(checked, f"features_{ch}.csv", f"features_{ch}.csv.json")


def _read_models(read, chars) -> dict:
    def checked(path, ch):
        model = mixture.model_from_dict(artifacts.read_json(path))
        _check_facet(ch, model.characterization, model.d)
        return model
    return {ch: read(functools.partial(checked, ch=ch), f"model_{ch}.json")
            for ch in chars}


def _amount(ch: str) -> bool:
    """Amount facets are clustered by k-means (Lloyd 1982), count facets by
    a multinomial mixture fitted by EM (Dempster, Laird & Rubin 1977)."""
    return features.VALUE_KINDS[ch] == "Amount"


def _fit_config(ch: str, restarts: int, seed: int = 0):
    config = mixture.KMeansConfig if _amount(ch) else mixture.EMConfig
    return config(restarts=restarts, seed=seed)


def stage_cluster(params: dict, out: Path, seed: int, read) -> list[str]:
    ks, restarts = params["k"], params["restarts"]
    matrices = {ch: _read_features(read, ch)
                for ch in features.CHARACTERIZATIONS}
    for ch, cm in matrices.items():
        if ks[ch] > len(cm.values):
            raise DataError(f"facet {ch!r} has k = {ks[ch]} but only "
                            f"{len(cm.values)} feature rows")
    try:
        fits = {ch: mixture.fit_model(cm.values, ks[ch],
                                      _fit_config(ch, restarts, seed), ch)
                for ch, cm in matrices.items()}
    except (ValueError, FloatingPointError) as exc:
        raise NumericalError(f"fit failed: {exc}") from None
    outputs = []
    for ch, (model, assign) in fits.items():
        artifacts.write_json(out / f"model_{ch}.json",
                             mixture.model_to_dict(model))
        cm, path = matrices[ch], out / f"assignments_{ch}.csv"
        _write_assignments(path, cm, assign.tau, assign.hard)
        artifacts.hand_off((cm.users, cm.user, cm.month, assign.tau,
                            assign.hard), path)
        outputs += [f"model_{ch}.json", f"assignments_{ch}.csv"]
    return outputs


def stage_analyze(params: dict, out: Path, seed: int, read) -> list[str]:
    stab, dom = params["stability"], params["dominance"]
    ch, chars = stab["characterization"], features.CHARACTERIZATIONS
    cm = _read_features(read, ch)
    models = _read_models(read, chars)
    assigned = {c: read(functools.partial(read_assignments, k=models[c].k),
                        f"assignments_{c}.csv") for c in chars}
    # every facet's features come from one filtered.csv
    for c, (users, *_) in assigned.items():
        _same_users(users, cm.users, f"assignments_{c}.csv",
                    f"features_{ch}.csv")
    try:
        stability = analysis.stability_check(
            cm.values, models[ch].k, epsilon=stab["epsilon"],
            delta=stab["delta"], runs=stab["runs"], seed=seed,
            fit_config=_fit_config(ch, restarts=4))
    except ValueError as exc:
        raise DataError(f"stability on facet {ch!r}: {exc}") from None
    shown = ("epsilon_observed", "delta_observed", "runs", "passed",
             "failed_runs")
    report: dict = {"dominance": {}, "migration_support": {},
                    "stability": {"characterization": ch,
                                  **{k: getattr(stability, k) for k in shown}}}
    outputs = []
    for ch, (_, user, month, tau, hard) in assigned.items():
        k = tau.shape[1]
        dom_report = analysis.dominance_check(hard, dom["kappa"], dom["k_max"],
                                              k=k)
        report["dominance"][ch] = {
            "passed": dom_report.passed,
            "shares": [round(float(s), 6) for s in dom_report.shares],
        }
        mig = analysis.migration_matrix(user, month, hard, k)
        report["migration_support"][ch] = int(mig.support.sum())
        artifacts.write_csv(
            out / f"migration_{ch}.csv", [f"to_{j}" for j in range(k)],
            mig.matrix.T)

        table = analysis.center_report(models[ch].centers,
                                       features.CHARACTERIZATION_LABELS[ch],
                                       as_percent=not _amount(ch))
        artifacts.write_csv(out / f"centers_{ch}.csv", table[0],
                            [*map(np.array, zip(*table[1:]))])
        outputs += [f"migration_{ch}.csv", f"centers_{ch}.csv"]

    artifacts.write_json(out / "analyze_report.json", report)
    return outputs + ["analyze_report.json"]


def _same_users(found: tuple, users: tuple, name: str, other: str) -> None:
    """Raise a DataError unless file `name` holds `users`, the users of file
    `other`, naming the first user that only one of the two holds."""
    if found != users:
        first = min(set(found).symmetric_difference(users))
        raise DataError(f"{name} and {other} hold different users: "
                        f"{first!r} is in only one of them")


def stage_ctr(params: dict, out: Path, seed: int, read) -> list[str]:
    recipes = [ctr.FeatureModeRecipe(dict(r)) for r in params["recipes"]]
    exp_cfg = ctr.CtrExperimentConfig(
        lam=params["lambda"], neg_ratio=params["neg_ratio"],
        top_n=params["top_n"], test_fraction=params["test_fraction"],
        seed=seed)
    rs = read(ingest.parse_log, "filtered.csv").record_set
    chars = ctr.CTR_CHARACTERIZATIONS
    matrices = {ch: _read_features(read, ch) for ch in chars}
    for ch, cm in matrices.items():
        _same_users(cm.users, rs.users, f"features_{ch}.csv", "filtered.csv")
    persona = ctr.persona_features(matrices, _read_models(read, chars))
    items = ctr.item_user_sets(rs)
    evaluations = []
    for recipe in recipes:
        evaluation = ctr.run_ctr_experiment(items, persona, recipe, exp_cfg)
        if not evaluation.per_item:  # no test user, or every item skipped
            raise DataError(f"recipe {evaluation.recipe!r} evaluated no item "
                            f"({len(evaluation.skipped)} skipped: a train or "
                            f"test split lacked positive or negative rows)")
        evaluations.append(evaluation)
    row = np.arange(len(recipes))  # each recipe's mode is its row's own text
    artifacts.write_csv(
        out / "ctr_eval.csv",
        ["recency", "genre", "economic", "F", "n", "p", "O_proxy"],
        [*(([r.mode(ch) for r in recipes], row) for ch in ("CR", "DG", "ME")),
         np.array([round(e.mean_auc, 6) for e in evaluations]),
         np.array([round(e.mean_n, 2) for e in evaluations]),
         np.array([e.p for e in evaluations]),
         np.array([round(e.complexity_proxy, 2) for e in evaluations])])
    artifacts.write_json(out / "ctr_diagnostics.json", {
        "kkt_tol": ctr.KKT_TOL, "max_iter": ctr.MAX_ITER,
        "recipes": [e.diagnostics() for e in evaluations]})
    return ["ctr_eval.csv", "ctr_diagnostics.json"]


def stage_cf(params: dict, out: Path, seed: int, read) -> list[str]:
    variant, ch = params["variant"], params["characterization"]
    cfg = cf.FactorConfig(f=params["f"], lr=params["lr"], reg=params["reg"],
                          epochs=params["epochs"], seed=seed)
    rs = read(ingest.parse_log, "filtered.csv").record_set
    # One rating per (user, item) pair, its values summed in row order.
    n_items = len(rs.contents)
    pairs, pair = np.unique(rs.user * n_items + rs.content,
                            return_inverse=True)
    values = np.bincount(pair, weights=rs.cents / 100.0
                         if params["value"] == "spend" else None)
    ratings = np.column_stack([*np.divmod(pairs, n_items), values])

    clusters = static = None
    if variant in cf.CLUSTER_VARIANTS:
        name = f"assignments_{ch}.csv"
        users, user, month, _, hard = read(read_assignments, name)
        _same_users(users, rs.users, name, "filtered.csv")
        # a user's first row must be their month-0 row
        first = np.searchsorted(user, np.arange(len(users)))
        late = np.flatnonzero(month[first] != 0)
        if late.size:
            raise DataError(f"{name} has no month-0 row for user "
                            f"{users[late[0]]!r}")
        clusters = hard[first]
    elif variant == "c":
        cm = _read_features(read, ch)
        _same_users(cm.users, rs.users, f"features_{ch}.csv",
                    "filtered.csv")
        static = features.pool_by_user(cm)
        totals = static.sum(axis=1, keepdims=True)
        static = np.divide(static, totals, out=np.zeros_like(static),
                           where=totals > 0)

    try:
        model = cf.fit_factor(len(rs.users), n_items, ratings, variant,
                              clusters, static, cfg)
    except cf.CfError as exc:
        raise NumericalError(f"training failed: {exc}") from None
    artifacts.write_json(out / "cf_model.json", cf.factor_model_to_dict(model))
    return ["cf_model.json"]


STAGE_FUNCS = dict(zip(STAGES, (stage_synth, stage_ingest, stage_featurize,
                                 stage_cluster, stage_analyze, stage_ctr,
                                 stage_cf)))


def run(config_path, out_dir=None, seed_override: int | None = None,
        only_stage: str | None = None) -> int:
    """Execute configured stages in dependency order; returns an exit code.
    A stage gets its resolved settings, `params`, reads every input through
    `read` before it writes any file, and returns its outputs' names; `run`
    writes its manifest, `params` included."""
    try:
        config = load_config(config_path)
        if seed_override is not None:
            config["seed"] = seed_override
        if only_stage:
            config["stages"] = [only_stage]
        settings = check_config(config)
        top = settings[""]
        out = Path(out_dir or top["out_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: "
                              f"{exc}") from None
        for stage in [s for s in STAGES if s in top["stages"]]:
            inputs: list[str] = []
            params = settings.get(stage, {})
            try:
                outputs = STAGE_FUNCS[stage](
                    params, out, top["seed"],
                    functools.partial(_read_artifact, out, inputs))
            except (DataError, NumericalError) as exc:
                raise type(exc)(f"stage {stage!r}: {exc}") from None
            _write_manifest(out, stage, inputs, outputs, top["seed"], params)
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
