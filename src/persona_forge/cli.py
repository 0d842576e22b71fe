"""Config-driven pipeline orchestration with reproducible stage artifacts."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, artifacts, cf, ctr, features, ingest, mixture, synth

STAGES = ("synth", "ingest", "featurize", "cluster", "analyze", "ctr", "cf")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class NumericalError(Exception):
    pass


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


def _require(out: Path, name: str, stage: str) -> Path:
    path = out / name
    if not path.exists():
        raise DataError(f"stage {stage!r} requires missing artifact {name!r}")
    return path


def _param(section: dict, key: str, cast, default=None, low=None,
           choices=None):
    """`section[key]` (else `default`) converted by `cast`, or a ConfigError
    if that fails or the value is below `low` or not one of `choices`."""
    value = section.get(key, default)
    try:
        value = cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config value {key!r} must be {cast.__name__}, "
                          f"got {value!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"config value {key!r} must be at least {low}, "
                          f"got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"config value {key!r} must be one of "
                          f"{list(choices)}, got {value!r}")
    return value


def _section(parent: dict, key: str) -> dict:
    """The JSON object `parent[key]` (else empty), or a ConfigError."""
    value = parent.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    return value


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _generator_config(section: dict, seed: int) -> synth.GeneratorConfig:
    mixtures = synth.default_mixtures()
    try:
        for ch, spec in _section(section, "mixtures").items():
            mixtures[ch] = synth.PlantedMixture(
                np.array(spec["pi"]), np.array(spec["theta"]),
                tuple(spec.get("niche", ())))
        spend = None
        if section.get("price_mode", "tf") == "me":
            sm = section.get("spend_model")
            spend = (synth.default_spend_model() if sm is None else
                     synth.SpendModel(np.array(sm["pi"]),
                                      np.array(sm["centers"]),
                                      tuple(sm.get("niche", ()))))
        return synth.GeneratorConfig(
            n_users=_param(section, "n_users", int),
            months_per_user=_param(section, "months_per_user", int),
            seed=seed,
            mixtures=mixtures,
            spend_model=spend,
            price_mode=section.get("price_mode", "tf"),
            poisson_mean=section.get("poisson_mean", 8.0),
            migration_rate=section.get("migration_rate", 0.0),
            items_per_cell=_param(section, "items_per_cell", int, 2),
        )
    except KeyError as exc:
        raise ConfigError(f"invalid synth config: missing key {exc}") from None
    except (synth.GeneratorError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synth config: {exc}") from None


def stage_synth(config: dict, out: Path, seed: int) -> None:
    section = _section(config, "synth")
    gen_cfg = _generator_config(section, seed)
    rs, gt = synth.generate(gen_cfg)
    ingest.write_log(rs, out / "log.csv")
    synth.write_ground_truth(gt, out / "ground_truth.csv")
    _write_manifest(out, "synth", [], ["log.csv", "ground_truth.csv"],
                    seed, section)


def stage_ingest(config: dict, out: Path, seed: int) -> None:
    section = _section(config, "ingest")
    source = section.get("input")
    if source is not None and not isinstance(source, str):
        raise ConfigError(f"config value 'input' must be a path, got {source!r}")
    if source:
        path = Path(source)
        inputs: list[str] = []
    else:
        path = _require(out, "log.csv", "ingest")
        inputs = ["log.csv"]
    try:
        result = ingest.parse_log(path)
    except (ingest.IngestError, OSError, UnicodeDecodeError) as exc:
        raise DataError(str(exc)) from None
    rs = result.record_set
    if section.get("filter", True):
        rs = ingest.filter_inactive(rs)
    ingest.write_log(rs, out / "filtered.csv")
    artifacts.write_json(out / "ingest_diagnostics.json",
                         [{"row": d.row, "message": d.message}
                          for d in result.diagnostics])
    _write_manifest(out, "ingest", inputs,
                    ["filtered.csv", "ingest_diagnostics.json"], seed, section)


def _load_records(out: Path, stage: str) -> tuple[str, ingest.RecordSet]:
    """(artifact name, records) of the filtered log, else the raw log."""
    for name in ("filtered.csv", "log.csv"):
        if (out / name).exists():
            return name, ingest.parse_log(out / name).record_set
    raise DataError(f"stage {stage!r} requires 'filtered.csv' or 'log.csv'")


def stage_featurize(config: dict, out: Path, seed: int) -> None:
    log_name, rs = _load_records(out, "featurize")
    months = features.tenure_align(rs)
    outputs = []
    for ch in features.CHARACTERIZATIONS:
        cm = features.aggregate(rs, months, ch)
        name = f"features_{ch}.csv"
        features.write_matrix(cm, out / name)
        outputs += [name, name + ".json"]
    _write_manifest(out, "featurize", [log_name], outputs, seed, {})


def _read_features(out: Path, ch: str, stage: str,
                   inputs: list[str]) -> features.CharacterizationMatrix:
    """Read `features_<ch>.csv` and its sidecar; record both as inputs."""
    name = f"features_{ch}.csv"
    path = _require(out, name, stage)
    _require(out, name + ".json", stage)
    inputs += [name, name + ".json"]
    return features.read_matrix(path)


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
    return keys, np.array(taus), np.array(hards, dtype=np.int64)


def stage_cluster(config: dict, out: Path, seed: int) -> None:
    section = _section(config, "cluster")
    ks = dict(features.DEFAULT_K)
    ks.update(_section(section, "k"))
    ks = {ch: _param(ks, ch, int, low=1) for ch in ks}
    restarts = _param(section, "restarts", int, 5)
    inputs, outputs = [], []
    try:
        for ch in features.CHARACTERIZATIONS:
            cm = _read_features(out, ch, "cluster", inputs)
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


def _load_model(out: Path, ch: str, stage: str, inputs: list[str]):
    """Read `model_<ch>.json`; record it as an input."""
    path = _require(out, f"model_{ch}.json", stage)
    inputs.append(path.name)
    return mixture.model_from_json(path.read_text(encoding="utf-8"))


def stage_analyze(config: dict, out: Path, seed: int) -> None:
    section = _section(config, "analyze")
    inputs, outputs = [], []
    report: dict = {"dominance": {}, "migration_support": {}}

    stab = _section(section, "stability")
    ch = _param(stab, "characterization", str, "TF",
                choices=features.CHARACTERIZATIONS)
    epsilon = _param(stab, "epsilon", float, 0.05)
    delta = _param(stab, "delta", float, 0.10)
    runs = _param(stab, "runs", int, 4, low=2)
    dom = _section(section, "dominance")
    kappa = _param(dom, "kappa", float, 0.02)
    k_max = _param(dom, "k_max", int, 6)

    cm = _read_features(out, ch, "analyze", inputs)
    stability = analysis.stability_check(
        cm.values, _load_model(out, ch, "analyze", inputs).k,
        epsilon=epsilon, delta=delta, runs=runs, seed=seed,
        method="kmeans" if ch == "ME" else "em")
    shown = ("epsilon_observed", "delta_observed", "runs", "passed",
             "failed_runs")
    report["stability"] = {"characterization": ch,
                           **{k: getattr(stability, k) for k in shown}}

    for ch in features.CHARACTERIZATIONS:
        name = f"assignments_{ch}.csv"
        keys, tau, hard = read_assignments(_require(out, name, "analyze"))
        k = tau.shape[1]
        inputs.append(name)
        dom_report = analysis.dominance_check(hard, kappa, k_max, k=k)
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

        model = _load_model(out, ch, "analyze", inputs)
        centers = model.theta if isinstance(model, mixture.MixtureModel) else model.centers
        table = analysis.center_report(centers,
                                       features.CHARACTERIZATION_LABELS[ch],
                                       as_percent=ch != "ME")
        artifacts.write_csv(out / f"centers_{ch}.csv", table[0], table[1:])
        outputs.append(f"centers_{ch}.csv")

    artifacts.write_json(out / "analyze_report.json", report)
    outputs.append("analyze_report.json")
    _write_manifest(out, "analyze", sorted(set(inputs)), outputs, seed, section)


def stage_ctr(config: dict, out: Path, seed: int) -> None:
    section = _section(config, "ctr")
    try:
        recipes = [ctr.FeatureModeRecipe(dict(r)) for r in section.get(
            "recipes", [{"CR": "c", "DG": "c", "ME": "c"}])]
    except (ctr.CtrError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid ctr recipe: {exc}") from None
    exp_cfg = ctr.CtrExperimentConfig(
        lam=_param(section, "lambda", float, 2e-3),
        neg_ratio=_param(section, "neg_ratio", int, 5),
        top_n=_param(section, "top_n", int, 20),
        test_fraction=_param(section, "test_fraction", float, 0.2),
        seed=seed)
    log_name, rs = _load_records(out, "ctr")
    inputs = [log_name]
    chars = ctr.CTR_CHARACTERIZATIONS
    try:
        persona = ctr.persona_features(
            {ch: _read_features(out, ch, "ctr", inputs) for ch in chars},
            {ch: _load_model(out, ch, "ctr", inputs) for ch in chars})
    except ctr.CtrError as exc:
        raise DataError(f"stage 'ctr': {exc}") from None
    items = ctr.item_user_sets(rs)
    rows = []
    for recipe in recipes:
        evaluation = ctr.run_ctr_experiment(items, persona, recipe, exp_cfg)
        rows.append([recipe.mode("CR"), recipe.mode("DG"), recipe.mode("ME"),
                     repr(round(evaluation.mean_auc, 6)),
                     repr(round(evaluation.mean_n, 2)), evaluation.p,
                     repr(round(evaluation.complexity_proxy, 2))])
    artifacts.write_csv(out / "ctr_eval.csv",
                        ["recency", "genre", "economic", "F", "n", "p",
                         "O_proxy"], rows)
    _write_manifest(out, "ctr", inputs, ["ctr_eval.csv"], seed, section)


def _per_rated_user(users, table: dict, name: str) -> list:
    missing = [u for u in users if u not in table]
    if missing:
        raise DataError(f"stage 'cf': {len(missing)} rated user(s) have "
                        f"no row in {name!r}, first {missing[0]!r}")
    return [table[u] for u in users]


def stage_cf(config: dict, out: Path, seed: int) -> None:
    section = _section(config, "cf")
    variant = _param(section, "variant", str, "vanilla", choices=cf.VARIANTS)
    value = _param(section, "value", str, "count", choices=("count", "spend"))
    ch = _param(section, "characterization", str, "TF",
                choices=features.CHARACTERIZATIONS)
    cfg = cf.FactorConfig(
        f=_param(section, "f", int, 8, low=1),
        lr=_param(section, "lr", float, 0.02),
        reg=_param(section, "reg", float, 0.02),
        epochs=_param(section, "epochs", int, 20, low=1), seed=seed)
    log_name, rs = _load_records(out, "cf")
    # One rating per (user, item) pair, its values summed in row order.
    n_items = len(rs.contents)
    pairs, pair = np.unique(rs.user * n_items + rs.content,
                            return_inverse=True)
    values = np.bincount(pair, weights=rs.cents / 100.0 if value == "spend"
                         else None)
    ratings = list(zip(*np.divmod(pairs, n_items), values.tolist()))

    clusters = static = None
    inputs = [log_name]
    if variant in ("a", "b", "d"):
        name = f"assignments_{ch}.csv"
        keys, _, hard = read_assignments(_require(out, name, "cf"))
        inputs.append(name)
        label: dict[str, int] = {}
        for (user, month), lab in zip(keys, hard):
            if user not in label or month == 0:
                label[user] = int(lab)
        clusters = np.array(_per_rated_user(rs.users, label, name))
    elif variant == "c":
        cm = _read_features(out, ch, "cf", inputs)
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
    _write_manifest(out, "cf", inputs, ["cf_model.json"], seed, section)


_ERRORS = {ConfigError: ("validation", EXIT_CONFIG),
           DataError: ("data", EXIT_DATA),
           NumericalError: ("numerical", EXIT_NUMERICAL)}

STAGE_FUNCS = dict(zip(STAGES, (stage_synth, stage_ingest, stage_featurize,
                                 stage_cluster, stage_analyze, stage_ctr,
                                 stage_cf)))


def run(config_path, out_dir=None, seed_override: int | None = None,
        only_stage: str | None = None) -> int:
    """Execute configured stages in dependency order; returns an exit code."""
    try:
        config = load_config(config_path)
        stages = [only_stage] if only_stage else config.get("stages", list(STAGES))
        if not isinstance(stages, list):
            raise ConfigError(f"config value 'stages' must be a list, "
                              f"got {stages!r}")
        for stage in stages:
            if not isinstance(stage, str) or stage not in STAGE_FUNCS:
                raise ConfigError(f"unknown stage {stage!r}")
        out = out_dir or config.get("out_dir", ".")
        if not isinstance(out, (str, os.PathLike)):
            raise ConfigError(f"config value 'out_dir' must be a path, "
                              f"got {out!r}")
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        seed = _param(config if seed_override is None
                      else {"seed": seed_override}, "seed", int, 0, low=0)
        for stage in stages:
            STAGE_FUNCS[stage](config, out, seed)
    except (ConfigError, DataError, NumericalError) as exc:
        kind, code = _ERRORS[type(exc)]
        print(json.dumps({"error": kind, "message": str(exc)}),
              file=sys.stderr)
        return code
    return EXIT_OK


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
