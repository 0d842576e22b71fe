"""Traced-run mode: spans around the program's public functions.

``install`` replaces module attributes of ``persona_forge`` with wrappers in
the calling process only. A function is wrapped once and the wrapper is put
under every name that held it, including names that other modules imported
directly (``analysis.fit_em``, ``ctr.soft_features``, ...) and the entries of
``cli.STAGE_FUNCS``. A span is named after the module that defines the
function, which is its layer. Spans stay in memory until ``dump``.

``layer_metrics`` turns a span file into the per-layer metrics. A wrapped
name that a later version of the program no longer has gets no span, and
the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

LAYERS = ("cli", "synth", "ingest", "features", "mixture", "analysis", "ctr",
          "cf")
STAGES = ("synth", "ingest", "featurize", "cluster", "analyze", "ctr", "cf")
FACETS = ("TF", "DG", "CR", "TDT")


def _arg(fn, args, kwargs, name, default=None):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return bound.arguments.get(name, default)


def _generate(fn, args, kwargs, result):
    return {"rows": len(result[0])}


def _parse_log(fn, args, kwargs, result):
    rejected = len(result.diagnostics)
    return {"path": str(_arg(fn, args, kwargs, "path")),
            "rows": len(result.record_set) + rejected, "rejected": rejected}


def _filter_inactive(fn, args, kwargs, result):
    return {"rows_in": len(_arg(fn, args, kwargs, "rs")),
            "rows_out": len(result)}


def _fit_em(fn, args, kwargs, result):
    from persona_forge import mixture

    config = _arg(fn, args, kwargs, "config") or mixture.EMConfig()
    return {"max_iter": config.max_iter}


def _m_step(fn, args, kwargs, result):
    # fit_em passes ``reseed`` only from inside its iteration loop, and True
    # only when a starved cluster is re-seeded.
    return {"loop": "reseed" in kwargs, "reseed": kwargs.get("reseed") is True}


def _stability(fn, args, kwargs, result):
    return {"runs": result.runs, "failed": len(result.failed_runs)}


def _fit_item(fn, args, kwargs, result):
    return {"converged": bool(result.converged)}


def _ctr_experiment(fn, args, kwargs, result):
    return {"evaluated": len(result.per_item), "skipped": len(result.skipped)}


def _fit_factor(fn, args, kwargs, result):
    from persona_forge import cf

    config = _arg(fn, args, kwargs, "config") or cf.FactorConfig()
    return {"ratings": len(_arg(fn, args, kwargs, "ratings")),
            "variant": _arg(fn, args, kwargs, "variant", "vanilla"),
            "epochs": config.epochs}


# (module, attribute, attribute recorder). ``cf._rmse`` is private but is
# the only hook on the per-epoch RMSE pass that fit_factor makes.
TARGETS = (
    *(("cli", f"stage_{s}", None) for s in STAGES),
    ("cli", "read_assignments", None),
    ("synth", "generate", _generate),
    ("synth", "write_ground_truth", None),
    ("ingest", "parse_log", _parse_log),
    ("ingest", "filter_inactive", _filter_inactive),
    ("ingest", "write_log", None),
    ("features", "tenure_align", None),
    ("features", "aggregate", None),
    ("features", "write_matrix", None),
    ("features", "read_matrix", None),
    ("mixture", "fit_em", _fit_em),
    ("mixture", "fit_kmeans", None),
    ("mixture", "e_step", None),
    ("mixture", "m_step", _m_step),
    ("mixture", "penalized_loglik", None),
    ("mixture", "soft_features", None),
    ("mixture", "hard_labels", None),
    ("analysis", "stability_check", _stability),
    ("analysis", "migration_matrix", None),
    ("analysis", "dominance_check", None),
    ("analysis", "center_report", None),
    ("ctr", "item_user_sets", None),
    ("ctr", "persona_features", None),
    ("ctr", "build_dataset", None),
    ("ctr", "fit_item_model", _fit_item),
    ("ctr", "smooth_gradient", None),
    ("ctr", "auc_score", None),
    ("ctr", "run_ctr_experiment", _ctr_experiment),
    ("cf", "fit_factor", _fit_factor),
    ("cf", "_rmse", None),
)


class Tracer:
    """Collects spans ``[id, parent, name, start_ns, end_ns, run_id, attrs]``
    from one thread. Spans share ``run_id`` while the caller leaves it
    unchanged; the benchmark sets one per input set."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[list] = []

    def wrap(self, fn, name: str, recorder=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else -1, name, 0, 0,
                    self.run_id, None]
            spans.append(span)
            stack.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if recorder is not None:
                span[6] = recorder(fn, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every function in TARGETS under all the names that hold it."""
    import importlib

    modules = {layer: importlib.import_module(f"persona_forge.{layer}")
               for layer in LAYERS}
    stage_funcs = modules["cli"].STAGE_FUNCS
    for layer, attr, recorder in TARGETS:
        original = getattr(modules[layer], attr, None)
        if original is None:
            continue
        name = f"{layer}.{attr.lstrip('_')}"
        wrapped = tracer.wrap(original, name, recorder)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        for key, value in stage_funcs.items():
            if value is original:
                stage_funcs[key] = wrapped


# ---------------------------------------------------------------------------
# Span analysis

def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for s in STAGES:
        names += [(f"cli.stage_{s}.s", "s"), (f"cli.stage_{s}.self_s", "s")]
    names += [("cli.read_assignments.s", "s"),
              ("cli.read_assignments.calls", "count"),
              ("synth.generate.s", "s"), ("synth.rows_out", "count"),
              ("synth.write_ground_truth.s", "s"),
              ("ingest.parse_log.s", "s"), ("ingest.parse_log.calls", "count"),
              ("ingest.parse_log.unique_ratio", "ratio"),
              ("ingest.rows_parsed", "count"), ("ingest.us_per_row", "us"),
              ("ingest.reject_ratio", "ratio"),
              ("ingest.filter_inactive.s", "s"),
              ("ingest.filter_kept_ratio", "ratio"),
              ("ingest.write_log.s", "s"),
              ("features.tenure_align.s", "s"), ("features.aggregate.s", "s"),
              ("features.aggregate.calls", "count"),
              ("features.write_matrix.s", "s"), ("features.read_matrix.s", "s"),
              ("features.read_matrix.calls", "count"),
              ("features.user_months", "count")]
    names += [(f"features.unique_row_ratio.{ch}", "ratio") for ch in FACETS]
    names += [("mixture.fit_em.s", "s"), ("mixture.fit_em.calls", "count"),
              ("mixture.fit_kmeans.s", "s"),
              ("mixture.fit_kmeans.calls", "count"),
              ("mixture.e_step.s", "s"), ("mixture.e_step.calls", "count"),
              ("mixture.m_step.s", "s"), ("mixture.penalized_loglik.s", "s"),
              ("mixture.ms_per_em_iter", "ms"), ("mixture.reseeds", "count"),
              ("mixture.fit_em.maxiter_ratio", "ratio"),
              ("mixture.soft_features.s", "s"), ("mixture.hard_labels.s", "s"),
              ("analysis.stability_check.s", "s"),
              ("analysis.stability_check.self_s", "s"),
              ("analysis.stability_failed_ratio", "ratio"),
              ("analysis.migration_matrix.s", "s"),
              ("analysis.dominance_check.s", "s"),
              ("analysis.center_report.s", "s"),
              ("ctr.item_user_sets.s", "s"), ("ctr.persona_features.s", "s"),
              ("ctr.build_dataset.s", "s"), ("ctr.build_dataset.calls", "count"),
              ("ctr.fit_item_model.s", "s"),
              ("ctr.fit_item_model.calls", "count"),
              ("ctr.smooth_gradient.calls", "count"),
              ("ctr.iters_per_fit", "count"), ("ctr.converged_ratio", "ratio"),
              ("ctr.items_skipped_ratio", "ratio"), ("ctr.auc_score.s", "s"),
              ("cf.fit_factor.s", "s"), ("cf.fit_factor.calls", "count"),
              ("cf.ratings", "count"), ("cf.sgd_steps", "count"),
              ("cf.us_per_sgd_step", "us"), ("cf.rmse.s", "s")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("trace.wall_s", "s"), ("trace.overhead_s", "s"),
              ("trace.spans", "count")]
    return names


# Per-layer metrics where a higher value is better; for the rest (times,
# call counts, per-unit costs, waste ratios) lower is better. Input sizes
# such as rows and user-months are listed as "lower" by convention only:
# they describe the workload and no change to the program should move them.
HIGHER_IS_BETTER = {"ingest.parse_log.unique_ratio", "ctr.converged_ratio",
                    "ingest.filter_kept_ratio"}


def better(name: str) -> str:
    return "higher" if name in HIGHER_IS_BETTER else "lower"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanTree:
    """Spans of one traced run with durations, self times and nesting."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[list]] = {}
        for span in spans:
            self.children.setdefault(span[1], []).append(span)
        self.self_ns = {}
        self.problems: list[str] = []
        for span in spans:
            kids = self.children.get(span[0], [])
            covered, last_end = 0, span[3]
            for kid in kids:
                if kid[3] < last_end or kid[4] > span[4] or kid[4] < kid[3]:
                    self.problems.append(
                        f"span {kid[0]} {kid[2]} does not nest in "
                        f"{span[0]} {span[2]}")
                covered += kid[4] - kid[3]
                last_end = kid[4]
            self.self_ns[span[0]] = span[4] - span[3] - covered
            if self.self_ns[span[0]] < 0:
                self.problems.append(f"span {span[0]} {span[2]} has negative "
                                     "self time")

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[2] == name]

    def outermost(self, name: str) -> list[list]:
        """Spans of ``name`` not nested in another span of the same name."""
        out = []
        for span in self.named(name):
            parent = span[1]
            while parent != -1 and self.by_id[parent][2] != name:
                parent = self.by_id[parent][1]
            if parent == -1:
                out.append(span)
        return out

    def seconds(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.outermost(name)) / 1e9

    def self_seconds(self, name: str) -> float:
        return sum(self.self_ns[s[0]] for s in self.named(name)) / 1e9

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def layer_self(self, layer: str) -> float:
        return sum(self.self_ns[s[0]] for s in self.spans
                   if s[2].split(".", 1)[0] == layer) / 1e9

    def attr_sum(self, name: str, key: str) -> float:
        return sum((s[6] or {}).get(key, 0) for s in self.named(name))


def _em_counts(tree: SpanTree) -> tuple[int, int, int]:
    """(EM iterations, restarts, restarts that ran to max_iter)."""
    iters = restarts = capped = 0
    for fit in tree.named("mixture.fit_em"):
        max_iter = (fit[6] or {}).get("max_iter", 0)
        run = None
        for kid in tree.children.get(fit[0], []):
            if kid[2] != "mixture.m_step":
                continue
            if (kid[6] or {}).get("loop"):
                iters += 1
                run = (run or 0) + 1
            else:
                if run is not None and run >= max_iter:
                    capped += 1
                restarts += 1
                run = 0
        if run is not None and run >= max_iter:
            capped += 1
    return iters, restarts, capped


def layer_metrics(spans: list[list], inputs: dict) -> tuple[dict, list[str]]:
    """Per-layer metric values from the spans of one traced run.

    ``inputs`` carries the input properties read from the run's artifacts
    (``user_months`` and ``unique_row_ratio`` per facet), the traced wall
    time (``traced_wall_s``) and the tracing overhead (``overhead_s``).
    Returns the metrics and any nesting problems.
    """
    t = SpanTree(spans)
    m: dict[str, float] = {}
    for s in STAGES:
        m[f"cli.stage_{s}.s"] = t.seconds(f"cli.stage_{s}")
        m[f"cli.stage_{s}.self_s"] = t.self_seconds(f"cli.stage_{s}")
    m["cli.read_assignments.s"] = t.seconds("cli.read_assignments")
    m["cli.read_assignments.calls"] = t.calls("cli.read_assignments")

    m["synth.generate.s"] = t.seconds("synth.generate")
    m["synth.rows_out"] = t.attr_sum("synth.generate", "rows")
    m["synth.write_ground_truth.s"] = t.seconds("synth.write_ground_truth")

    parse = t.named("ingest.parse_log")
    rows = t.attr_sum("ingest.parse_log", "rows")
    m["ingest.parse_log.s"] = t.seconds("ingest.parse_log")
    m["ingest.parse_log.calls"] = len(parse)
    m["ingest.parse_log.unique_ratio"] = _ratio(
        len({(s[6] or {}).get("path") for s in parse}), len(parse))
    m["ingest.rows_parsed"] = rows
    m["ingest.us_per_row"] = _ratio(m["ingest.parse_log.s"] * 1e6, rows)
    m["ingest.reject_ratio"] = _ratio(
        t.attr_sum("ingest.parse_log", "rejected"), rows)
    m["ingest.filter_inactive.s"] = t.seconds("ingest.filter_inactive")
    m["ingest.filter_kept_ratio"] = _ratio(
        t.attr_sum("ingest.filter_inactive", "rows_out"),
        t.attr_sum("ingest.filter_inactive", "rows_in"))
    m["ingest.write_log.s"] = t.seconds("ingest.write_log")

    for f in ("tenure_align", "aggregate", "write_matrix", "read_matrix"):
        m[f"features.{f}.s"] = t.seconds(f"features.{f}")
    m["features.aggregate.calls"] = t.calls("features.aggregate")
    m["features.read_matrix.calls"] = t.calls("features.read_matrix")
    m["features.user_months"] = inputs["user_months"]
    for ch in FACETS:
        m[f"features.unique_row_ratio.{ch}"] = inputs["unique_row_ratio"][ch]

    iters, restarts, capped = _em_counts(t)
    for f in ("fit_em", "fit_kmeans", "e_step"):
        m[f"mixture.{f}.s"] = t.seconds(f"mixture.{f}")
        m[f"mixture.{f}.calls"] = t.calls(f"mixture.{f}")
    for f in ("m_step", "penalized_loglik", "soft_features", "hard_labels"):
        m[f"mixture.{f}.s"] = t.seconds(f"mixture.{f}")
    m["mixture.ms_per_em_iter"] = _ratio(m["mixture.fit_em.s"] * 1e3, iters)
    m["mixture.reseeds"] = sum(1 for s in t.named("mixture.m_step")
                               if (s[6] or {}).get("reseed"))
    m["mixture.fit_em.maxiter_ratio"] = _ratio(capped, restarts)

    m["analysis.stability_check.s"] = t.seconds("analysis.stability_check")
    m["analysis.stability_check.self_s"] = t.self_seconds(
        "analysis.stability_check")
    m["analysis.stability_failed_ratio"] = _ratio(
        t.attr_sum("analysis.stability_check", "failed"),
        t.attr_sum("analysis.stability_check", "runs"))
    for f in ("migration_matrix", "dominance_check", "center_report"):
        m[f"analysis.{f}.s"] = t.seconds(f"analysis.{f}")

    for f in ("item_user_sets", "persona_features", "build_dataset",
              "fit_item_model", "auc_score"):
        m[f"ctr.{f}.s"] = t.seconds(f"ctr.{f}")
    fits = t.calls("ctr.fit_item_model")
    m["ctr.build_dataset.calls"] = t.calls("ctr.build_dataset")
    m["ctr.fit_item_model.calls"] = fits
    m["ctr.smooth_gradient.calls"] = t.calls("ctr.smooth_gradient")
    m["ctr.iters_per_fit"] = _ratio(m["ctr.smooth_gradient.calls"], fits)
    m["ctr.converged_ratio"] = _ratio(
        t.attr_sum("ctr.fit_item_model", "converged"), fits)
    evaluated = t.attr_sum("ctr.run_ctr_experiment", "evaluated")
    skipped = t.attr_sum("ctr.run_ctr_experiment", "skipped")
    m["ctr.items_skipped_ratio"] = _ratio(skipped, evaluated + skipped)

    top = t.outermost("cf.fit_factor")
    m["cf.fit_factor.s"] = t.seconds("cf.fit_factor")
    m["cf.fit_factor.calls"] = t.calls("cf.fit_factor")
    m["cf.ratings"] = sum((s[6] or {}).get("ratings", 0) for s in top)
    m["cf.sgd_steps"] = sum(a.get("ratings", 0) * a.get("epochs", 0)
                            for a in (s[6] or {} for s
                                      in t.named("cf.fit_factor"))
                            if a.get("variant") != "d")
    m["cf.rmse.s"] = t.seconds("cf.rmse")
    m["cf.us_per_sgd_step"] = _ratio(
        (m["cf.fit_factor.s"] - m["cf.rmse.s"]) * 1e6, m["cf.sgd_steps"])

    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self(layer)
    m["trace.wall_s"] = inputs["traced_wall_s"]
    m["trace.overhead_s"] = inputs["overhead_s"]
    m["trace.spans"] = len(spans)
    return m, t.problems
