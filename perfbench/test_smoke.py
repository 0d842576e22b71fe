"""Smoke test of the benchmark itself at a tiny size.

Not part of the repository's test suite (pytest collects ``tests/`` only).
Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.25"
RUNS: dict[tuple[str, int], tuple[dict, list[str]]] = {}


def _run(workload: str, trace: int) -> tuple[dict, list[str]]:
    if (workload, trace) not in RUNS:
        RUNS[workload, trace] = _launch(workload, trace)
    return RUNS[workload, trace]


def _launch(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def test_workloads_and_layer_metrics_match_spec():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": tracing.better(n)}
        for n, u in tracing.per_layer_names()]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, lines = _run(workload, 0)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    assert printed["failed_ratio"] == "ratio"
    quality = {"label_agreement", "stability_eps", "ctr_auc.c", "ctr_auc.s",
               "cf_rmse"}
    assert (quality <= set(printed)) == (workload == "pipeline_s")
    assert not [line for line in lines if line.startswith("problem")]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_runs_of_one_seed_leave_the_same_artifacts(workload):
    digests = [next(line for line in _run(workload, trace)[1]
                    if line.startswith("out_digest ")) for trace in (0, 1)]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_spans_nest_and_name_every_layer_metric(workload):
    result, lines = _run(workload, 1)
    assert result["correct"], lines
    want = dict(tracing.per_layer_names())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(values[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)
    ran_ctr_cf = values["ctr.fit_item_model.calls"] + values[
        "cf.fit_factor.calls"] > 0
    assert ran_ctr_cf == (workload == "pipeline_s")
    if workload == "ingest_dirty_l":
        assert values["ingest.reject_ratio"] > 0
        assert values["ingest.filter_kept_ratio"] < 1
        assert values["mixture.fit_em.calls"] == 0
        assert values["ingest.self_s"] + values["features.self_s"] >= \
            0.8 * values["trace.wall_s"]


def test_corruption_counts_are_what_ingest_must_report(tmp_path):
    clean = tmp_path / "clean.csv"
    header = "user_id,timestamp,region_offset_minutes,content_id,txn_type," \
             "net_price,genre,release_year\n"
    rows = [f"u{u},{1400000000 + 86400 * d},0,c{d},P,5.00,Drama,2010\n"
            for u in range(40) for d in range(5)]
    clean.write_text(header + "".join(rows))
    counts = workloads.corrupt_log(clean, tmp_path / "dirty.csv", seed=3)
    assert counts["malformed"] == round(0.05 * 200)
    assert counts["duplicates"] == round(0.01 * 200)
    assert counts["sub_dollar_rows"] == round(0.05 * 40)
    dirty = (tmp_path / "dirty.csv").read_text().splitlines()
    assert len(dirty) - 1 == 200 + sum(counts[k] for k in
                                       ("malformed", "duplicates",
                                        "sub_dollar_rows"))
    # Every clean row survives the filter; the injected ones must not.
    assert checks.expected_filtered_rows(clean) == 200

    out = tmp_path / "out"
    out.mkdir()
    (tmp_path / "injected.json").write_text(json.dumps(counts))
    (out / "ingest_diagnostics.json").write_text(json.dumps(
        [{}] * (counts["malformed"] + counts["duplicates"])))
    (out / "filtered.csv").write_text(header + "".join(rows))
    assert checks.dirty_ingest_problems(out, tmp_path, 200) == []
    assert checks.dirty_ingest_problems(out, tmp_path, 199)
    (out / "ingest_diagnostics.json").write_text("[]")
    assert checks.dirty_ingest_problems(out, tmp_path, 200)


def test_span_tree_flags_spans_that_do_not_nest():
    good = [[0, -1, "cli.stage_ingest", 0, 100, "r", None],
            [1, 0, "ingest.parse_log", 10, 60, "r", None],
            [2, 0, "ingest.write_log", 60, 90, "r", None]]
    tree = tracing.SpanTree(good)
    assert tree.problems == []
    assert tree.self_seconds("cli.stage_ingest") == 20 / 1e9
    bad = good + [[3, 0, "ingest.write_log", 80, 120, "r", None]]
    assert tracing.SpanTree(bad).problems
