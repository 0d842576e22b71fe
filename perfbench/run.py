"""Benchmark of the persona-forge pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_s --seed 1 --seconds 40 --trace 0

Each set-up and each timed repetition runs in a fresh process (worker.py)
with the BLAS/OpenMP pools and PERSONA_FORGE_THREADS pinned to 1. Set-up
runs at least SETUP_REPS times and for SETUP_SECONDS; timed repetitions run
while the next one still ends within ``--seconds``, at least MIN_REPS of
them; medians are reported, for ``wall_s`` per stage call, and the times are
scaled by the machine's speed (see CALIBRATION_REF_S). Every
repetition's artifacts are checked (checks.py); repetitions of one seed must
produce the same artifact bytes. ``--trace 1`` adds one
traced repetition and reports the per-layer metrics instead of the
end-to-end ones. See README.md for the workloads and metrics.

Human-readable report lines go to stdout first; the last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3        # at least, and until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
MIN_REPS = 3
DEADLINE_S = 170.0   # a run must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PERSONA_FORGE_THREADS": "1"}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# wall_s is scaled to a machine on which worker.calibrate() takes
# CALIBRATION_REF_S, its median over the baseline runs in README.md: the
# speed of a shared 2-vCPU VM drifts by up to ±25 % between runs, and every
# stage of a run, fixed work too, moves with it. Set-up time, mostly process
# start and imports, does not follow the calibration; it is reported as
# measured.
CALIBRATION_REF_S = 0.0138
QUALITY_UNITS = {"label_agreement": "ratio", "stability_eps": "l2",
                 "ctr_auc.c": "auc", "ctr_auc.s": "auc", "cf_rmse": "rating"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, scale: float):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
        self.expected_rows: dict[str, int] = {}

    def child(self, *args: str) -> float:
        """Run one worker process to completion; returns its wall time."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next process")
        env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
        env.pop("PYTHONPATH", None)
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-s", str(BENCH_DIR / "worker.py"), *args],
                cwd=self.root, env=env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran out of time") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}")
        return time.perf_counter() - start

    def setup(self) -> tuple[Path, list[float], int]:
        """Prepare the inputs several times; keep the first copy."""
        walls, digests = [], set()
        start = time.perf_counter()
        while (len(walls) < SETUP_REPS
               or time.perf_counter() - start < SETUP_SECONDS):
            i = len(walls)
            dest = self.work / f"setup{i}"
            walls.append(self.child(
                "setup", "--workload", self.workload.name,
                "--seed", str(self.seed), "--scale", repr(self.scale),
                "--dest", str(dest)))
            digests.add(checks.tree_digest(dest))
            if i:
                shutil.rmtree(dest)
        return self.work / "setup0", walls, len(digests)

    def repetition(self, prep: Path, name: str, spans: Path | None = None):
        """One timed repetition in a fresh process, then its checks."""
        out = self.work / name
        for j in range(self.workload.sets):
            shutil.copytree(prep / f"set{j}" / "inputs", out / f"set{j}")
        result_path = self.work / f"{name}.json"
        args = ["timed", "--prep", str(prep), "--out", str(out),
                "--result", str(result_path)]
        if spans is not None:
            args += ["--spans", str(spans),
                     "--run-id", f"{self.workload.name}-{self.seed}"]
        self.child(*args)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["out"] = out
        result["problems"], quality = {}, []
        for j in range(self.workload.sets):
            set_name = f"set{j}"
            found, q = self.check(out / set_name, prep / set_name,
                                  result["codes"].get(set_name, {}))
            result["problems"].update(
                {(set_name, stage): p for stage, p in found.items()})
            quality.append(q)
        result["quality"] = {key: statistics.fmean(q[key] for q in quality)
                             for key in quality[0]} if all(quality) else {}
        result["digest"] = checks.tree_digest(out)
        return result

    def check(self, out: Path, prep: Path, codes: dict):
        """Problems per stage of one input set, and its quality metrics."""
        problems: dict[str, list[str]] = {}
        for stage in self.workload.timed_stages:
            code = codes.get(stage)
            if code is None:
                problems[stage] = [f"{stage}: not run"]
            elif code != 0:
                problems[stage] = [f"{stage}: exit code {code}"]
            else:
                found = checks.stage_problems(out, stage)
                if found:
                    problems[stage] = found
        if problems:
            return problems, {}
        # Artifacts that exist but cannot be read are a failed check too.
        unreadable = (OSError, ValueError, KeyError, IndexError, TypeError)
        if self.workload.name == "ingest_dirty_l":
            reference = prep / "reference"
            key = str(prep)
            if key not in self.expected_rows:
                self.expected_rows[key] = checks.expected_filtered_rows(
                    reference / "clean_log.csv")
            try:
                found = checks.dirty_ingest_problems(out, reference,
                                                     self.expected_rows[key])
            except unreadable as exc:
                found = [f"ingest: unreadable artifact: {exc!r}"]
            if found:
                problems["ingest"] = found
            return problems, {}
        try:
            quality = checks.quality(out)
        except unreadable as exc:
            return {self.workload.timed_stages[-1]:
                    [f"unreadable artifact: {exc!r}"]}, {}
        for stage, found in checks.quality_problems(quality).items():
            problems.setdefault(stage, []).extend(found)
        return problems, quality

    def run(self, seconds: float, trace: bool) -> dict:
        prep, setup_walls, setup_variants = self.setup()
        reps: list[dict] = []
        start = time.perf_counter()
        cycle = 0.0   # duration of the last repetition, process and checks
        while len(reps) < MIN_REPS or (
                time.perf_counter() - start + cycle <= seconds
                and time.monotonic() + 2 * cycle < self.deadline):
            began = time.perf_counter()
            rep = self.repetition(prep, f"rep{len(reps)}")
            cycle = time.perf_counter() - began
            if reps:
                shutil.rmtree(reps[-1]["out"])
            reps.append(rep)
        traced = None
        if trace:
            spans = self.work / "spans.json"
            traced = self.repetition(prep, "traced", spans)
            traced["spans"] = json.loads(spans.read_text())["spans"]
        return {"prep": prep, "setup_walls": setup_walls,
                "setup_variants": setup_variants, "reps": reps,
                "traced": traced}


def stage_medians(reps: list[dict]) -> dict[str, float]:
    """Per stage, the sum over input sets of the median time of that stage
    call over the repetitions. Their sum is ``wall_s``: a slow spell of the
    machine that hits part of one repetition is left out, where a median of
    whole repetitions would keep it whenever there are few of them."""
    calls: dict[tuple[str, str], list[float]] = {}
    for rep in reps:
        for set_name, stages in rep["stage_s"].items():
            for stage, seconds in stages.items():
                calls.setdefault((set_name, stage), []).append(seconds)
    totals: dict[str, float] = {}
    for (_, stage), values in calls.items():
        totals[stage] = totals.get(stage, 0.0) + statistics.median(values)
    return totals


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _openblas() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version")
    except (KeyError, TypeError, AttributeError):
        return None


def fingerprint(root: Path, bench: Bench, res: dict) -> dict:
    """Input sizes (summed over the input sets; unique-row ratios averaged),
    code and library versions, CPUs and thread settings."""
    last = res["reps"][-1]["out"]
    try:
        props = [checks.input_properties(last / f"set{j}")
                 for j in range(bench.workload.sets)]
    except (OSError, IndexError):   # a failed stage left no features
        props = [{"rows": 0, "users": 0, "user_months": 0,
                  "unique_row_ratio": dict.fromkeys(checks.PLANTED, 0.0)}]
    return {
        "workload": bench.workload.name, "seed": bench.seed,
        "scale": bench.scale, "input_sets": bench.workload.sets,
        "users_per_set": bench.workload.users(bench.scale),
        **{key: sum(p[key] for p in props)
           for key in ("rows", "users", "user_months")},
        "unique_row_ratio": {
            ch: statistics.fmean(p["unique_row_ratio"][ch] for p in props)
            for ch in props[0]["unique_row_ratio"]},
        "git_sha": _git_sha(root),
        "src_digest": checks.tree_digest(root / "src" / "persona_forge",
                                         "*.py"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": _openblas(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
    }


def report(bench: Bench, res: dict, seconds: float, trace: bool,
           root: Path) -> dict:
    reps = res["reps"]
    runs = reps + ([res["traced"]] if res["traced"] else [])
    stages = len(bench.workload.timed_stages) * bench.workload.sets
    attempted = stages * len(runs)
    failed = sum(len(r["problems"]) for r in runs)
    problems = [p for r in runs for found in r["problems"].values()
                for p in found]
    digests = {r["digest"] for r in runs}
    if len(digests) > 1:
        problems.append("artifacts differ between repetitions of one seed")
    if res["setup_variants"] > 1:
        problems.append("set-up output differs between repetitions")

    samples = {"wall_s": [r["wall_s"] for r in reps],
               "setup_s": res["setup_walls"],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    measured = {name: statistics.median(v) for name, v in samples.items()}
    per_stage = stage_medians(reps)
    measured["wall_s"] = sum(per_stage.values())
    calibration = [c for r in reps for c in r["calibration_s"]]
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    e2e = {**measured, "wall_s": measured["wall_s"] * speed}
    how = {"wall_s": f"{measured['wall_s']:.6g} s measured × speed "
                     f"{speed:.6g}; measured as the sum of per-stage medians; "
                     "whole repetitions: median "
                     f"{statistics.median(samples['wall_s']):.6g}",
           "setup_s": "median", "peak_rss_mb": "median"}
    fp = fingerprint(root, bench, res)

    print(f"workload {bench.workload.name} seed {bench.seed} "
          f"seconds {seconds:g} trace {int(trace)} reps {len(reps)} "
          f"setups {len(res['setup_walls'])}")
    print(f"why {bench.workload.why}")
    print(f"speed {speed:.6g} (reference {CALIBRATION_REF_S} s / median "
          f"calibration {statistics.median(calibration):.6g} s of "
          f"{len(calibration)})")
    for name, unit in END_TO_END:
        q1, q3 = _quartiles(samples[name])
        print(f"metric {name} {e2e[name]:.6g} {unit} ({how[name]}; "
              f"{len(samples[name])} measured, q1 {q1:.6g}, q3 {q3:.6g})")
    print("stage_s " + " ".join(f"{k}={v:.4g}" for k, v in per_stage.items()))
    print(f"metric failed_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} stages)")
    for name, value in reps[-1]["quality"].items():
        print(f"metric {name} {value:.6g} {QUALITY_UNITS[name]}")
    print(f"out_digest {reps[-1]['digest']}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for p in problems:
        print(f"problem {p}")

    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}
    if trace:
        traced = res["traced"]
        # Both sides scaled by their own speed, so that drift between the
        # untraced repetitions and the traced one does not count as overhead.
        traced_wall = traced["wall_s"] * CALIBRATION_REF_S / statistics.median(
            traced["calibration_s"])
        values, nesting = tracing.layer_metrics(traced["spans"], {
            "user_months": fp["user_months"],
            "unique_row_ratio": fp["unique_row_ratio"],
            "traced_wall_s": traced["wall_s"],
            "overhead_s": traced_wall - e2e["wall_s"]})
        problems += nesting
        for p in nesting:
            print(f"problem {p}")
        wall = traced["wall_s"]
        shares = {layer: values[f"{layer}.self_s"] / wall
                  for layer in tracing.LAYERS}
        print("layer_shares " + " ".join(f"{k}={v:.3f}"
                                         for k, v in shares.items()))
        print(f"trace_overhead_s {values['trace.overhead_s']:.6g} "
              f"(traced {traced_wall:.6g} s, untraced {e2e['wall_s']:.6g} s, "
              "both scaled by their speed; traced as measured "
              f"{wall:.6g} s)")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.per_layer_names()}
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's user count "
                             "(the smoke test runs at a tiny scale)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "persona_forge" / "__init__.py").is_file():
        print("perfbench: src/persona_forge not found; run from the root of "
              "a persona-forge checkout", file=sys.stderr)
        return 2
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the working directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(root, args.workload, args.seed, args.scale)
    try:
        bench.work.mkdir(parents=True)
        res = bench.run(args.seconds, bool(args.trace))
        result = report(bench, res, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
