"""One benchmark process: ``setup`` prepares inputs, ``timed`` runs stages.

Run by ``run.py`` from the root of a checkout, one fresh process per setup
and per timed repetition. The program is imported from ``src/`` of that
checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads

_CAL_IN = np.linspace(1.0, 2.0, 4096)
_CAL_OUT = np.empty_like(_CAL_IN)


def calibrate() -> float:
    """Seconds a fixed piece of interpreter and numpy work takes now.

    It allocates nothing the garbage collector tracks, so its time does not
    depend on what the program keeps alive; it measures the machine's speed
    at this moment."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(300):
        np.sqrt(_CAL_IN, out=_CAL_OUT)
        np.multiply(_CAL_OUT, 1.0001, out=_CAL_OUT)
    return time.perf_counter() - start


def _import_program() -> None:
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import persona_forge

    if Path(persona_forge.__file__).resolve().parent != src / "persona_forge":
        sys.exit(f"persona_forge imported from {persona_forge.__file__}, "
                 f"not from {src}")


def timed(prep: Path, out: Path, spans_path: str | None, run_id: str) -> dict:
    """Run each input set's stages in order through ``cli.run``; time the
    whole pass and each stage call.

    ``prep/set<j>/config.json`` is the config of set j and ``out/set<j>`` its
    artifact directory, already holding the set's inputs.
    """
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer(run_id)
        tracing.install(tracer)
    from persona_forge import cli

    sets = sorted((p.name for p in prep.glob("set*")), key=lambda n: int(n[3:]))
    configs = {name: prep / name / "config.json" for name in sets}
    stages = {name: json.loads(path.read_text(encoding="utf-8"))["stages"]
              for name, path in configs.items()}
    codes: dict[str, dict[str, int]] = {}
    stage_s: dict[str, dict[str, float]] = {}
    calibration: list[float] = []
    start = time.perf_counter()
    for name in sets:
        if tracer is not None:
            tracer.run_id = f"{run_id}/{name}"
        codes[name], stage_s[name] = {}, {}
        for stage in stages[name]:
            calibration.append(calibrate())
            began = time.perf_counter()
            try:
                code = cli.run(configs[name], out / name, None, stage)
            except Exception:  # a crash is a failed stage, reported like one
                traceback.print_exc()
                code = -1
            stage_s[name][stage] = time.perf_counter() - began
            codes[name][stage] = code
            if code != 0:
                break
    wall = time.perf_counter() - start - sum(calibration)
    calibration.append(calibrate())
    if tracer is not None:
        tracer.dump(spans_path)
    return {"wall_s": wall, "stage_s": stage_s, "calibration_s": calibration,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "codes": codes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="role", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True,
                       choices=sorted(workloads.WORKLOADS))
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--scale", type=float, required=True)
    setup.add_argument("--dest", type=Path, required=True)
    run = sub.add_parser("timed")
    run.add_argument("--prep", type=Path, required=True)
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--result", type=Path, required=True)
    run.add_argument("--spans", default=None)
    run.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    _import_program()
    if args.role == "setup":
        # Set-up time includes loading the program, as a user's run does.
        import persona_forge.cli  # noqa: F401

        workloads.prepare(workloads.WORKLOADS[args.workload], args.seed,
                          args.scale, args.dest)
    else:
        result = timed(args.prep, args.out, args.spans, args.run_id)
        args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
