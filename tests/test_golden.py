"""The README config's outputs, byte for byte, against the sha256 digests in
`tests/golden/readme.json`.

Only the files whose bits do not depend on the CPU are pinned; the golden
file names the others, with the reason, and the numpy version it was made
with. A change that moves a pinned file's bits updates the golden file in
the same diff and names the change. To write it anew from this checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from persona_forge import artifacts, cli

GOLDEN = Path(__file__).parent / "golden" / "readme.json"
LATER_STAGES = ("cluster", "analyze", "ctr", "cf")  # they read user-months


def _persona_forge(*args) -> None:
    """Run the CLI in a child process, so no object is handed between the
    stages that run here and those that ran in another process."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "persona_forge.cli", *map(str, args)],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def _runs(golden: dict, tmp_path: Path) -> tuple[Path, Path]:
    """The config run in one process (each stage reads the objects the
    earlier ones handed on), and a copy whose stages after featurize ran
    again in fresh processes, parsing every file they read."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out, copy = tmp_path / "out", tmp_path / "copy"
    _persona_forge("run", "--config", config, "--out", out)
    shutil.copytree(out, copy)
    for stage in LATER_STAGES:
        manifest = copy / f"manifest_{stage}.json"
        for name in json.loads(manifest.read_text())["outputs"]:
            (copy / name).unlink()
        manifest.unlink()
    _persona_forge("cluster", "--config", config, "--out", copy)
    rest = tmp_path / "rest.json"
    rest.write_text(json.dumps({**golden["config"],
                                "stages": LATER_STAGES[1:]}))
    _persona_forge("run", "--config", rest, "--out", copy)
    return out, copy


def test_readme_config_matches_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    pinned = golden["sha256"]
    for directory in _runs(golden, tmp_path):
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            [*pinned, *golden["cpu_dependent"]["files"]])
        moved = sorted(name for name, digest in pinned.items()
                       if artifacts.sha256(directory / name) != digest)
        assert moved == [], (f"{directory.name}: numpy {np.__version__}, "
                             f"golden file made with {golden['numpy']}")


if __name__ == "__main__":
    import tempfile

    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out, _ = _runs(golden, Path(tmp))
        moving = set(golden["cpu_dependent"]["files"])
        golden["sha256"] = {p.name: artifacts.sha256(p)
                            for p in sorted(out.iterdir())
                            if p.name not in moving}
    golden["numpy"] = np.__version__
    artifacts.write_json(GOLDEN, golden)
