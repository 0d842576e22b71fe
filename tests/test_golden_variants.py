"""Every cf variant and `h` CTR recipes, byte for byte, against the sha256
digests in `tests/golden/variants.json`. The config runs in a child process,
then the cf stage runs once per variant on a copy of its outputs, each in a
child process of its own, so every cf run parses the files it reads.

As in `tests/test_golden.py`, only the files whose bits do not depend on the
CPU are pinned; the golden file names the others, with the reason, and the
numpy version it was made with. To write it anew from this checkout:

    PYTHONPATH=src python tests/test_golden_variants.py
"""

import json
import shutil
from pathlib import Path

import numpy as np

from persona_forge import artifacts, cf
from test_golden import _persona_forge

GOLDEN = Path(__file__).parent / "golden" / "variants.json"


def _runs(golden: dict, tmp_path: Path) -> dict[str, Path]:
    """Every file the config's run wrote, by name, and every file the cf
    stage wrote on the copy `cf_<variant>`, as `cf_<variant>/<name>`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out = tmp_path / "out"
    _persona_forge("run", "--config", config, "--out", out)
    files = {p.name: p for p in out.iterdir()}
    for variant in cf.VARIANTS:
        copy = tmp_path / f"cf_{variant}"
        shutil.copytree(out, copy)
        config = tmp_path / f"cf_{variant}.json"
        config.write_text(json.dumps({
            **golden["config"],
            "cf": {**golden["config"]["cf"], "variant": variant}}))
        _persona_forge("cf", "--config", config, "--out", copy)
        manifest = json.loads((copy / "manifest_cf.json").read_text())
        files.update((f"{copy.name}/{name}", copy / name)
                     for name in [*manifest["outputs"], "manifest_cf.json"])
    return files


def test_cf_variants_and_h_recipes_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert "cf" not in golden["config"]["stages"]
    assert any("h" in recipe.values()
               for recipe in golden["config"]["ctr"]["recipes"])
    pinned = golden["sha256"]
    files = _runs(golden, tmp_path)
    assert sorted(files) == sorted([*pinned,
                                    *golden["cpu_dependent"]["files"]])
    moved = sorted(name for name, digest in pinned.items()
                   if artifacts.sha256(files[name]) != digest)
    assert moved == [], (f"numpy {np.__version__}, golden file made with "
                         f"{golden['numpy']}")


if __name__ == "__main__":
    import tempfile

    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        moving = set(golden["cpu_dependent"]["files"])
        golden["sha256"] = {name: artifacts.sha256(path) for name, path
                            in sorted(_runs(golden, Path(tmp)).items())
                            if name not in moving}
    golden["numpy"] = np.__version__
    artifacts.write_json(GOLDEN, golden)
