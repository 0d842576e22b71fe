"""The exit-code contract of the stages after featurize, as a seeded sweep:
corrupted user-month files, their sidecars and the cluster models, each read
by every stage whose manifest names it as an input."""

import json
import random

import pytest

from persona_forge import cli
from test_ingest import _listing

CONFIG = {
    "seed": 7,
    "synth": {"n_users": 60, "months_per_user": 2, "poisson_mean": 6.0},
    "cluster": {"restarts": 1},
    "analyze": {"stability": {"characterization": "TF", "runs": 2}},
    "ctr": {"top_n": 3, "recipes": [{"CR": "c", "DG": "s", "ME": "h"}]},
    "cf": {"variant": "a", "epochs": 2, "f": 4},
}
SWEPT = ("featurize", "cluster")          # the stages whose outputs are swept
READERS = ("cluster", "analyze", "ctr", "cf")
CELLS = ("", "nan", "inf", "-inf", "-1", "1e400", "abc", str(2 ** 63),
         "1.5", "-0", " 1", '"1"', "0x1")
JSON_VALUES = (None, "x", -1, 1.5, True, [], {}, [[1]], [None], {"a": 1})


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The base run's directory, its files' bytes, and for each output of
    the swept stages the stages that read it, from the manifests."""
    out = tmp_path_factory.mktemp("sweep")
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(CONFIG))
    assert cli.run(config, out) == 0
    manifests = {stage: json.loads((out / f"manifest_{stage}.json")
                                   .read_text())
                 for stage in SWEPT + READERS}
    targets = {name: [stage for stage in READERS
                      if name in manifests[stage]["inputs"]]
               for stage in SWEPT for name in manifests[stage]["outputs"]}
    return config, out, _listing(out), targets


def _restore(directory, listing):
    for path in directory.iterdir():
        if path.name not in listing:
            path.unlink()
        elif path.read_bytes() != listing[path.name]:
            path.write_bytes(listing[path.name])


def _corrupt_csv(rng: random.Random, data: bytes) -> tuple[str, bytes]:
    header, *lines = data.decode().split("\n")[:-1]
    j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.randrange(7)
    if kind == 0:
        cells = lines[j].split(",")
        c = rng.randrange(len(cells))
        cells[c] = rng.choice(CELLS)
        lines[j] = ",".join(cells)
        what = f"row {j + 1} cell {c} = {cells[c]!r}"
    elif kind == 1:
        del lines[j]
        what = f"row {j + 1} dropped"
    elif kind == 2:
        lines.insert(j, lines[k])
        what = f"row {k + 1} repeated before row {j + 1}"
    elif kind == 3:
        lines[j], lines[k] = lines[k], lines[j]
        what = f"rows {j + 1} and {k + 1} swapped"
    elif kind == 4:
        c = rng.randrange(header.count(",") + 1)
        header, *lines = (",".join(row.split(",")[:c] + row.split(",")[c + 1:])
                          for row in [header, *lines])
        what = f"column {c} dropped"
    elif kind == 5:
        at = rng.randrange(len(data))
        return f"truncated at byte {at}", data[:at]
    else:
        lines.insert(j, "")
        what = f"blank line before row {j + 1}"
    return what, "\n".join([header, *lines, ""]).encode()


def _corrupt_json(rng: random.Random, data: bytes) -> tuple[str, bytes]:
    obj = json.loads(data)
    key = rng.choice(sorted(obj))
    kind = rng.randrange(4)
    if kind == 0:
        obj[key] = rng.choice(JSON_VALUES)
        what = f"{key!r} set to {obj[key]!r}"
    elif kind == 1:                      # a leaf under a key, at any depth
        path, parent, at = [key], obj, key
        while isinstance(parent[at], (dict, list)) and parent[at]:
            parent = parent[at]
            at = rng.choice(sorted(parent) if isinstance(parent, dict)
                            else range(len(parent)))
            path.append(at)
        parent[at] = rng.choice(JSON_VALUES)
        what = f"{path} set to {parent[at]!r}"
    elif kind == 2:
        del obj[key]
        what = f"{key!r} dropped"
    else:
        at = rng.randrange(len(data))
        return f"truncated at byte {at}", data[:at]
    return what, json.dumps(obj, indent=2, sort_keys=True).encode()


def test_stages_keep_the_exit_code_contract_on_corrupted_inputs(base,
                                                                capsys):
    config, out, listing, targets = base
    rng = random.Random(11)
    codes = []
    for case in range(200):
        name = rng.choice(sorted(targets))
        corrupt = _corrupt_json if name.endswith(".json") else _corrupt_csv
        what, data = corrupt(rng, listing[name])
        for stage in targets[name]:
            where = f"case {case}: {stage} on {name}, {what}"
            (out / name).write_bytes(data)
            before = _listing(out)
            capsys.readouterr()
            try:
                code = cli.run(config, out, only_stage=stage)
            except Exception as exc:  # the contract: nothing escapes run
                pytest.fail(f"{where}: {type(exc).__name__}: {exc}")
            err = capsys.readouterr().err
            codes.append(code)
            assert code in (0, 2, 3, 4), where
            if code:
                (line,) = err.splitlines()
                assert set(json.loads(line)) == {"error", "message"}, where
                assert _listing(out) == before, where
            _restore(out, listing)
    assert 0 < codes.count(0) and 0 < codes.count(3)
