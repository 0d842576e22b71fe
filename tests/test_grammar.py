"""Every module of the package parses under the Python 3.10 grammar.

pyproject.toml promises Python >= 3.10, while the tests may run on a newer
interpreter. `ast.parse(..., feature_version=(3, 10))` rejects syntax that
3.10 lacks, such as `except*`. This checks grammar only, not stdlib APIs:
a call to a function added after 3.10 (say `hashlib.file_digest`) still
passes here. The SGD epochs that `cf` generates at fit time never reach the
per-module check, so their source is parsed too.
"""

import ast
import sys
from pathlib import Path

import pytest

from persona_forge import cf

MODULES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "persona_forge").glob("*.py"))


def _parse_310(text: str, name: str = "<test>") -> ast.Module:
    return ast.parse(text, filename=name, feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_under_python_3_10_grammar(path):
    _parse_310(path.read_text(encoding="utf-8"), str(path))


def test_grammar_check_rejects_newer_syntax():
    assert len(MODULES) >= 9
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        _parse_310(text)
    if sys.version_info >= (3, 11):
        ast.parse(text)  # so it is the 3.10 grammar that rejects it


@pytest.mark.parametrize("variant", ["vanilla", "a", "b", "c"])  # d: vanilla
def test_generated_epoch_parses_under_python_3_10_grammar(variant):
    for f in (0, 1, 3):
        for g in (0, 2):
            _parse_310(cf._epoch_source(variant, f, g),
                       f"<cf epoch {variant} f={f} g={g}>")
