"""Every public module-level function and class of the package has a reader
in the program: code of the package names it, the benchmark's tracer wraps
it, or the allowlist below says why it stays. A public name that only tests
call is dead code, or its reason to stay is written down here."""

import ast
from pathlib import Path

import persona_forge
from test_perfbench_hooks import _load_tracing

PACKAGE = Path(persona_forge.__file__).parent

ALLOWED = {
    "cf.rmse": "the held-out RMSE that acceptance §11 compares, and that a "
               "test-fraction split of the cf stage would write",
    "cf.factor_model_from_dict": "the reader of cf_model.json: the tests "
                                 "show with it that a saved model reproduces "
                                 "its own predictions",
}


def _public_and_named():
    """The public module-level functions and classes as `module.name`, and
    every name that package code uses outside the definition it names."""
    public, named = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not own.startswith("_")):
                public.add(f"{path.stem}.{own}")
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    named.add(name)
    return public, named


def test_every_public_definition_has_a_reader():
    public, named = _public_and_named()
    traced = {f"{module}.{name}"
              for module, name, _ in _load_tracing().TARGETS}
    unread = sorted(q for q in public if q.split(".")[1] not in named
                    and q not in traced and q not in ALLOWED)
    assert unread == [], "public, but no code of the package names it"


def test_the_allowlist_names_definitions_nothing_else_reads():
    public, named = _public_and_named()
    assert all(q in public and q.split(".")[1] not in named
               for q in ALLOWED)
