"""The benchmark's tracer wraps functions the program still has.

A hook whose name no longer exists gets no span, and the per-layer metrics
built on it read 0 without a word.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_tracer_target_is_a_function_of_its_layer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for layer, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"persona_forge.{layer}")
        assert callable(getattr(module, attr, None)), f"{layer}.{attr}"
