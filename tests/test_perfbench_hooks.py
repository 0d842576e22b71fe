"""The benchmark's tracer wraps functions the program still has, and its
recorders read the arguments the program passes.

A hook whose name no longer exists gets no span, and the per-layer metrics
built on it read 0 without a word.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from persona_forge import cf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_target_is_a_function_of_its_layer():
    tracing = _load_tracing()
    assert tracing.TARGETS
    for layer, attr, _ in tracing.TARGETS:
        module = importlib.import_module(f"persona_forge.{layer}")
        assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


def test_fit_factor_recorder_counts_rating_rows():
    # the cf stage passes an (n, 3) array: cf.ratings and cf.sgd_steps must
    # count its rows, not its 3 columns
    tracing = _load_tracing()
    ratings = np.column_stack([np.arange(7), np.zeros(7), np.ones(7)])
    attrs = tracing._fit_factor(cf.fit_factor,
                                (7, 1, ratings, "a", np.zeros(7, int)),
                                {"config": cf.FactorConfig(epochs=4)}, None)
    assert attrs == {"ratings": 7, "variant": "a", "epochs": 4}
