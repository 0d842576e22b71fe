"""The benchmark's tracer wraps functions the program still has, and its
recorders read the arguments the program passes.

A hook whose name no longer exists gets no span, and the per-layer metrics
built on it read 0 without a word.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from persona_forge import cf, ctr

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


def test_every_argument_a_recorder_reads_is_a_parameter_of_its_target():
    # a renamed parameter makes _arg return its default: _filter_inactive
    # would then take len(None) and end the traced run
    tracing = _load_tracing()
    read = set()
    for layer, attr, recorder in tracing.TARGETS:
        if recorder is None:
            continue
        names = re.findall(r'_arg\(fn, args, kwargs, "(\w+)"',
                           inspect.getsource(recorder))
        target = getattr(importlib.import_module(f"persona_forge.{layer}"),
                         attr)
        params = inspect.signature(target).parameters
        for name in names:
            assert name in params, f"{layer}.{attr} has no {name!r}"
        read.update(names)
    assert read >= {"path", "rs", "config", "ratings", "variant"}


def test_fit_factor_recorder_counts_rating_rows():
    # the cf stage passes an (n, 3) array: cf.ratings and cf.sgd_steps must
    # count its rows, not its 3 columns
    tracing = _load_tracing()
    ratings = np.column_stack([np.arange(7), np.zeros(7), np.ones(7)])
    attrs = tracing._fit_factor(cf.fit_factor,
                                (7, 1, ratings, "a", np.zeros(7, int)),
                                {"config": cf.FactorConfig(epochs=4)}, None)
    assert attrs == {"ratings": 7, "variant": "a", "epochs": 4}


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_fit_item_model_takes_one_gradient_per_iteration(monkeypatch):
    # ctr.iters_per_fit counts ctr.smooth_gradient calls per fit
    calls = _count_calls(monkeypatch, ctr, "smooth_gradient")
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (200, 6))
    y = (rng.random(200) < 1 / (1 + np.exp(-X[:, 0]))).astype(float)
    assert ctr.fit_item_model(X, y, 0.01).converged
    iterations = len(calls)
    assert iterations > 1
    # one iteration short of that, every iteration is an accepted step:
    # the converged fit took its accepted steps + 1 gradients
    monkeypatch.setattr(ctr, "MAX_ITER", iterations - 1)
    calls.clear()
    assert not ctr.fit_item_model(X, y, 0.01).converged
    assert len(calls) == iterations - 1


@pytest.mark.parametrize("variant", ["vanilla", "a"])
def test_fit_factor_takes_one_rmse_per_epoch(monkeypatch, variant):
    # cf.rmse.s is the time of the cf._rmse calls
    calls = _count_calls(monkeypatch, cf, "_rmse")
    ratings = np.column_stack([np.arange(6) % 3, np.arange(6) % 2,
                               np.arange(6) + 1.0])
    model = cf.fit_factor(3, 2, ratings, variant, np.array([0, -1, 1]),
                          config=cf.FactorConfig(f=2, epochs=4))
    assert len(calls) == len(model.rmse_trace) == 4
