"""The benchmark tracer looks up library functions by name: every layer
it declares must resolve, so deleting or renaming a traced function
fails here and not only in a traced benchmark run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import concbound

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _tracer()
    assert tracer.LAYERS
    for layer, targets in tracer.LAYERS.items():
        for mod, attr in targets:
            assert callable(getattr(getattr(concbound, mod), attr)), f"{layer}: {mod}.{attr}"
    for mod in tracer.MODULES:
        assert getattr(concbound, mod).__name__ == f"concbound.{mod}"
