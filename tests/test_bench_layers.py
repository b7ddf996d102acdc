"""The benchmark's tracer wraps `pdp` functions by name; a rename would
leave a traced layer empty, so every name it lists must resolve."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_layers_name_pdp_callables():
    # Compiled from its source, so no bytecode is written next to it.
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    assert tracer["LAYERS"]
    for module, name, layer in tracer["LAYERS"]:
        target = getattr(importlib.import_module(f"pdp.{module}"), name, None)
        assert callable(target), (module, name, layer)
