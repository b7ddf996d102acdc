"""The benchmark's tracer wraps `pdp` functions by name; a rename would
leave a traced layer empty, so every name it lists must resolve."""

import importlib
import os
import subprocess
import sys
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


def test_tracer_wraps_every_layer_after_a_fresh_import():
    # In a fresh process, as in the benchmark's worker: pdp.cli alone is
    # imported before the tracer installs.  The tracer finds the solver
    # modules in sys.modules, so no layer is absent, and no pdp.* module
    # (where the program looks functions up; the package only re-exports)
    # still binds a traced function unwrapped: pdp.game.competitive_solve
    # and pdp.multiagent.competitive_solve are the same wrapper.
    script = (
        "import sys\n"
        "tracer = {'__name__': 'perfbench_tracer'}\n"
        "exec(compile(open(sys.argv[1], encoding='utf-8').read(), sys.argv[1], 'exec'), tracer)\n"
        "import pdp.cli\n"
        "spans = tracer['Tracer']()\n"
        "spans.install()\n"
        "assert spans.absent == [], spans.absent\n"
        "modules = [m for name, m in sys.modules.items() if name.startswith('pdp.')]\n"
        "originals = set()\n"
        "for module, name, layer in tracer['LAYERS']:\n"
        "    originals.add(id(getattr(sys.modules['pdp.' + module], name).__wrapped__))\n"
        "unwrapped = [(m.__name__, attr) for m in modules for attr, value in vars(m).items()\n"
        "             if id(value) in originals]\n"
        "assert unwrapped == [], unwrapped\n"
        "assert pdp.game.competitive_solve is pdp.multiagent.competitive_solve\n"
        "print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(TRACER.parent.parent / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script, str(TRACER)], env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stdout) == (0, "ok\n"), run.stderr
