"""Every program function that the bench's tracer rebinds still exists.

`bench/layers.py` wraps each (module, class, attribute) of its SPANS table
in the program. A deleted or renamed function there would otherwise show
only when the bench runs, so this test reads the table and resolves each
entry the way the tracer does. The bench file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPANS


def test_every_traced_span_resolves_in_the_program():
    spans = _spans()
    assert spans
    missing = []
    for name, modname, clsname, attr, _ in spans:
        module = importlib.import_module(modname)
        owner = module if clsname is None else getattr(module, clsname, None)
        # The tracer reads a class's own attribute and a module's global.
        found = vars(owner).get(attr) if owner is not None else None
        if not callable(found):
            missing.append((name, modname, clsname, attr))
    assert not missing
