"""Every program name that the bench traces or calls still exists.

`bench/layers.py` wraps each (module, class, attribute) of its SPANS table
in the program, and `bench/workloads.py` reaches the program through the
modules its `Program` imports (`prog.rootsys.WeylWord`, and aliases such
as `pm = prog.prepmod`). A deleted or renamed name there would otherwise
show only when the bench runs, so these tests read both files and resolve
each name. The bench files are read, not changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = BENCH / "layers.py"
WORKLOADS = BENCH / "workloads.py"


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


def _chain(node):
    """The dotted names of an attribute chain on a bare name, or None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id] + names[::-1] if isinstance(node, ast.Name) else None


def _workload_names():
    """Each program name `bench/workloads.py` reads, as (module, attrs)."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, aliases = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target, value = _chain(node.targets[0]), node.value
        # self.<x> = importlib.import_module("nilcrystal.<x>") in Program.
        if (isinstance(value, ast.Call) and _chain(value.func) == ["importlib", "import_module"]
                and target and target[0] == "self"):
            modules[target[1]] = value.args[0].value
    for node in ast.walk(tree):
        # pm = prog.prepmod, ver = prog.veritas, ...
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and (c := _chain(node.value)) and len(c) == 2 and c[0] == "prog"
                and c[1] in modules):
            aliases[node.targets[0].id] = modules[c[1]]
    names = set()
    for node in ast.walk(tree):
        c = _chain(node) if isinstance(node, ast.Attribute) else None
        if not c:
            continue
        if c[0] in ("prog", "self") and len(c) > 2 and c[1] in modules:
            names.add((modules[c[1]], tuple(c[2:])))
        elif c[0] in aliases:
            names.add((aliases[c[0]], tuple(c[1:])))
    return names


def test_every_program_name_the_workloads_read_resolves():
    names = _workload_names()
    # The parse found the names that motivated the test.
    assert {("nilcrystal.rootsys", ("WeylWord",)), ("nilcrystal.veritas", ("RETRY_BUDGET",)),
            ("nilcrystal.veritas", ("random_corpus",)),
            ("nilcrystal.prepmod", ("build_filtered",))} <= names
    missing = []
    for modname, attrs in sorted(names):
        owner = importlib.import_module(modname)
        for attr in attrs:
            owner = getattr(owner, attr, missing)
            if owner is missing:
                missing.append((modname, attrs))
                break
    assert not missing
