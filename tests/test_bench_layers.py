"""The benchmark's traced run wraps package functions by name; a deleted
or renamed one would crash ``perfbench/run.py --trace 1``.  The same list
bounds the package's public names that no src code reads."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src" / "poleplace"

# public names with no src caller that the package keeps, each for its reason
KEPT = {
    # acceptance criteria 1 and 6 place the paper's worked examples with it
    "placement.place_eigenpair",
    # the public Schur kernel that README documents and the kernel ladder times
    "linalg.eigenvalues",
}


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve():
    missing = [
        f"{module}.{name}"
        for module, names in _traced().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"poleplace.{module}"), name, None))
    ]
    assert missing == []


def test_every_public_name_has_a_src_caller():
    # a module-level def or class without a leading underscore is read by
    # some src module (a Name or Attribute node outside its own definition;
    # docstrings, __all__ strings and import aliases are no reads), traced
    # by the benchmark, which wraps it by name, or kept above: library code
    # that only tests call goes
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
                own.update({id(inner): node.name for inner in ast.walk(node)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                used.add(name)
    traced = {f"{module}.{name}" for module, names in _traced().items() for name in names}
    unused = sorted(q for q, name in defined.items() if name not in used)
    assert [q for q in unused if q not in traced | KEPT] == []
