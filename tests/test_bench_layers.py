"""The benchmark's traced run wraps package functions by name; a deleted
or renamed one would crash ``perfbench/run.py --trace 1``.  The same list
bounds the package's public names that no src code reads.  CI's
runtime-only job runs the CLI and input tests against the package
installed without extras; the last tests keep those modules and that job
able to do so."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src" / "poleplace"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# the test modules the runtime-only job runs against the installed package
INSTALLED_SUITE = ("test_cli.py", "test_inputs.py")

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


def _imports(nodes):
    """The top-level module name of each import statement among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield (node.module or "").split(".")[0]


def test_installed_suite_imports_only_the_runtime_and_pytest():
    # at module level the two modules import the standard library, numpy,
    # pytest and poleplace only (hypothesis through pytest.importorskip),
    # and nowhere the shared test families or another test module, so
    # they run where only the package and pytest are installed
    allowed = set(sys.stdlib_module_names) | {"numpy", "pytest", "poleplace"}
    for name in INSTALLED_SUITE:
        tree = ast.parse((ROOT / "tests" / name).read_text(), name)
        deferred = {id(inner) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    for inner in ast.walk(node)}
        loaded = set(_imports(n for n in ast.walk(tree) if id(n) not in deferred))
        assert sorted(loaded - allowed) == [], name
        anywhere = set(_imports(ast.walk(tree)))
        assert sorted(m for m in anywhere if m == "families" or m.startswith("test_")) == [], name


def test_runtime_only_job_runs_the_installed_suite():
    # the job installs no extras, checks that importing the package loads
    # neither scipy nor mpmath, and runs both modules from outside the
    # checkout, after checking that poleplace does not come from it
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("  runtime-only:")
    end = next((i for i in range(start + 1, len(lines)) if re.match(r"  \S", lines[i])), len(lines))
    job = [line.strip() for line in lines[start:end] if not line.strip().startswith("#")]
    assert "run: python -m pip install . pytest" in job
    assert any("import sys, poleplace, poleplace.cli" in line and "{'scipy', 'mpmath'}" in line
               for line in job)
    assert any("poleplace.__file__" in line and "GITHUB_WORKSPACE" in line for line in job)
    assert any(line.startswith("python -m pytest")
               and all(f'"$GITHUB_WORKSPACE/tests/{name}"' in line for name in INSTALLED_SUITE)
               for line in job)
