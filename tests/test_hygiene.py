"""Package hygiene: no unused imports, and every traced function exists.

The benchmark's span table (`perfbench/spans.py` `SPANS`) names functions by
module and attribute path.  A missing class is recorded as zero calls, but a
missing module-level function stops a traced run, so each one must resolve.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "syzkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    assert unused_imports("from fractions import Fraction\nimport os\nos.sep\n") == ["Fraction"]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_module_functions_resolve():
    spans = load_spans()
    functions = [(module, path) for _, module, path, _ in spans.SPANS if "." not in path]
    assert functions
    missing = [
        f"{module}.{path}"
        for module, path in functions
        if not callable(getattr(importlib.import_module(module), path, None))
    ]
    assert missing == []
