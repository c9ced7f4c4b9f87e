"""Package hygiene: no unused imports in the package or the tests, nothing
defined that nothing reaches, nothing stored that nothing reads, no
environment reads, no scalar slot read outside `coeffring`, every export
resolves, and every traced function and method exists.

The benchmark's span table (`perfbench/spans.py` `SPANS`) names functions by
module and attribute path.  A missing class is recorded as zero calls, but a
missing module-level function, or a method missing from a class that exists,
stops a traced run, so each one must resolve.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "syzkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=[p.stem for p in MODULES + TEST_FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_an_unused_name():
    assert unused_imports("from fractions import Fraction\nimport os\nos.sep\n") == ["Fraction"]


# public definitions that no package module names, each with the reason it stays
UNREACHED_ALLOWED = {
    "rref": "perfbench/spans.py traces it, and a traced run stops on a missing module function",
    "rank": "perfbench/spans.py traces it, and a traced run stops on a missing module function",
}


def is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def public_definitions(tree):
    """(node, is_method) for the module-level functions and classes, and the
    methods of those classes, whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item, True


def unreached(sources: dict[str, str]) -> list[str]:
    """`module.name` of each public definition that no module reads: a method
    only through an attribute read (`.name`), anything else also as a bare
    name; click commands are reached by the CLI."""
    trees = {stem: ast.parse(src) for stem, src in sources.items()}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return [
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node, is_method in public_definitions(tree)
        if node.name not in (attrs if is_method else names | attrs) and not is_click_command(node)
    ]


def test_every_public_definition_is_reached():
    found = unreached({p.stem: p.read_text() for p in MODULES})
    assert sorted(f for f in found if f.split(".")[1] not in UNREACHED_ALLOWED) == []
    # an allowlist entry whose definition is gone or now reached is stale
    assert sorted(f.split(".")[1] for f in found) == sorted(UNREACHED_ALLOWED)


def test_reachability_scan_sees_an_unreached_definition():
    sources = {
        "a": "class C:\n    def used(self): pass\n    def lone(self): pass\n"
             "    def shadowed(self): pass\ndef f(): pass\n",
        # a local variable of the same name does not reach a method
        "b": "from .a import C\nC().used()\nshadowed = 1\nprint(shadowed)\n",
        "cli": "@main.command('x')\ndef cmd_x(): pass\n",
    }
    assert unreached(sources) == ["a.lone", "a.shadowed", "a.f"]


def is_dataclass(node) -> bool:
    """Whether a class is decorated with `@dataclass` or `@dataclass(...)`."""
    return any(
        isinstance(f, ast.Name) and f.id == "dataclass"
        for f in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    )


def stored_attributes(tree):
    """(class, attribute) for every dataclass field and every `self.x = ...`
    (plain, annotated, augmented or tuple target) inside a class."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if is_dataclass(cls):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield cls.name, item.target.id
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                        yield cls.name, t.attr


def unread(sources: dict[str, str]) -> list[str]:
    """`module.Class.attr` of each stored attribute that no module reads as `.attr`."""
    trees = {stem: ast.parse(src) for stem, src in sources.items()}
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted({
        f"{stem}.{cls}.{attr}"
        for stem, tree in trees.items()
        for cls, attr in stored_attributes(tree)
        if attr not in reads
    })


def test_every_stored_attribute_is_read():
    assert unread({p.stem: p.read_text() for p in MODULES}) == []


def test_unread_scan_sees_an_unread_attribute():
    sources = {
        "a": "@dataclass\nclass R:\n    name: str\n    items: list\n"
             "class P:\n    def __init__(self):\n        self.kept, self.lone = 1, 2\n"
             "        self.count: int = 0\n        self.total += 1\n"
             "@dataclass(frozen=True)\nclass S:\n    size: int\n",
        # a store or a bare name does not read an attribute; a load does
        "b": "r.items.append(1)\nprint(p.kept, p.total)\np.count = 3\nname = 1\n",
    }
    assert unread(sources) == ["a.P.count", "a.P.lone", "a.R.name", "a.S.size"]


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each `os.environ`/`os.getenv` use and each import of those names from
    os, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {a.name}") for a in node.names
                      if a.name in ENVIRONMENT_NAMES]
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_environment_reads(path):
    # a report is a function of argv and the input files only
    assert environment_reads(path.read_text()) == []


def test_environment_scan_sees_each_read():
    source = (
        "import os\nfrom os import getenv, sep\n"
        "a = os.environ.get('X')\nb = os.getenv('Y')\nc = os.sep\n"
    )
    assert environment_reads(source) == [
        "line 2: from os import getenv", "line 3: os.environ", "line 4: os.getenv",
    ]


SCALAR_SLOTS = {"_a", "_b", "_d"}


def scalar_slot_reads(source: str) -> list[str]:
    """Each use of a `GaussianRational` slot (`._a`, `._b`, `._d`), in line order."""
    found = sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in SCALAR_SLOTS
    )
    return [f"line {line}: .{attr}" for line, attr in found]


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "coeffring"], ids=lambda p: p.stem
)
def test_scalar_slots_are_read_in_coeffring_only(path):
    # every product of scalar triples is the fused kernel's, inside coeffring
    assert scalar_slot_reads(path.read_text()) == []


def test_scalar_slot_scan_sees_each_read():
    source = "x = z._a\nz._b = 1\nprint(z._d, z.a, _a)\n"
    assert scalar_slot_reads(source) == ["line 1: ._a", "line 2: ._b", "line 3: ._d"]


def test_every_export_resolves():
    syzkit = importlib.import_module("syzkit")
    assert [name for name in syzkit.__all__ if not hasattr(syzkit, name)] == []


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def untraceable(paths) -> list[str]:
    """`module.path` of each traced (module, attribute path) that a traced run
    cannot wrap: a module-level function that is not callable there, or a
    method that its class does not define itself (the tracer reads a method
    from the class's `__dict__`).  A class that is gone is skipped: the tracer
    records zero calls for it."""
    out = []
    for module, path in paths:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            continue
        if isinstance(owner, type):
            found = attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            out.append(f"{module}.{path}")
    return out


def traced_paths(methods: bool) -> list[tuple[str, str]]:
    """The (module, attribute path) of each traced method, or of each traced
    module-level function."""
    return [(module, path) for _, module, path, _ in load_spans().SPANS if ("." in path) == methods]


def test_traced_module_functions_resolve():
    functions = traced_paths(methods=False)
    assert functions
    assert untraceable(functions) == []


def test_traced_methods_resolve():
    methods = traced_paths(methods=True)
    assert methods
    assert untraceable(methods) == []


def test_traced_name_scan_sees_a_missing_method():
    paths = [
        ("syzkit.fourier", "SemiflatPair.fm_forward"),
        ("syzkit.fourier", "SemiflatPair.fm_gone"),
        # inherited from object, so not in the class's own `__dict__`
        ("syzkit.fourier", "SemiflatPair.__repr__"),
        ("syzkit.fourier", "NoSuchClass.fm_forward"),
        ("syzkit.linalg", "rank"),
        ("syzkit.linalg", "no_such_function"),
    ]
    assert untraceable(paths) == [
        "syzkit.fourier.SemiflatPair.fm_gone",
        "syzkit.fourier.SemiflatPair.__repr__",
        "syzkit.linalg.no_such_function",
    ]
