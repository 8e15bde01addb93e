from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import selftesting

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(selftesting.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"selftesting.{name}")
    assert module.__all__, f"selftesting.{name} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_are_public():
    # every `from .module import name` in the package __init__ names a
    # member of that module's __all__, so trimming an API cannot leave a
    # stale export behind
    tree = ast.parse(Path(selftesting.__file__).read_text(encoding="utf-8"))
    stale = []
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 1]
    assert imports
    for node in imports:
        public = importlib.import_module(f"selftesting.{node.module}").__all__
        stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert stale == []


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_private_imports_between_modules(name):
    # a module reads a sibling only through its public names, so a private
    # layout stays behind the module that owns it
    path = Path(selftesting.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name.startswith("_")
    ]
    assert private == []


#: Names that numpy has only from 2.x. CI pins the declared floor, numpy
#: 1.25, in one job; this scan shows a use of any of them wherever the tests
#: run, on any numpy.
NUMPY2_ONLY = re.compile(
    r"\.mT\b|\blinalg\.matmul\b|\b(matrix_transpose|vecdot|vector_norm|matrix_norm"
    r"|permute_dims|unstack|cumulative_sum|cumulative_prod|isdtype)\b|\bnp\.(concat|pow|astype)\("
)


def test_no_numpy2_only_names():
    src = Path(selftesting.__file__).parent
    found = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if NUMPY2_ONLY.search(line)
    ]
    assert found == []


def _definitions(tree: ast.Module):
    """(name, statement) for each top-level function, class or constant of
    a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            yield name, node


def _is_private(name: str) -> bool:
    """A leading underscore, but not a dunder name."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reads(node: ast.AST) -> set[str]:
    """Every name that `node` reads, as a name, an attribute or an import."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def test_no_unread_private_names():
    # a private helper or constant that nothing reads outside its own
    # definition is dead code left behind by a change
    src = Path(selftesting.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    reads = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    defined = [
        (f"{f}:{name}", name, node)
        for f, tree in trees.items()
        for name, node in _definitions(tree)
        if _is_private(name)
    ]
    assert defined
    unread = [
        where
        for where, name, node in defined
        if not any(name in names for other, names in reads if other is not node)
    ]
    assert unread == []


#: Public names that no module or demo reads and the benchmark calls; they
#: stay public until the benchmark reads the layers they wrap instead.
KEPT_FOR_BENCHMARK = {"apply_isometry", "measurement_equivalence", "angles", "save_coefficients"}


def test_public_names_have_a_reader():
    # every public name is read by a module or a demo outside its own
    # definition; the package's re-exports are not reads. The benchmark is
    # not scanned, so a change to it cannot fail this test.
    src = Path(selftesting.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    paths = [src / f"{m}.py" for m in [*MODULES, "__main__"]] + sorted(demos.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    reads = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    public = [
        (f"{module}.py:{name}", name, dict(_definitions(trees[src / f"{module}.py"]))[name])
        for module in MODULES
        for name in importlib.import_module(f"selftesting.{module}").__all__
    ]
    assert KEPT_FOR_BENCHMARK <= {name for _, name, _ in public}
    unread = [
        where
        for where, name, node in public
        if name not in KEPT_FOR_BENCHMARK
        and not any(name in names for other, names in reads if other is not node)
    ]
    assert unread == []


def test_public_methods_have_a_reader():
    """Every public method or property of a class in a module's ``__all__``
    is read as ``.name`` by a module or a demo outside its own definition.

    Dataclass fields are exempt, since the CLI prints them through
    ``asdict``. The benchmark is not scanned, as above. The scan matches by
    name only: a method that shares its name with one that is read, as a
    second ``validate`` would with ``Realization.validate``, passes here and
    has to be checked by hand.
    """
    src = Path(selftesting.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    paths = [src / f"{m}.py" for m in [*MODULES, "__main__"]] + sorted(demos.glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    reads = [
        n
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    ]
    methods = []
    for module in MODULES:
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        public = importlib.import_module(f"selftesting.{module}").__all__
        methods += [
            (f"{module}.py:{cls.name}.{node.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name in public
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        ]
    assert methods
    unread = []
    for where, node in methods:
        own = set(map(id, ast.walk(node)))
        if not any(n.attr == node.name and id(n) not in own for n in reads):
            unread.append(where)
    assert unread == []
