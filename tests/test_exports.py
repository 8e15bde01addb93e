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
