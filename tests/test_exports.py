"""Every name that `macdet` or one of its submodules lists in `__all__`
exists in that module, so a deleted function cannot stay exported; and no
module imports a name it never uses, so deleted code cannot leave its
imports behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import macdet

SUBMODULES = sorted(
    f"macdet.{info.name}" for info in pkgutil.iter_modules(macdet.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["macdet", *SUBMODULES])
def test_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported, f"{name}.__all__ is empty"
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


@pytest.mark.parametrize("path", sorted(Path(macdet.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used | exported)
    assert unused == []
