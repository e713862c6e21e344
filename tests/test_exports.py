"""Every name that `macdet` or one of its submodules lists in `__all__`
exists in that module, so a deleted function cannot stay exported; no
module of the package, demo or test imports a name it never uses, so
deleted code cannot leave its imports behind; no package module reaches
into another's private names; and every public name of a submodule has
a caller outside its module (in the package, `demos/` or `bench/`) or is
listed in README's API section; and `macdet.__version__` is the version
pyproject.toml declares."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import macdet

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(macdet.__file__).parent
SUBMODULES = sorted(
    f"macdet.{info.name}" for info in pkgutil.iter_modules(macdet.__path__) if info.name != "__main__"
)
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
SOURCES = PACKAGE_FILES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("name", ["macdet", *SUBMODULES])
def test_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert exported, f"{name}.__all__ is empty"
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


@pytest.mark.parametrize(
    "path", SOURCES, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}"
)
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


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    # a _name imported from a macdet module, or read as an attribute of
    # anything but self or cls when this module does not define it
    tree = ast.parse(path.read_text())
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    crossing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("macdet")):
            crossing += [f"{a.name} (line {node.lineno})" for a in node.names if _private(a.name)]
        elif (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and node.attr not in defined
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            crossing.append(f"{node.attr} (line {node.lineno})")
    assert crossing == []


def _references(path: Path) -> set:
    # the names a file calls or reads; bench/tracing.py names the
    # functions it wraps in strings ("module", "Class.method")
    tree = ast.parse(path.read_text())
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "bench" in path.parts:
            refs.update(node.value.split("."))
    return refs


def _readme_api() -> dict:
    # README's API section: one bullet per submodule, "- `macdet.x`: `name` ..."
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for bullet in re.findall(r"^- `macdet\.(\w+)`(.*(?:\n  .*)*)", section, flags=re.M):
        module, rest = bullet
        listed[f"macdet.{module}"] = set(re.findall(r"`(\w+)`", rest))
    return listed


def test_readme_api_names_are_exported():
    listed = _readme_api()
    assert listed
    for module, names in listed.items():
        assert sorted(names - set(importlib.import_module(module).__all__)) == [], module


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_public_name_has_a_caller_or_is_api(name):
    own = PACKAGE / f"{name.split('.')[1]}.py"
    outside = [p for p in PACKAGE_FILES if p != own]
    outside += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    called = set().union(*(_references(p) for p in outside))
    api = _readme_api().get(name, set())
    unearned = [n for n in importlib.import_module(name).__all__ if n not in called | api]
    assert unearned == []


def test_version_matches_pyproject():
    # the version a run records is the one the package is installed as
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert macdet.__version__ == tomllib.load(f)["project"]["version"]
