"""Every name that `macdet` or one of its submodules lists in `__all__`
exists in that module, so a deleted function cannot stay exported."""

import importlib
import pkgutil

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
