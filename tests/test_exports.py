"""Every name a gpdelta module exports in `__all__` resolves in that module."""

import importlib
import pkgutil

import gpdelta


def test_every_exported_name_resolves():
    checked = 0
    for info in pkgutil.iter_modules(gpdelta.__path__):
        module = importlib.import_module(f"gpdelta.{info.name}")
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), f"{info.name}: duplicate in __all__"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"gpdelta.{info.name}.__all__ names what it lacks: {missing}"
        checked += len(exported)
    assert checked > 0
