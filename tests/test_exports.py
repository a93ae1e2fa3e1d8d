"""Every name a module exports through __all__ exists in it, once."""

import importlib
import pkgutil

import pytest

import nlpca

MODULES = [
    importlib.import_module(f"nlpca.{info.name}")
    for info in pkgutil.iter_modules(nlpca.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves_once(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
