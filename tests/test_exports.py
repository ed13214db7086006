"""The package's exports: every name in ``__all__`` resolves, so a deleted
definition cannot leave a stale export behind."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["gradedk", "gradedk.gmod"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
