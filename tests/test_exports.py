import importlib
import pkgutil

import pytest

import sgobstacle

MODULES = [importlib.import_module(f"sgobstacle.{m.name}")
           for m in pkgutil.iter_modules(sgobstacle.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
