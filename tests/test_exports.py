import importlib
import pkgutil

import pytest

import rank1tdse

MODULES = [m.name for m in pkgutil.iter_modules(rank1tdse.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deleted function cannot stay listed in its module's ``__all__``."""
    mod = importlib.import_module(f"rank1tdse.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing
