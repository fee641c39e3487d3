import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rank1tdse

MODULES = [m.name for m in pkgutil.iter_modules(rank1tdse.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deleted function cannot stay listed in its module's ``__all__``."""
    mod = importlib.import_module(f"rank1tdse.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing


def test_benchmark_tracer_targets_resolve():
    """The benchmark's span tracer (``perfbench/tracing.py``, loaded from its path) imports every
    module in its ``_MODULES`` and wraps every function or dotted method in its ``TARGETS``: each must
    exist, or the benchmark run fails.  ``install`` is not called, so nothing is wrapped."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {m: importlib.import_module(f"rank1tdse.{m}") for m in tracing._MODULES}
    missing = []
    for mod_name, attr in tracing.TARGETS:
        try:
            functools.reduce(getattr, attr.split("."), mods[mod_name])
        except (KeyError, AttributeError):
            missing.append(f"{mod_name}.{attr}")
    assert not missing
