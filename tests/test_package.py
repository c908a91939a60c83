import importlib
import pkgutil

import pytest

import nel

MODULES = ["nel", *(f"nel.{info.name}" for info in pkgutil.iter_modules(nel.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # perfbench/tracer.py wraps each __all__ name with getattr, so a stale
    # entry would break every traced benchmark run
    module = importlib.import_module(name)
    assert [a for a in module.__all__ if not hasattr(module, a)] == []
