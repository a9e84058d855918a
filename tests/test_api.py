"""Public surface: every exported name resolves and star imports work."""

import importlib
import pkgutil

import pytest

import bht_arima

MODULES = ["bht_arima"] + [
    f"bht_arima.{m.name}" for m in pkgutil.iter_modules(bht_arima.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", [])) <= set(namespace)
