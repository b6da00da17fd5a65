"""Every name a module exports in `__all__` must resolve, in the package
and in each of its modules, so that a deleted function cannot stay
advertised."""

import importlib
import pkgutil

import pytest

import thermo_transfer

_MODULES = ["thermo_transfer"] + [
    f"thermo_transfer.{info.name}"
    for info in pkgutil.iter_modules(thermo_transfer.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
