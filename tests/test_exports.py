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


@pytest.mark.parametrize("module, attr", [
    ("thermo_transfer", "reference_cylinder_ax0"),
    ("thermo_transfer.models", "reference_cylinder_ax0"),
    ("thermo_transfer.cli", "config_text"),
    ("thermo_transfer.cli", "run_selftest"),
    ("thermo_transfer.quadrature", "_lanczos_recurrence"),
    ("thermo_transfer", "NystromMatrix"),
    ("thermo_transfer.nystrom", "NystromMatrix"),
    ("thermo_transfer.quadrature", "_unit_hermite"),
    ("thermo_transfer.nystrom", "_ones"),
    ("thermo_transfer.nystrom", "_rescale"),
    ("thermo_transfer.nystrom", "_upper"),
    ("thermo_transfer.models", "_first_failure"),
    ("thermo_transfer.models", "_named"),
])
def test_replaced_names_are_gone(module, attr):
    # reference_cylinder covers every ax; a Nystrom matrix is its entries
    # array; the per-m caches are `_hermite_pieces` and `_squaring_table`
    # (assembly mirrors by index), a failure is named by `_raise_named`;
    # the others had no caller but the old selftest suites
    assert not hasattr(importlib.import_module(module), attr)
