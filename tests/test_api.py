"""Every exported name resolves: the package's ``__all__`` and each module's."""

import importlib
import pkgutil

import pytest

import hhfrac

MODULES = sorted(m.name for m in pkgutil.iter_modules(hhfrac.__path__, "hhfrac."))


@pytest.mark.parametrize("name", ["hhfrac", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_modules_with_exports_are_checked():
    exporting = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert {"hhfrac.certify", "hhfrac.fracquad", "hhfrac.funcspace", "hhfrac.hweights",
            "hhfrac.special"} <= exporting
