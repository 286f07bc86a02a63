import doctest
import importlib
import inspect
import pkgutil

import pytest

import tilqr

MODULES = ["tilqr"] + sorted(
    info.name for info in pkgutil.iter_modules(tilqr.__path__, "tilqr."))


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(tilqr).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(tilqr.__all__) == sorted(bound)
    assert len(tilqr.__all__) == len(set(tilqr.__all__))
    for name in tilqr.__all__:
        assert getattr(tilqr, name) is not None


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_model_examples_are_collected():
    # the lqr_model example pins running_cost(..., 2.0) == 2.0
    assert doctest.testmod(tilqr.model).attempted >= 2
