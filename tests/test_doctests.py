"""The usage examples in the module docstrings are run as tests."""

import doctest
import importlib

import pytest

MODULES = ("scalars", "grading", "glinalg", "algebra", "bimodule",
           "cohomology", "variety", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(f"colorhom.{name}"))
    assert result.failed == 0
    if name in ("scalars", "grading"):
        assert result.attempted > 0
