"""Every docstring example in the package runs as part of the suite."""

import doctest
import importlib
import pkgutil

import pytest

import ahtower

MODULES = ["ahtower"] + sorted(
    info.name for info in pkgutil.iter_modules(ahtower.__path__, "ahtower."))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} example(s) failed in {name}"


def test_examples_are_collected():
    # a module whose examples stop being found would pass vacuously above
    finder = doctest.DocTestFinder()
    for name, at_least in (("ahtower.rational", 3), ("ahtower.diagram", 1),
                           ("ahtower.sequences", 1), ("ahtower.tower", 4),
                           ("ahtower.comparison", 1)):
        module = importlib.import_module(name)
        examples = sum(len(t.examples) for t in finder.find(module))
        assert examples >= at_least, name
