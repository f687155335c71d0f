import doctest
import importlib
import pkgutil

import pytest

import permcross

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(permcross.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"permcross.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0


def test_the_kernels_have_doctests():
    finder = doctest.DocTestFinder()
    tested = {
        test.name.rsplit(".", 1)[-1]
        for name in MODULES
        for test in finder.find(importlib.import_module(f"permcross.{name}"))
        if test.examples
    }
    kernels = {
        "stat_columns",
        "inverse_block",
        "symmetry_images",
        "insert_block",
        "residual_columns",
        "packed_blocks",
        "_group_columns",
        "_thresholds",
        "_reblocked",
        "_crs_cuts",
        "_packed_keys",
        "_word_keys",
        "_allowed_letters",
        "_tally",
    }
    assert kernels <= tested
