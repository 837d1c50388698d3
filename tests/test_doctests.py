"""The examples in the package's docstrings run and print what they show."""
import doctest
import importlib
import pkgutil

import pytest

import eulerian

MODULES = ["eulerian"] + sorted(m.name for m in pkgutil.iter_modules(eulerian.__path__, "eulerian."))
# the modules that show a worked example: the kernels, the fundamental
# transformation, the canonical factorization, Poly and the valley word
WITH_EXAMPLES = {
    f"eulerian.{name}" for name in ("permutations", "transforms", "endofunctions", "polynomials", "words")
}


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    assert result.attempted or name not in WITH_EXAMPLES
