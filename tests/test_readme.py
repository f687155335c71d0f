"""The README names only library surface that exists: removing a function
means updating the README."""

import importlib
import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

MODULES = ("perm", "patterns", "bijections", "distributions", "checks")


def test_backticked_module_names_resolve():
    # a code span that opens with module.name, as in `perm.insert_block`
    names = re.findall(rf"`({'|'.join(MODULES)})\.(\w+)", README)
    assert names, "the README names no module-qualified code"
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"permcross.{module}"), name)
    ]
    assert not missing


def test_the_library_import_block_imports():
    block = re.search(r"from permcross import \(([^)]*)\)", README)
    assert block is not None, "the README has no `from permcross import (...)` block"
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    package = importlib.import_module("permcross")
    assert names and not [name for name in names if not hasattr(package, name)]
