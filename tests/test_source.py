"""Source hygiene of the package, checked with ``ast`` and the standard library
alone: no import goes unused, and no private module-level function or class
is left that nothing names."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "permcross").glob("*.py"))
SEARCHED = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used - _exported(tree), key=imported.get)
    assert not unused, [f"{path.name}:{imported[name]} {name}" for name in unused]


def _registered(node: ast.AST, local: set[str]) -> bool:
    """Whether a decorator of the module's own registers the definition:
    a call of a module-level function, as ``@_identity("thm-2.6", ...)``."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in local
        for d in getattr(node, "decorator_list", ())
    )


def test_every_private_definition_is_named_somewhere():
    texts = {path: path.read_text() for path in SEARCHED}
    unnamed = []
    for path in SOURCES:
        tree = _tree(path)
        defs = [
            node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        local = {node.name for node in defs}
        for node in defs:
            name = node.name
            if not name.startswith("_") or name.startswith("__") or _registered(node, local):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            named = False
            for other, text in texts.items():
                if other == path:  # the module itself, less the definition
                    lines = text.splitlines()
                    text = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
                if pattern.search(text):
                    named = True
                    break
            if not named:
                unnamed.append(f"{path.name}:{node.lineno} {name}")
    assert not unnamed
