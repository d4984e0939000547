"""Layering rules over the package source.

Each second-core mechanism has one owner: ``ops`` keeps the worker thread
and hands work to it, ``training`` keeps the pair producer pool, and
``tensor`` waits for the Futures a backward rule returns. And nothing in the
package exists only for tests to call: every public module-level function
has a caller in the package, the benchmark or the demos."""

import ast
import re
from pathlib import Path

import symtrans

PACKAGE = Path(symtrans.__file__).parent
REPO = PACKAGE.parents[1]
SOURCES = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_ops_mentions_its_worker():
    assert [name for name, source in SOURCES.items()
            if re.search(r"\b_WORKER\b", source)] == ["ops"]


def test_only_ops_tensor_and_training_import_concurrent_futures():
    assert [name for name, source in SOURCES.items()
            if any(module == "concurrent.futures" or module.startswith("concurrent.futures.")
                   for module in imported_modules(source))] == ["ops", "tensor", "training"]


def loaded_names(source):
    """Every name and attribute that ``source`` reads."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_function_has_a_caller_outside_the_tests():
    callers = {name for tree in ("src", "perfbench", "demos")
               for path in (REPO / tree).rglob("*.py")
               for name in loaded_names(path.read_text())}
    uncalled = [f"{module}.{node.name}" for module, source in SOURCES.items()
                for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                and node.name not in callers]
    assert uncalled == []
