"""Each second-core mechanism has one owner: ``ops`` keeps the worker thread
and hands work to it, ``training`` keeps the pair producer pool, and
``tensor`` waits for the Futures a backward rule returns."""

import ast
import re
from pathlib import Path

import symtrans

SOURCES = {path.stem: path.read_text()
           for path in sorted(Path(symtrans.__file__).parent.glob("*.py"))}


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
