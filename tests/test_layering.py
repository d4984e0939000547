"""Layering rules over the package source.

Each second-core mechanism has one owner: ``ops`` keeps the worker thread
and hands work to it, ``training`` keeps the pair producer pool, and
``tensor`` waits for the Futures a backward rule returns. And nothing in the
package exists only for tests to call: every public module-level function
has a caller in the package, the benchmark or the demos. Nor does a knob
exist that nothing sets: every defaulted parameter, config field and
command-line option is set by such a caller, or is one of the paper's tuned
hyperparameters."""

import ast
import collections
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


def test_only_tensor_builds_a_graph_node():
    assert [name for name, source in SOURCES.items()
            if re.search(r"\b_Node\b", source)] == ["tensor"]


def test_no_module_outside_tensor_reads_a_node():
    readers = [(module, getattr(statement, "name", "<module>"))
               for module, source in SOURCES.items() if module != "tensor"
               for statement in ast.parse(source).body
               for node in ast.walk(statement)
               if isinstance(node, ast.Attribute) and node.attr == "_node"]
    assert readers == []


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


# the paper's tuned hyperparameters: its ablations vary them, so they stay
# settable though every caller outside the tests keeps the default
TUNED = {"model.ModelConfig.stage_kernels", "model.ModelConfig.stage_heads",
         "losses.LossConfig.lambda_reg", "training.TrainConfig.loss"}


def callee(call):
    """The called name: ``f`` in ``f(...)`` and in ``module.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def defaulted(node):
    """(name, position or None) of each parameter of a function, or field of
    a dataclass, that has a default; keyword-only parameters have no position."""
    if isinstance(node, ast.FunctionDef):
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        yield from ((a.arg, i) for i, a in enumerate(positional) if i >= first)
        yield from ((a.arg, None) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if d is not None)
    else:
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
        yield from ((f.target.id, i) for i, f in enumerate(fields) if f.value is not None)


def knobs():
    """(label, owner, name, position) of every defaulted parameter of a public
    module-level function and every defaulted field of a dataclass, and
    (label, flag, flag, None) of every command-line option given a default."""
    for module, source in SOURCES.items():
        for node in ast.parse(source).body:
            is_dataclass = isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass" for d in node.decorator_list)
            if is_dataclass or (isinstance(node, ast.FunctionDef)
                                and not node.name.startswith("_")):
                for name, position in defaulted(node):
                    yield f"{module}.{node.name}.{name}", node.name, name, position
        for call in ast.walk(ast.parse(source)):
            if (isinstance(call, ast.Call) and callee(call) == "add_argument"
                    and any(k.arg == "default" for k in call.keywords)):
                flag = call.args[0].value
                yield f"{module} {flag}", flag, flag, None


def settings():
    """What the package, the benchmark and the demos set: per callee, each
    call's positional count and keywords (None for ``**``); and the flags in
    their list literals (argv lists) and the keys of their dict literals
    outside the package (JSON configs)."""
    calls = collections.defaultdict(list)
    strings = set()
    for tree in ("src", "perfbench", "demos"):
        for path in (REPO / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    calls[callee(node)].append((
                        float("inf") if starred else len(node.args),
                        {k.arg for k in node.keywords}))
                elif isinstance(node, ast.List):
                    strings.update(e.value for e in node.elts if isinstance(e, ast.Constant)
                                   and str(e.value).startswith("--"))
                elif isinstance(node, ast.Dict) and tree != "src":
                    strings.update(k.value for k in node.keys if isinstance(k, ast.Constant))
    return calls, strings


def test_every_knob_is_set_outside_the_tests():
    found = list(knobs())
    assert TUNED <= {label for label, *_ in found}
    calls, strings = settings()
    # dataclasses.replace sets fields by keyword only
    replaced = [(0, keywords) for _, keywords in calls["replace"]]
    unset = [label for label, owner, name, position in found
             if label not in TUNED and name not in strings
             and not any(name in keywords or None in keywords
                         or (position is not None and position < count)
                         for count, keywords in calls[owner] + replaced)]
    assert unset == []
