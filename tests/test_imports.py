"""The package's import structure: no import inside a function, and no
cycle among the modules' top-level relative imports, and public name lists
that agree with each other.

A run-time import in a function body hides a dependency from the module
header, usually to break a cycle; imports under ``if TYPE_CHECKING:`` are
left out of the cycle check because they never run.  Together these keep
the audit free of construction code: ``audit`` may name
``RedactionMechanism`` for type checkers only.
"""

import ast
import graphlib
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "markov_redaction"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def function_body_imports(tree):
    """(line, function name) of every import inside a function body."""
    found = []
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((node.lineno, function.name))
    return found


def is_type_checking_block(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) in {"TYPE_CHECKING", "typing.TYPE_CHECKING"}


def top_level_relative_imports(tree):
    """Package modules a module imports when it runs, outside any function."""
    targets, pending = set(), list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if is_type_checking_block(node):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                targets.add(node.module.split(".")[0])
            else:
                targets.update(alias.name for alias in node.names)
        pending.extend(child for child in ast.iter_child_nodes(node)
                       if isinstance(child, (ast.stmt, ast.excepthandler)))
    return targets


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    assert function_body_imports(MODULES[name]) == []


def test_no_cycle_among_top_level_relative_imports():
    graph = {name: top_level_relative_imports(tree) & MODULES.keys() for name, tree in MODULES.items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
    assert graph["audit"] == {"chain"}


def test_the_checks_see_deferred_imports_and_cycles():
    deferred = ast.parse("def build():\n    from .audit import side_leakage\n")
    assert function_body_imports(deferred) == [(2, "build")]
    guarded = ast.parse(
        "from typing import TYPE_CHECKING\nfrom .chain import X\n"
        "if TYPE_CHECKING:\n    from .mechanisms import Y\nelse:\n    from . import utility\n"
    )
    assert top_level_relative_imports(guarded) == {"chain", "utility"}
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter({"audit": {"mechanisms"}, "mechanisms": {"audit"}}).prepare()


def test_public_names_are_listed_once_and_resolve():
    package = importlib.import_module("markov_redaction")
    listed = {}
    for name in sorted(MODULES.keys() - {"__init__"}):
        module = importlib.import_module(f"markov_redaction.{name}")
        listed[name] = module.__all__
        assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
    for entry in package.__all__:
        assert hasattr(package, entry), entry
        assert sum(entry in entries for entries in listed.values()) == 1, entry
    # the command line and the file format's extras are the only names left out
    left_out = {entry for entries in listed.values() for entry in entries} - set(package.__all__)
    assert left_out == {"main", "FORMAT_TAG", "dumps_mechanism"}
