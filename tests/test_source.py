"""Checks on the package source itself."""

import ast
import pathlib

from conftest import ROOT


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so an internal check must raise instead
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    modules = sorted(package.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _calls_by_function(node, owner=None):
    """(innermost enclosing function name, call) for every call under
    `node`; the owner is None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls_by_function(child, owner)


def test_a_labeling_is_decided_unmixed_in_one_place():
    # `criteria._crosschecked_unmixed` decides a labeling's unmixedness
    # once and keeps it on the labeling; brute force on a labeling's graph
    # anywhere else would decide it a second time
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    owners = [
        (f"{path.relative_to(ROOT)}:{call.lineno}", owner)
        for path in sorted(package.rglob("*.py"))
        for owner, call in _calls_by_function(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if getattr(call.func, "id", getattr(call.func, "attr", None))
        == "is_unmixed_bruteforce"
        and call.args
        and isinstance(call.args[0], ast.Attribute)
        and call.args[0].attr == "graph"
    ]
    assert owners
    elsewhere = [site for site, owner in owners if owner != "_crosschecked_unmixed"]
    assert elsewhere == []
