"""Checks on the package source itself."""

import ast
import dataclasses
import pathlib

from cmgraphs.graphs import Graph
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


def _call_sites(name):
    """(path, innermost enclosing function) for every call of `name` in
    the package, by plain name or attribute."""
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    return [
        (path.name, owner)
        for path in sorted(package.rglob("*.py"))
        for owner, call in _calls_by_function(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == name
    ]


def test_the_structural_scan_has_two_callers():
    # a labeling's verdict and the upward criterion; everything else
    # reads the verdict
    owners = {owner for _, owner in _call_sites("_structural_scan")}
    assert owners == {"_crosschecked_unmixed", "cm_structural_doublestar"}


def test_brute_force_unmixedness_is_called_in_criteria_and_the_cli_only():
    # `level` reads the socle degrees, not the covers of the restriction
    modules = {path for path, _ in _call_sites("is_unmixed_bruteforce")}
    assert modules == {"criteria.py", "cli.py"}


def test_graph_has_no_attribute_hook():
    # a graph's views (`position`, `edges`) are memoized descriptors of
    # their own; a class-level hook would run on every attribute load
    hooks = [
        f"{cls.__name__}.{name}"
        for cls in Graph.__mro__
        if cls is not object
        for name in ("__getattr__", "__getattribute__")
        if name in vars(cls)
    ]
    assert hooks == [], (
        "a class-level __getattr__ on Graph made every Graph attribute load "
        "about 40% slower, and a check_families pass 4.4% slower"
    )


def test_a_graph_is_its_names_and_masks_in_one_form():
    # every graph, built from names or from masks, holds the same two
    # fields; none is made field by field past its constructor
    assert [f.name for f in dataclasses.fields(Graph)] == ["vertices", "neighbours"]
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
    ]
    assert found == []


def test_no_package_module_uses_cached_property():
    # `graphs.memoized` stores on first read without a lock
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if getattr(node, "id", getattr(node, "attr", None)) == "cached_property"
        or isinstance(node, ast.alias) and node.name == "cached_property"
    ]
    assert found == [], (
        "functools.cached_property takes a lock on every first read under "
        "Python 3.11: 1.1 µs a read against 0.38 µs for graphs.memoized, "
        "with about 8,600 first reads in one census_sample pass"
    )


def _clears_bits(node):
    """Whether `node` is `a & ~b` or `a &= ~b`."""
    if isinstance(node, ast.BinOp):
        op, right = node.op, node.right
    elif isinstance(node, ast.AugAssign):
        op, right = node.op, node.value
    else:
        return False
    return (
        isinstance(op, ast.BitAnd)
        and isinstance(right, ast.UnaryOp)
        and isinstance(right.op, ast.Invert)
    )


def _owners(node, owner=None):
    """(innermost enclosing function name, node) for every node under
    `node`; the owner is None at module level."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        yield inner, child
        yield from _owners(child, inner)


def test_a_pair_is_rewired_in_one_function():
    # the deformations clear y_i and x_k on each other in
    # `transform.rewire` only; `o_set`, the census sweep and route e
    # reach the masks through it
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    found = {
        (name, owner)
        for name in ("transform.py", "census.py", "criteria.py")
        for owner, node in _owners(
            ast.parse((package / name).read_text(encoding="utf-8"))
        )
        if _clears_bits(node)
    }
    assert found == {("transform.py", "rewire")}


def test_only_the_complex_memo_and_the_unreduced_reference_derive_a_bit_order():
    # routes b, c and f read the complex's one memoized bit order; the
    # unreduced homology reference keeps its own over any face list
    owners = set(_call_sites("_bit_order"))
    assert owners == {
        ("complexes.py", "bit_order"),
        ("complexes.py", "_ranks_from_faces"),
    }


def test_indented_json_is_written_in_one_place():
    # `json.dumps(indent=2)` falls back to the pure-Python encoder; every
    # indented document goes through `verdicts.indented_json`
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    writer = next(
        node
        for node in ast.walk(ast.parse((package / "verdicts.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "indented_json"
    )
    found = [
        (path.name, number)
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "indent=2" in line
    ]
    assert found
    assert [
        (name, number)
        for name, number in found
        if name != "verdicts.py" or not writer.lineno <= number <= writer.end_lineno
    ] == []
