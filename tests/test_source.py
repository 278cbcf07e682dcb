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


def _membership_writes(tree):
    """(innermost enclosing function, line) for each place that can write
    a graph's membership memo: the key `"_membership"` as a string, as
    `vars(g)`, `g.__dict__` or `setattr` take it, or the attribute as an
    assignment target."""
    return [
        (owner, node.lineno)
        for owner, node in _owners(tree)
        if isinstance(node, ast.Constant) and node.value == "_membership"
        or isinstance(node, ast.Attribute)
        and node.attr == "_membership"
        and not isinstance(node.ctx, ast.Load)
    ]


def test_a_graph_membership_is_written_from_outside_graphs_in_the_census_sweep_only():
    # the sweep gives a deformation whose masks passed the draw's check
    # the draw's membership, which that check proves; anywhere else a
    # written membership would stand in for `classify` unproven
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    found = [
        (path.name, owner)
        for path in sorted(package.rglob("*.py"))
        if path.name != "graphs.py"
        for owner, _ in _membership_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("census.py", "check_member")]
    writes = (
        "def f(g, m):\n"
        "    vars(g)['_membership'] = m\n"
        "    g.__dict__['_membership'] = m\n"
        "    setattr(g, '_membership', m)\n"
        "    g._membership = m\n"
        "    return g._membership\n"
    )
    assert _membership_writes(ast.parse(writes)) == [("f", n) for n in (2, 3, 4, 5)]


def test_only_graphs_sorts_masks_into_name_order():
    # a sort keyed on binary digits read lowest bit first puts an
    # antichain of masks into the order of its names; that rule is
    # `graphs.name_order`, which the graph's named sets and the complex's
    # facet and face masks read
    package = pathlib.Path(ROOT, "src", "cmgraphs")

    def reads_digits_backwards(call):
        return any(
            isinstance(node, ast.Slice) and node.step is not None
            and ast.unparse(node.step) == "-1"
            or isinstance(node, ast.Name) and node.id == "_low_first"
            for node in ast.walk(call)
        )

    sorts = [
        (path.name, owner)
        for path in sorted(package.rglob("*.py"))
        for owner, call in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
        if getattr(call.func, "id", getattr(call.func, "attr", None)) in ("sorted", "sort")
        and reads_digits_backwards(call)
    ]
    assert sorts == [("graphs.py", "name_order")]


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


def _self_calls(tree):
    """`name:line` for each call by which a function calls itself: a
    method through `self.name(...)`, any other function through its bare
    name.  A bare name inside a method is the module's, not the method."""
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if id(fn) in methods:
                hit = (
                    isinstance(f, ast.Attribute)
                    and f.attr == fn.name
                    and getattr(f.value, "id", None) == "self"
                )
            else:
                hit = isinstance(f, ast.Name) and f.id == fn.name
            if hit:
                found.append(f"{fn.name}:{call.lineno}")
    return found


def test_no_function_in_graphs_calls_itself():
    # the searches keep explicit stacks, so no input's depth is bounded by
    # the interpreter's recursion limit
    source = pathlib.Path(ROOT, "src", "cmgraphs", "graphs.py").read_text(encoding="utf-8")
    assert _self_calls(ast.parse(source)) == []
    recursive = "def f(n):\n    return f(n - 1) if n else 0\n"
    method = "class A:\n    def g(self):\n        return g() + self.g()\n"
    assert _self_calls(ast.parse(recursive + method)) == ["f:2", "g:5"]


def _own_nodes(fn):
    """The nodes of a function's body, without those of the functions
    defined inside it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _backtracking_generators(tree):
    """The generators that backtrack: each yields, and either pops an
    explicit stack or calls itself."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(_own_nodes(fn))
        yields = any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in nodes)
        backtracks = any(
            isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "pop"
                 or getattr(node.func, "id", None) == fn.name)
            for node in nodes
        )
        if yields and backtracks:
            found.append(fn.name)
    return found


def test_only_the_mask_walker_backtracks_perfect_matchings():
    # route d walks a labeling's X-Y masks and `iter_perfect_matchings`
    # names the whole graph's matchings, both through one walker
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    found = [
        (path.name, name)
        for path in sorted(package.rglob("*.py"))
        for name in _backtracking_generators(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("graphs.py", "walk_perfect_matchings")]
    assert sorted(_call_sites("walk_perfect_matchings")) == [
        ("graphs.py", "iter_perfect_matchings"),
        ("pairing.py", "xy_matchings"),
    ]
    recursive = (
        "def walk(g):\n"
        "    def rec(rest):\n"
        "        yield from rec(rest[1:]) if rest else [()]\n"
        "    yield from rec(g)\n"
    )
    stacked = "def walk(g):\n    stack = [g]\n    while stack:\n        yield stack.pop()\n"
    assert _backtracking_generators(ast.parse(recursive)) == ["rec"]
    assert _backtracking_generators(ast.parse(stacked)) == ["walk"]


def _pair_bit_lookups(tree):
    """The lines that OR into a mask the table entry of a bit position
    read off a mask, `out |= table[low.bit_length() - 1]`: a vertex mask
    turned into a pair mask."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.BitOr)
        and isinstance(node.value, ast.Subscript)
        and any(
            getattr(inner, "attr", None) == "bit_length"
            for inner in ast.walk(node.value.slice)
        )
    ]


def test_only_the_relations_map_vertex_bits_to_pair_bits():
    # the pair relations are the one record of which pairs a vertex
    # meets; every other reader takes their masks
    package = pathlib.Path(ROOT, "src", "cmgraphs")
    relations = next(
        node
        for node in ast.walk(ast.parse((package / "pairing.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "relations"
    )
    found = [
        (path.name, line)
        for path in sorted(package.rglob("*.py"))
        for line in _pair_bit_lookups(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found
    assert [
        (name, line)
        for name, line in found
        if name != "pairing.py" or not relations.lineno <= line <= relations.end_lineno
    ] == []
    lookup = "def f(m, t):\n    out = 0\n    out |= t[(m & -m).bit_length() - 1]\n"
    assert _pair_bit_lookups(ast.parse(lookup)) == [3]
