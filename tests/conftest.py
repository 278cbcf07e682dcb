import json
import os
import runpy
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cmgraphs.census as census
import cmgraphs.cli as cli
from cmgraphs.graphio import parse_graph_file
from cmgraphs.graphs import memoized
from cmgraphs.pairing import find_star_labeling
from cmgraphs.transform import BGraftSpec, BipartiteBlock
from cmgraphs.verdicts import indented_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SCHEMA = os.path.join(ROOT, "schema", "analysis-v1.json")
PERFBENCH = os.path.join(ROOT, "perfbench")

# minimal 6-vertex triangulation of the real projective plane: torsion
# makes characteristic 2 differ from characteristic 0
RP2_FACETS = [
    {"v0", "v1", "v4"},
    {"v0", "v1", "v5"},
    {"v0", "v2", "v3"},
    {"v0", "v2", "v4"},
    {"v0", "v3", "v5"},
    {"v1", "v2", "v3"},
    {"v1", "v2", "v5"},
    {"v1", "v3", "v4"},
    {"v2", "v4", "v5"},
    {"v3", "v4", "v5"},
]


def std_pairs(n):
    """The standard pairing (x1, y1), ..., (xn, yn)."""
    return [(f"x{i}", f"y{i}") for i in range(1, n + 1)]


def count_builds(monkeypatch, cls, name):
    """Record each instance of `cls` that builds its memoized `name`."""
    built, build = [], cls.__dict__[name].func

    def counted(obj):
        built.append(obj)
        return build(obj)

    monkeypatch.setattr(cls, name, memoized(counted, name))
    return built


def perfbench_module(name, monkeypatch):
    """`perfbench/<name>.py` compiled in memory and bound as module `name`
    for the test, so the benchmark's own imports by name find it and
    nothing is written under perfbench/."""
    module = types.ModuleType(name)
    module.__dict__.update(runpy.run_path(os.path.join(PERFBENCH, f"{name}.py")))
    monkeypatch.setitem(sys.modules, name, module)
    return module


def written_as_json_dumps(value):
    """`indented_json(value)`, checked against `json.dumps(value,
    indent=2)`."""
    text = indented_json(value)
    assert text == json.dumps(value, indent=2)
    return text


@pytest.fixture(autouse=True)
def documents_match_json_dumps(monkeypatch):
    """Every document a test writes through the command line or a census
    report is checked against `json.dumps(indent=2)`."""
    for module in (cli, census):
        monkeypatch.setattr(module, "indented_json", written_as_json_dumps)


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def golden_path(name):
    return os.path.join(GOLDEN, name)


@pytest.fixture(scope="session")
def ex31():
    return parse_graph_file(fixture_path("example3_1.graph")).graph


@pytest.fixture(scope="session")
def ex31_pl(ex31):
    return find_star_labeling(ex31)


@pytest.fixture(scope="session")
def c4():
    return parse_graph_file(fixture_path("c4.graph")).graph


@pytest.fixture(scope="session")
def c4_pl(c4):
    return find_star_labeling(c4)


@pytest.fixture(scope="session")
def graft_spec():
    h0 = parse_graph_file(fixture_path("example5_1.h0.graph")).graph
    blocks = []
    for i in (1, 2, 3):
        parsed = parse_graph_file(fixture_path(f"example5_1.b{i}.graph"))
        blocks.append(BipartiteBlock(parsed.graph, parsed.xside, parsed.yside))
    return BGraftSpec(h0, tuple(blocks))
