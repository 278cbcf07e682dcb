import re

import pytest

from cmgraphs.errors import CapacityError, InputFormatError
from cmgraphs.graphio import PAIRS_CAP, format_graph, parse_graph, parse_graph_file
from cmgraphs.graphs import Graph


def test_parse_basic_directives():
    parsed = parse_graph(
        """
        # leading comment
        vertex a
        edge a b   # trailing comment
        edge b c
        """
    )
    assert parsed.graph.vertices == ("a", "b", "c")
    assert parsed.graph.edge_list() == [("a", "b"), ("b", "c")]
    assert parsed.pairs is None


def test_parse_pairs_shorthand_and_extra_edges():
    parsed = parse_graph("pairs 2\nedge x1 y2\n")
    assert parsed.pairs == (("x1", "y1"), ("x2", "y2"))
    assert parsed.xside == ("x1", "x2")
    assert parsed.graph.edge_list() == [
        ("x1", "y1"),
        ("x1", "y2"),
        ("x2", "y2"),
    ]


def test_parse_sides():
    parsed = parse_graph("xside a b\nyside c d\nedge a c\nedge b d\n")
    assert parsed.xside == ("a", "b")
    assert parsed.yside == ("c", "d")


@pytest.mark.parametrize(
    "text",
    [
        "edge a a\n",
        "edge a\n",
        "vertex\n",
        "pairs 0\n",
        "pairs two\n",
        "pairs 1\npairs 2\n",
        "frobnicate a b\n",
        "xside\n",
    ],
)
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(InputFormatError):
        parse_graph(text)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("vertex\n", InputFormatError, "line 1: vertex takes exactly one name"),
        ("edge a b\nvertex a b\n", InputFormatError, "line 2: vertex takes exactly one name"),
        ("# c\n\nedge a\n", InputFormatError, "line 3: edge takes exactly two names"),
        ("edge a b c\n", InputFormatError, "line 1: edge takes exactly two names"),
        ("edge\n", InputFormatError, "line 1: edge takes exactly two names"),
        ("edge a b\nedge c c  # x\n", InputFormatError, "line 2: loop edge 'c'-'c' is not allowed"),
        ("pairs 1\nedge a b\npairs 2\n", InputFormatError, "line 3: pairs may be declared only once"),
        ("pairs 1\npairs two\n", InputFormatError, "line 2: pairs may be declared only once"),
        ("pairs two\n", InputFormatError, "line 1: pairs takes one positive integer"),
        ("pairs -1\n", InputFormatError, "line 1: pairs takes one positive integer"),
        ("pairs 1 2\n", InputFormatError, "line 1: pairs takes one positive integer"),
        ("pairs\n", InputFormatError, "line 1: pairs takes one positive integer"),
        ("edge a b\npairs 000\n", InputFormatError, "line 2: pairs takes one positive integer"),
        ("pairs 0\n", InputFormatError, "line 1: pairs takes one positive integer"),
        (f"pairs {PAIRS_CAP + 1}\n", CapacityError, f"line 1: pairs is capped at {PAIRS_CAP} pairs"),
        ("vertex a\nxside\n", InputFormatError, "line 2: xside needs at least one name"),
        ("xside a\nyside   # none\n", InputFormatError, "line 2: yside needs at least one name"),
        ("edge a b\n\nfrobnicate a b\n", InputFormatError, "line 3: unknown directive 'frobnicate'"),
        ("Edge a b\n", InputFormatError, "line 1: unknown directive 'Edge'"),
    ],
)
def test_parse_errors_name_their_line(text, error, message):
    with pytest.raises(error) as caught:
        parse_graph(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_pairs_count_is_capped_before_anything_is_built():
    assert PAIRS_CAP >= 1200  # the largest matching the docs and tests use
    largest = parse_graph(f"pairs 000{PAIRS_CAP}\n").graph
    assert len(largest.vertices) == 2 * PAIRS_CAP
    message = f"line 2: pairs is capped at {PAIRS_CAP}"
    for count in (PAIRS_CAP + 1, f"000{PAIRS_CAP + 1}", 10**12, "9" * 100_000):
        with pytest.raises(CapacityError, match=message):
            parse_graph(f"edge a b\npairs {count}\n")


def test_format_round_trip(ex31, c4):
    for g in (ex31, c4, Graph.build(vertices=["lonely"])):
        again = parse_graph(format_graph(g)).graph
        assert again == g
    # canonical form is stable under re-emission
    text = format_graph(ex31)
    assert format_graph(parse_graph(text).graph) == text


def test_unreadable_graph_file_is_an_input_error(tmp_path):
    missing = tmp_path / "missing.graph"
    with pytest.raises(InputFormatError, match=re.escape(f"cannot read {missing}: ")):
        parse_graph_file(missing)
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes("pairs 2  # caf\u00e9\n".encode("latin-1"))
    with pytest.raises(InputFormatError, match="'utf-8' codec"):
        parse_graph_file(latin1)
