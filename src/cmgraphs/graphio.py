"""Line-oriented text format for graphs.

    # comment (whole line or trailing)
    vertex <name>
    edge <a> <b>          endpoints are declared implicitly
    pairs <n>             declares x1..xn, y1..yn and the edges x1y1..xnyn
                          (n at most PAIRS_CAP)
    xside <name> ...      partition markers used by bipartite block files
    yside <name> ...

``parse_graph`` returns the graph together with the labeling hints the
file declared.  ``format_graph`` emits the canonical explicit form (sorted
vertex lines, then sorted edge lines) which reparses to an equal graph.
"""

from dataclasses import dataclass

from .errors import CapacityError, InputFormatError
from .graphs import Graph

# the largest `pairs N`; a larger count is a capacity error, raised before
# any of its pairs is built
PAIRS_CAP = 10_000


@dataclass(frozen=True)
class ParsedGraph:
    graph: Graph
    pairs: tuple[tuple[str, str], ...] | None = None
    xside: tuple[str, ...] | None = None
    yside: tuple[str, ...] | None = None


def parse_graph(text: str) -> ParsedGraph:
    """The graph and hints of a file's text; a well-formed `edge a b` line
    takes a fast path, and an error names its line."""
    vertices: set[str] = set()
    edges: list[tuple[str, str]] = []
    pairs: list[tuple[str, str]] | None = None
    xside: list[str] | None = None
    yside: list[str] | None = None
    lineno = 0

    def fail(msg: str):
        raise InputFormatError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if len(tokens) == 3 and tokens[0] == "edge" and tokens[1] != tokens[2]:
            edges.append((tokens[1], tokens[2]))
            continue
        if not tokens:
            continue
        directive, args = tokens[0], tokens[1:]

        if directive == "vertex":
            if len(args) != 1:
                fail("vertex takes exactly one name")
            vertices.add(args[0])
        elif directive == "edge":  # a well-formed edge took the fast path
            if len(args) != 2:
                fail("edge takes exactly two names")
            fail(f"loop edge {args[0]!r}-{args[0]!r} is not allowed")
        elif directive == "pairs":
            if pairs is not None:
                fail("pairs may be declared only once")
            if len(args) != 1 or not args[0].isdecimal():
                fail("pairs takes one positive integer")
            # bounded by its digits before it is read, so no count, however
            # long, is converted or builds anything
            digits = args[0].lstrip("0") or "0"
            if len(digits) > len(str(PAIRS_CAP)) or int(digits) > PAIRS_CAP:
                raise CapacityError(
                    f"line {lineno}: pairs is capped at {PAIRS_CAP} pairs"
                )
            n = int(digits)
            if n < 1:
                fail("pairs takes one positive integer")
            pairs = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
            edges += pairs
        elif directive == "xside":
            if not args:
                fail("xside needs at least one name")
            xside = (xside or []) + args
            vertices.update(args)
        elif directive == "yside":
            if not args:
                fail("yside needs at least one name")
            yside = (yside or []) + args
            vertices.update(args)
        else:
            fail(f"unknown directive {directive!r}")

    graph = Graph.build(vertices, edges)
    if pairs is not None and xside is None and yside is None:
        xside = [x for x, _ in pairs]
        yside = [y for _, y in pairs]
    return ParsedGraph(
        graph,
        tuple(pairs) if pairs is not None else None,
        tuple(xside) if xside is not None else None,
        tuple(yside) if yside is not None else None,
    )


def read_file(path) -> tuple[bytes, str]:
    """A graph file's bytes and their UTF-8 text, read once; a file that
    cannot be read or decoded is an `InputFormatError`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data, data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def parse_graph_file(path) -> ParsedGraph:
    return parse_graph(read_file(path)[1])


def format_graph(g: Graph) -> str:
    """Canonical explicit emission; byte-stable for equal graphs."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {a} {b}" for a, b in g.edge_list()]
    return "\n".join(lines) + "\n"
