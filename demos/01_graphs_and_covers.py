"""Covers, independent sets, matchings, and class membership.

Every enumeration in the library is exact and deterministically ordered,
so everything printed here is reproducible byte for byte.
"""

import os

from cmgraphs import (
    classify,
    is_unmixed_bruteforce,
    maximal_independent_sets,
    minimal_vertex_covers,
    parse_graph_file,
    Graph,
)
from cmgraphs.graphs import iter_perfect_matchings

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")


# A graph is built from named vertices and unordered edges; loops and
# multi-edges are rejected at construction time.
triangle = Graph.build(edges=[("a", "b"), ("a", "c"), ("b", "c")])
print("triangle covers:", [sorted(c) for c in minimal_vertex_covers(triangle)])
print("triangle independents:", [sorted(s) for s in maximal_independent_sets(triangle)])

# The bundled three-pair fixture: a matching x1y1..x3y3 plus the cross
# edges x1y2, x1y3, x2y3.
g = parse_graph_file(os.path.join(FIXTURES, "example3_1.graph")).graph
print("\nfixture edges:", g.edge_list())

membership = classify(g)
print("vertex count:", membership.vertex_count)
print("height (minimum cover size):", membership.height)
print("in class (vertices = 2 * height, no isolated):", membership.in_class)

# All four minimal covers have size three, so the graph is unmixed; note
# how each cover picks exactly one vertex out of every matched pair.
for cover in minimal_vertex_covers(g):
    print("cover:", sorted(cover))
print("unmixed:", is_unmixed_bruteforce(g).to_dict())

# The matching edges are the unique perfect matching here.
print("perfect matchings:", tuple(iter_perfect_matchings(g)))

# A path is the classic mixed example: covers {b} and {a, c} differ in size.
path = Graph.build(edges=[("a", "b"), ("b", "c")])
print("\npath unmixed:", is_unmixed_bruteforce(path).to_dict())
