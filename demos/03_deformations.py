"""The rewiring operator: cross edges into y_i become cover edges at x_i.

Deforming over every index and restricting to the cover side produces the
small graph on x vertices that controls type, level and Gorenstein-ness.
"""

import os

from cmgraphs import (
    classify,
    find_star_labeling,
    o_set,
    parse_graph_file,
    restricted_o_full,
)
from cmgraphs.pairing import validate_labeling

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")

g = parse_graph_file(os.path.join(FIXTURES, "example3_1.graph")).graph
pl = find_star_labeling(g)
print("original: ", g.edge_list())

# Pair 1 has no incoming cross edges, so nothing changes there.
print("rewire 1: ", o_set(pl, (1,)).edge_list())
# Pair 3 receives x1y3 and x2y3; both flip into cover edges.
print("rewire 3: ", o_set(pl, (3,)).edge_list())

# Composition over {2, 3} reproduces the deformed graph; the order of
# composition does not matter and repeated application changes nothing.
deformed = o_set(pl, {2, 3})
print("rewire {2,3}:", deformed.edge_list())

# Class membership and the labeling survive every deformation.
full = o_set(pl, {1, 2, 3})
print("rewire all:", full.edge_list())
print("still in class:", classify(full).in_class)
print("labeling still valid:", validate_labeling(pl.with_graph(full)) == [])

# Restricting the full deformation to the cover side gives a triangle:
# three minimal covers there means type 3 for the original graph.
print("restriction:", restricted_o_full(pl).edge_list())
