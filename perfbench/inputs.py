"""Seeded inputs for the three benchmark workloads.

Every input is plain data: the text of a graph file (or None for census
calls), the CLI arguments that follow the file path, and the kind of
input, which selects its correctness check.  The program under test only
ever sees the written graph files and the argument lists.  The same seed
always yields the same inputs; only the random members and the census
seeds depend on it.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from checks import reference_verdicts

DEFAULT_SEED = 1

# Family sizes.  Each family grows until one item costs roughly a tenth of
# a pass, so no single input owns the latency tail.
PAIRS_SIZES = range(1, 12)
WHISKERED_SIZES = range(1, 16)
CHAIN_SIZES = range(2, 35, 4)
GRAFT_COPIES = range(1, 5)
RANDOM_PAIRS = (5, 6, 7)
RANDOM_EDGE_PROB = 0.08
# Members drawn per pair count, by (unmixed, Cohen-Macaulay).  At the edge
# probability above about 60% of draws are mixed and most unmixed ones are
# CM; fixed quotas keep that mix, and so the cost of a pass, the same for
# every seed.
RANDOM_QUOTA = {(False, False): 5, (True, True): 3}

ORACLE_PAIRS = range(1, 5)
ORACLE_WHISKERED = range(2, 6)
ORACLE_CHAINS = range(2, 6)
ORACLE_FIXTURES = ("c4.graph", "example3_1.graph")
ORACLE_RANDOM_N = 3
ORACLE_RANDOM_QUOTA = {(True, True): 3, (True, False): 3}
ORACLE_EDGE_PROB = 0.3

CENSUS_CALLS = 16
CENSUS_DRAWS = 25


@dataclass(frozen=True)
class Item:
    """One call of `cmgraphs.cli.main`.

    `argv` holds the arguments after the graph file (all of them for a
    census call, which reads no file).  `kind` selects the correctness
    check, `n` is the family size, and `seeded` marks inputs that change
    with the seed.
    """

    name: str
    text: str | None
    argv: tuple[str, ...]
    kind: str
    n: int = 0
    seeded: bool = False
    draws: int = 1


def pairs_text(n: int) -> str:
    return f"pairs {n}\n"


def whiskered_text(n: int) -> str:
    """The path x1 .. xn with a whisker y_i on every x_i."""
    return pairs_text(n) + "".join(f"edge x{i} x{i + 1}\n" for i in range(1, n))


def chain_text(n: int) -> str:
    """Upward chain: every cross edge x_i y_j with i < j, plus the matching."""
    return pairs_text(n) + "".join(
        f"edge x{i} y{j}\n" for i in range(1, n + 1) for j in range(i + 1, n + 1)
    )


def edges_text(edges) -> str:
    return "".join(f"edge {a} {b}\n" for a, b in sorted(edges))


def read_block(path: Path) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """x side, y side and edges of an Example 5.1 block file."""
    xside, yside, edges = [], [], []
    for raw in path.read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "xside":
            xside += tokens[1:]
        elif tokens[0] == "yside":
            yside += tokens[1:]
        elif tokens[0] == "edge":
            edges.append((tokens[1], tokens[2]))
        else:
            raise ValueError(f"{path}: unexpected directive {tokens[0]!r}")
    return xside, yside, edges


def graft_text(blocks, copies: int) -> str:
    """Graft `copies` rounds of the blocks b1 b2 b3 along a path base:
    consecutive blocks have their x sides joined completely."""
    edges = set()
    sides = []
    for k in range(3 * copies):
        xside, _yside, block_edges = blocks[k % 3]
        tag = f"_{k + 1:02d}"
        edges.update((a + tag, b + tag) for a, b in block_edges)
        sides.append([x + tag for x in xside])
    for left, right in zip(sides, sides[1:]):
        edges.update((u, v) for u in left for v in right)
    return edges_text(edges)


def random_member_edges(rng: random.Random, n: int, p: float):
    """A labeled class member: the matching x_i y_i plus each cover-side
    edge x_i x_j and cross edge x_i y_j with probability p."""
    edges = [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j and rng.random() < p:
                edges.append((f"x{i}", f"x{j}"))
            if i != j and rng.random() < p:
                edges.append((f"x{i}", f"y{j}"))
    return edges


def quota_members(rng: random.Random, n: int, p: float, quota: dict) -> list[str]:
    """Random members drawn until each (unmixed, CM) class in `quota` has
    its count, as graph texts in draw order; other draws are skipped."""
    left = dict(quota)
    members = []
    while any(left.values()):
        text = edges_text(random_member_edges(rng, n, p))
        verdicts = reference_verdicts(text)
        if left.get(verdicts):
            left[verdicts] -= 1
            members.append(text)
    return members


def check_families(seed: int, fixtures: Path) -> list[Item]:
    routes = ("--json", "--routes", "a")
    items = [
        Item(f"fixture-{p.stem}", p.read_text(encoding="utf-8"), routes, "fixture")
        for p in sorted(fixtures.glob("*.graph"))
    ]
    items += [Item(f"pairs-{n}", pairs_text(n), routes, "pairs", n) for n in PAIRS_SIZES]
    items += [
        Item(f"whiskered-{n}", whiskered_text(n), routes, "whiskered", n)
        for n in WHISKERED_SIZES
    ]
    items += [Item(f"chain-{n}", chain_text(n), routes, "chain", n) for n in CHAIN_SIZES]
    blocks = [read_block(fixtures / f"example5_1.b{i}.graph") for i in (1, 2, 3)]
    items += [
        Item(f"graft-{c}", graft_text(blocks, c), routes, "graft", c)
        for c in GRAFT_COPIES
    ]
    rng = random.Random(f"check_families/{seed}")
    for n in RANDOM_PAIRS:
        members = quota_members(rng, n, RANDOM_EDGE_PROB, RANDOM_QUOTA)
        items += [
            Item(f"random-{n}-{k}", text, routes, "random", n, seeded=True)
            for k, text in enumerate(members)
        ]
    return items


def oracle_routes(seed: int, fixtures: Path) -> list[Item]:
    graphs = [(f"pairs-{n}", pairs_text(n), "pairs", n, False) for n in ORACLE_PAIRS]
    graphs += [
        (f"whiskered-{n}", whiskered_text(n), "whiskered", n, False)
        for n in ORACLE_WHISKERED
    ]
    graphs += [(f"chain-{n}", chain_text(n), "chain", n, False) for n in ORACLE_CHAINS]
    graphs += [
        (f"fixture-{Path(f).stem}", (fixtures / f).read_text(encoding="utf-8"), "fixture", 0, False)
        for f in ORACLE_FIXTURES
    ]
    # Unmixed members only, so that every route applies; the quota makes
    # sure both verdicts occur.
    rng = random.Random(f"oracle_routes/{seed}")
    members = quota_members(rng, ORACLE_RANDOM_N, ORACLE_EDGE_PROB, ORACLE_RANDOM_QUOTA)
    graphs += [
        (f"random-{k}", text, "random", ORACLE_RANDOM_N, True)
        for k, text in enumerate(members)
    ]
    items = []
    for fld in ("2", "Q"):
        argv = ("--json", "--routes", "a,b,c,d,e,f", "--field", fld)
        items += [
            Item(f"{name}-F{fld}", text, argv, kind, n, seeded)
            for name, text, kind, n, seeded in graphs
        ]
    return items


def census_sample(seed: int, fixtures: Path) -> list[Item]:
    rng = random.Random(f"census_sample/{seed}")
    items = []
    for k in range(CENSUS_CALLS):
        derived = rng.getrandbits(32)
        argv = (
            "census", "--n", "4", "--mode", "sample", "--seed", str(derived),
            "--count", str(CENSUS_DRAWS), "--threads", "1",
        )
        items.append(
            Item(f"census-{k}", None, argv, "census", 4, seeded=True, draws=CENSUS_DRAWS)
        )
    return items


WORKLOADS = {
    "check_families": check_families,
    "oracle_routes": oracle_routes,
    "census_sample": census_sample,
}


def inputs_digest(items: list[Item]) -> str:
    payload = json.dumps([[i.name, i.text, list(i.argv)] for i in items])
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()
