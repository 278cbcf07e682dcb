"""Correctness checks for every output the benchmark collects.

Family members are checked against closed forms, random members against
an independent brute-force reference, and fixtures, grafts and census
reports against digests of their canonical output.  Digests of inputs
that change with the seed are recorded for the default seed only.  Each
check returns None when the output is right, else a one-line reason.
"""

import hashlib
import json

EXIT_OK = 0


def stdout_digest(item, stdout: str) -> str:
    """Digest of the canonical output; a census report drops its
    wall-clock `runtime_ms`, which is excluded from byte stability."""
    if item.kind == "census":
        payload = json.loads(stdout)
        payload.pop("runtime_ms", None)
        stdout = json.dumps(payload, indent=2)
    return "sha256:" + hashlib.sha256(stdout.encode()).hexdigest()


def whiskered_type(n: int) -> int:
    """a(1..3) = 1, 2, 2 and a(n) = a(n-2) + a(n-3)."""
    a = [0, 1, 2, 2]
    while len(a) <= n:
        a.append(a[-2] + a[-3])
    return a[n]


def closed_form(kind: str, n: int):
    """(type, level, gorenstein) of a Cohen-Macaulay family member."""
    if kind == "pairs":
        return 1, True, True
    if kind == "whiskered":
        return whiskered_type(n), n in (1, 2, 4), n == 1
    if kind == "chain":
        return n, True, n == 1
    return None


def _parse(text: str):
    """Vertex list and adjacency bitmasks of a generated graph file."""
    edges = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "pairs":
            n = int(tokens[1])
            edges += [(f"x{i}", f"y{i}") for i in range(1, n + 1)]
        elif tokens[0] == "edge":
            edges.append((tokens[1], tokens[2]))
    names = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(names)}
    adj = [0] * len(names)
    for a, b in edges:
        adj[index[a]] |= 1 << index[b]
        adj[index[b]] |= 1 << index[a]
    return len(names), adj


def _maximal_independent_sizes(nv: int, adj: list[int]) -> set[int]:
    sizes = set()

    def rec(v: int, chosen: int, blocked: int) -> None:
        if v == nv:
            if all(chosen >> u & 1 or adj[u] & chosen for u in range(nv)):
                sizes.add(bin(chosen).count("1"))
            return
        if not blocked >> v & 1:
            rec(v + 1, chosen | 1 << v, blocked | adj[v])
        rec(v + 1, chosen, blocked)

    rec(0, 0, 0)
    return sizes


def _perfect_matchings(nv: int, adj: list[int], limit: int = 2) -> int:
    """Perfect matchings counted up to `limit`."""

    def rec(free: int) -> int:
        if not free:
            return 1
        v = (free & -free).bit_length() - 1
        count, rest = 0, free & ~(1 << v)
        options = adj[v] & rest
        while options and count < limit:
            w = options & -options
            options ^= w
            count += rec(rest & ~w)
        return count

    return rec((1 << nv) - 1)


def reference_verdicts(text: str) -> tuple[bool, bool]:
    """(unmixed, Cohen-Macaulay) of a class member, computed without the
    package: unmixed when all maximal independent sets share one size, and
    then Cohen-Macaulay exactly when the perfect matching is unique."""
    nv, adj = _parse(text)
    unmixed = len(_maximal_independent_sizes(nv, adj)) == 1
    return unmixed, unmixed and _perfect_matchings(nv, adj) == 1


def check_output(item, exit_code: int, stdout: str, expected: dict | None):
    """Reason the output of one call is wrong, or None.

    `expected` is the digest recorded for this item, or None when the
    item's digest does not apply to this seed."""
    if exit_code != EXIT_OK:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if expected is not None and stdout_digest(item, stdout) != expected:
        return "canonical output differs from the recorded digest"
    if item.kind == "census":
        return _check_census(item, doc)
    return _check_document(item, doc)


def _check_census(item, doc: dict):
    if doc.get("violations"):
        return f"{len(doc['violations'])} census violations"
    if doc.get("population") != item.draws:
        return f"population {doc.get('population')} of {item.draws} draws"
    if sum(doc["type_histogram"].values()) != doc["cm_count"]:
        return "type histogram does not sum to the CM count"
    if not doc["cm_count"] <= doc["unmixed_count"] <= doc["population"]:
        return "CM, unmixed and population counts are not nested"
    return None


def _check_document(item, doc: dict):
    if doc.get("version") != "analysis-v1":
        return "not an analysis-v1 document"
    cm = doc["cm"]
    if cm is not None and cm["applicable"]:
        undecided = sorted(r for r, v in cm["routes"].items() if v["value"] is None)
        if undecided:
            return f"routes {undecided} were inconclusive"
    form = closed_form(item.kind, item.n)
    if form is not None:
        inv = doc["invariants"]
        if cm is None or cm["value"] is not True or inv is None:
            return "family member is not reported Cohen-Macaulay"
        got = inv["cm_type"], inv["level"], inv["gorenstein"]
        if got != form:
            return f"(type, level, gorenstein) = {got}, expected {form}"
    elif item.kind == "graft":
        if cm is None or cm["value"] is not True:
            return "graft of Cohen-Macaulay blocks is not reported Cohen-Macaulay"
    elif item.kind == "random":
        unmixed, is_cm = reference_verdicts(item.text)
        got = doc["unmixed"]["value"], bool(cm and cm["value"])
        if got != (unmixed, is_cm):
            return f"(unmixed, cm) = {got}, reference {(unmixed, is_cm)}"
    return None
