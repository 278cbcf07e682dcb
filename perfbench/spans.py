"""Per-layer spans, recorded from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper in
every `cmgraphs` namespace that binds it (the defining module, modules
that imported it with `from .x import f`, the package itself) and in
`criteria._ROUTE_IMPL`.  Calls made inside a module resolve through the
same module globals, so nested and recursive calls are traced too.

A wrapper keeps a stack of open spans.  On exit it adds the span's
duration minus its children's to its own self time, and its whole
duration to its parent's child time.  Hooks turn a call's arguments and
result into work counters, recorded where the work happens.
"""

import sys
import time
from collections import Counter

# module -> traced functions; a leading underscore is dropped in metric
# names, so `criteria._route_a` reports as `criteria.route_a.*`.
TRACED = {
    "graphs": (
        "maximal_independent_sets",
        "minimal_vertex_covers",
        "is_unmixed_bruteforce",
        "classify",
        "adjacency",
    ),
    "graphio": ("parse_graph",),
    "pairing": (
        "find_star_labeling",
        "relabel_for_double_star",
        "validate_labeling",
        "find_cycle",
        "unique_perfect_matching",
    ),
    "criteria": (
        "_structural_scan",
        "generator_bounds",
        "_route_a",
        "_route_b",
        "_route_c",
        "_route_d",
        "_route_e",
        "_route_f",
    ),
    "transform": ("o_set", "restricted_o_full"),
    "complexes": (
        "complementary_complex",
        "is_strongly_connected",
        "find_shelling",
        "check_shelling",
        "reisner_cm",
    ),
    "linalg": ("rank_gf2", "rank_mod_p", "rank_rational"),
    "invariants": ("invariant_report",),
    "census": ("cross_validate", "check_member", "member_from_mask"),
    "cli": ("main",),
}


def span_name(module: str, function: str) -> str:
    return f"{module}.{function.lstrip('_')}"


def _matrix_entries(rows) -> int:
    return len(rows) * (len(rows[0]) if rows else 0)


def _route_hook(counters, result, args):
    if result.value is None:
        counters["criteria.route_inconclusive"] += 1


def _census_hook(counters, result, args):
    counters["census.draws"] += result.sample_count or 0
    counters["census.population"] += result.population
    counters["census.unmixed"] += result.unmixed_count


HOOKS = {
    "graphs.maximal_independent_sets": lambda c, r, a: c.update(
        {"graphs.maximal_independent_sets.sets_out": len(r)}
    ),
    "complexes.complementary_complex": lambda c, r, a: c.update(
        {"complexes.complementary_complex.facets": len(r.facets)}
    ),
    "linalg.rank_gf2": lambda c, r, a: c.update(
        {"linalg.rank_gf2.entries": _matrix_entries(a[0])}
    ),
    "linalg.rank_rational": lambda c, r, a: c.update(
        {"linalg.rank_rational.entries": _matrix_entries(a[0])}
    ),
    "census.cross_validate": _census_hook,
    **{f"criteria.route_{r}": _route_hook for r in "abcdef"},
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span name, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._originals: set[int] = set()

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def current_span(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hook, counters, clock = HOOKS.get(name), self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook(counters, result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count_faces(self, all_faces):
        """Faces listed on behalf of `reisner_cm`, counted without a span
        of their own so the listing stays in the oracle's self time."""

        def wrapper(*args, **kwargs):
            faces = all_faces(*args, **kwargs)
            if self.current_span() == "complexes.reisner_cm":
                self.counters["complexes.reisner_cm.faces"] += len(faces)
            return faces

        wrapper.__wrapped__ = all_faces
        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"cmgraphs.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                self._originals.add(id(original))
                wrappers[id(original)] = self._wrap(
                    span_name(module_name, function), original
                )
                self._replace_everywhere(original, wrappers[id(original)])
        complexes = sys.modules["cmgraphs.complexes"]
        self._replace_everywhere(
            complexes.all_faces, self._count_faces(complexes.all_faces)
        )
        routes = sys.modules["cmgraphs.criteria"]._ROUTE_IMPL
        for key, fn in list(routes.items()):
            if id(fn) in wrappers:
                self._patches.append((routes, key, fn))
                routes[key] = wrappers[id(fn)]

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Namespaces that still bind a traced function directly; empty
        once `install` has covered every binding."""
        found = []
        routes = sys.modules["cmgraphs.criteria"]._ROUTE_IMPL
        places = [(f"{m.__name__}.", vars(m)) for m in _package_modules()]
        places.append(("criteria._ROUTE_IMPL.", routes))
        for prefix, namespace in places:
            for attr, value in namespace.items():
                if id(value) in self._originals:
                    found.append(prefix + str(attr))
        return found


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "cmgraphs" or name.startswith("cmgraphs."))
    ]


UNITS = {
    "calls": "count",
    "self_s": "s",
    "calls_per_item": "calls/item",
    "sets_out": "count",
    "facets": "count",
    "faces": "count",
    "entries": "count",
    "route_inconclusive": "count",
    "in_class_ratio": "ratio",
    "unmixed_ratio": "ratio",
    "overhead_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_values(tracer: Tracer, items: int, scale: float) -> dict[str, float]:
    """Every per-layer value one traced pass over `items` items produced,
    keyed by metric name; self times are multiplied by `scale`."""
    values: dict[str, float] = dict(tracer.counters)
    for span, calls in tracer.calls.items():
        values[f"{span}.calls"] = calls
        values[f"{span}.calls_per_item"] = calls / items
        values[f"{span}.self_s"] = tracer.self_s[span] * scale
    c = tracer.counters
    values["census.in_class_ratio"] = _ratio(c["census.population"], c["census.draws"])
    values["census.unmixed_ratio"] = _ratio(c["census.unmixed"], c["census.population"])
    return values
