"""Command-line front end.

Subcommands: classify, check, transform, graft, invariants, census,
complex.  Exit codes: 0 completed (verdicts may be true or false), 1
input, format or usage error, or standard output closed before the
output was written, 2 capacity bailout (inconclusive), 3
internal disagreement between provably equivalent criteria, or any other
unexpected exception (reported with the argv that raised it).
"""

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys

from .census import cross_validate
from .complexes import complementary_complex, format_complex
from .criteria import (
    ROUTE_NAMES,
    cm_routes,
    generator_bounds,
    route_agreement,
    _crosschecked_unmixed,
)
from .errors import (
    CapacityError,
    CmGraphsError,
    InputFormatError,
    RouteDisagreementError,
    StructureError,
)
from .graphs import classify, is_unmixed_bruteforce
from .graphio import format_graph, parse_graph, parse_graph_file, read_file
from .invariants import invariant_report
from .linalg import is_prime
from .pairing import (
    PairedLabeling,
    find_star_labeling,
    make_labeling,
    relabel_for_double_star,
)
from .transform import BGraftSpec, BipartiteBlock, b_graft, o_set
from .verdicts import indented_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPACITY = 2
EXIT_DISAGREEMENT = 3


def _labeling_for(parsed) -> PairedLabeling:
    """Prefer the labeling declared in the file; fall back to discovery."""
    if parsed.pairs is not None:
        return make_labeling(parsed.graph, parsed.pairs)
    return find_star_labeling(parsed.graph)


def _analysis_document(path, routes: str, field) -> tuple[dict, int]:
    data, text = read_file(path)
    parsed = parse_graph(text)
    g = parsed.graph
    membership = classify(g)
    document = {
        "version": "analysis-v1",
        "input_digest": "sha256:" + hashlib.sha256(data).hexdigest(),
        "class": membership.to_dict(),
        "labeling": None,
        "unmixed": None,
        "cm": None,
        "bounds": None,
        "invariants": None,
        "warnings": [],
    }
    exit_code = EXIT_OK

    if not membership.in_class:
        document["unmixed"] = is_unmixed_bruteforce(g).to_dict()
        document["warnings"].append(
            "graph is outside the supported class; only brute-force "
            "unmixedness is reported"
        )
        return document, exit_code

    try:
        pl = _labeling_for(parsed)
    except StructureError as exc:
        document["labeling"] = {
            "error": str(exc),
            "hall_set": exc.hall_set,
            "neighborhood": exc.neighborhood,
        }
        document["unmixed"] = is_unmixed_bruteforce(g).to_dict()
        document["warnings"].append(
            "no cover-to-independent-set matching exists; falling back to "
            "brute-force unmixedness"
        )
        return document, exit_code

    document["labeling"] = pl.to_dict()
    document["bounds"] = generator_bounds(pl).to_dict()
    unmixed = _crosschecked_unmixed(pl)
    document["unmixed"] = unmixed.to_dict()

    if not unmixed.value:
        document["cm"] = {
            "applicable": False,
            "value": False,
            "routes": {},
            "note": "not unmixed; a Cohen-Macaulay graph is always unmixed",
        }
        return document, exit_code

    cm = route_agreement(pl, cm_routes(pl, routes=routes, field=field))
    document["cm"] = {
        "applicable": True,
        "value": cm.value,
        "primary": None if cm.value is None else cm.route,
        "routes": cm.certificate["routes"],
    }
    if cm.value is None:
        document["warnings"].append(
            "all selected routes were inconclusive (capacity bounds)"
        )
        exit_code = EXIT_CAPACITY
    if cm.value:
        index = {p: i for i, p in enumerate(pl.pairs, start=1)}
        upward = relabel_for_double_star(pl).pairs
        document["labeling"]["double_star_order"] = [index[p] for p in upward]
        document["invariants"] = invariant_report(pl).to_dict()
    return document, exit_code


def _print_document(document: dict, as_json: bool) -> None:
    if as_json:
        print(indented_json(document))
        return
    cls = document["class"]
    print(
        f"class: vertices={cls['vertex_count']} height={cls['height']} "
        f"in_class={cls['in_class']}"
    )
    lab = document["labeling"]
    if lab is None:
        print("labeling: (not in class)")
    elif "error" in lab:
        print(f"labeling: error: {lab['error']}")
    else:
        pairs = " ".join(f"{x}~{y}" for x, y in lab["pairs"])
        print(f"labeling: {pairs}")
    if document["unmixed"] is not None:
        u = document["unmixed"]
        print(f"unmixed: {u['value']} (route {u['route']})")
    cm = document["cm"]
    if cm is not None:
        print(f"cm: {cm['value']}")
        for r, v in cm.get("routes", {}).items():
            summary = json.dumps(v["certificate"])[:100] if v["certificate"] else ""
            print(f"  route {r} ({v['route']}): {v['value']} {summary}")
    bounds = document["bounds"]
    if bounds is not None:
        cert = bounds["certificate"]
        print(
            f"bounds: ok={bounds['value']} edges={cert['edges']} "
            + " ".join(
                f"{k}={cert[k]}"
                for k in ("unmixed_bound", "cm_bound")
                if k in cert
            )
        )
    inv = document["invariants"]
    if inv is not None:
        print(
            f"invariants: type={inv['cm_type']} level={inv['level']} "
            f"gorenstein={inv['gorenstein']}"
        )
        print(
            "socle: "
            + " ".join("".join(m) for m in inv["socle_monomials"])
        )
    for w in document["warnings"]:
        print(f"warning: {w}")


def _cmd_classify(args) -> int:
    parsed = parse_graph_file(args.file)
    membership = classify(parsed.graph)
    if args.json:
        print(indented_json(membership.to_dict()))
    else:
        for k, v in membership.to_dict().items():
            print(f"{k}: {v}")
    return EXIT_OK


def _cmd_check(args) -> int:
    routes = args.routes.replace(",", "")
    unknown = set(routes) - set(ROUTE_NAMES)
    if unknown:
        raise InputFormatError(f"unknown routes: {sorted(unknown)}")
    if not routes:
        raise InputFormatError("no routes selected")
    if args.field.upper() == "Q":
        field = "Q"
    else:
        try:
            field = int(args.field)
        except ValueError as exc:
            raise InputFormatError(f"bad --field value {args.field!r}") from exc
        if not (field < 2**31 and is_prime(field)):
            raise InputFormatError(
                f"--field must be Q or a prime below 2^31, got {field}"
            )
    document, exit_code = _analysis_document(args.file, routes, field)
    _print_document(document, args.json)
    return exit_code


def _cmd_transform(args) -> int:
    parsed = parse_graph_file(args.file)
    pl = _labeling_for(parsed)
    indices = set()
    if args.set:
        try:
            indices = {int(tok) for tok in args.set.split(",") if tok}
        except ValueError as exc:
            raise InputFormatError(f"bad --set value {args.set!r}") from exc
    sys.stdout.write(format_graph(o_set(pl, indices)))
    return EXIT_OK


def _cmd_graft(args) -> int:
    h0 = parse_graph_file(args.h0).graph
    blocks = []
    for path in args.block:
        parsed = parse_graph_file(path)
        if parsed.xside is None or parsed.yside is None:
            raise InputFormatError(
                f"block file {path} must declare xside/yside (or pairs)"
            )
        blocks.append(
            BipartiteBlock(parsed.graph, parsed.xside, parsed.yside)
        )
    graph, _pl = b_graft(BGraftSpec(h0, tuple(blocks)))
    sys.stdout.write(format_graph(graph))
    return EXIT_OK


def _cmd_invariants(args) -> int:
    parsed = parse_graph_file(args.file)
    pl = _labeling_for(parsed)
    report = invariant_report(pl)
    if args.list_socle:
        for monomial in report.socle_monomials:
            print(" ".join(monomial))
    else:
        print(indented_json(report.to_dict()))
    return EXIT_OK


def _write_text(path, text: str, mode: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


def _cmd_census(args) -> int:
    # appending nothing fails on an unwritable path before the run yet
    # leaves an existing file intact until the run completes, and a file
    # the check created goes again if the census fails; the CSV is
    # written before the report, so a failed write leaves stdout empty
    created = False
    if args.csv:
        created = not os.path.exists(args.csv)
        _write_text(args.csv, "", "a")
    try:
        report = cross_validate(
            args.n,
            mode=args.mode,
            seed=args.seed,
            count=args.count,
            threads=args.threads,
        )
        if args.csv:
            _write_text(args.csv, report.histogram_csv(), "w")
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(args.csv)
        raise
    payload = report.canonical_dict()
    payload["runtime_ms"] = report.runtime_ms
    print(indented_json(payload))
    return EXIT_OK


def _cmd_complex(args) -> int:
    parsed = parse_graph_file(args.file)
    sys.stdout.write(format_complex(complementary_complex(parsed.graph)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `InputFormatError` (exit 1) instead of exiting
    2, which means a capacity bailout here; subparsers share the class.
    The top-level parser maps each subcommand name to its parser in
    `subcommands`."""

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call reuses it."""
    parser = _Parser(
        prog="cmgraphs",
        description=(
            "Unmixedness, Cohen-Macaulayness, type, level and Gorenstein "
            "checks for graphs whose minimum vertex cover is half the "
            "vertex count"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    p = sub.add_parser("classify", help="class membership of a graph file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("check", help="full analysis document")
    p.add_argument("file")
    p.add_argument(
        "--routes",
        default="a",
        help="comma-separated subset of a,b,c,d,e,f (default a)",
    )
    p.add_argument(
        "--field", default="2", help="homology field: Q or a prime below 2^31"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("transform", help="apply the rewiring operator")
    p.add_argument("file")
    p.add_argument("--set", default="", help="comma-separated pair indices")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("graft", help="build a block-grafted graph")
    p.add_argument("--h0", required=True, help="base graph file (vertices 1..p)")
    p.add_argument(
        "--block", action="append", required=True, help="block file, one per base vertex"
    )
    p.set_defaults(fn=_cmd_graft)

    p = sub.add_parser("invariants", help="type, level, Gorenstein report")
    p.add_argument("file")
    p.add_argument("--list-socle", action="store_true")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("census", help="cross-validation census")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    p.add_argument("--count", type=int, default=None, help="sample mode only")
    p.add_argument("--seed", type=int, default=None, help="sample mode only")
    p.add_argument("--csv", default=None, help="write the type histogram here")
    p.add_argument(
        "--threads", type=int, default=1, help="at most one per CPU (0 = one per CPU)"
    )
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("complex", help="export the independence complex facets")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_complex)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments.  When `argv` starts with a subcommand's name,
    that subcommand's parser reads the rest, which is what the top-level
    parser would hand it, in about half the time.  Any other argv, and
    one the subcommand leaves arguments over from, goes through the
    top-level parser, so usage errors and help read as they always have
    (for example "cmgraphs: unrecognized arguments: ...")."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except CapacityError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except RouteDisagreementError as exc:
        print(f"internal disagreement: {exc}", file=sys.stderr)
        if exc.dump is not None:
            print(indented_json(exc.dump), file=sys.stderr)
        return EXIT_DISAGREEMENT
    except CmGraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # what is still buffered goes to the null device, so the
        # interpreter's flush at exit cannot raise again
        with contextlib.suppress(OSError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print("error: standard output closed early", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(indented_json({"argv": argv}), file=sys.stderr)
        return EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
