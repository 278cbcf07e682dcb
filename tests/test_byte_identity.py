"""Byte identity of the user-facing outputs.

The sha256 of each output below is recorded in
`golden/output_digests.json`: `check --json` over every route, over F2
and over Q, and `complex`, on every fixture, and the exhaustive census
for n = 1, 2 and 3 without its wall-clock `runtime_ms` line.  A change
that keeps every verdict, certificate and listing byte for byte keeps
every digest.  A change that means to alter an output rewrites the file
with `python tests/test_byte_identity.py --record`, `src` on
`PYTHONPATH`, and says which outputs changed.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import cmgraphs.cli as cli
from conftest import FIXTURES, golden_path

DIGESTS = golden_path("output_digests.json")


def commands() -> dict[str, list[str]]:
    """Each output's label, which names a fixture by its file name, and
    its argv."""
    out = {}
    for name in sorted(n for n in os.listdir(FIXTURES) if n.endswith(".graph")):
        path = os.path.join(FIXTURES, name)
        for field in ("2", "Q"):
            out[f"check {name} --json --routes a,b,c,d,e,f --field {field}"] = [
                "check", path, "--json", "--routes", "a,b,c,d,e,f", "--field", field,
            ]
        out[f"complex {name}"] = ["complex", path]
    for n in (1, 2, 3):
        out[f"census --n {n}"] = ["census", "--n", str(n)]
    return out


def digest(argv: list[str]) -> dict:
    """The exit code and the sha256 of the stdout and stderr of one
    in-process run; the census's `runtime_ms` line is dropped first."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = stdout.getvalue()
    if argv[0] == "census":
        lines = text.splitlines(keepends=True)
        text = "".join(l for l in lines if not l.lstrip().startswith('"runtime_ms"'))
    return {
        "exit": code,
        "stdout": hashlib.sha256(text.encode()).hexdigest(),
        "stderr": hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
    }


def test_outputs_match_their_recorded_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    runs = commands()
    assert sorted(runs) == sorted(recorded)
    changed = [label for label, argv in runs.items() if digest(argv) != recorded[label]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_byte_identity.py --record")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({label: digest(argv) for label, argv in commands().items()}, fh, indent=2)
        fh.write("\n")
