"""The indented JSON writer against `json.dumps(indent=2)`."""

import json
import random

import pytest

import cmgraphs.cli as cli
import cmgraphs.criteria as criteria
import cmgraphs.pairing as pairing
from cmgraphs.cli import main
from cmgraphs.verdicts import indented_json
from conftest import fixture_path, written_as_json_dumps

_TEXT = ["", "a", "x1", "é", "☃", "𝔽", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ", " "]


def _text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 4)))


def _int(rng):
    return rng.choice([0, 1, -1, rng.randint(-10**6, 10**6), 2**64 + rng.randint(0, 9), -(2**70)])


def _scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return _int(rng)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.5, -2.0, 1e300, float("inf"), float("nan")])
    if kind == 4:
        return [_int(rng) for _ in range(rng.randint(0, 4))]
    if kind == 5:
        return [_text(rng) for _ in range(rng.randint(0, 4))]
    return rng.choice([[], {}, ()])


def _key(rng):
    return rng.choice([_text(rng), _text(rng), _int(rng), 1.5, True, False, None])


def _value(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _scalar(rng)
    size = rng.randint(0, 4)
    kind = rng.randrange(3)
    if kind == 0:
        return {_key(rng): _value(rng, depth - 1) for _ in range(size)}
    items = [_value(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def test_the_writer_matches_json_dumps_on_seeded_values():
    rng = random.Random(83)
    values = [_value(rng, 4) for _ in range(2000)]
    values += [[1, True], [True], ["a", 1], [None], (1, 2), ("a",), {1: {}}, "é"]
    for value in values:
        assert indented_json(value) == json.dumps(value, indent=2)


def test_the_writer_raises_where_json_dumps_does():
    for value in ({(1, 2): 0}, {1}, [object()]):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            indented_json(value)
        assert str(got.value) == str(want.value)


def test_the_writer_matches_json_dumps_on_every_kind_of_document(
    monkeypatch, capsys
):
    # check documents, classify, invariants, census reports with and
    # without violations, a route disagreement's bundle and an internal
    # error's argv dump, each written once through the command line
    written = []

    def recorded(value):
        written.append(value)
        return written_as_json_dumps(value)

    monkeypatch.setattr(cli, "indented_json", recorded)
    monkeypatch.setattr("cmgraphs.census.indented_json", recorded)
    ex31, c4 = fixture_path("example3_1.graph"), fixture_path("c4.graph")
    calls = [
        ["check", ex31, "--json", "--routes", "a,b,c,d,e,f", "--field", "Q"],
        ["check", c4, "--json", "--routes", "a,b,c,d,e,f"],
        ["classify", ex31, "--json"],
        ["invariants", ex31],
        ["census", "--n", "2"],
    ]
    assert [main(argv) for argv in calls] == [0] * 5
    monkeypatch.setattr(pairing, "cycle_witness_holds", lambda pl, w: False)
    assert main(["census", "--n", "2"]) == 0
    assert '"internal-disagreement"' in capsys.readouterr().out
    monkeypatch.setattr(criteria, "check_shelling", lambda c, order: False)
    assert main(["check", ex31, "--json", "--routes", "c"]) == 3
    err = capsys.readouterr().err
    assert '"order"' in err and err.startswith("internal disagreement:")

    def broken(graph):
        raise RuntimeError("patched")

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["classify", ex31]) == 3
    assert written[-1] == {"argv": ["classify", ex31]}
    assert len(written) == 8
