"""Boolean-or-inconclusive outcomes carrying machine-checkable certificates.

Certificates are plain JSON-compatible structures (dicts, lists, strings,
ints) so reports can embed them verbatim and validators can re-check them
without touching internal objects.  `indented_json` writes them.
"""

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    value: bool | None  # None = inconclusive (capacity bailout)
    route: str
    certificate: dict | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "route": self.route,
            "certificate": self.certificate,
        }


_escape = json.encoder.encode_basestring_ascii
# JSON text of the scalars met most, by exact type; any other scalar (a
# float, an int subclass, an unknown object) goes to `json.dumps`
_SCALAR = {
    str: _escape,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def indented_json(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte.

    With an indent `json` leaves its C encoder for the pure-Python one,
    so this writer walks dicts and lists itself: a list of scalars is
    joined in one step, strings are escaped by `json`'s C escaper, ints,
    booleans and None are spelled by type, and every other scalar or
    key is handed to `json.dumps`.  Every document the package prints
    goes through it.
    """
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _key(key) -> str:
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):
        return _escape(json.dumps(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _write(value, newline: str, out: list[str]) -> None:
    """Append `value`, whose first line is indented as `newline` is; the
    checks follow `json`'s order: strings, scalars, lists, dicts."""
    spell = _SCALAR.get(type(value))
    if spell is not None:
        out.append(spell(value))
    elif isinstance(value, str):
        out.append(_escape(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, newline, out)
    elif isinstance(value, dict):
        _write_dict(value, newline, out)
    else:
        out.append(json.dumps(value))


def _write_list(value, newline: str, out: list[str]) -> None:
    if not value:
        out.append("[]")
        return
    inner = newline + "  "
    kinds = set(map(type, value))
    if _SCALAR.keys() >= kinds:
        if len(kinds) == 1:
            texts = map(_SCALAR[kinds.pop()], value)
        else:
            texts = [_SCALAR[type(item)](item) for item in value]
        out += ("[", inner, ("," + inner).join(texts), newline, "]")
        return
    sep = "[" + inner
    for item in value:
        out.append(sep)
        _write(item, inner, out)
        sep = "," + inner
    out += (newline, "]")


def _write_dict(value, newline: str, out: list[str]) -> None:
    if not value:
        out.append("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key, item in value.items():
        key = _escape(key) if type(key) is str else _key(key)
        spell = _SCALAR.get(type(item))
        if spell is not None:
            out.append(f"{sep}{key}: {spell(item)}")
        else:
            out.append(f"{sep}{key}: ")
            _write(item, inner, out)
        sep = "," + inner
    out += (newline, "}")
