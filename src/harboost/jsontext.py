"""The one writer of the package's JSON documents.

canonical_json(doc) is json.dumps(doc, sort_keys=True, indent=2) + "\\n"
byte for byte. With an indent, json.dumps encodes every value in
Python; here dicts and nested lists are walked in Python, and each
list of scalars (a model's vote weights, a confusion matrix's counts)
is one call of the C encoder whose item separator carries the newline
and indent. A floattext.Rows (k-NN's stored rows, formatted once by
floattext.row_texts) is written as the nested lists of its matrix, as
the encoder's float.__repr__ would write them.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .floattext import Rows

#: Types whose values the C encoder writes as json.dumps writes them.
_SCALARS = frozenset({str, int, float, bool, type(None)})
#: A scalar's JSON text; TypeError for what json.dumps cannot encode.
_scalar = json.JSONEncoder().encode


@lru_cache(maxsize=None)
def _scalar_list(inner: str):
    """Encodes a list of scalars with each item on its own line."""
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def canonical_json(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\\n", byte for byte."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _scalar(_key(key)) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, Rows):
        _write_rows(value, newline, out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
        elif set(map(type, value)) <= _SCALARS:
            out.append("[" + inner + _scalar_list(inner)(value)[1:-1]
                       + newline + "]")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
    else:
        out.append(_scalar(value))


def _write_rows(texts: Rows, newline: str, out: list[str]) -> None:
    """A matrix's rows as the list branch writes its nested lists."""
    inner = newline + "  "
    cell = inner + "  "
    rows = f"{inner}],{inner}[{cell}".join(
        [text.replace(" ", "," + cell) for text in texts])
    out.append(f"[{inner}[{cell}{rows}{inner}]{newline}]")


def _key(key) -> str:
    """A dict key as json.dumps writes it: str, or a scalar's text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )
