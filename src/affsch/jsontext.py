"""The JSON writer of cli's documents and verify's rendered rows."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

# writers of the scalar types, by exact type: subclasses take the general path
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, int):  # bool is an int
        return _json_text(key)
    raise RuntimeError(f"a {type(key).__name__} dict key is not a JSON document key")


class _Fragment(str):
    """The text _json_text wrote for a value at depth 0; it places it at any depth."""


def _json_text(value, newline: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it.

    json.dumps falls back to its pure-Python encoder when given an indent;
    this writer does the same job in about half the time.  Only str, int,
    bool, None, dict, list and tuple are written; anything else (a float, a
    Fraction, a set) raises RuntimeError, which cli.main reports as an
    internal failure, exit 3.  newline is the line break plus the indent of
    the line value starts on.  Scalar items of a container are written in
    place, without a call of their own.

    A _Fragment stands for the value whose depth-0 text it holds, and is
    placed by fragment.replace("\\n", newline).  That is exact: every raw
    newline in the text is a line break of this writer, as
    encode_basestring_ascii escapes a newline inside a string or key, so the
    replace adds the indent of the place to every line after the first.
    """
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            scalar = _JSON_SCALARS.get(type(item))
            text = scalar(item) if scalar is not None else _json_text(item, inner)
            items.append(f"{inner}{encode_basestring_ascii(_json_key(key))}: {text}")
        return "{" + ",".join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            scalar = _JSON_SCALARS.get(type(item))
            items.append(inner + (scalar(item) if scalar is not None else _json_text(item, inner)))
        return "[" + ",".join(items) + newline + "]"
    if isinstance(value, _Fragment):
        return value.replace("\n", newline)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise RuntimeError(f"a {type(value).__name__} is not a JSON document value")
