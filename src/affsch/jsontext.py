"""The JSON writers of cli's documents and verify's rendered rows.

_json_text is the one generic writer: it writes every value of every
document.  Three fixed-shape writers sit beside it and write straight from
the engine's raw tuples, with no dict per row: _stratum_rows_text the strata
of an analyze document and _edge_rows_text the edges of a poset document,
each as one _Fragment that _json_text places, and _certificate_text every
certificate of an analyze document, in its strata and as its --lambda focus.
All three are held to json.dumps(indent=2, sort_keys=True) of the dict rows
they replace (tests/oracles.py): the lists over every closures request of
the benchmark, the focus in tests of its own.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from operator import mul

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


# -- fixed-shape row templates ---------------------------------------------------


def _int_array(values, indent: str) -> str:
    """A tuple of ints as json.dumps(indent=2) writes it on a line indented by indent."""
    if not values:
        return "[]"
    inner = "\n  " + indent
    return "[" + inner + ("," + inner).join(map(str, values)) + "\n" + indent + "]"


def _certificate_text(lam, cert, indent: str = "") -> str:
    """A certificate as json.dumps(indent=2) writes it on a line indented by indent.

    lam is the stratum's pairing vector and cert its (dim, root_bound,
    cartan_extra, verdict) row; the dict adds the keys "lambda" and "total".
    """
    dim, root_bound, cartan_extra, verdict = cert
    inner = "\n  " + indent
    return (
        f'{{{inner}"cartan_extra": {cartan_extra},{inner}"dim": {dim},'
        f'{inner}"lambda": {_int_array(lam, indent + "  ")},'
        f'{inner}"root_bound": {root_bound},'
        f'{inner}"total": {root_bound + cartan_extra},'
        f'{inner}"verdict": {encode_basestring_ascii(verdict)}\n{indent}}}'
    )


def _stratum_rows_text(rows, two_rho) -> _Fragment:
    """The strata list of an analyze document, from schubert._stratum_rows.

    rows are (lam, status, mechanism, certificate, via) tuples, certificate
    (dim, root_bound, cartan_extra, verdict) or None; two_rho holds the 2rho
    coefficients that give each row's dimension.  The text is _json_text's
    of the dict rows {"certificate", "dimension", "lambda", "mechanism",
    "status", "via"}, the certificate written by _certificate_text.
    """
    items = []
    for lam, status, mechanism, cert, via in rows:
        lam_text = _int_array(lam, "    ")
        cert_text = "null" if cert is None else _certificate_text(lam, cert, "    ")
        via_text = "null" if via is None else _int_array(via, "    ")
        items.append(
            f'\n  {{\n    "certificate": {cert_text},'
            f'\n    "dimension": {sum(map(mul, two_rho, lam))},'
            f'\n    "lambda": {lam_text},'
            f'\n    "mechanism": {encode_basestring_ascii(mechanism)},'
            f'\n    "status": {encode_basestring_ascii(status)},'
            f'\n    "via": {via_text}\n  }}'
        )
    return _Fragment("[" + ",".join(items) + "\n]" if items else "[]")


def _edge_rows_text(edges_below) -> _Fragment:
    """The edges list of a poset document, from schubert._edges_below.

    edges_below holds (upper, edges) pairs, each edge a (lower, gap, support,
    case) tuple.  The text is _json_text's of the dict rows {"case",
    "lower", "support", "upper"}, in the same order.
    """
    items = []
    for upper, edges in edges_below:
        upper_text = _int_array(upper, "    ")
        for lower, _, support, case in edges:
            items.append(
                f'\n  {{\n    "case": {case},'
                f'\n    "lower": {_int_array(lower, "    ")},'
                f'\n    "support": {_int_array(support, "    ")},'
                f'\n    "upper": {upper_text}\n  }}'
            )
    return _Fragment("[" + ",".join(items) + "\n]" if items else "[]")
