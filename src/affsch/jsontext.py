"""The JSON writers of cli's documents and verify's rendered rows.

_json_text is the one generic writer.  Kept text is a _Fragment, placed as
it is at the place of a document it was written for (RESULT_VALUE or
RESULT_ITEM) and refused at any other; _rows_text places rows each written
alone at depth 0.  Beside them, fixed-shape templates write straight from
the engine's raw tuples, with no dict per row.  The tests hold every writer
to json.dumps(indent=2, sort_keys=True) of the dict rows of tests/oracles.py.
"""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import mul

# writers of the scalar types, by exact type: subclasses take the general path
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}

# The indents of the places where cli._document puts kept text: a value of the
# document's result, and an item of a list there.
RESULT_VALUE = "    "
RESULT_ITEM = "      "


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, int):  # bool is an int
        return _json_text(key)
    raise RuntimeError(f"a {type(key).__name__} dict key is not a JSON document key")


class _Fragment(str):
    """The text of one JSON value as these writers write it, placed where it was written.

    A container's text ends with its closing bracket after the line break it
    was written at; _json_text raises RuntimeError where the place's line
    break is another.  A scalar or an empty container is one line, placed anywhere.
    """

    __slots__ = ()


def _json_text(value, newline: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it.

    Only str, int, bool, None, dict, list and tuple are written; anything
    else (a float, a Fraction, a set) raises RuntimeError, which cli.main
    reports as an internal failure, exit 3.  newline is the line break plus
    the indent of the line value starts on.  A _Fragment stands for the value
    whose text it holds.
    """
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    out: list[str] = []
    _write(value, newline, out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the pieces of value, anything but an exact scalar type, to out.

    Scalar items of a container are written in place, without a call of
    their own.
    """
    if isinstance(value, _Fragment):
        if not value.endswith(newline, 0, -1) and "\n" in value:
            raise RuntimeError(f"kept text not written for indent {len(newline) - 1}")
        out.append(value)
        return
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        head = "{" + inner
        for key, item in sorted(value.items()):
            key_text = encode_basestring_ascii(_json_key(key))
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is not None:
                out.append(f"{head}{key_text}: {scalar(item)}")
            else:
                out.append(f"{head}{key_text}: ")
                _write(item, inner, out)
            head = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        head = "[" + inner
        for item in value:
            scalar = _JSON_SCALARS.get(type(item))
            if scalar is not None:
                out.append(head + scalar(item))
            else:
                out.append(head)
                _write(item, inner, out)
            head = "," + inner
        out.append(newline + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise RuntimeError(f"a {type(value).__name__} is not a JSON document value")


# -- fixed-shape row templates ---------------------------------------------------


# Points, roots and supports repeat across the documents of one system.  The
# memo lives here, not in the poset, as its key holds this module's indent.
@lru_cache(maxsize=8192)
def _int_array(values: tuple[int, ...], indent: str) -> str:
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


def _stratum_rows_text(rows, two_rho, indent: str = "") -> _Fragment:
    """The strata list of an analyze document, from schubert._stratum_rows, indented by indent.

    rows are (lam, status, mechanism, certificate, via) tuples, certificate
    (dim, root_bound, cartan_extra, verdict) or None; two_rho holds the 2rho
    coefficients that give each row's dimension.  The text is _json_text's
    of the dict rows {"certificate", "dimension", "lambda", "mechanism",
    "status", "via"}, the certificate written by _certificate_text.
    """
    item = "\n  " + indent
    field = item + "  "
    deep = indent + "    "
    items = []
    for lam, status, mechanism, cert, via in rows:
        cert_text = "null" if cert is None else _certificate_text(lam, cert, deep)
        via_text = "null" if via is None else _int_array(via, deep)
        items.append(
            f'{item}{{{field}"certificate": {cert_text},'
            f'{field}"dimension": {sum(map(mul, two_rho, lam))},'
            f'{field}"lambda": {_int_array(lam, deep)},'
            f'{field}"mechanism": {encode_basestring_ascii(mechanism)},'
            f'{field}"status": {encode_basestring_ascii(status)},'
            f'{field}"via": {via_text}{item}}}'
        )
    return _Fragment(_list_text(items, indent))


def _edge_rows_text(edges_below, indent: str = "") -> _Fragment:
    """The edges list of a poset document, from schubert._edges_below, indented by indent.

    edges_below holds (upper, edges) pairs, each edge a (lower, gap, support,
    case) tuple.  The text is _json_text's of the dict rows {"case",
    "lower", "support", "upper"}, in the same order.
    """
    item = "\n  " + indent
    field = item + "  "
    deep = indent + "    "
    items = []
    for upper, edges in edges_below:
        upper_text = _int_array(upper, deep)
        for lower, _, support, case in edges:
            items.append(
                f'{item}{{{field}"case": {case},'
                f'{field}"lower": {_int_array(lower, deep)},'
                f'{field}"support": {_int_array(support, deep)},'
                f'{field}"upper": {upper_text}{item}}}'
            )
    return _Fragment(_list_text(items, indent))


def _points_text(points, indent: str = "") -> _Fragment:
    """The strata list of a poset document, a tuple of ints each, indented by indent."""
    item = "\n  " + indent
    deep = indent + "  "
    return _Fragment(_list_text([item + _int_array(p, deep) for p in points], indent))


def _coeff_text(coeff) -> str:
    """A loop coefficient a + b*zeta (a loopalg.CycScalar) as text: "a", or "a+(b)z" when b is not 0."""
    return str(coeff.a) if coeff.b == 0 else f"{coeff.a}+({coeff.b})z"


def _terms_text(terms, indent: str) -> _Fragment:
    """LoopVector.terms as a list of term dicts, indented by indent.

    A term ((kind, payload), degree, coeff), kind "X" or "H", is the dict
    {"coeff", "degree", "index", "kind"}, its index the root of an X (an
    array) or the coroot index of an H; its coeff text, _coeff_text's, has
    no character a JSON string escapes.
    """
    item = "\n  " + indent
    field = item + "  "
    rows = []
    for (kind, payload), degree, coeff in terms:
        index = _int_array(payload, indent + "    ") if kind == "X" else payload
        rows.append(
            f'{item}{{{field}"coeff": "{_coeff_text(coeff)}",{field}"degree": {degree},'
            f'{field}"index": {index},{field}"kind": "{kind}"{item}}}'
        )
    return _Fragment(_list_text(rows, indent))


def _degree_row_text(n: int, lines, indent: str) -> _Fragment:
    """A loopcheck degree row, from loopalg.root_line_vectors(datum, n), indented by indent.

    The row is {"degree", "lines", "vectors"}, each vector the dict {"case",
    "root", "sigma_level", "terms"} of a root line.
    """
    key = "\n  " + indent
    item = key + "  "
    field = item + "  "
    deep = indent + "      "
    vectors = [
        f'{item}{{{field}"case": {encode_basestring_ascii(rel.case)},'
        f'{field}"root": {_int_array(root, deep)},{field}"sigma_level": {level},'
        f'{field}"terms": {_terms_text(vec.terms, deep)}{item}}}'
        for root, level, rel, vec in lines
    ]
    return _Fragment(
        f'{{{key}"degree": {n},{key}"lines": {len(lines)},'
        f'{key}"vectors": {_list_text(vectors, indent + "  ")}\n{indent}}}'
    )


def _directions_text(directions, indent: str) -> _Fragment:
    """The Cartan directions of a loopcheck document, from (root, level, vector) triples.

    Each is the dict {"level", "root", "terms"}, written alone and placed by _rows_text.
    """
    rows = [
        _json_text({"level": level, "root": root, "terms": _terms_text(vec.terms, "  ")})
        for root, level, vec in directions
    ]
    return _rows_text(rows, indent)


def _rows_text(texts, indent: str) -> _Fragment:
    """The list of texts, each json.dumps(indent=2) of a value at depth 0, indented by indent."""
    item = "\n  " + indent  # every line break of the texts is the layout's: strings escape theirs
    rows = [item + ",\n".join(texts).replace("\n", item)] if texts else []
    return _Fragment(_list_text(rows, indent))


def _list_text(items: list[str], indent: str) -> str:
    """The list of the item texts, each starting with its own line break, indented by indent."""
    return "[" + ",".join(items) + "\n" + indent + "]" if items else "[]"
