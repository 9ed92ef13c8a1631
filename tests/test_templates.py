"""The fixed-shape row templates of the closure and loopcheck documents, against json.dumps.

analyze writes the strata list of its document, and poset the edges list of
its own, with a fixed-shape template (jsontext._stratum_rows_text and
jsontext._edge_rows_text) straight from schubert's raw rows
(schubert._stratum_rows and schubert._edges_below).  Each template must write
exactly json.dumps(indent=2, sort_keys=True) of the dict rows of
tests/oracles.py, which are built from the public report and edge objects:
at the top of every closures request the benchmark can draw, with both
templates at each, and on synthetic rows of shapes those requests never
produce; at depth 0 and at the indent of the place the document puts them.
The raw rows are also the one source of the public objects:
smooth_locus_report, certificate, minimal_degenerations and dominant_below
must give what the rows give.  The --lambda focus certificate, which no
benchmark request writes, is held to json.dumps of oracles.certificate_row
on requests of its own, with its text-mode line pinned.  The strata list of
a poset document, one kept _Fragment, is held to the generic writer at its
place.  Every template writes its int arrays through one bounded memo of
kept text (jsontext._int_array): the texts are the same cold, warm and after
the memo has evicted them, and the memo never holds more than its bound.

The loop templates write LoopVector.terms with no dict per term
(jsontext._terms_text): every loopcheck degree row (nine loop types x |n| <=
MAX_WINDOW), every Cartan-direction block, and every vector of the
cartan-direction suite, each against json.dumps of the dict rows of
oracles.vector_rows.
"""

import contextlib
import io
import json

import pytest
from benchdata import load_workloads
from oracles import (
    analyze_strata_rows,
    certificate_row,
    loopcheck_degree_row,
    loopcheck_directions,
    poset_edge_rows,
    vector_rows,
)

from affsch import schubert
from affsch.cli import main
from affsch.jsontext import (
    RESULT_ITEM,
    RESULT_VALUE,
    _certificate_text,
    _degree_row_text,
    _directions_text,
    _edge_rows_text,
    _int_array,
    _json_text,
    _points_text,
    _stratum_rows_text,
    _terms_text,
)
from affsch.loopalg import (
    MAX_WINDOW,
    LoopVector,
    cartan_direction,
    cartan_recipe_roots,
    loop_context,
    root_line_vectors,
)
from affsch.rootsys import Coweight, CorootVector, build_root_system
from affsch.schubert import (
    DegenerationEdge,
    SmoothnessCertificate,
    StratumReport,
    certificate,
    dominant_below,
    minimal_degenerations,
    smooth_locus_report,
)
from affsch.twist import twisted_datum
from affsch.verify import DIRECTION_LABELS


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _at(text: str, indent: str) -> str:
    """json.dumps text as it reads on a line indented by indent."""
    return text.replace("\n", "\n" + indent)


def _closure_tops() -> list[tuple[str, tuple[int, ...]]]:
    """(type, mu) of every closures request any seed can draw, each once."""
    requests = [argv for argv in load_workloads().all_requests() if argv[0] in ("analyze", "poset")]
    assert len(requests) == 300
    tops = [(argv[2], tuple(int(x) for x in argv[4].split(","))) for argv in requests]
    return list(dict.fromkeys(tops))


def _strata_from_rows(mu: Coweight, rows) -> tuple[StratumReport, ...]:
    """The StratumReports the raw rows stand for, each coweight validated."""
    system = mu.system
    strata = []
    for p, status, mechanism, cert, via in rows:
        lam = Coweight(system, p)
        strata.append(
            StratumReport(
                lam,
                status,
                mechanism,
                None if cert is None else SmoothnessCertificate(mu, lam, *cert),
                None if via is None else Coweight(system, via),
            )
        )
    return tuple(strata)


def _edges_from_rows(system, edges_below) -> list[DegenerationEdge]:
    """The DegenerationEdges the raw (upper, edges) rows stand for, in order."""
    return [
        DegenerationEdge(
            Coweight(system, upper),
            Coweight(system, lower),
            CorootVector(system, gap),
            support,
            case,
        )
        for upper, edges in edges_below
        for lower, gap, support, case in edges
    ]


def test_stratum_template_matches_json_dumps_on_every_closure():
    mismatches = []
    for label, p in _closure_tops():
        datum = twisted_datum(label)
        mu = Coweight(datum.echelonnage, p)
        rows, two_rho = schubert._stratum_rows(mu, datum), mu.system.two_rho_coefficients
        expected = _dumps(analyze_strata_rows(smooth_locus_report(mu, datum).strata))
        for indent in ("", RESULT_VALUE):
            text = _stratum_rows_text(rows, two_rho, indent)
            if text != _at(expected, indent):
                mismatches.append((label, p, indent))
    assert mismatches == []


def test_edge_template_matches_json_dumps_on_every_closure():
    mismatches = []
    for label, p in _closure_tops():
        mu = Coweight(twisted_datum(label).echelonnage, p)
        edges_below = schubert._edges_below(mu)
        expected = _dumps(poset_edge_rows(minimal_degenerations(mu)))
        for indent in ("", RESULT_VALUE):
            text = _edge_rows_text(edges_below, indent)
            if text != _at(expected, indent):
                mismatches.append((label, p, indent))
    assert mismatches == []


def test_public_objects_are_what_the_raw_rows_give():
    """One source: the report, the certificates, the edges and the strata of every closure."""
    for label, p in _closure_tops():
        datum = twisted_datum(label)
        system = datum.echelonnage
        mu = Coweight(system, p)
        rows = schubert._stratum_rows(mu, datum)
        strata = _strata_from_rows(mu, rows)
        assert smooth_locus_report(mu, datum).strata == strata, (label, p)
        for stratum in strata:
            if stratum.certificate is not None:
                assert certificate(mu, stratum.lam, datum) == stratum.certificate, (label, p)
        edges_below = schubert._edges_below(mu)
        assert minimal_degenerations(mu) == _edges_from_rows(system, edges_below), (label, p)
        assert dominant_below(mu) == [Coweight(system, upper) for upper, _ in edges_below]
        assert [row[0] for row in rows] == [upper for upper, _ in edges_below], (label, p)


def test_points_fragment_matches_the_generic_writer_on_every_closure():
    """The strata list of a poset document, kept text, as _json_text writes the tuples at RESULT_VALUE."""
    for label, p in _closure_tops():
        points = [lam.pairings for lam in dominant_below(Coweight(twisted_datum(label).echelonnage, p))]
        assert _points_text(points, RESULT_VALUE) == _json_text(points, "\n" + RESULT_VALUE), (label, p)
    for points in ([], [()], [(0,)], [(10**20, -1, 0)]):
        assert _points_text(points, RESULT_VALUE) == _json_text(points, "\n" + RESULT_VALUE)
        assert _points_text(points) == _dumps(points)


# -- the kept array text --------------------------------------------------------------

# every tenth closures top, so both templates meet arrays of every rank
MEMO_TOPS = _closure_tops()[::10]


def _memo_texts() -> list[tuple[str, str]]:
    """(template text, json.dumps text) of the strata, edges, certificates and terms at two indents each."""
    pairs = []
    for label, p in MEMO_TOPS:
        datum = twisted_datum(label)
        mu = Coweight(datum.echelonnage, p)
        rows, two_rho = schubert._stratum_rows(mu, datum), mu.system.two_rho_coefficients
        report = smooth_locus_report(mu, datum)
        strata = _dumps(analyze_strata_rows(report.strata))
        edges_below = schubert._edges_below(mu)
        edges = _dumps(poset_edge_rows(minimal_degenerations(mu)))
        for indent in ("", RESULT_VALUE):
            pairs.append((_stratum_rows_text(rows, two_rho, indent), _at(strata, indent)))
            pairs.append((_edge_rows_text(edges_below, indent), _at(edges, indent)))
            for (lam, _, _, cert, _), stratum in zip(rows, report.strata):
                if cert is not None:
                    expected = _at(_dumps(certificate_row(stratum.certificate)), indent)
                    pairs.append((_certificate_text(lam, cert, indent), expected))
    datum = twisted_datum("3D4")
    for a in cartan_recipe_roots(datum, 2):
        vec = cartan_direction(datum, a)
        for indent in ("", RESULT_VALUE):
            pairs.append((_terms_text(vec.terms, indent), _at(_dumps(vector_rows(vec)), indent)))
    return pairs


def test_kept_arrays_write_the_same_text_cold_warm_and_evicted():
    bound = _int_array.cache_info().maxsize
    _int_array.cache_clear()
    cold = _memo_texts()
    assert cold and all(text == expected for text, expected in cold)
    assert 0 < _int_array.cache_info().currsize <= bound
    warm = _memo_texts()
    assert warm == cold and _int_array.cache_info().hits > 0
    # distinct arrays past the bound evict every text the templates kept
    for k in range(bound + 1):
        _int_array((k,), "")
    assert _int_array.cache_info().currsize == bound
    assert _memo_texts() == cold
    assert _int_array.cache_info().currsize <= bound


# -- shapes the benchmark's closures never produce ---------------------------------

A1, A4 = build_root_system("A1"), build_root_system("A4")

SYNTHETIC_STRATA = {
    # an unresolved cover with an inconclusive certificate and no Cartan
    # direction, and an unresolved stratum below it with no via; rank 4
    "unresolved": (
        A4,
        (1, 0, 0, 1),
        [
            ((1, 0, 0, 1), "smooth", "open-orbit", None, None),
            ((0, 1, 1, 0), "unresolved", "certificate", (8, 6, 0, "inconclusive"), None),
            ((0, 0, 0, 0), "unresolved", "openness-propagation", None, None),
        ],
    ),
    "one stratum": (A1, (0,), [((0,), "smooth", "open-orbit", None, None)]),
    # rank 1, a singular certificate with cartan_extra 0, ints past 64 bits
    "rank one": (
        A1,
        (10**20,),
        [
            ((10**20,), "smooth", "open-orbit", None, None),
            ((10**20 - 2,), "singular", "certificate", (10**20, 10**20 + 1, 0, "singular"), None),
            ((0,), "singular", "openness-propagation", None, (10**20 - 2,)),
        ],
    ),
    # strings are escaped as json.dumps escapes them
    "escaped strings": (
        A1,
        (2,),
        [((0,), 'quote " back\\slash', "é\n ", (2, 0, 0, "😀"), (2,))],
    ),
    "no strata": (A1, (0,), []),
}


@pytest.mark.parametrize("name", SYNTHETIC_STRATA)
def test_stratum_template_matches_json_dumps_on_synthetic_rows(name):
    system, top, rows = SYNTHETIC_STRATA[name]
    strata = _strata_from_rows(Coweight(system, top), rows)
    expected = _dumps(analyze_strata_rows(strata))
    assert _stratum_rows_text(rows, system.two_rho_coefficients) == expected
    assert _stratum_rows_text(rows, system.two_rho_coefficients, "   ") == _at(expected, "   ")


SYNTHETIC_EDGES = {
    "one stratum": (A1, [((0,), ())]),
    "no strata": (A1, []),
    "rank one": (
        A1,
        [((4,), (((2,), (1,), (0,), 2),)), ((2,), (((0,), (1,), (0,), 2),)), ((0,), ())],
    ),
    # rank 4: a support of length 1, two edges below one upper end, and an
    # upper end with none between two with some
    "rank four": (
        A4,
        [
            ((2, 0, 0, 0), (((0, 1, 0, 0), (1, 0, 0, 0), (0,), 1),)),
            ((1, 0, 0, 1), ()),
            (
                (0, 1, 1, 0),
                (
                    ((1, 0, 0, 1), (0, 1, 1, 0), (1, 2), 2),
                    ((0, 0, 0, 0), (1, 2, 2, 1), (0, 1, 2, 3), 2),
                ),
            ),
        ],
    ),
}


@pytest.mark.parametrize("name", SYNTHETIC_EDGES)
def test_edge_template_matches_json_dumps_on_synthetic_rows(name):
    system, edges_below = SYNTHETIC_EDGES[name]
    expected = _dumps(poset_edge_rows(_edges_from_rows(system, edges_below)))
    assert _edge_rows_text(edges_below) == expected
    assert _edge_rows_text(edges_below, "   ") == _at(expected, "   ")


# -- the loop templates ----------------------------------------------------------------

LOOP_TYPES = load_workloads().LOOP_TYPES


def test_degree_template_matches_json_dumps_at_every_loop_type_and_degree():
    rows = 0
    for label in LOOP_TYPES:
        datum = twisted_datum(label)
        for n in range(-MAX_WINDOW, MAX_WINDOW + 1):
            expected = _dumps(loopcheck_degree_row(datum, n))
            lines = root_line_vectors(datum, n)
            for indent in ("", RESULT_ITEM):
                text = _degree_row_text(n, lines, indent)
                assert text == _at(expected, indent), (label, n)
            rows += 1
    assert rows == 153
    # no degree of a loop type is empty; an empty row is written as json.dumps writes it
    empty = _dumps({"degree": 0, "lines": 0, "vectors": []})
    assert _degree_row_text(0, (), RESULT_ITEM) == _at(empty, RESULT_ITEM)
    assert _directions_text([], RESULT_VALUE) == "[]"


@pytest.mark.parametrize("label", LOOP_TYPES)
def test_directions_template_matches_json_dumps(label):
    datum = twisted_datum(label)
    directions = [(a[0], a[1], cartan_direction(datum, a)) for a in cartan_recipe_roots(datum, 1)]
    expected = _dumps(loopcheck_directions(datum))
    for indent in ("", RESULT_VALUE):
        text = _directions_text(directions, indent)
        assert text == _at(expected, indent)


def test_terms_template_matches_json_dumps_on_every_cartan_direction():
    vectors = [
        cartan_direction(twisted_datum(label), a)
        for label in DIRECTION_LABELS
        for a in cartan_recipe_roots(twisted_datum(label), 6)
    ]
    assert len(vectors) == 138
    # their coefficients have Fraction and zeta parts; the zero vector is the one
    # shape they never take
    vectors.append(LoopVector.zero(loop_context(twisted_datum("3D4")).algebra, 3))
    for vec in vectors:
        for indent in ("", "  "):  # a cartan-direction row's vector sits at "  "
            assert _terms_text(vec.terms, indent) == _at(_dumps(vector_rows(vec)), indent)


# -- the focus certificate of analyze --lambda --------------------------------------

# (type, mu, lambda, the text-mode focus line): a cover, a deeper stratum and
# the bottom stratum 0 of one closure per type, on rank one, C2, G2 (relative
# to 3D4), C2 relative to 2A3 and F4 (relative to 2E6).
FOCUS_REQUESTS = (
    ("A1", "6", "4", "focus lambda (4,): singular (root bound 6 + cartan 1 = 7 vs dim 6)"),
    ("A1", "6", "2", "focus lambda (2,): singular (root bound 6 + cartan 1 = 7 vs dim 6)"),
    ("A1", "6", "0", "focus lambda (0,): singular (root bound 6 + cartan 1 = 7 vs dim 6)"),
    ("C2", "2,2", "0,4", "focus lambda (0, 4): singular (root bound 14 + cartan 1 = 15 vs dim 14)"),
    ("C2", "2,2", "1,2", "focus lambda (1, 2): singular (root bound 16 + cartan 1 = 17 vs dim 14)"),
    ("C2", "2,2", "0,0", "focus lambda (0, 0): singular (root bound 20 + cartan 1 = 21 vs dim 14)"),
    ("3D4", "1,1", "0,2", "focus lambda (0, 2): singular (root bound 18 + cartan 1 = 19 vs dim 16)"),
    ("3D4", "1,1", "0,1", "focus lambda (0, 1): singular (root bound 22 + cartan 1 = 23 vs dim 16)"),
    ("3D4", "1,1", "0,0", "focus lambda (0, 0): singular (root bound 18 + cartan 1 = 19 vs dim 16)"),
    ("2A3", "1,2", "2,0", "focus lambda (2, 0): singular (root bound 10 + cartan 1 = 11 vs dim 10)"),
    ("2A3", "1,2", "0,2", "focus lambda (0, 2): singular (root bound 12 + cartan 1 = 13 vs dim 10)"),
    ("2A3", "1,2", "0,0", "focus lambda (0, 0): singular (root bound 12 + cartan 1 = 13 vs dim 10)"),
    (
        "2E6",
        "0,0,0,2",
        "0,0,1,0",
        "focus lambda (0, 0, 1, 0): singular (root bound 44 + cartan 1 = 45 vs dim 44)",
    ),
    (
        "2E6",
        "0,0,0,2",
        "0,1,0,0",
        "focus lambda (0, 1, 0, 0): singular (root bound 56 + cartan 1 = 57 vs dim 44)",
    ),
    (
        "2E6",
        "0,0,0,2",
        "0,0,0,0",
        "focus lambda (0, 0, 0, 0): singular (root bound 96 + cartan 1 = 97 vs dim 44)",
    ),
)


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("label,mu_text,lam_text,line", FOCUS_REQUESTS)
def test_focus_certificate_matches_json_dumps(label, mu_text, lam_text, line):
    datum = twisted_datum(label)
    system = datum.echelonnage
    mu, lam = (Coweight(system, tuple(map(int, t.split(",")))) for t in (mu_text, lam_text))
    argv = ("analyze", "--type", label, "--mu", mu_text, "--lambda", lam_text)
    code, out, _ = _cli(*argv, "--json")
    assert code == 0
    doc = json.loads(out)
    focus = _dumps(certificate_row(certificate(mu, lam, datum)))
    assert f'"focus": {focus.replace(chr(10), chr(10) + "    ")},' in out
    # the whole document, focus included, is json.dumps of what it holds
    assert out == _dumps(doc) + "\n"
    code, out, _ = _cli(*argv)
    assert code == 0 and out.splitlines()[-1] == line


@pytest.mark.parametrize("label", ["A1", "C2", "3D4", "2A3", "2E6"])
def test_focus_at_mu_zero(label):
    zero = ",".join("0" * twisted_datum(label).echelonnage.rank)
    code, out, _ = _cli("analyze", "--type", label, "--mu", zero, "--json")
    assert code == 0 and json.loads(out)["result"]["focus"] is None
    assert '"focus": null,' in out
    # the zero stratum is the open orbit: no strict degeneration to certify
    code, out, err = _cli("analyze", "--type", label, "--mu", zero, "--lambda", zero, "--json")
    assert (code, out, err) == (2, "", "error: need a strict degeneration, got lam == mu\n")
