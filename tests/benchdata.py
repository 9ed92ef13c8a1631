"""The benchmark's requests and documents, served once for the tests, and the memos its requests fill.

perfbench/workloads.py and perfbench/digests.json are each read once, the
module without writing bytecode, so the tests leave perfbench/ untouched.

The served corpus: CLOSURE_TOPS holds the (type, mu) of every closures
request any seed can draw, each once; closure(top) serves a top's raw rows
and public objects once and keeps them, with the json.dumps texts its
documents must hold; cross_section() serves a cheap cross-section of the
committed documents once and keeps them.  A test reads the corpus unless
its subject is memo state or a patched engine.  Such a test serves for
itself through serve(), and reads the corpus only outside its patches, so
every kept record is what the unpatched engine serves.  The corpus fills
on first read, so no test needs another to have run first.
"""

import contextlib
import importlib.util
import io
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from affsch import cli, jsontext, loopalg, rootsys, schubert, twist, verify
from affsch.rootsys import Coweight
from oracles import analyze_strata_rows, poset_edge_rows

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every bounded memo a verify or loopcheck request reads: a test that needs
# cold memos, or that patches a check they would hide, empties these.
REQUEST_MEMOS = (
    verify._box,
    verify._edge_rows,
    verify._k_symmetry_draws,
    verify._down_set,
    verify._k_symmetry_row,
    verify._loop_basis_row,
    verify._direction_row,
    verify._sl2_row,
    loopalg._e_a,
    loopalg._cartan_direction,
    loopalg.root_line_vectors,
    loopalg._verify_sl2_factorization,
    cli._degree_text,
    cli._loopcheck_blocks,
)

# Every other memo of the package: each is keyed by type data alone (or, for
# _int_array, holds text that its key alone decides), so a cold-memo test may
# read it warm.  Every lru_cache of affsch is in one of the two tuples.
TYPE_MEMOS = (
    rootsys._recognize_irreducible,
    rootsys.recognize_components,
    rootsys.build_root_system,
    twist.twisted_datum,
    schubert._positive_coroots,
    schubert._cover_table,
    schubert._canonical_sdc,
    schubert._support_components,
    loopalg.build_chevalley,
    loopalg.loop_context,
    jsontext._int_array,
)


def clear_request_memos() -> None:
    for memo in REQUEST_MEMOS:
        memo.cache_clear()


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = _load_workloads()
# request text -> sha256 of its stdout document
DIGESTS: dict[str, str] = json.loads((PERFBENCH / "digests.json").read_text())


def serve(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main request, served in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _closure_tops() -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(type, mu) of every closures request any seed can draw, each once."""
    requests = [argv for argv in WORKLOADS.all_requests() if argv[0] in ("analyze", "poset")]
    assert len(requests) == 300
    return tuple(dict.fromkeys((argv[2], tuple(int(x) for x in argv[4].split(","))) for argv in requests))


CLOSURE_TOPS = _closure_tops()


@dataclass(frozen=True)
class Closure:
    """One closures top as the engine serves it, and the texts its documents must hold."""

    datum: twist.TwistedDatum
    mu: Coweight
    rows: list  # schubert._stratum_rows
    edges_below: list  # schubert._edges_below
    report: schubert.SmoothLocusReport
    edges: list  # minimal_degenerations
    below: list  # dominant_below
    strata_json: str  # json.dumps of the strata rows of report, as analyze writes them
    edges_json: str  # json.dumps of the edge rows of edges, as poset writes them


@cache
def closure(top: tuple[str, tuple[int, ...]]) -> Closure:
    """The kept record of one of CLOSURE_TOPS, served on first read."""
    label, p = top
    datum = twist.twisted_datum(label)
    mu = Coweight(datum.echelonnage, p)
    report = schubert.smooth_locus_report(mu, datum)
    edges = schubert.minimal_degenerations(mu)
    return Closure(
        datum,
        mu,
        schubert._stratum_rows(mu, datum),
        schubert._edges_below(mu),
        report,
        edges,
        schubert.dominant_below(mu),
        json.dumps(analyze_strata_rows(report.strata), indent=2, sort_keys=True),
        json.dumps(poset_edge_rows(edges), indent=2, sort_keys=True),
    )


def _cross_section_requests() -> list[tuple[str, ...]]:
    """The cross-section, each request once.

    One request per closures slot, every loopcheck with --window at most 1,
    the loop-basis suite at every window and the six verify suites with their
    default flags.
    """
    requests = [WORKLOADS.closure_request(cmd, label, mus[0]) for cmd, label, mus in WORKLOADS.closure_slots()]
    requests += [
        argv
        for argv in WORKLOADS.loop_requests(None)
        if (argv[0] == "loopcheck" and int(argv[argv.index("--window") + 1]) <= 1)
        or argv[2] == "loop-basis"
    ]
    requests += [("verify", "--suite", suite, "--jobs", "1", "--json") for suite in verify.SUITES]
    return list(dict.fromkeys(requests))  # the default loop-basis request comes twice


@cache
def cross_section() -> dict[tuple[str, ...], tuple[int, str, str]]:
    """Each cross-section request mapped to what serve() gives, served on first read."""
    return {argv: serve(argv) for argv in _cross_section_requests()}
