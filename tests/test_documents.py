"""Committed benchmark documents: a Tier-1 guard on byte-identical output.

perfbench/digests.json holds the sha256 of the stdout document of every
request the benchmark can draw.  This test serves a cheap cross-section of
them through cli.main (one request per closures slot, every loopcheck with
--window at most 1, the loop-basis suite at every window, and the six verify
suites with their default flags) and compares each digest; a second test
parses each of those documents back and writes it again with cli's JSON
writer, which must give the same bytes.  Three more serve overlapping
requests in one process, so that later ones read the memos earlier ones
filled: every closures request, every sweeps request, and every loopcheck
window with the loop-basis suite.  They only read the files under perfbench/.
"""

import contextlib
import hashlib
import io
import json

import pytest

from affsch import schubert
from affsch.cli import _json_text, main
from affsch.rootsys import Coweight, build_root_system
from affsch.verify import SUITES
from benchdata import PERFBENCH, clear_request_memos, load_workloads


def test_documents_match_committed_digests():
    workloads = load_workloads()
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    slots = workloads.closure_slots()
    requests = [workloads.closure_request(cmd, label, mus[0]) for cmd, label, mus in slots]
    loopchecks = [
        argv
        for argv in workloads.loop_requests(None)
        if argv[0] == "loopcheck" and int(argv[argv.index("--window") + 1]) <= 1
    ]
    assert len(loopchecks) == 2 * len(workloads.LOOP_TYPES)
    requests += loopchecks
    loop_basis = [argv for argv in workloads.loop_requests(None) if argv[2] == "loop-basis"]
    assert len(loop_basis) == len(workloads.LOOP_WINDOWS)
    requests += loop_basis
    requests += [("verify", "--suite", suite, "--jobs", "1", "--json") for suite in SUITES]
    mismatches = []
    for argv in dict.fromkeys(requests):  # the default loop-basis request comes twice
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if code != 0 or digest != digests[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def _cross_section(workloads) -> list[tuple[str, ...]]:
    """The requests test_documents_match_committed_digests serves, each once."""
    slots = workloads.closure_slots()
    requests = [workloads.closure_request(cmd, label, mus[0]) for cmd, label, mus in slots]
    requests += [
        argv
        for argv in workloads.loop_requests(None)
        if (argv[0] == "loopcheck" and int(argv[argv.index("--window") + 1]) <= 1)
        or argv[2] == "loop-basis"
    ]
    requests += [("verify", "--suite", suite, "--jobs", "1", "--json") for suite in SUITES]
    return list(dict.fromkeys(requests))


def test_documents_reemit_byte_identical():
    # every document parsed back and written again by cli's writer gives the
    # same bytes; the digests above tie those bytes to json.dumps
    mismatches = []
    for argv in _cross_section(load_workloads()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        text = out.getvalue()
        if code != 0 or _json_text(json.loads(text)) + "\n" != text:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def _serve(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_closures_on_kept_posets_match_committed_digests(monkeypatch):
    # every closures request, in the order of the digest table and then
    # reversed, in one process: later requests read the posets earlier ones
    # kept, within MAX_POSET_ENTRIES, instead of walking afresh
    workloads = load_workloads()
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    monkeypatch.setattr(schubert, "_posets", {})
    requests = [argv for argv in workloads.all_requests() if argv[0] in ("analyze", "poset")]
    slots = workloads.closure_slots()
    assert len(requests) == len(workloads.PINNED_CLOSURES) + sum(len(mus) for *_, mus in slots)
    mismatches = []
    for argv in requests + requests[::-1]:
        code, text = _serve(argv)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != digests[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []
    assert schubert._posets  # the posets were kept from request to request


def test_overlapping_sweeps_on_a_warm_memo_match_committed_digests(monkeypatch):
    # every sweeps request, by --max-pairing ascending and then descending, in
    # one process: each request after the first reads boxes, rows and posets
    # the ones before it left
    workloads = load_workloads()
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    clear_request_memos()
    monkeypatch.setattr(schubert, "_posets", {})
    text_requests = [
        ("verify", "--suite", suite, "--max-pairing", "16", "--seed", "1", "--jobs", "1")
        for suite in workloads.SWEEP_SUITES
    ]
    cold = [_serve(argv) for argv in text_requests]

    def max_pairing(argv) -> int:
        if "--max-pairing" not in argv:
            return workloads.DEFAULT_PAIRING
        return int(argv[argv.index("--max-pairing") + 1])

    requests = sorted(workloads.sweep_requests(None), key=max_pairing)
    assert len(requests) == 6 * len(workloads.SWEEP_RANKS) * len(workloads.SWEEP_PAIRINGS)
    mismatches = []
    for argv in requests + requests[::-1]:
        code, text = _serve(argv)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != digests[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []
    # text mode prints the same bytes on warm memos as on cold ones
    assert [_serve(argv) for argv in text_requests] == cold


def test_loopchecks_on_warm_memos_match_committed_digests():
    # every loopcheck window ascending, then descending, then loop-basis at
    # every window, in one process: each request after the first of its type
    # reads root-line vectors and rendered blocks the ones before it left
    workloads = load_workloads()
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    clear_request_memos()
    text_requests = [("loopcheck", "--type", label, "--window", "8") for label in workloads.LOOP_TYPES]
    cold = [_serve(argv) for argv in text_requests]
    requests = workloads.loop_requests(None)
    loopchecks = [argv for argv in requests if argv[0] == "loopcheck"]
    assert len(loopchecks) == len(workloads.LOOP_TYPES) * len(workloads.LOOP_WINDOWS)
    loop_basis = [argv for argv in requests if argv[2] == "loop-basis"]
    mismatches = []
    for argv in loopchecks + loopchecks[::-1] + loop_basis:
        code, text = _serve(argv)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != digests[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []
    # text mode prints the same bytes on warm memos as on cold ones
    assert [_serve(argv) for argv in text_requests] == cold


def test_a_refused_bool_coweight_leaves_the_kept_poset_clean(monkeypatch):
    """A (True, True) top would be kept as the point (1, 1) of the A2 poset.

    Every later walk through (1, 1), as the one below 0,3, would then intern
    the bool tuple and write true in the document.  Coweight refuses it.
    """
    monkeypatch.setattr(schubert, "_posets", {})
    with pytest.raises(ValueError):
        schubert.dominant_below(Coweight(build_root_system("A2"), (True, True)))
    argv = ("poset", "--type", "A2", "--mu", "0,3", "--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[" ".join(argv)]
