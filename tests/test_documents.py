"""Committed benchmark documents: a Tier-1 guard on byte-identical output.

perfbench/digests.json holds the sha256 of the stdout document of every
request the benchmark can draw.  One test compares the digest of each
document of the served cross-section (benchdata.cross_section: one request
per closures slot, every loopcheck with --window at most 1, the loop-basis
suite at every window, and the six verify suites with their default flags);
a second parses each of those documents back and writes it again with cli's
JSON writer, which must give the same bytes.  Three more serve overlapping
requests in one process, so that later ones read the memos earlier ones
filled: every closures request, every sweeps request, and every loopcheck
window with the loop-basis suite.  They only read the files under perfbench/.
"""

import hashlib
import json

import pytest

from affsch import schubert
from affsch.cli import _json_text
from affsch.rootsys import Coweight, build_root_system
from benchdata import DIGESTS, WORKLOADS, clear_request_memos, cross_section, serve


def test_documents_match_committed_digests():
    documents = cross_section()
    loopchecks = [argv for argv in documents if argv[0] == "loopcheck"]
    assert len(loopchecks) == 2 * len(WORKLOADS.LOOP_TYPES)
    loop_basis = [argv for argv in documents if argv[2] == "loop-basis"]
    assert len(loop_basis) == len(WORKLOADS.LOOP_WINDOWS)
    mismatches = []
    for argv, (code, text, _) in documents.items():
        digest = hashlib.sha256(text.encode()).hexdigest()
        if code != 0 or digest != DIGESTS[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def test_documents_reemit_byte_identical():
    # every document parsed back and written again by cli's writer gives the
    # same bytes; the digests above tie those bytes to json.dumps
    mismatches = []
    for argv, (code, text, _) in cross_section().items():
        if code != 0 or _json_text(json.loads(text)) + "\n" != text:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def test_closures_on_kept_posets_match_committed_digests(monkeypatch):
    # every closures request, in the order of the digest table and then
    # reversed, in one process: later requests read the posets earlier ones
    # kept, within MAX_POSET_ENTRIES, instead of walking afresh
    monkeypatch.setattr(schubert, "_posets", {})
    requests = [argv for argv in WORKLOADS.all_requests() if argv[0] in ("analyze", "poset")]
    slots = WORKLOADS.closure_slots()
    assert len(requests) == len(WORKLOADS.PINNED_CLOSURES) + sum(len(mus) for *_, mus in slots)
    mismatches = []
    for argv in requests + requests[::-1]:
        code, text, _ = serve(argv)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != DIGESTS[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []
    assert schubert._posets  # the posets were kept from request to request


def test_overlapping_sweeps_on_a_warm_memo_match_committed_digests(monkeypatch):
    # every sweeps request, by --max-pairing ascending and then descending, in
    # one process: each request after the first reads boxes, rows and posets
    # the ones before it left
    clear_request_memos()
    monkeypatch.setattr(schubert, "_posets", {})
    text_requests = [
        ("verify", "--suite", suite, "--max-pairing", "16", "--seed", "1", "--jobs", "1")
        for suite in WORKLOADS.SWEEP_SUITES
    ]
    cold = [serve(argv) for argv in text_requests]

    def max_pairing(argv) -> int:
        if "--max-pairing" not in argv:
            return WORKLOADS.DEFAULT_PAIRING
        return int(argv[argv.index("--max-pairing") + 1])

    requests = sorted(WORKLOADS.sweep_requests(None), key=max_pairing)
    assert len(requests) == 6 * len(WORKLOADS.SWEEP_RANKS) * len(WORKLOADS.SWEEP_PAIRINGS)
    mismatches = []
    for argv in requests + requests[::-1]:
        code, text, _ = serve(argv)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != DIGESTS[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []
    # text mode prints the same bytes on warm memos as on cold ones
    assert [serve(argv) for argv in text_requests] == cold


def test_loopchecks_on_warm_memos_match_committed_digests():
    # every loopcheck window ascending, then descending, then loop-basis at
    # every window, in one process: each request after the first of its type
    # reads root-line vectors and rendered blocks the ones before it left
    clear_request_memos()
    text_requests = [("loopcheck", "--type", label, "--window", "8") for label in WORKLOADS.LOOP_TYPES]
    cold = [serve(argv) for argv in text_requests]
    requests = WORKLOADS.loop_requests(None)
    loopchecks = [argv for argv in requests if argv[0] == "loopcheck"]
    assert len(loopchecks) == len(WORKLOADS.LOOP_TYPES) * len(WORKLOADS.LOOP_WINDOWS)
    loop_basis = [argv for argv in requests if argv[2] == "loop-basis"]
    mismatches = []
    for argv in loopchecks + loopchecks[::-1] + loop_basis:
        code, text, _ = serve(argv)
        if code != 0 or hashlib.sha256(text.encode()).hexdigest() != DIGESTS[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []
    # text mode prints the same bytes on warm memos as on cold ones
    assert [serve(argv) for argv in text_requests] == cold


def test_a_refused_bool_coweight_leaves_the_kept_poset_clean(monkeypatch):
    """A (True, True) top would be kept as the point (1, 1) of the A2 poset.

    Every later walk through (1, 1), as the one below 0,3, would then intern
    the bool tuple and write true in the document.  Coweight refuses it.
    """
    monkeypatch.setattr(schubert, "_posets", {})
    with pytest.raises(ValueError):
        schubert.dominant_below(Coweight(build_root_system("A2"), (True, True)))
    argv = ("poset", "--type", "A2", "--mu", "0,3", "--json")
    code, text, _ = serve(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[" ".join(argv)]
