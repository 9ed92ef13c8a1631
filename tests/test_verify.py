"""The memoised sweep suites against their dict-row oracle, and the bounds of their memos.

verify keeps every box, and every stembridge, mindeg-inequality and
k-symmetry row, in bounded memos as a sort key and rendered text.  The
oracle in tests/oracles.py builds the same rows as dicts from the public
schubert functions and sorts them by their items.
"""

import contextlib
import io
import json
import random

from affsch import cli, schubert, verify
from affsch.rootsys import build_root_system
from oracles import sweep_box, sweep_result

SWEEP_SUITES = ("stembridge", "mindeg-inequality", "k-symmetry")
TOPS_AT_MAX = 572  # dominant tops of the 12 sweep types at MAX_PAIRING 40


def _serve(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _cold(monkeypatch):
    """Empty every sweep memo and the kept posets."""
    for memo in (verify._box, verify._edge_rows, verify._k_symmetry_row):
        memo.cache_clear()
    monkeypatch.setattr(schubert, "_posets", {})


def test_memoised_sweeps_match_the_dict_row_oracle(monkeypatch):
    """Every sweep suite at ranks 2-3 and pairings 0-10, two seeds for k-symmetry, shuffled."""
    _cold(monkeypatch)
    requests = [
        (suite, rank, pairing, seed)
        for suite in SWEEP_SUITES
        for rank in (2, 3)
        for pairing in range(11)
        for seed in ((0, 5) if suite == "k-symmetry" else (0,))
    ]
    random.Random(16).shuffle(requests)
    mismatches = []
    for suite, rank, pairing, seed in requests:
        argv = ["verify", "--suite", suite, "--max-rank", str(rank), "--max-pairing", str(pairing)]
        argv += ["--seed", str(seed), "--jobs", "1", "--json"]
        code, text = _serve(argv)
        labels = verify.sweep_type_labels(rank)
        result = sweep_result(suite, labels, pairing, seed)
        request = {"type": None, "mu": None, "lambda": None, "suite": suite, "window": 4,
                   "max_rank": rank, "max_pairing": pairing, "seed": seed, "jobs": 1}
        if result["instances_checked"]:
            expected = json.dumps(cli._document("verify", request, result), indent=2, sort_keys=True)
            ok = (code, text) == (0, expected + "\n")
        else:
            ok = (code, text) == (2, "")  # an empty sweep is refused
        if not ok:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def test_instance_rows_are_rendered_dicts():
    outcome = verify.run_suite("k-symmetry", max_rank=2, max_pairing=8, seed=3)
    assert outcome.instances and all(isinstance(row, str) for row in outcome.instances)
    rows = [json.loads(row) for row in outcome.instances]
    assert sorted(rows, key=lambda r: sorted(r.items(), key=str)) == rows
    assert outcome.instances_checked == len(set(outcome.instances)) == len(rows)


def test_boxes_are_the_lattice_solve_boxes_and_stay_within_their_bound(monkeypatch):
    _cold(monkeypatch)
    assert verify._box.cache_info().maxsize == len(verify.SWEEP_TYPES) * (cli.MAX_PAIRING + 1)
    for label in verify.SWEEP_TYPES:
        system = build_root_system(label)
        for pairing in range(cli.MAX_PAIRING + 1):
            assert verify.sweep_coweights(system, pairing) == sweep_box(system, pairing)
    info = verify._box.cache_info()
    assert info.currsize == info.misses == info.maxsize  # every key held, none evicted


def test_full_grid_requests_evict_nothing_and_memos_stay_bounded(monkeypatch):
    _cold(monkeypatch)
    tops = sum(len(verify._box(build_root_system(label), cli.MAX_PAIRING)) for label in verify.SWEEP_TYPES)
    assert tops == TOPS_AT_MAX
    edge = verify._edge_rows.cache_info
    assert edge().maxsize == 2 * TOPS_AT_MAX
    full = ["--max-rank", "4", "--max-pairing", str(cli.MAX_PAIRING), "--jobs", "1", "--json"]
    for suite in ("stembridge", "mindeg-inequality"):
        assert _serve(["verify", "--suite", suite, *full])[0] == 0
    assert edge().currsize == edge().misses == 2 * TOPS_AT_MAX
    # a smaller box after the full grid is served from the memo alone
    assert _serve(["verify", "--suite", "stembridge", "--max-pairing", "20", "--json"])[0] == 0
    assert edge().misses == 2 * TOPS_AT_MAX

    pairs = verify._k_symmetry_row.cache_info
    assert _serve(["verify", "--suite", "k-symmetry", "--seed", "0", *full])[0] == 0
    assert pairs().currsize == pairs().misses <= 924 + 12 * 25 <= pairs().maxsize
    for seed in range(1, 12):  # new random pairs each seed: the oldest go first
        assert _serve(["verify", "--suite", "k-symmetry", "--seed", str(seed), *full])[0] == 0
        assert pairs().currsize <= pairs().maxsize
    assert pairs().currsize == pairs().maxsize < pairs().misses
