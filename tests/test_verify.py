"""The memoised sweep and loop suites against their dict-row oracles, and the bounds of their memos.

verify keeps every box, and every stembridge, mindeg-inequality and
k-symmetry row, in bounded memos as a sort key and rendered text; of the
loop-basis, cartan-direction and sl2-factorization rows it keeps the text
alone.  The oracles in tests/oracles.py build the same rows as dicts, from
the public schubert functions and the loop-algebra checks, and sort them by
their items.
"""

import contextlib
import hashlib
import io
import json
import random

from affsch import cli, loopalg, schubert, verify
from affsch.rootsys import build_root_system
from benchdata import PERFBENCH, load_workloads
from oracles import loop_suite_result, sl2_values, sweep_box, sweep_result

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


LOOP_MEMOS = (
    loopalg.cartan_direction,
    loopalg.root_line_vectors,
    loopalg.verify_sl2_factorization,
    verify._loop_basis_text,
    verify._direction_text,
    verify._sl2_text,
)


def _flag(argv, flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _loop_suite_requests(workloads) -> list[tuple[str, ...]]:
    """Every loop-suite request the benchmark can draw, by --window ascending."""
    requests = [argv for argv in workloads.loop_requests(None) if argv[0] == "verify"]
    assert len(requests) == len(workloads.LOOP_WINDOWS) * (2 + len(workloads.SUITE_SEEDS))
    return sorted(requests, key=lambda argv: _flag(argv, "--window", workloads.DEFAULT_WINDOW))


def test_loop_suites_on_warm_memos_match_digests_and_the_dict_row_oracle():
    # ascending and then descending in one process: each request after the
    # first reads the verdicts and rendered rows the ones before it left
    workloads = load_workloads()
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    for memo in LOOP_MEMOS:
        memo.cache_clear()
    requests = _loop_suite_requests(workloads)
    expected = {}
    for argv in requests:
        suite, window, seed = argv[2], _flag(argv, "--window", 4), _flag(argv, "--seed", 0)
        request = {"type": None, "mu": None, "lambda": None, "suite": suite, "window": window,
                   "max_rank": 4, "max_pairing": 14, "seed": seed, "jobs": 1}
        result = loop_suite_result(suite, window, seed)
        document = cli._document("verify", request, result)
        expected[argv] = json.dumps(document, indent=2, sort_keys=True) + "\n"
    mismatches = []
    for argv in requests + requests[::-1]:
        code, text = _serve(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (code, text) != (0, expected[argv]) or digest != digests[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def test_loop_suite_memos_hold_their_counted_grids():
    workloads = load_workloads()
    for memo in (*LOOP_MEMOS, cli._special_text):
        memo.cache_clear()
    for argv in _loop_suite_requests(workloads):
        assert _serve(argv)[0] == 0
    for label in workloads.LOOP_TYPES:
        assert _serve(["loopcheck", "--type", label, "--window", "0", "--json"])[0] == 0
    sl2_pairs = {(k, x) for seed in workloads.SUITE_SEEDS for x in sl2_values(seed) for k in range(1, 6)}
    loop_basis = loop_suite_result("loop-basis", 8, 0)["instances"]
    directions = loop_suite_result("cartan-direction", 6, 0)["instances"]
    counted = {
        verify._loop_basis_text: len(loop_basis),
        verify._direction_text: len(directions),
        verify._sl2_text: len(sl2_pairs),
        loopalg.verify_sl2_factorization: len(sl2_pairs),
        cli._special_text: len(workloads.LOOP_TYPES),
    }
    assert list(counted.values()) == [68, 138, 170, 170, 9]
    for memo, count in counted.items():
        info = memo.cache_info()
        assert info.maxsize == info.currsize == info.misses == count, memo.__name__
