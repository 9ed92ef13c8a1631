"""The memoised suites against their dict-row oracles, the bounds of their memos, and their failures.

verify keeps every box, and every row of every suite, in bounded memos; a
row is kept as its sort key, rendered text and counterexamples.  The oracles
in tests/oracles.py build the same rows as dicts, from the public schubert
functions and the loop-algebra checks, and sort them by their items.
"""

import dataclasses
import functools
import hashlib
import importlib
import json
import pkgutil
import random
from collections import Counter

import pytest

import affsch
from affsch import cli, loopalg, schubert, verify
from affsch.rootsys import build_root_system
from benchdata import DIGESTS, REQUEST_MEMOS, TYPE_MEMOS, WORKLOADS, clear_request_memos, serve
from oracles import loop_suite_result, sl2_values, sweep_box, sweep_result

SWEEP_SUITES = ("stembridge", "mindeg-inequality", "k-symmetry")
TOPS_AT_MAX = 572  # dominant tops of the 12 sweep types at MAX_PAIRING 40


def _cold(monkeypatch):
    """Empty every request-path memo and the kept posets."""
    clear_request_memos()
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
        code, text, _ = serve(argv)
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


def _package_memos() -> set:
    """Every lru_cache of affsch's modules, at module level or in a class."""
    memos = set()
    for info in pkgutil.iter_modules(affsch.__path__):
        if info.name == "__main__":  # it runs the command line on import
            continue
        for value in vars(importlib.import_module(f"affsch.{info.name}")).values():
            for member in [value, *vars(value).values()] if isinstance(value, type) else [value]:
                if isinstance(member, functools._lru_cache_wrapper):
                    memos.add(member)
    return memos


def test_every_memo_is_a_request_memo_or_keyed_by_type_data():
    """A memo in neither tuple would be read warm by every test that asks for cold memos."""
    listed = REQUEST_MEMOS + TYPE_MEMOS
    assert len(set(listed)) == len(listed)
    assert _package_memos() == set(listed)


def test_boxes_are_the_lattice_solve_boxes_and_stay_within_their_bound(monkeypatch):
    _cold(monkeypatch)
    assert verify._box.cache_info().maxsize == len(verify.SWEEP_TYPES) * (verify.MAX_PAIRING + 1)
    for label in verify.SWEEP_TYPES:
        system = build_root_system(label)
        for pairing in range(verify.MAX_PAIRING + 1):
            assert verify.sweep_coweights(system, pairing) == sweep_box(system, pairing)
    info = verify._box.cache_info()
    assert info.currsize == info.misses == info.maxsize  # every key held, none evicted


def test_full_grid_requests_evict_nothing_and_memos_stay_bounded(monkeypatch):
    _cold(monkeypatch)
    boxes = [verify._box(build_root_system(label), verify.MAX_PAIRING) for label in verify.SWEEP_TYPES]
    tops = sum(map(len, boxes))
    assert tops == TOPS_AT_MAX
    edge = verify._edge_rows.cache_info
    assert edge().maxsize == 2 * TOPS_AT_MAX
    full = ["--max-rank", "4", "--max-pairing", str(verify.MAX_PAIRING), "--jobs", "1", "--json"]
    for suite in ("stembridge", "mindeg-inequality"):
        assert serve(["verify", "--suite", suite, *full])[0] == 0
    assert edge().currsize == edge().misses == 2 * TOPS_AT_MAX
    # a smaller box after the full grid is served from the memo alone
    assert serve(["verify", "--suite", "stembridge", "--max-pairing", "20", "--json"])[0] == 0
    assert edge().misses == 2 * TOPS_AT_MAX

    pairs = verify._k_symmetry_row.cache_info
    assert serve(["verify", "--suite", "k-symmetry", "--seed", "0", *full])[0] == 0
    assert pairs().currsize == pairs().misses <= 924 + 12 * 25 <= pairs().maxsize
    for seed in range(1, 12):  # new random pairs each seed: the oldest go first
        assert serve(["verify", "--suite", "k-symmetry", "--seed", str(seed), *full])[0] == 0
        assert pairs().currsize <= pairs().maxsize
    assert pairs().currsize == pairs().maxsize < pairs().misses
    # one covering-pair set per type, and the down-set of each top drawn, built once
    draws, down_sets = verify._k_symmetry_draws.cache_info(), verify._down_set.cache_info()
    assert draws.currsize == draws.misses == len(verify.SWEEP_TYPES)
    assert down_sets.currsize == down_sets.misses <= TOPS_AT_MAX - len(verify.SWEEP_TYPES)
    assert down_sets.maxsize == TOPS_AT_MAX


def test_warm_k_symmetry_draws_walk_nothing_again(monkeypatch):
    _cold(monkeypatch)
    argv = ["verify", "--suite", "k-symmetry", "--max-pairing", "12", "--seed", "2", "--json"]
    code, text, _ = serve(argv)
    assert code == 0
    walks = []
    monkeypatch.setattr(schubert.DominancePoset, "below", lambda self, mu: walks.append(mu))
    monkeypatch.setattr(schubert.DominancePoset, "edges", lambda self, p: walks.append(p))
    assert serve(argv)[:2] == (0, text)
    assert walks == []


def test_instance_rows_read_back_as_the_dict_rows_of_every_suite():
    for suite in SWEEP_SUITES:
        outcome = verify.run_suite(suite, max_rank=3, max_pairing=8, seed=1)
        rows = [json.loads(row) for row in outcome.instances]
        assert rows == sweep_result(suite, verify.sweep_type_labels(3), 8, 1)["instances"], suite
    for suite in ("loop-basis", "cartan-direction", "sl2-factorization"):
        outcome = verify.run_suite(suite, window=3, seed=1)
        rows = [json.loads(row) for row in outcome.instances]
        assert rows == loop_suite_result(suite, 3, 1)["instances"], suite


# Small bounds for each suite: every row kind, the nested vector of a
# cartan-direction row among them.
SMALL_BOUNDS = {
    "loop-basis": {"window": 2},
    "cartan-direction": {"window": 2},
    "k-symmetry": {"max_rank": 3, "max_pairing": 8, "seed": 1},
    "stembridge": {"max_rank": 3, "max_pairing": 8},
    "mindeg-inequality": {"max_rank": 3, "max_pairing": 8},
    "sl2-factorization": {"window": 3, "seed": 2},
}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_instance_rows_are_written_alone_as_json_dumps_writes_them(suite):
    outcome = verify.run_suite(suite, **SMALL_BOUNDS[suite])
    assert outcome.instances
    for row in outcome.instances:
        assert type(row) is str  # not text kept for a place in a document
        assert row == json.dumps(json.loads(row), indent=2, sort_keys=True)


def _flag(argv, flag: str, default: int) -> int:
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _loop_suite_requests() -> list[tuple[str, ...]]:
    """Every loop-suite request the benchmark can draw, by --window ascending."""
    requests = [argv for argv in WORKLOADS.loop_requests(None) if argv[0] == "verify"]
    assert len(requests) == len(WORKLOADS.LOOP_WINDOWS) * (2 + len(WORKLOADS.SUITE_SEEDS))
    return sorted(requests, key=lambda argv: _flag(argv, "--window", WORKLOADS.DEFAULT_WINDOW))


def test_loop_suites_on_warm_memos_match_digests_and_the_dict_row_oracle():
    # ascending and then descending in one process: each request after the
    # first reads the verdicts and rendered rows the ones before it left
    clear_request_memos()
    requests = _loop_suite_requests()
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
        code, text, _ = serve(argv)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (code, text) != (0, expected[argv]) or digest != DIGESTS[" ".join(argv)]:
            mismatches.append(" ".join(argv))
    assert mismatches == []


def test_loop_suite_memos_hold_their_counted_grids():
    clear_request_memos()
    for argv in _loop_suite_requests():
        assert serve(argv)[0] == 0
    for label in WORKLOADS.LOOP_TYPES:
        assert serve(["loopcheck", "--type", label, "--window", "0", "--json"])[0] == 0
    sl2_pairs = {(k, x) for seed in WORKLOADS.SUITE_SEEDS for x in sl2_values(seed) for k in range(1, 6)}
    loop_basis = loop_suite_result("loop-basis", 8, 0)["instances"]
    directions = loop_suite_result("cartan-direction", 6, 0)["instances"]
    counted = {
        verify._loop_basis_row: len(loop_basis),
        verify._direction_row: len(directions),
        verify._sl2_row: len(sl2_pairs),
        loopalg._verify_sl2_factorization: len(sl2_pairs),
        cli._loopcheck_blocks: len(WORKLOADS.LOOP_TYPES),
    }
    assert list(counted.values()) == [68, 138, 170, 170, 9]
    for memo, count in counted.items():
        info = memo.cache_info()
        assert info.maxsize == info.currsize == info.misses == count, memo.__name__


def test_each_e_a_is_built_once_for_the_loop_windows_and_directions(monkeypatch):
    clear_request_memos()
    real, built = loopalg.make_e_a, Counter()

    def counting(datum, rel):
        built[datum.label, rel] += 1
        return real(datum, rel)

    monkeypatch.setattr(loopalg, "make_e_a", counting)
    for label in WORKLOADS.LOOP_TYPES:
        for window in WORKLOADS.LOOP_WINDOWS:
            assert serve(["loopcheck", "--type", label, "--window", str(window), "--json"])[0] == 0
    for window in WORKLOADS.LOOP_WINDOWS:
        argv = ["verify", "--suite", "cartan-direction", "--window", str(window), "--json"]
        assert serve(argv)[0] == 0
    # root_line_vectors, cartan_direction and the 2A2 block read one memo, so a
    # vector one of them built is never built again for another
    assert set(built.values()) == {1}
    info = loopalg._e_a.cache_info()
    assert len(built) == info.misses == info.currsize == 1986 <= info.maxsize
    assert info.hits == 472


# -- failure paths ------------------------------------------------------------

_real_k_vector = schubert.DominancePoset.k_vector
_real_invariant_basis = verify.verify_invariant_basis
_real_cartan_direction = verify.cartan_direction
_real_sl2 = verify.verify_sl2_factorization
RAISED = "vanishing Cartan component contradicts the recipe"


def _zero_k_vectors(self, lam, mu):
    counts = _real_k_vector(self, lam, mu)
    if (self.system.label, mu) in {("A1", (4,)), ("A2", (1, 1))}:
        return (0,) * len(counts)
    return counts


def _shifted_k_vectors(self, lam, mu):
    counts = _real_k_vector(self, lam, mu)
    if (self.system.label, lam, mu) == ("A2", (0, 0), (1, 1)):
        return (counts[0] + 1, *counts[1:])  # the first positive root
    if (self.system.label, lam, mu) == ("A1", (2,), (4,)):
        return (counts[0], counts[1] + 1)  # the negative root
    return counts


def _short_fixed_dims(datum, window):
    report = _real_invariant_basis(datum, window)
    broken = {("2D4", -1), ("2D4", 1), ("3D4", 0)}
    lines = tuple(
        dataclasses.replace(line, fixed_dim=line.fixed_dim + 1)
        if (datum.label, line.degree) in broken else line
        for line in report.lines
    )
    return dataclasses.replace(report, lines=lines)


def _raising_directions(datum, a):
    if (datum.label, a) in {("A1", ((1,), -1)), ("3D4", ((-3, -2), -1))}:
        raise RuntimeError(RAISED)
    return _real_cartan_direction(datum, a)


def _false_at_three_draws(k, x):
    return (k, str(x)) not in {(1, "3/2"), (2, "1"), (2, "-2")} and _real_sl2(k, x)


# Each suite that can fail, the patch that breaks it, and what it then reports:
# every counterexample in order, each as a JSON document holds it.
FAILURES = {
    "mindeg-inequality": (
        ("--max-rank", "2", "--max-pairing", "4"),
        (schubert.DominancePoset, "k_vector", _zero_k_vectors),
        6,
        [
            {"dim": 4, "lambda": [0], "mu": [4], "root_bound": 0, "type": "A1"},
            {"dim": 4, "lambda": [0, 0], "mu": [1, 1], "root_bound": 0, "type": "A2"},
            {"dim": 4, "lambda": [2], "mu": [4], "root_bound": 0, "type": "A1"},
        ],
    ),
    "k-symmetry": (
        ("--max-rank", "2", "--max-pairing", "4", "--seed", "0"),
        (schubert.DominancePoset, "k_vector", _shifted_k_vectors),
        11,
        [
            {"type": "A2", "mu": [1, 1], "lambda": [0, 0], "root": [0, 1],
             "k_plus": 2, "k_minus": 1, "pairing": 0},
            {"type": "A1", "mu": [4], "lambda": [2], "root": [1],
             "k_plus": 3, "k_minus": 2, "pairing": 2},
        ],
    ),
    "loop-basis": (
        ("--window", "1"),
        (verify, "verify_invariant_basis", _short_fixed_dims),
        12,
        [
            {"degree": -1, "fixed_dim": 7, "lines": 6, "rank": 6, "type": "2D4"},
            {"degree": 0, "fixed_dim": 13, "lines": 12, "rank": 12, "type": "3D4"},
            {"degree": 1, "fixed_dim": 7, "lines": 6, "rank": 6, "type": "2D4"},
        ],
    ),
    "cartan-direction": (
        ("--window", "1"),
        (verify, "cartan_direction", _raising_directions),
        24,
        [
            {"error": RAISED, "level": -1, "root": [-3, -2], "type": "3D4"},
            {"error": RAISED, "level": -1, "root": [1], "type": "A1"},
        ],
    ),
    "sl2-factorization": (
        ("--window", "3", "--seed", "0"),
        (verify, "verify_sl2_factorization", _false_at_three_draws),
        39,
        [{"k": 1, "x": "3/2"}, {"k": 2, "x": "-2"}, {"k": 2, "x": "1"}, {"k": 2, "x": "1"}],
    ),
}


@pytest.fixture
def cold_memos(monkeypatch):
    """Cold memos and posets, and empty memos after: a broken check fills them."""
    _cold(monkeypatch)
    yield
    clear_request_memos()


@pytest.mark.parametrize("suite", list(FAILURES))
def test_a_broken_check_fails_its_suite_end_to_end(monkeypatch, cold_memos, suite):
    flags, (owner, name, broken), checked, expected = FAILURES[suite]
    monkeypatch.setattr(owner, name, broken)
    code, text, _ = serve(["verify", "--suite", suite, *flags])
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == f"suite {suite}: FAIL ({checked} instances)"
    shown = [line for line in lines if line.startswith("  counterexample: ")]
    assert shown == [f"  counterexample: {json.dumps(row, sort_keys=True)}" for row in expected]

    code, text, _ = serve(["verify", "--suite", suite, *flags, "--json"])
    assert code == 1
    document = json.loads(text)["result"]
    assert (document["passed"], document["instances_checked"]) == (False, checked)
    assert document["counterexamples"] == expected

    values = dict(zip(flags[::2], map(int, flags[1::2])))
    outcome = verify.run_suite(
        suite,
        max_rank=values.get("--max-rank", 4),
        max_pairing=values.get("--max-pairing", 14),
        window=values.get("--window", 4),
        seed=values.get("--seed", 0),
    )
    assert (outcome.passed, outcome.instances_checked) == (False, checked)
    # tuples in a counterexample would differ from the lists the document reads back
    assert list(outcome.counterexamples) == document["counterexamples"]
    rowless = len(expected) if suite in ("cartan-direction", "sl2-factorization") else 0
    assert len(outcome.instances) == checked - rowless
    # a caller's edit of a counterexample reaches no kept row
    for row in outcome.counterexamples:
        row.clear()
    assert serve(["verify", "--suite", suite, *flags, "--json"])[1] == text


# -- the request rules run_suite owns ----------------------------------------

OUT_OF_RANGE = (
    ("max_pairing", "--max-pairing", -1),
    ("max_pairing", "--max-pairing", verify.MAX_PAIRING + 1),
    ("window", "--window", -1),
    ("window", "--window", loopalg.MAX_WINDOW + 1),
)


@pytest.mark.parametrize("suite", verify.SUITES)
def test_run_suite_and_the_cli_refuse_the_same_bounds(suite):
    for name, flag, value in OUT_OF_RANGE:
        high = verify.MAX_PAIRING if name == "max_pairing" else loopalg.MAX_WINDOW
        message = f"{name}: expected an integer from 0 to {high}, got {value}"
        with pytest.raises(ValueError, match=message):
            verify.run_suite(suite, **{name: value})
        assert serve(["verify", "--suite", suite, flag, str(value)])[:2] == (2, "")


INEXACT = (2.5, True, "4", None)


@pytest.mark.parametrize("suite", verify.SUITES)
@pytest.mark.parametrize("name", ["max_rank", "max_pairing", "window", "seed"])
def test_run_suite_refuses_inexact_bounds_before_any_memo(monkeypatch, suite, name):
    _cold(monkeypatch)
    for value in INEXACT:
        with pytest.raises(ValueError, match=f"^{name}: expected an int, got {value!r}$"):
            verify.run_suite(suite, **{name: value})
    assert not any(memo.cache_info().misses for memo in REQUEST_MEMOS)
    assert schubert._posets == {}


HIGH = verify.MAX_PAIRING
BAD_PAIRINGS = {
    2.5: "expected an int, got 2.5",
    True: "expected an int, got True",
    "4": "expected an int, got '4'",
    None: "expected an int, got None",
    -1: f"expected an integer from 0 to {HIGH}, got -1",
    HIGH + 1: f"expected an integer from 0 to {HIGH}, got {HIGH + 1}",
}


@pytest.mark.parametrize("value", BAD_PAIRINGS, ids=repr)
def test_sweep_coweights_refuses_what_run_suite_refuses_before_its_box(value):
    system = build_root_system("A1")
    verify.sweep_coweights(system, 1)  # True would share this entry
    boxes = verify._box.cache_info()
    message = f"max_pairing: {BAD_PAIRINGS[value]}"
    with pytest.raises(ValueError) as from_sweep:
        verify.sweep_coweights(system, value)
    with pytest.raises(ValueError) as from_suite:
        verify.run_suite("stembridge", max_pairing=value)
    assert str(from_sweep.value) == str(from_suite.value) == message
    after = verify._box.cache_info()
    assert (after.currsize, after.misses) == (boxes.currsize, boxes.misses)


def _no_sl2_rows(window, seed):
    return verify._result("sl2-factorization", seed, [])


# The sweeps check nothing at --max-rank 0, which no sweep type has; no request
# empties a loop suite, so these patches take away its types or its draws.
EMPTY_LOOP_SUITES = {
    "loop-basis": ("LOOP_LABELS", ()),
    "cartan-direction": ("DIRECTION_LABELS", ()),
    "sl2-factorization": ("_suite_sl2", _no_sl2_rows),
}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_run_suite_and_the_cli_refuse_an_empty_sweep(monkeypatch, suite):
    if suite in EMPTY_LOOP_SUITES:
        monkeypatch.setattr(verify, *EMPTY_LOOP_SUITES[suite])
    message = f"suite {suite} has no instance to check within these bounds"
    with pytest.raises(ValueError, match=message):
        verify.run_suite(suite, max_rank=0)
    assert serve(["verify", "--suite", suite, "--max-rank", "0"]) == (2, "", f"error: {message}\n")


def test_stembridge_histogram_counts_the_cases_of_its_instances():
    stembridge = ("verify", "--suite", "stembridge")
    requests = [argv for argv in WORKLOADS.all_requests() if argv[:3] == stembridge]
    assert len(requests) == 45
    for argv in requests:
        code, text, _ = serve(argv)
        result = json.loads(text)["result"]
        counts = Counter((row["type"], str(row["case"])) for row in result["instances"])
        histogram = {}
        for label in verify.SWEEP_TYPES:  # the order the text report lists them in
            cases = {case: n for (row_type, case), n in sorted(counts.items()) if row_type == label}
            if cases:
                histogram[label] = cases
        assert code == 0 and result["details"]["histogram"] == histogram, argv
        outcome = verify.run_suite("stembridge", max_rank=_flag(argv, "--max-rank", 4),
                                   max_pairing=_flag(argv, "--max-pairing", 14))
        assert list(outcome.details["histogram"]) == list(histogram)
