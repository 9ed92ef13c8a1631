"""End-to-end CLI checks: exit codes, JSON schema, determinism, content."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import jsonschema
import pytest
from benchdata import REQUEST_MEMOS, clear_request_memos
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsch import cli, jsontext, loopalg, schubert, verify
from affsch.cli import (
    MAX_DOMINANT,
    _dominant_count,
    _json_text,
    build_parser,
    main,
)
from affsch.rootsys import Coweight
from affsch.schubert import dominant_below, minimal_degenerations
from affsch.twist import twisted_datum

LOOP_TYPES = ("A1", "2A2", "2A3", "2A4", "2A5", "2D4", "2D5", "3D4", "2E6")
LOOP_SUITES = ("loop-basis", "cartan-direction", "sl2-factorization")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src/affsch/schema/report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMA)
    return code, doc


def test_analyze_triality_quasiminuscule(capsys):
    code, doc = run_json(capsys, "analyze", "--type", "3D4", "--mu", "0,1", "--json")
    assert code == 0
    result = doc["result"]
    assert result["dimension"] == 6
    assert result["datum"]["relative"]["label"] == "G2"
    bottom = result["strata"][1]
    assert bottom["status"] == "singular"
    cert = bottom["certificate"]
    assert (cert["root_bound"], cert["cartan_extra"], cert["total"]) == (6, 1, 7)
    # identical numeric content in text mode
    code, out, _ = run(capsys, "analyze", "--type", "3D4", "--mu", "0,1")
    assert code == 0
    assert "dimension 6" in out
    assert "root bound 6 + cartan 1 = 7" in out


def test_analyze_rank_one_chain(capsys):
    code, doc = run_json(capsys, "analyze", "--type", "A1", "--mu", "4", "--json")
    assert code == 0
    strata = doc["result"]["strata"]
    assert [row["lambda"] for row in strata] == [[4], [2], [0]]
    assert [row["status"] for row in strata] == ["smooth", "singular", "singular"]
    assert strata[2]["mechanism"] == "openness-propagation"
    assert strata[2]["via"] == [2]


def test_analyze_zero_orbit_is_smooth(capsys):
    code, doc = run_json(capsys, "analyze", "--type", "A1", "--mu", "0", "--json")
    assert code == 0
    strata = doc["result"]["strata"]
    assert len(strata) == 1
    assert strata[0]["status"] == "smooth"


def test_analyze_focus_certificate(capsys):
    code, doc = run_json(
        capsys, "analyze", "--type", "2A2", "--mu", "2", "--lambda", "0", "--json"
    )
    assert code == 0
    focus = doc["result"]["focus"]
    assert focus["verdict"] == "singular"
    assert focus["total"] >= focus["dim"] + 1


def test_usage_errors_exit_two(capsys, monkeypatch):
    for argv in (
        ["analyze", "--type", "5Z9", "--mu", "1"],
        ["analyze", "--type", "A2\n", "--mu", "1,1"],
        ["analyze", "--type", "3D4", "--mu", "1"],
        ["analyze", "--type", "3D4", "--mu", "-1,0"],
        ["analyze", "--type", "3D4", "--mu", "0,1", "--lambda", "1,0"],
        ["analyze", "--type", "3D4", "--mu", "a,b"],
        ["loopcheck", "--type", "B3"],
        ["loopcheck", "--type", "3D4", "--window", "9"],
        ["verify", "--suite", "no-such-suite"],
        ["verify", "--suite", "stembridge", "--jobs", "0"],
        ["verify", "--suite", "stembridge", "--jobs", "-3"],
        ["verify", "--suite", "loop-basis", "--window", "9"],
        ["verify", "--suite", "loop-basis", "--window", "100"],
        ["verify", "--suite", "cartan-direction", "--window", "-1"],
        # sweeps whose bounds leave nothing to check
        ["verify", "--suite", "stembridge", "--max-pairing", "-3"],
        ["verify", "--suite", "stembridge", "--max-pairing", "41"],
        ["verify", "--suite", "k-symmetry", "--max-rank", "0"],
        ["analyze"],
        # integers are ASCII digits with an optional sign: no other script's
        # digits, no underscores
        ["analyze", "--type", "3D4", "--mu", "\u0662,1"],
        ["analyze", "--type", "3D4", "--mu", "1,1", "--lambda", "0_1,1"],
        ["verify", "--suite", "stembridge", "--max-pairing", "0_6"],
        ["verify", "--suite", "stembridge", "--jobs", "1_0"],
        ["verify", "--suite", "k-symmetry", "--seed", "\u0663"],
        ["verify", "--suite", "k-symmetry", "--max-rank", "0_4"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err, (argv, err)
    monkeypatch.setenv("AFFSCH_JOBS", "1_0")
    code, out, err = run(capsys, "verify", "--suite", "stembridge")
    assert code == 2 and out == "" and "error:" in err, err


def readme_commands() -> list[str]:
    """Each `affsch ...` line of the README's "Command line" block."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("affsch ")]


# the README says this line exits 2: --lambda must be dominant
README_USAGE_ERRORS = {"affsch analyze --type A2 --mu 2,2 --lambda=-1,0"}


def test_readme_command_block_is_read():
    assert len(readme_commands()) == 8
    assert README_USAGE_ERRORS <= set(readme_commands())


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_lines_run_as_documented(capsys, line):
    code, out, err = run(capsys, *shlex.split(line)[1:])
    if line in README_USAGE_ERRORS:
        assert (code, out) == (2, "") and err.startswith("error:"), err
    else:
        assert code == 0 and out and err == "", err


def test_non_dominant_lambda_names_its_flag(capsys):
    # joined to its flag, the vector reaches cli's check; apart, argparse reads
    # it as a flag and refuses --lambda for want of an argument
    code, out, err = run(capsys, "analyze", "--type", "A2", "--mu", "2,2", "--lambda=-1,0")
    assert (code, out) == (2, "")
    assert err == "error: --lambda must be dominant: all entries nonnegative\n"
    code, out, err = run(capsys, "analyze", "--type", "A2", "--mu", "2,2", "--lambda", "-1,0")
    assert (code, out) == (2, "") and "argument --lambda" in err


@pytest.mark.parametrize("error", [AssertionError, RuntimeError, TypeError])
def test_internal_failures_exit_three(capsys, monkeypatch, error):
    def broken(*args):
        raise error("invariant broken on purpose")

    monkeypatch.setattr("affsch.cli._stratum_rows", broken)
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, "analyze", "--type", "A1", "--mu", "2", *flags)
        assert (code, out, err) == (3, "", "internal error: invariant broken on purpose\n")
    # raised inside a suite, not a counterexample
    monkeypatch.setattr(loopalg, "verify_sl2_factorization", broken)
    code, out, err = run(capsys, "verify", "--suite", "sl2-factorization")
    assert (code, out, err) == (3, "", "internal error: invariant broken on purpose\n")


def test_a_key_error_is_an_internal_failure_not_a_usage_error(capsys, monkeypatch):
    def broken(*args):
        raise KeyError("lookup broken on purpose")

    monkeypatch.setattr("affsch.cli._stratum_rows", broken)
    code, out, err = run(capsys, "analyze", "--type", "A1", "--mu", "2", "--json")
    assert (code, out, err) == (3, "", "internal error: 'lookup broken on purpose'\n")


def test_a_raising_recipe_root_fails_loopcheck(capsys, monkeypatch):
    """loopcheck asks for every root with a Cartan recipe: a raising one is an error, not a skip."""
    datum, broken = twisted_datum("2A3"), ((1, 1), -1)
    real = loopalg.cartan_direction

    def raising(d, a):
        if (d, a) == (datum, broken):
            raise ValueError("recipe broken on purpose")
        return real(d, a)

    clear_request_memos()  # a memoised directions block would hide the raise
    monkeypatch.setattr(loopalg, "cartan_direction", raising)
    try:
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "loopcheck", "--type", "2A3", *flags)
            assert (code, out, err) == (2, "", "error: recipe broken on purpose\n"), flags
    finally:
        clear_request_memos()


def test_failing_suite_still_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(loopalg, "verify_sl2_factorization", lambda k, x: False)
    code, out, err = run(capsys, "verify", "--suite", "sl2-factorization")
    assert code == 1 and err == ""
    assert out.startswith("suite sl2-factorization: FAIL") and "counterexample" in out


@pytest.mark.parametrize("error", [AssertionError, RuntimeError])
def test_warm_suite_memos_hide_no_failure(capsys, monkeypatch, error):
    # every memo the suite reads is filled, then the two failure tests run as they are
    assert run(capsys, "verify", "--suite", "sl2-factorization", "--json")[0] == 0
    test_failing_suite_still_exits_one(capsys, monkeypatch)
    monkeypatch.undo()
    test_internal_failures_exit_three(capsys, monkeypatch, error)


def test_poset_carries_case_tags(capsys):
    code, doc = run_json(capsys, "poset", "--type", "C2", "--mu", "1,1", "--json")
    assert code == 0
    edges = doc["result"]["edges"]
    assert edges == [
        {"upper": [1, 1], "lower": [0, 1], "case": 3, "support": [0, 1]}
    ]


# -- text mode, pinned whole -----------------------------------------------------

# Text-mode requests whose whole stdout tests/pinned/closures_text.txt pins:
# rank one with a via row and with mu = 0, C2, G2 (relative to 3D4) with a
# --lambda focus line, and 2A3, each as analyze and as poset.
TEXT_REQUESTS = (
    ("analyze", "--type", "A1", "--mu", "4"),
    ("analyze", "--type", "A1", "--mu", "0"),
    ("analyze", "--type", "C2", "--mu", "2,2"),
    ("analyze", "--type", "3D4", "--mu", "1,1", "--lambda", "0,1"),
    ("analyze", "--type", "2A3", "--mu", "1,2", "--lambda", "0,0"),
    ("poset", "--type", "A1", "--mu", "4"),
    ("poset", "--type", "A1", "--mu", "0"),
    ("poset", "--type", "C2", "--mu", "2,2"),
    ("poset", "--type", "3D4", "--mu", "1,1"),
    ("poset", "--type", "2A3", "--mu", "1,2"),
)
PINNED_TEXT = ROOT / "tests" / "pinned" / "closures_text.txt"


def transcript(requests) -> str:
    """A '$ affsch <argv> (exit <code>)' line and then the stdout of each request."""
    parts = []
    for argv in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        parts.append(f"$ affsch {' '.join(argv)} (exit {code})\n{out.getvalue()}")
    return "".join(parts)


def test_closure_text_output_is_pinned():
    assert transcript(TEXT_REQUESTS) == PINNED_TEXT.read_text()


# Text-mode loopcheck of every loop type at window 2, whose whole stdout
# tests/pinned/loopcheck_text.txt pins: the degree table, the Cartan-direction
# block printed from the kept directions' terms, and the special blocks of A1,
# 2A2 and 3D4 printed from their kept --json text.
LOOPCHECK_TEXT_REQUESTS = tuple(("loopcheck", "--type", t, "--window", "2") for t in LOOP_TYPES)
PINNED_LOOPCHECK_TEXT = ROOT / "tests" / "pinned" / "loopcheck_text.txt"


def test_loopcheck_text_output_is_pinned():
    clear_request_memos()  # text mode builds the per-datum blocks itself
    assert transcript(LOOPCHECK_TEXT_REQUESTS) == PINNED_LOOPCHECK_TEXT.read_text()


def test_loopcheck_text_output_is_pinned_on_memos_filled_by_json_requests():
    clear_request_memos()
    for label in LOOP_TYPES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["loopcheck", "--type", label, "--window", "8", "--json"]) == 0
    assert cli._loopcheck_blocks.cache_info().currsize == len(LOOP_TYPES)
    assert transcript(LOOPCHECK_TEXT_REQUESTS) == PINNED_LOOPCHECK_TEXT.read_text()
    assert cli._loopcheck_blocks.cache_info().misses == len(LOOP_TYPES)  # text mode read the kept blocks


# Text-mode verify requests whose whole stdout tests/pinned/verify_text.txt
# pins: the PASS line, the seed line of the seeded suites, and the full case
# histogram of stembridge at its defaults.
VERIFY_TEXT_REQUESTS = (
    ("verify", "--suite", "stembridge"),
    ("verify", "--suite", "mindeg-inequality", "--max-rank", "2", "--max-pairing", "6"),
    ("verify", "--suite", "k-symmetry", "--max-rank", "2", "--max-pairing", "6", "--seed", "3"),
    ("verify", "--suite", "loop-basis", "--window", "1"),
    ("verify", "--suite", "cartan-direction", "--window", "1"),
    ("verify", "--suite", "sl2-factorization", "--window", "0", "--seed", "2"),
)
PINNED_VERIFY_TEXT = ROOT / "tests" / "pinned" / "verify_text.txt"


def test_verify_text_output_is_pinned(monkeypatch):
    clear_request_memos()
    monkeypatch.setattr(schubert, "_posets", {})
    assert transcript(VERIFY_TEXT_REQUESTS) == PINNED_VERIFY_TEXT.read_text()


def test_verify_text_output_is_pinned_on_memos_filled_by_json_requests(monkeypatch):
    clear_request_memos()
    monkeypatch.setattr(schubert, "_posets", {})
    for argv in VERIFY_TEXT_REQUESTS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--json"]) == 0
    misses = [memo.cache_info().misses for memo in REQUEST_MEMOS]
    assert transcript(VERIFY_TEXT_REQUESTS) == PINNED_VERIFY_TEXT.read_text()
    assert [memo.cache_info().misses for memo in REQUEST_MEMOS] == misses  # all read from the memos


@pytest.mark.parametrize(
    "suite,flags",
    [
        ("loop-basis", ["--window", "3"]),
        ("cartan-direction", ["--window", "2"]),
        ("k-symmetry", ["--max-pairing", "8"]),
        ("stembridge", ["--max-pairing", "8"]),
        ("mindeg-inequality", ["--max-pairing", "8"]),
        ("sl2-factorization", []),
    ],
)
def test_verify_suites_pass(capsys, suite, flags):
    code, doc = run_json(capsys, "verify", "--suite", suite, *flags, "--json")
    assert code == 0
    assert doc["result"]["passed"] is True
    assert doc["result"]["counterexamples"] == []
    assert doc["result"]["instances_checked"] > 0


def test_verify_json_is_deterministic(capsys):
    argv = ("verify", "--suite", "k-symmetry", "--max-pairing", "8", "--seed", "7", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["seed"] == 7
    assert doc["request"]["seed"] == 7


def test_verify_stembridge_histogram(capsys):
    code, doc = run_json(
        capsys, "verify", "--suite", "stembridge", "--max-pairing", "10", "--json"
    )
    assert code == 0
    histogram = doc["result"]["details"]["histogram"]
    assert histogram["A1"]["1"] > 0
    assert histogram["A1"]["2"] > 0
    assert histogram["G2"]["5"] > 0


def test_loopcheck_reports(capsys):
    code, doc = run_json(capsys, "loopcheck", "--type", "3D4", "--window", "2", "--json")
    assert code == 0
    result = doc["result"]
    degrees = {row["degree"]: row["lines"] for row in result["degrees"]}
    assert degrees[-1] == 6
    assert degrees[0] == 12
    assert result["special"]["triality_line"]["invariant_cartan_dim"] == 1
    code, doc = run_json(capsys, "loopcheck", "--type", "2A2", "--window", "2", "--json")
    assert doc["result"]["special"]["su3_diagonal_at_degree_minus_one"] == [
        "-1/2",
        "1",
        "-1/2",
    ]
    assert doc["result"]["special"]["su3_trace_zero"] is True
    code, doc = run_json(capsys, "loopcheck", "--type", "A1", "--window", "3", "--json")
    rows = doc["result"]["special"]["sl2_expansion"]
    assert {(row["kind"], row["degree"], row["coeff"]) for row in rows} == {
        ("X", 0, "1"),
        ("H", -1, "-1"),
        ("X", -2, "-1"),
    }


def test_loopcheck_of_1a1_is_that_of_a1(capsys):
    """One datum for both labels: the same result and no second entry in a loop memo."""
    plain = run_json(capsys, "loopcheck", "--type", "A1", "--window", "1", "--json")[1]
    kept = cli._loopcheck_blocks.cache_info().currsize
    code, prefixed = run_json(capsys, "loopcheck", "--type", "1A1", "--window", "1", "--json")
    assert code == 0 and prefixed["result"] == plain["result"]
    assert prefixed["request"] == {**plain["request"], "type": "1A1"}  # echoed as typed
    assert cli._loopcheck_blocks.cache_info().currsize == kept


def _coeff_strings(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "coeff" or key == "su3_diagonal_at_degree_minus_one":
                yield from value if isinstance(value, list) else [value]
            else:
                yield from _coeff_strings(value)
    elif isinstance(node, list):
        for value in node:
            yield from _coeff_strings(value)


def test_loop_documents_print_exact_coefficients(capsys):
    # a float coefficient would print as "0.5" or "1e-05"
    requests = [("loopcheck", "--type", label, "--window", "8", "--json") for label in LOOP_TYPES]
    requests += [("verify", "--suite", suite, "--window", "8", "--json") for suite in LOOP_SUITES]
    strings = []
    for argv in requests:
        code, doc = run_json(capsys, *argv)
        assert code == 0, argv
        strings += list(_coeff_strings(doc))
    assert len(strings) > 2000 and "-1/2" in strings
    assert [text for text in strings if "." in text or "e" in text] == []


def test_jobs_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv("AFFSCH_JOBS", "3")
    parser = build_parser()
    args = parser.parse_args(["verify", "--suite", "sl2-factorization"])
    assert args.jobs == 3
    monkeypatch.delenv("AFFSCH_JOBS")
    parser = build_parser()
    args = parser.parse_args(["verify", "--suite", "sl2-factorization"])
    assert args.jobs == 1


def test_malformed_jobs_environment_exits_two(capsys, monkeypatch):
    # the parser rejects the value before any suite or worker starts
    for value in ("abc", "0", "-2"):
        monkeypatch.setenv("AFFSCH_JOBS", value)
        code, out, err = run(capsys, "verify", "--suite", "stembridge")
        assert code == 2
        assert out == ""
        assert "error:" in err and f"'{value}'" in err


def test_cli_import_loads_only_affsch_and_the_standard_library():
    # compared against the modules loaded before it: site hooks load first
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import affsch.cli\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(added - set(sys.stdlib_module_names)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, cwd=ROOT, env=env, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.split() == [b"affsch"]


def test_cli_import_leaves_the_process_pool_out():
    """No --jobs value or AFFSCH_JOBS loads a pool module, and neither changes the document."""
    script = (
        "import sys\n"
        "import affsch.cli\n"
        "code = affsch.cli.main(sys.argv[1:])\n"
        "pool = ('concurrent', 'multiprocessing')\n"
        "loaded = [name for name in sys.modules if name.partition('.')[0] in pool]\n"
        "assert not loaded, loaded\n"
        "sys.exit(code)\n"
    )
    argv = ("verify", "--suite", "stembridge", "--max-rank", "2", "--max-pairing", "6", "--json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("AFFSCH_JOBS", None)
    docs = []
    runs = ((("--jobs", "1"), {}), (("--jobs", "4"), {}), ((), {"AFFSCH_JOBS": "4"}))
    for flag, jobs_env in runs:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, *flag],
            capture_output=True,
            cwd=ROOT,
            env={**env, **jobs_env},
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        docs.append(json.loads(proc.stdout))
    serial = docs[0]
    assert serial["request"].pop("jobs") == 1
    for doc in docs[1:]:
        assert doc["request"].pop("jobs") == 4
        assert doc == serial


def test_oversized_closures_exit_two_at_once(capsys):
    for command in ("analyze", "poset"):
        for label in ("2E6", "A4"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--type", label, "--mu", "1000,1000,1000,1000")
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == "" and "error: --mu is too large" in err


def test_closure_size_count():
    # dominant p with <p,2rho> <= <mu,2rho>, 2rho = (16,30,42,22) on 2E6's relative F4
    f4 = twisted_datum("2E6").echelonnage.two_rho_coefficients
    assert _dominant_count(f4, 220) == 533  # 2E6 2,2,2,2
    assert _dominant_count(f4, 330) == 2062  # 2E6 3,3,3,3
    assert _dominant_count((1,), 7) == 8
    assert _dominant_count((2, 2), 4) == 6  # (0,0) (1,0) (0,1) (2,0) (1,1) (0,2)
    # past the limit the count may stop early, but it still passes the limit
    assert _dominant_count(f4, 20_000) > MAX_DOMINANT
    assert _dominant_count((4, 6, 6, 4), 10**12) > MAX_DOMINANT


SCHUBERT_SUITES = ("stembridge", "mindeg-inequality", "k-symmetry")


@pytest.mark.parametrize("suite", SCHUBERT_SUITES)
def test_sweeps_never_ask_for_the_cpu_count(capsys, monkeypatch, suite):
    def refuse():
        raise AssertionError("os.cpu_count called")

    monkeypatch.setattr(os, "cpu_count", refuse)
    argv = ("verify", "--suite", suite, "--max-rank", "2", "--max-pairing", "8", "--json")
    for jobs in ("1", "2", "100000"):
        code, doc = run_json(capsys, *argv, "--jobs", jobs)
        assert code == 0
        assert doc["request"]["jobs"] == int(jobs)  # the request is echoed as given


@pytest.mark.parametrize("suite", SCHUBERT_SUITES)
def test_jobs_two_matches_jobs_one(capsys, suite):
    argv = ("verify", "--suite", suite, "--max-rank", "2", "--max-pairing", "8", "--json")
    _, serial = run_json(capsys, *argv, "--jobs", "1")
    _, pooled = run_json(capsys, *argv, "--jobs", "2")
    assert pooled["result"] == serial["result"]


POSET_GRID = [("A1", 4), ("A2", 3), ("A3", 2), ("B2", 3), ("B3", 2), ("C3", 2), ("G2", 3),
              ("D4", 1), ("F4", 1), ("2A2", 5), ("2A5", 2), ("2D5", 1), ("3D4", 3), ("2E6", 1)]


@pytest.mark.parametrize("label,top", POSET_GRID, ids=[label for label, _ in POSET_GRID])
def test_poset_strata_from_edges_match_dominant_below(capsys, label, top):
    """The strata and edges of a poset document are dominant_below and minimal_degenerations."""
    system = twisted_datum(label).echelonnage
    for p in product(range(top + 1), repeat=system.rank):
        mu = Coweight(system, p)
        code, out, err = run(capsys, "poset", "--type", label, "--mu", ",".join(map(str, p)), "--json")
        assert code == 0, (p, err)
        doc = json.loads(out)
        assert doc["result"]["strata"] == [list(lam.pairings) for lam in dominant_below(mu)], p
        edges = [(row["upper"], row["lower"]) for row in doc["result"]["edges"]]
        assert edges == [
            (list(e.mu.pairings), list(e.lam.pairings)) for e in minimal_degenerations(mu)
        ], p


# -- the JSON writer ------------------------------------------------------------


_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\t\n\r", "é", "\u2028", "😀", "\ud800"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | _STRINGS
)


def _containers(children):
    # one key family per dict: json cannot sort str keys against int keys
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, children, max_size=4)
        | st.dictionaries(st.integers() | st.booleans(), children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    )


@settings(max_examples=300, deadline=None, database=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


class Count(int):
    """An int subclass with its own repr: JSON writes it as the int it is."""

    def __repr__(self):
        return "Count()"


def test_json_writer_scalar_fast_path_matches_json_dumps():
    value = {
        "mixed": [True, 1, False, 0, None, "1", Count(7), [], {}, [[]], {"e": {}}, ()],
        "by_int": {2: Count(-3), 1: True, -1: [{}], Count(5): None},
        "nested": [[True, [1, [None, ["s"]]]], {"k": [False, 0]}],
    }
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    assert _json_text(Count(4)) == json.dumps(Count(4)) == "4"


_FRAGMENT_VALUES = [
    {
        "text": ["line\nbreak", 'quote " and \\ backslash', "sep\u2028arator", "Grüße, 中文, ∂"],
        "nested": {"deeper": [[], {}, [1, {"\n key": None}]], "flag": True},
        "\u2028": -3,
    },
    [{"root": [1, -1], "terms": [{"coeff": "-1/2", "kind": "H"}]}, "tail\n", 0],
    [],
    "a lone\nstring",
]


def _placed(value, depth):
    """value at indent depth `depth`, inside alternating dict and list levels."""
    for level in range(depth):
        value = {"k\n": value, "a": "\n"} if level % 2 == 0 else ['"', value, 7]
    return value


def _assert_placed(fragment, value, written, placed):
    """A fragment goes in as it is where it was written, or anywhere as one line; else it raises."""
    if written == placed or "\n" not in fragment:
        expected = json.dumps(_placed(value, placed), indent=2, sort_keys=True)
        assert _json_text(_placed(fragment, placed)) == expected
    else:
        with pytest.raises(RuntimeError, match=f"kept text not written for indent {2 * placed}"):
            _json_text(_placed(fragment, placed))


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("value", _FRAGMENT_VALUES, ids=["dict", "list", "empty", "string"])
def test_rendered_fragment_placed_at_any_depth_matches_json_dumps(value, depth):
    fragment = cli._Fragment(_json_text(value))
    _assert_placed(fragment, value, 0, depth)
    # the same text as a plain str is a JSON string, not a fragment
    assert _json_text(str(fragment)) == json.dumps(str(fragment))


@settings(max_examples=300, deadline=None, database=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=30), st.integers(0, 3), st.integers(0, 3))
def test_fragment_written_at_one_depth_placed_at_any_matches_json_dumps(value, written, placed):
    fragment = jsontext._Fragment(_json_text(value, "\n" + "  " * written))
    _assert_placed(fragment, value, written, placed)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.recursive(_SCALARS, _containers, max_leaves=12), max_size=5), st.integers(0, 3))
@example([], 0)
@example([], 2)
@example([1, "one line", None, [], {}], 3)
def test_rows_written_alone_placed_in_one_join_match_json_dumps(values, depth):
    rows = jsontext._rows_text([_json_text(value) for value in values], "  " * depth)
    expected = json.dumps(_placed(values, depth), indent=2, sort_keys=True)
    assert _json_text(_placed(rows, depth)) == expected


def test_a_misplaced_fragment_is_an_internal_failure(capsys, monkeypatch):
    def at_depth_zero(rows, two_rho, indent):
        return jsontext._stratum_rows_text(rows, two_rho)

    monkeypatch.setattr(cli, "_stratum_rows_text", at_depth_zero)
    code, out, err = run(capsys, "analyze", "--type", "A1", "--mu", "4", "--json")
    assert (code, out) == (3, "")
    assert err == f"internal error: kept text not written for indent {len(jsontext.RESULT_VALUE)}\n"


def test_kept_text_goes_in_as_it_is_where_the_document_puts_it(capsys):
    """Every fragment of every command's document was written at the place it sits."""
    requests = [("loopcheck", "--type", label, "--window", "2") for label in LOOP_TYPES]
    requests += [
        ("verify", "--suite", suite, "--max-pairing", "6", "--window", "2") for suite in verify.SUITES
    ]
    requests += [
        ("analyze", "--type", "2A2", "--mu", "2", "--lambda", "0"),
        ("poset", "--type", "C2", "--mu", "1,1"),
    ]
    for argv in requests:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, ""), argv
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv


@pytest.mark.parametrize(
    "value,name",
    [
        (0.5, "float"),
        (Fraction(1, 2), "Fraction"),
        ({1, 2}, "set"),
        (object(), "object"),
        ({"a": [1, {"b": 2.0}]}, "float"),
        ({0.5: 1}, "float"),
        ({Fraction(1): 1}, "Fraction"),
    ],
)
def test_json_writer_refuses_non_json_values(value, name):
    with pytest.raises(RuntimeError, match=f"a {name} "):
        _json_text(value)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 2)], ids=["float", "Fraction"])
def test_non_json_values_exit_three(capsys, monkeypatch, value):
    describe_datum = cli._describe_datum
    monkeypatch.setattr(
        cli, "_describe_datum", lambda datum: {**describe_datum(datum), "order": value}
    )
    # the datum block is a dict _json_text writes
    argv = ("analyze", "--type", "A1", "--mu", "2", "--lambda", "0", "--json")
    code, out, err = run(capsys, *argv)
    name = type(value).__name__
    assert (code, out, err) == (3, "", f"internal error: a {name} is not a JSON document value\n")


# -- one parser per process -------------------------------------------------------


def test_main_builds_one_parser_for_many_requests(capsys, monkeypatch):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in (
        ("analyze", "--type", "A1", "--mu", "2"),
        ("poset", "--type", "C2", "--mu", "1,1", "--json"),
        ("analyze", "--type", "A1"),
        ("loopcheck", "--type", "A1", "--window", "1"),
    ):
        run(capsys, *argv)
    assert builds == [1]


def test_reused_parser_keeps_nothing_between_requests(capsys):
    run(capsys, "analyze", "--type", "A1", "--mu", "0")
    parser = cli._PARSER
    _, doc = run_json(capsys, "analyze", "--type", "2A2", "--mu", "2", "--lambda", "0", "--json")
    assert doc["result"]["focus"]["lambda"] == [0]
    _, doc = run_json(capsys, "analyze", "--type", "2A2", "--mu", "2", "--json")
    assert doc["result"]["focus"] is None and doc["request"]["lambda"] is None
    _, doc = run_json(capsys, "verify", "--suite", "sl2-factorization", "--seed", "7", "--json")
    assert doc["request"]["seed"] == 7
    _, doc = run_json(capsys, "verify", "--suite", "sl2-factorization", "--json")
    assert doc["request"]["seed"] == 0
    code, out, _ = run(capsys, "poset", "--type", "C2", "--mu", "1,1")
    assert code == 0 and out.startswith("strata below mu")
    code, out, err = run(capsys, "poset", "--type", "C2", "--mu", "1,1", "--window", "2")
    assert code == 2 and out == "" and "error:" in err
    code, out, _ = run(capsys, "poset", "--type", "C2", "--mu", "1,1", "--json")
    assert code == 0 and json.loads(out)["command"] == "poset"
    assert cli._PARSER is parser


def test_single_shot_process_prints_the_in_process_document(capsys):
    argv = ("analyze", "--type", "3D4", "--mu", "0,1", "--json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "affsch.cli", *argv],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    _, out, _ = run(capsys, *argv)
    assert proc.stdout == out.encode()


def test_python_dash_m_runs_the_command_line():
    """python -m affsch, from a checkout with src/ on the path, is the affsch command."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "affsch", *argv],
            capture_output=True,
            cwd=ROOT,
            env=env,
            timeout=120,
        )

    proc = run_module("--help")
    assert proc.returncode == 0 and proc.stdout.startswith(b"usage: affsch")
    proc = run_module("analyze", "--type", "A1", "--mu", "x")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"error: --mu" in proc.stderr and b"Traceback" not in proc.stderr


def test_closed_stdout_exits_141_without_a_traceback():
    """A reader that stops after one line (`| head -1`) gets a quiet exit 141."""
    # about 470 KB of JSON: far more than a pipe buffers, so the writer is
    # still writing when the reader goes away
    argv = ("loopcheck", "--type", "2E6", "--window", "8", "--json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "affsch.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=120), stderr) == (141, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# -- per-command result schemas ------------------------------------------------------


@pytest.mark.parametrize(
    "argv,key",
    [
        (("analyze", "--type", "A1", "--mu", "2"), "strata"),
        (("poset", "--type", "C2", "--mu", "1,1"), "edges"),
        (("verify", "--suite", "sl2-factorization"), "passed"),
        (("loopcheck", "--type", "A1", "--window", "1"), "degrees"),
    ],
    ids=lambda v: v[0] if isinstance(v, tuple) else v,
)
def test_schema_requires_the_result_of_each_command(capsys, argv, key):
    _, doc = run_json(capsys, *argv, "--json")
    del doc["result"][key]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


@pytest.mark.parametrize("label, mu", [("G2", "64,74"), ("2E6", "14,1,5,2")])
def test_near_limit_poset_fills_one_poset_within_the_bound(capsys, monkeypatch, label, mu):
    """poset on a closure near MAX_DOMINANT fills its poset within MAX_POSET_ENTRIES.

    It fills one entry per stratum in each of three memos: the members of
    the down-set, the classified edges below each stratum, and the stratum's
    dominant representative.
    """
    monkeypatch.setattr(schubert, "_posets", {})
    code, out, err = run(capsys, "poset", "--type", label, "--mu", mu, "--json")
    assert code == 0, err
    strata = len(json.loads(out)["result"]["strata"])
    (poset,) = schubert._posets.values()
    assert poset.entries == 3 * strata <= schubert.MAX_POSET_ENTRIES
