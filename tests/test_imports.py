"""The import contract: affsch.loopalg loads only when something uses it.

Each check runs in a fresh interpreter, since the test session itself has
imported every module.  A command that reads no loop algebra (analyze, poset
and the three sweep suites) leaves affsch.loopalg out of sys.modules;
loopcheck and each loop suite load it; every name the package re-exports
from it is that module's own object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the names affsch re-exported from affsch.loopalg when it imported it eagerly
LOOPALG_NAMES = (
    "ChevalleyAlgebra",
    "CycScalar",
    "InvariantBasisReport",
    "LaurentMatrix",
    "LoopVector",
    "Sigma0Map",
    "TwistedLoopAlgebra",
    "ad_exp",
    "build_chevalley",
    "cartan_component",
    "cartan_direction",
    "loop_context",
    "make_e_a",
    "matrix_realization",
    "realize",
    "sigma0_automorphism",
    "sigma_action",
    "verify_invariant_basis",
    "verify_sl2_factorization",
)

SWEEP = ("--max-rank", "1", "--max-pairing", "4")
NO_LOOPS = (
    ("analyze", "--type", "2A2", "--mu", "2", "--lambda", "0", "--json"),
    ("poset", "--type", "3D4", "--mu", "0,1"),
    ("verify", "--suite", "stembridge", *SWEEP),
    ("verify", "--suite", "mindeg-inequality", *SWEEP),
    ("verify", "--suite", "k-symmetry", *SWEEP, "--json"),
)
LOOPS = (
    ("loopcheck", "--type", "A1", "--window", "0"),
    ("verify", "--suite", "loop-basis", "--window", "0"),
    ("verify", "--suite", "cartan-direction", "--window", "0"),
    ("verify", "--suite", "sl2-factorization", "--window", "0"),
)

# argv: a JSON list of requests; prints, for each, its exit code and whether
# affsch.loopalg was loaded after it
SERVE = """
import contextlib, io, json, sys
import affsch.cli
rows = [[None, "affsch.loopalg" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = affsch.cli.main(argv)
    rows.append([code, "affsch.loopalg" in sys.modules])
print(json.dumps(rows))
"""


def _python(script: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, cwd=ROOT, env=env,
        text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def _serve(requests) -> list:
    return json.loads(_python(SERVE, json.dumps([list(argv) for argv in requests])))


def test_commands_without_loops_never_load_loopalg():
    assert _serve(NO_LOOPS) == [[None, False]] + [[0, False]] * len(NO_LOOPS)


@pytest.mark.parametrize("argv", LOOPS, ids=[" ".join(argv[:3]) for argv in LOOPS])
def test_loopcheck_and_each_loop_suite_load_loopalg(argv):
    assert _serve([argv]) == [[None, False], [0, True]]


def test_the_re_exported_names_are_loopalg_s_own_and_load_it():
    script = """
import json, sys
import affsch
names = json.loads(sys.argv[1])
before = "affsch.loopalg" in sys.modules
served = [name for name in names if getattr(affsch, name) is getattr(affsch.loopalg, name)]
from affsch import make_e_a, loopalg
print(json.dumps([before, served, make_e_a is loopalg.make_e_a]))
"""
    before, served, imported = json.loads(_python(script, json.dumps(LOOPALG_NAMES)))
    assert not before and imported
    assert served == list(LOOPALG_NAMES)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    script = """
import affsch
try:
    affsch.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _python(script) == "module 'affsch' has no attribute 'no_such_name'\n"
