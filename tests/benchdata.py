"""The benchmark's request lists, loaded for the tests, and the memos its requests fill.

perfbench/workloads.py is loaded from its file without writing bytecode, so
the tests leave perfbench/ untouched.
"""

import importlib.util
import sys
from pathlib import Path

from affsch import cli, loopalg, verify

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
    loopalg.verify_sl2_factorization,
    cli._degree_text,
    cli._loopcheck_blocks,
)


def clear_request_memos() -> None:
    for memo in REQUEST_MEMOS:
        memo.cache_clear()


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module
