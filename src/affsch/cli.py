"""Command-line frontend: analyses, poset dumps, property sweeps, loop checks.

Subcommands:
  analyze    stratum-by-stratum smoothness report for one orbit closure
  poset      dominant strata below mu and the labelled covering edges
  verify     named property sweep; exit 1 with counterexamples on failure
  loopcheck  symbolic loop-algebra inventory for one twisted datum

Output is text by default, JSON with --json; identical inputs give
byte-identical JSON (randomized sweeps take --seed, echoed in the output).
Exit codes: 0 success, 1 failed property sweep, 2 usage error (a ValueError:
a bad argument, an empty sweep or an oversized closure), 3 internal failure
(any other exception; nothing on stdout), 141 (128 + SIGPIPE) when the reader
closes stdout early, as `| head` does, with nothing on stderr.

JSON is written by jsontext.  analyze and poset read schubert's raw stratum
and edge rows in text mode and with --json alike, and loopcheck keeps each
block it writes in bounded memos (_degree_text, _loopcheck_blocks), which
text mode reads too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import lru_cache
from operator import mul

from affsch import __version__
from affsch.jsontext import (
    RESULT_ITEM,
    RESULT_VALUE,
    _Fragment,
    _certificate_text,
    _coeff_text,
    _degree_row_text,
    _directions_text,
    _edge_rows_text,
    _json_text,
    _points_text,
    _rows_text,
    _stratum_rows_text,
    _terms_text,
)
from affsch.rootsys import Coweight, two_rho_pairing
from affsch.schubert import _edges_below, _stratum_rows, certificate
from affsch.twist import (
    MAX_WINDOW,
    cartan_sigma_dim,
    sigma_affine_to_relative,
    twisted_datum,
)
from affsch.verify import MAX_PAIRING, SUITES, run_suite

SCHEMA_VERSION = 1
# analyze and poset refuse a mu with more dominant p at <p,2rho> <= <mu,2rho>
# (an upper bound on its strata): 533 for 2E6 2,2,2,2, 2,062 for 2E6 3,3,3,3
# and 4,116 for A4 at <mu,2rho> = 76.  The largest closures it admits take
# 0.2-0.3 s in a fresh process on a 2-core host (2E6 14,1,5,2, G2 64,74, --json).
MAX_DOMINANT = 10_000


def _document(command: str, request: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "affsch", "version": __version__},
        "command": command,
        "request": request,
        "result": result,
    }


# The one rule for the text of an integer argument: ASCII digits with an
# optional sign, ASCII blanks around allowed.  int() alone would also read
# digits of other scripts ("\u0662") and underscores ("0_6").
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _integer(text: str) -> int | None:
    """text as an integer under _INTEGER, or None."""
    return int(text) if _INTEGER.fullmatch(text) else None


def _parse_vector(text: str, rank: int, name: str) -> tuple[int, ...]:
    values = tuple(map(_integer, text.split(",")))
    if None in values:
        raise ValueError(f"{name} must be a comma-separated integer vector")
    if len(values) != rank:
        raise ValueError(f"{name} must have {rank} entries for this type, got {len(values)}")
    return values


def _dominant_count(two_rho: tuple[int, ...], bound: int) -> int:
    """How many dominant p have <p,2rho> <= bound: a coin-change count.

    Every p with each h_i p_i <= bound / rank is counted, so when that box
    alone passes MAX_DOMINANT its size is returned without counting the rest:
    the count below then runs over at most a few thousand totals.
    """
    box = math.prod(bound // (len(two_rho) * h) + 1 for h in two_rho)
    if box > MAX_DOMINANT:
        return box
    ways = [1] + [0] * bound
    for h in two_rho:
        for total in range(h, bound + 1):
            ways[total] += ways[total - h]
    return sum(ways)


def _dominant_arg(system, text: str, name: str) -> Coweight:
    """The coweight of a --mu or --lambda vector, refused unless it is dominant."""
    nu = Coweight(system, _parse_vector(text, system.rank, name))
    if not nu.is_dominant():
        raise ValueError(f"{name} must be dominant: all entries nonnegative")
    return nu


def _closure_top(datum, text: str) -> Coweight:
    """The dominant mu of --mu, refused when its closure is too large to list."""
    system = datum.echelonnage
    mu = _dominant_arg(system, text, "--mu")
    dim = two_rho_pairing(mu)
    if _dominant_count(system.two_rho_coefficients, dim) > MAX_DOMINANT:
        raise ValueError(
            f"--mu is too large: more than {MAX_DOMINANT} dominant coweights "
            f"lie at or below its dimension {dim}"
        )
    return mu


def _describe_datum(datum) -> dict:
    return {
        "label": datum.label,
        "absolute": datum.absolute.label,
        "order": datum.e,
        "vertex": datum.vertex,
        "relative": {
            "label": datum.echelonnage.label,
            "rank": datum.echelonnage.rank,
            "simple_half_norms": list(datum.echelonnage.half_norms),
        },
    }


def _bound_text(cert) -> str:
    """The count of a (dim, root_bound, cartan_extra, verdict) row, as text mode prints it."""
    dim, bound, extra, _ = cert
    return f"root bound {bound} + cartan {extra} = {bound + extra} vs dim {dim}"


# -- analyze -------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    datum = twisted_datum(args.type)
    system = datum.echelonnage
    mu = _closure_top(datum, args.mu)
    lam = None if args.lam is None else _dominant_arg(system, args.lam, "--lambda")
    rows = _stratum_rows(mu, datum)
    cert = None if lam is None else certificate(mu, lam, datum)
    focus = None if cert is None else (cert.dim, cert.root_bound, cert.cartan_extra, cert.verdict)
    dimension = two_rho_pairing(mu)
    d = _describe_datum(datum)
    if args.json:
        result = {
            "datum": d,
            "mu": mu.pairings,
            "dimension": dimension,
            "strata": _stratum_rows_text(rows, system.two_rho_coefficients, RESULT_VALUE),
            "focus": None if focus is None else _Fragment(
                _certificate_text(lam.pairings, focus, RESULT_VALUE)
            ),
        }
        _emit_json("analyze", _request_fields(args, mu, lam), result)
        return 0
    print(f"datum {d['label']}: absolute {d['absolute']}, order {d['order']}, vertex {d['vertex']}")
    rel = d["relative"]
    norms = ",".join(str(n) for n in rel["simple_half_norms"])
    print(f"relative system {rel['label']} (rank {rel['rank']}, half-norms {norms})")
    print(f"mu = {mu.pairings}, dimension {dimension}")
    print("strata:")
    two_rho = system.two_rho_coefficients
    for p, status, mechanism, cert, via in rows:
        line = f"  {p}  dim {sum(map(mul, two_rho, p))}  {status}  [{mechanism}]"
        if cert is not None:
            line += f" {_bound_text(cert)}"
        if via is not None:
            line += f" via {via}"
        print(line)
    if focus is not None:
        print(f"focus lambda {lam.pairings}: {focus[3]} ({_bound_text(focus)})")
    return 0


# -- poset ---------------------------------------------------------------------


def _cmd_poset(args) -> int:
    datum = twisted_datum(args.type)
    system = datum.echelonnage
    mu = _closure_top(datum, args.mu)
    edges_below = _edges_below(mu)
    strata = [p for p, _ in edges_below]
    if args.json:
        result = {
            "datum": _describe_datum(datum),
            "mu": mu.pairings,
            "strata": _points_text(strata, RESULT_VALUE),
            "edges": _edge_rows_text(edges_below, RESULT_VALUE),
        }
        _emit_json("poset", _request_fields(args, mu), result)
        return 0
    print(f"strata below mu = {mu.pairings} in {system.label}: {len(strata)}")
    two_rho = system.two_rho_coefficients
    for p in strata:
        print(f"  {p}  dim {sum(map(mul, two_rho, p))}")
    print(f"covering edges: {sum(len(edges) for _, edges in edges_below)}")
    for upper, edges in edges_below:
        for lower, _, support, case in edges:
            print(f"  {upper} > {lower}  case {case}  support {list(support)}")
    return 0


# -- verify ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    outcome = run_suite(
        args.suite,
        max_rank=args.max_rank,
        max_pairing=args.max_pairing,
        window=args.window,
        seed=args.seed,
    )
    if args.json:
        # _json_text writes the other tuples of a SuiteResult as arrays
        result = {**vars(outcome), "instances": _rows_text(outcome.instances, RESULT_VALUE)}
        _emit_json("verify", _request_fields(args), result)
    else:
        status = "PASS" if outcome.passed else "FAIL"
        print(f"suite {outcome.suite}: {status} ({outcome.instances_checked} instances)")
        if outcome.seed is not None:
            print(f"seed {outcome.seed}")
        if outcome.details.get("histogram"):
            print("case histogram:")
            for label, cases in outcome.details["histogram"].items():
                shown = ", ".join(f"case {c}: {n}" for c, n in cases.items())
                print(f"  {label}: {shown}")
        for row in outcome.counterexamples:
            print(f"  counterexample: {json.dumps(row, sort_keys=True)}")
    return 0 if outcome.passed else 1


# -- loopcheck --------------------------------------------------------------------


def _cmd_loopcheck(args) -> int:
    from affsch import loopalg  # on first use: see affsch/__init__.py

    datum = twisted_datum(args.type)
    loopalg.loop_context(datum)  # raises for types without a symbolic model
    window = args.window
    degrees = range(-window, window + 1)
    directions, directions_text, special = _loopcheck_blocks(datum)
    if args.json:
        result = {
            "datum": _describe_datum(datum),
            "window": window,
            "degrees": [_degree_text(datum, n) for n in degrees],
            "cartan_directions": directions_text,
            "special": special,
        }
        _emit_json("loopcheck", _request_fields(args), result)
        return 0
    # every check runs before the first line, so a failing one leaves stdout empty
    lines = [len(loopalg.root_line_vectors(datum, n)) for n in degrees]
    print(f"datum {datum.label}: root lines by u-degree (window {window})")
    for n, count in zip(degrees, lines):
        print(f"  degree {n:>3}: {count} lines")
    print(f"cartan directions at level -1: {len(directions)}")
    for root, _, vec in directions:  # a Cartan direction has H terms only
        terms = "; ".join(
            f"H_{index} u^{degree} * {_coeff_text(coeff)}" for (_, index), degree, coeff in vec.terms
        )
        print(f"  root {root}: {terms}")
    for key, value in json.loads(special).items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    return 0


# The loopcheck blocks, rendered once, each at its place in the --json document:
# a window-w document repeats every degree row of the windows below it, and
# every window repeats the directions and the special block.
@lru_cache(maxsize=9 * (2 * MAX_WINDOW + 1))  # nine loop types x |n| <= MAX_WINDOW: 153 rows
def _degree_text(datum, n: int) -> _Fragment:
    from affsch import loopalg

    return _degree_row_text(n, loopalg.root_line_vectors(datum, n), RESULT_ITEM)


@lru_cache(maxsize=9)  # the directions and special blocks of each loop type: 9
def _loopcheck_blocks(datum) -> tuple[tuple, _Fragment, _Fragment]:
    """The Cartan directions at level -1 as (root, level, vector), then the two blocks' text."""
    from affsch import loopalg

    directions = tuple(
        (a[0], a[1], loopalg.cartan_direction(datum, a))
        for a in loopalg.cartan_recipe_roots(datum, 1)
    )
    special = _Fragment(_json_text(_loopcheck_special(datum), "\n" + RESULT_VALUE))
    return directions, _directions_text(directions, RESULT_VALUE), special


def _loopcheck_special(datum) -> dict:
    from affsch import loopalg

    # its vectors are written at their place in the block, kept at RESULT_VALUE
    special: dict = {}
    if datum.label == "A1":
        ctx = loopalg.loop_context(datum)
        x = loopalg.LoopVector.make(ctx.algebra, 1, [(("X", (-1,)), -1, 1)])
        y = loopalg.LoopVector.make(ctx.algebra, 1, [(("X", (1,)), 0, 1)])
        special["sl2_expansion"] = _terms_text(loopalg.ad_exp(x, y).terms, RESULT_VALUE + "  ")
    elif datum.label == "2A2":
        e_a = loopalg._e_a(datum, sigma_affine_to_relative(datum, ((1,), -1)))
        e_b = loopalg._e_a(datum, sigma_affine_to_relative(datum, ((-1,), 0)))
        table = loopalg.matrix_realization("A2", 2)
        h = loopalg.realize(e_b, table).exp_nilpotent()
        h_inv = loopalg.realize(e_b.scale(-1), table).exp_nilpotent()
        conjugated = h @ loopalg.realize(e_a, table) @ h_inv
        diagonal = []
        for i in range(3):
            cell = conjugated.entry(i, i)
            value = cell.get(-1)
            diagonal.append(_coeff_text(value) if value else "0")
        special["su3_diagonal_at_degree_minus_one"] = diagonal
        special["su3_trace_zero"] = conjugated.trace() == {}
    elif datum.label == "3D4":
        vec = loopalg.cartan_direction(datum, ((0, 1), -1))
        special["triality_line"] = {
            "invariant_cartan_dim": cartan_sigma_dim(datum, 1),
            "vector": _terms_text(vec.terms, RESULT_VALUE + "    "),
        }
    return special


# -- plumbing ----------------------------------------------------------------------


def _request_fields(args, mu: Coweight | None = None, lam: Coweight | None = None) -> dict:
    """The request block: the arguments as parsed, mu and lambda as the coweights read from them."""
    fields = {}
    for key in ("type", "suite", "window", "max_rank", "max_pairing", "seed", "jobs"):
        fields[key] = getattr(args, key, None)
    fields["mu"] = None if mu is None else list(mu.pairings)
    fields["lambda"] = None if lam is None else list(lam.pairings)
    return fields


def _emit_json(command: str, request: dict, result: dict) -> None:
    print(_json_text(_document(command, request, result)))


def _bounded(low: int | None = None, high: int | None = None):
    """An argparse type: an integer under _INTEGER, of at least low and of at most high where given."""
    if low is None:
        span = ""
    else:
        span = f" of at least {low}" if high is None else f" from {low} to {high}"

    def parse(text: str) -> int:
        value = _integer(text)
        if value is None or (low is not None and value < low) or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"expected an integer{span}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; main builds one on its first call and reuses it."""
    parser = argparse.ArgumentParser(
        prog="affsch",
        description="Exact smoothness analysis for orbit closures in twisted affine Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    window_type = _bounded(0, MAX_WINDOW)  # the one --window rule of verify and loopcheck

    analyze = sub.add_parser("analyze", help="stratum-by-stratum smoothness report")
    analyze.add_argument("--type", required=True, help="twisted type label, e.g. 3D4, 2A3, C2")
    analyze.add_argument(
        "--mu",
        required=True,
        help="dominant coweight, comma-separated pairings; refused when more than "
        f"{MAX_DOMINANT:,} dominant coweights lie at or below its <mu,2rho>",
    )
    analyze.add_argument("--lambda", dest="lam", default=None, help="focus stratum")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    poset = sub.add_parser("poset", help="dominant strata and labelled covering edges")
    poset.add_argument("--type", required=True)
    poset.add_argument(
        "--mu", required=True, help=f"as for analyze, with the same {MAX_DOMINANT:,} limit"
    )
    poset.add_argument("--json", action="store_true")
    poset.set_defaults(func=_cmd_poset)

    verify = sub.add_parser("verify", help="run a named property sweep")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--max-rank", dest="max_rank", type=_bounded(), default=4)
    verify.add_argument(
        "--max-pairing",
        dest="max_pairing",
        type=_bounded(0, MAX_PAIRING),
        default=14,
        help=f"0 to {MAX_PAIRING}; the sweeps range over dominant mu with <mu,2rho> at most this",
    )
    verify.add_argument(
        "--window",
        type=window_type,
        default=4,
        help=f"0 to {MAX_WINDOW}; loop-basis checks u-degrees -window..window, cartan-direction "
        "depths 1..max(1, min(window, 6)), sl2-factorization windings 1..max(3, min(window, 5))",
    )
    verify.add_argument("--seed", type=_bounded(), default=0)
    # argparse runs the type on this string default too: a bad AFFSCH_JOBS exits 2.
    # main resets the default before each parse of the parser it reuses.
    parser.jobs_action = verify.add_argument(
        "--jobs",
        type=_bounded(1),
        default=os.environ.get("AFFSCH_JOBS", "1"),
        help="an integer of at least 1, default $AFFSCH_JOBS or 1; validated and echoed "
        "in the request, while the sweeps run serially",
    )
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    loopcheck = sub.add_parser("loopcheck", help="symbolic loop-algebra inventory")
    loopcheck.add_argument("--type", required=True)
    loopcheck.add_argument("--window", type=window_type, default=2, help=f"0 to {MAX_WINDOW}")
    loopcheck.add_argument("--json", action="store_true")
    loopcheck.set_defaults(func=_cmd_loopcheck)
    return parser


# The parser of the first main call, reused by every later call in the process.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    parser.jobs_action.default = os.environ.get("AFFSCH_JOBS", "1")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (`| head`): exit as SIGPIPE would, but not by its
        # default action, as main also runs in-process (perfbench/worker.py and
        # the tests), where that action would kill the caller.  devnull takes
        # what is left, so the interpreter's final flush is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
