"""Property sweeps behind the `verify` subcommand.

Each suite re-checks one of the structural facts the library rests on, over
an enumerated family of instances plus an optional seeded random sample.
Results are plain data: instance rows rendered as JSON text, explicit
counterexamples, and enough metadata to reproduce the run byte for byte.

The stembridge, mindeg-inequality and k-symmetry sweeps range over boxes of
dominant mu that overlap from request to request.  A row depends only on its
top's down-set (Stembridge 1998), which the kept DominancePoset holds, so
bounded memos keep each box as raw pairing vectors and each row as its sort
key and rendered text.  A request sorts its rows' keys and places the text.

The loop-basis, cartan-direction and sl2-factorization suites overlap the
same way from --window to --window.  Each request runs every check again
(the Cartan directions and rank-one verdicts come from loopalg's own memos),
and bounded memos keep only each row's text, keyed by the values it is
written from.  Counterexamples are built afresh as dicts on every request.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter

from affsch.jsontext import _Fragment, _json_text
from affsch.loopalg import (
    cartan_direction,
    verify_invariant_basis,
    verify_sl2_factorization,
)
from affsch.rootsys import Coweight, IntVec, build_root_system
from affsch.schubert import _poset
from affsch.twist import sigma_affine_to_relative, twisted_datum

SWEEP_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
LOOP_LABELS = ("2A2", "2A3", "2D4", "3D4")
DIRECTION_LABELS = ("A1", "2A2", "2A3", "3D4")
SUITES = (
    "loop-basis",
    "cartan-direction",
    "k-symmetry",
    "stembridge",
    "mindeg-inequality",
    "sl2-factorization",
)


@dataclass(frozen=True)
class SuiteResult:
    """One suite's outcome.

    instances holds the instance rows in canonical order, each as the JSON
    text of its dict (a jsontext._Fragment: json.loads(row) gives the dict);
    counterexamples holds the failing rows as dicts.
    """

    suite: str
    passed: bool
    seed: int | None
    instances_checked: int
    instances: tuple[str, ...]
    counterexamples: tuple[dict, ...]
    details: dict = field(default_factory=dict)


def sweep_type_labels(max_rank: int) -> tuple[str, ...]:
    return tuple(label for label in SWEEP_TYPES if int(label[1]) <= max_rank)


@lru_cache(maxsize=492)  # one per (type, --max-pairing): 12 sweep types x 41 pairings
def _box(system, max_pairing: int) -> tuple[IntVec, ...]:
    """Dominant mu in the coroot lattice with <mu, 2rho> <= max_pairing, in lexicographic order.

    A box is a down-set: each lam <= mu lies in mu's coset and pairs lower with 2rho.
    """
    h = system.two_rho_coefficients
    return tuple(
        p
        for p in product(*(range(max_pairing // x + 1) for x in h))
        if sum(a * b for a, b in zip(h, p)) <= max_pairing
        and system.lattice_coefficients(p) is not None
    )


def sweep_coweights(system, max_pairing: int) -> list[Coweight]:
    """Dominant coweights in the coroot lattice with <mu, 2rho> <= max_pairing."""
    return [Coweight(system, p) for p in _box(system, max_pairing)]


# A sweep row is kept as (sort key, text, ...).  The rows of a suite share one
# key set, so their values in key order, with tuples for the vectors, sort
# them as their sorted items do.


@lru_cache(maxsize=1144)  # one per (suite, type, top): 2 x 572 tops at MAX_PAIRING 40
def _edge_rows(kind: str, label: str, top: IntVec) -> tuple[tuple[tuple, _Fragment], ...]:
    """A row for the lower end of each covering edge below top."""
    system = build_root_system(label)
    poset = _poset(system, top)
    dim = sum(h * x for h, x in zip(system.two_rho_coefficients, top))
    rows = []
    for p in poset.below(top):
        for lam, _, _, case in poset.edges(p):
            row = {"type": label, "mu": top, "lambda": lam}
            if kind == "stembridge":
                row["case"] = case
                key = (case, lam, top, label)
            else:
                row["dim"], row["root_bound"] = dim, sum(poset.k_vector(lam, top))
                key = (dim, lam, top, row["root_bound"], label)
            rows.append((key, _Fragment(_json_text(row))))
    return tuple(rows)


def _edge_sweep_rows(task) -> list[tuple[tuple, _Fragment]]:
    kind, label, max_pairing = task
    box = _box(build_root_system(label), max_pairing)
    return [row for top in box for row in _edge_rows(kind, label, top)]


# One per (type, mu, lambda).  A MAX_PAIRING 40 request checks at most the 924
# covering pairs of the sweep types and 12 x 25 random pairs: 1,224.  Random
# pairs vary with --seed, so the least recently used go first.
@lru_cache(maxsize=2048)
def _k_symmetry_row(label: str, mu: IntVec, lam: IntVec) -> tuple[tuple, _Fragment, tuple]:
    """The row of the pair lam <= mu, and its failures.

    A failure is a positive root alpha with k(alpha) != k(-alpha) + <lam,
    alpha>, the two counts walked independently.
    """
    system = build_root_system(label)
    counts = _poset(system, mu).k_vector(lam, mu)
    index = system.root_index
    row = {"type": label, "mu": list(mu), "lambda": list(lam)}
    failures = []
    for root in system.positive_roots:
        plus, minus = counts[index[root]], counts[index[tuple(-c for c in root)]]
        step = sum(m * x for m, x in zip(root, lam))
        if plus != minus + step:
            failures.append(dict(row, root=list(root), k_plus=plus, k_minus=minus, pairing=step))
    return (lam, mu, label), _Fragment(_json_text(row)), tuple(failures)


def _k_symmetry_rows(task) -> list[tuple[tuple, _Fragment, tuple]]:
    """The row of each covering pair of the box, and of 25 seeded pairs lam <= mu.

    The box is a down-set, so its covering pairs are the covers of its points.
    """
    label, max_pairing, seed = task
    system = build_root_system(label)
    box = _box(system, max_pairing)
    pairs = [(mu, lam) for mu in box for lam, *_ in _poset(system, mu).edges(mu)]
    tops = [mu for mu in box if any(mu)]
    rng = random.Random(f"{seed}:{label}")  # string seeding is process-stable
    for _ in range(25 if tops else 0):
        mu = rng.choice(tops)
        pairs.append((mu, rng.choice(list(_poset(system, mu).below(mu)))))
    return [_k_symmetry_row(label, mu, lam) for mu, lam in dict.fromkeys(pairs)]


def _map_tasks(fn, tasks, jobs: int):
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1 or len(tasks) < 4:
        return [fn(t) for t in tasks]
    # imported here: a serial run never pays for multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _in_order(rows: list[dict]) -> tuple[dict, ...]:
    """Rows with one key set, sorted by their values in key order: by their sorted items."""
    return tuple(sorted(rows, key=lambda row: [row[key] for key in sorted(row)]))


def _placed(rows) -> tuple[_Fragment, ...]:
    """The text of keyed sweep rows, (key, text, ...), in key order."""
    return tuple(row[1] for row in sorted(rows, key=itemgetter(0)))


def _format_scalar(value) -> str:
    if value.b == 0:
        return str(value.a)
    return f"{value.a}+({value.b})z"


def vector_rows(vec) -> list[dict]:
    rows = []
    for sym, degree, coeff in vec.terms:
        kind, payload = sym
        rows.append(
            {
                "kind": kind,
                "index": list(payload) if kind == "X" else payload,
                "degree": degree,
                "coeff": _format_scalar(coeff),
            }
        )
    return rows


def run_suite(
    name: str,
    *,
    max_rank: int = 4,
    max_pairing: int = 14,
    window: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> SuiteResult:
    if name == "loop-basis":
        return _suite_loop_basis(window)
    if name == "cartan-direction":
        return _suite_cartan_direction(window)
    if name == "k-symmetry":
        return _suite_k_symmetry(max_rank, max_pairing, seed, jobs)
    if name == "stembridge":
        return _suite_edge_sweep("stembridge", max_rank, max_pairing, jobs)
    if name == "mindeg-inequality":
        return _suite_edge_sweep("mindeg-inequality", max_rank, max_pairing, jobs)
    if name == "sl2-factorization":
        return _suite_sl2(window, seed)
    raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")


# The loop suites' rows, rendered once.  Each check runs on every request; the
# rows of the nine --window values overlap, so only their text is kept, keyed
# by what it is made from, and a request places it by the row's sort key.


@lru_cache(maxsize=68)  # four loop labels x u-degrees -8..8: 68 rows
def _loop_basis_text(degree: int, fixed_dim: int, lines: int, rank: int, label: str) -> _Fragment:
    row = {"type": label, "degree": degree, "fixed_dim": fixed_dim, "lines": lines, "rank": rank}
    return _Fragment(_json_text(row))


@lru_cache(maxsize=138)  # the (type, root, k) of DIRECTION_LABELS at depths 1-6 with a recipe: 138
def _direction_text(label: str, root, k: int) -> _Fragment:
    vec = cartan_direction(twisted_datum(label), (root, -k))
    row = {"type": label, "root": list(root), "level": -k, "vector": vector_rows(vec)}
    return _Fragment(_json_text(row))


@lru_cache(maxsize=170)  # the (k, x) drawn over --seed 0-3 at k = 1-5: 170
def _sl2_text(k: int, x: str) -> _Fragment:
    return _Fragment(_json_text({"k": k, "x": x}))


def _suite_loop_basis(window: int) -> SuiteResult:
    rows, bad = [], []
    for label in LOOP_LABELS:
        report = verify_invariant_basis(twisted_datum(label), window)
        for line in report.lines:
            key = (line.degree, line.fixed_dim, line.progression_count, line.vector_rank, label)
            rows.append((key, _loop_basis_text(*key)))
            if not line.ok:
                bad.append(json.loads(rows[-1][1]))
    return SuiteResult("loop-basis", not bad, None, len(rows), _placed(rows), _in_order(bad))


def _suite_cartan_direction(window: int) -> SuiteResult:
    depth = max(1, min(window, 6))
    rows, bad = [], []
    for label in DIRECTION_LABELS:
        datum = twisted_datum(label)
        for root in datum.echelonnage.roots:
            for k in range(1, depth + 1):
                if sigma_affine_to_relative(datum, (root, -k)).case == "case2a":
                    continue  # cartan_direction has no recipe there
                try:
                    cartan_direction(datum, (root, -k))
                except (ValueError, RuntimeError, AssertionError) as exc:
                    bad.append({"type": label, "root": list(root), "level": -k, "error": str(exc)})
                    continue
                rows.append(((-k, root, label), _direction_text(label, root, k)))
    return SuiteResult(
        "cartan-direction", not bad, None, len(rows) + len(bad), _placed(rows), _in_order(bad)
    )


def _suite_k_symmetry(max_rank: int, max_pairing: int, seed: int, jobs: int) -> SuiteResult:
    # one task per type; a task names its work, so it pickles small
    tasks = [(label, max_pairing, seed) for label in sweep_type_labels(max_rank)]
    rows = [row for chunk in _map_tasks(_k_symmetry_rows, tasks, jobs) for row in chunk]
    failures = [bad for _, _, found in rows for bad in found]
    return SuiteResult(
        "k-symmetry", not failures, seed, len(rows), _placed(rows), _in_order(failures)
    )


def _suite_edge_sweep(kind: str, max_rank: int, max_pairing: int, jobs: int) -> SuiteResult:
    tasks = [(kind, label, max_pairing) for label in sweep_type_labels(max_rank)]
    rows = [row for chunk in _map_tasks(_edge_sweep_rows, tasks, jobs) for row in chunk]
    details: dict = {}
    bad = []
    if kind == "stembridge":
        histogram: dict[str, dict[str, int]] = {}
        cases = Counter((label, case) for (case, *_, label), _ in rows)
        for (label, case), count in sorted(cases.items()):
            histogram.setdefault(label, {})[str(case)] = count
        details["histogram"] = histogram
    else:
        bad = [json.loads(text) for (dim, *_, bound, _), text in rows if bound < dim]
    return SuiteResult(
        kind, not bad, None, len(rows), _placed(rows), _in_order(bad), details
    )


def _suite_sl2(window: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    xs = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    while len(xs) < 13:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x != 0:
            xs.append(x)
    rows, bad = [], []
    for k in range(1, max(3, min(window, 5)) + 1):
        for x in xs:
            if verify_sl2_factorization(k, x):
                rows.append(((k, str(x)), _sl2_text(k, str(x))))
            else:
                bad.append({"k": k, "x": str(x)})
    return SuiteResult(
        "sl2-factorization", not bad, seed, len(rows) + len(bad), _placed(rows), _in_order(bad)
    )
