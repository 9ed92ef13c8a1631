"""Property sweeps behind the `verify` subcommand.

Each suite re-checks one of the structural facts the library rests on, over
an enumerated family of instances plus an optional seeded random sample.
Results are plain data: instance rows rendered as JSON text, explicit
counterexamples, and enough metadata to reproduce the run byte for byte.

One rule orders every suite: its rows share one key set, so a row sorts by
its values in sorted-key order.  _row makes a row's (key, text,
counterexamples carried), and _result sorts a request's rows and
counterexamples by that rule.

The sweeps range over boxes of dominant mu, and the loop suites over
--window values, that overlap from request to request, so bounded memos keep
each box as raw pairing vectors and each row as _row makes it.  A sweep row
depends only on its top's down-set (Stembridge 1998), which the kept
DominancePoset holds.  Each loop check runs again on every request, its
verdicts memoised in loopalg; a raising Cartan direction or a false rank-one
verdict gets no row, only a counterexample built afresh.
"""

from __future__ import annotations

import random
from collections import Counter
from copy import deepcopy
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

    instances holds the instance rows, each as the JSON text of its dict (a
    jsontext._Fragment: json.loads(row) gives the dict); counterexamples
    holds the failing instances as the dicts json.loads gives back, vectors
    as lists.  Both are sorted by their values in sorted-key order.
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


def _key(row: dict) -> tuple:
    """A row's values in sorted-key order: rows with one key set sort by it as by their sorted items."""
    return tuple([row[name] for name in sorted(row)])


def _row(row: dict, failures: tuple[dict, ...] = ()) -> tuple[tuple, _Fragment, tuple[dict, ...]]:
    """A row's sort key, its text, and its counterexamples, with lists as json.loads gives back."""
    return _key(row), _Fragment(_json_text(row)), failures


@lru_cache(maxsize=1144)  # one per (suite, type, top): 2 x 572 tops at MAX_PAIRING 40
def _edge_rows(kind: str, label: str, top: IntVec) -> tuple[tuple[tuple, ...], tuple]:
    """A row for the lower end of each covering edge below top, and (case, count) of their cases."""
    system = build_root_system(label)
    poset = _poset(system, top)
    dim = sum(h * x for h, x in zip(system.two_rho_coefficients, top))
    rows, cases = [], Counter()
    for p in poset.below(top):
        for lam, _, _, case in poset.edges(p):
            row = {"type": label, "mu": top, "lambda": lam}
            failures = ()
            if kind == "stembridge":
                row["case"] = case
                cases[case] += 1
            else:
                row["dim"], row["root_bound"] = dim, sum(poset.k_vector(lam, top))
                if row["root_bound"] < dim:
                    failures = ({**row, "mu": list(top), "lambda": list(lam)},)
            rows.append(_row(row, failures))
    return tuple(rows), tuple(cases.items())


def _edge_sweep_rows(kind: str, label: str, max_pairing: int) -> tuple[list[tuple], dict[str, int]]:
    """The rows of one type's box, and how many of them have each stembridge case."""
    rows, cases = [], Counter()
    for top in _box(build_root_system(label), max_pairing):
        top_rows, tally = _edge_rows(kind, label, top)
        rows += top_rows
        for case, count in tally:  # Counter.update would cost more per top than this loop
            cases[case] += count
    return rows, {str(case): count for case, count in sorted(cases.items())}


# One per (type, mu, lambda).  A MAX_PAIRING 40 request checks at most the 924
# covering pairs of the sweep types and 12 x 25 random pairs: 1,224.  Random
# pairs vary with --seed, so the least recently used go first.
@lru_cache(maxsize=2048)
def _k_symmetry_row(label: str, mu: IntVec, lam: IntVec) -> tuple:
    """The row of the pair lam <= mu, carrying its failures.

    A failure is a positive root alpha with k(alpha) != k(-alpha) + <lam,
    alpha>, the two counts walked independently.
    """
    system = build_root_system(label)
    counts = _poset(system, mu).k_vector(lam, mu)
    index = system.root_index
    failures = []
    for root in system.positive_roots:
        plus, minus = counts[index[root]], counts[index[tuple(-c for c in root)]]
        step = sum(m * x for m, x in zip(root, lam))
        if plus != minus + step:
            failures.append({"type": label, "mu": list(mu), "lambda": list(lam), "root": list(root),
                             "k_plus": plus, "k_minus": minus, "pairing": step})
    return _row({"type": label, "mu": mu, "lambda": lam}, tuple(failures))


def _k_symmetry_rows(label: str, max_pairing: int, seed: int) -> list[tuple]:
    """The row of each covering pair of the box, and of 25 seeded pairs lam <= mu.

    The box is a down-set, so its covering pairs are the covers of its points.
    """
    system = build_root_system(label)
    box = _box(system, max_pairing)
    pairs = [(mu, lam) for mu in box for lam, *_ in _poset(system, mu).edges(mu)]
    tops = [mu for mu in box if any(mu)]
    rng = random.Random(f"{seed}:{label}")  # string seeding is process-stable
    for _ in range(25 if tops else 0):
        mu = rng.choice(tops)
        pairs.append((mu, rng.choice(list(_poset(system, mu).below(mu)))))
    return [_k_symmetry_row(label, mu, lam) for mu, lam in dict.fromkeys(pairs)]


def _result(suite: str, seed, rows: list[tuple], unrendered=(), details=None) -> SuiteResult:
    """The result of rows made by _row, and of failing instances that have no row."""
    rows.sort(key=itemgetter(0))
    # copies: a caller that edits a counterexample must not edit the one a memo keeps
    failures = [deepcopy(bad) for _, _, found in rows if found for bad in found] + list(unrendered)
    texts = tuple([text for _, text, _ in rows])
    failures.sort(key=_key)
    checked = len(rows) + len(unrendered)
    return SuiteResult(suite, not failures, seed, checked, texts, tuple(failures), details or {})


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
) -> SuiteResult:
    if name == "loop-basis":
        return _suite_loop_basis(window)
    if name == "cartan-direction":
        return _suite_cartan_direction(window)
    if name == "k-symmetry":
        return _suite_k_symmetry(max_rank, max_pairing, seed)
    if name == "stembridge":
        return _suite_edge_sweep("stembridge", max_rank, max_pairing)
    if name == "mindeg-inequality":
        return _suite_edge_sweep("mindeg-inequality", max_rank, max_pairing)
    if name == "sl2-factorization":
        return _suite_sl2(window, seed)
    raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")


# The loop suites' rows, made once.  Each check runs on every request; the rows
# of the nine --window values overlap, so each row is kept, keyed by what it
# is made from.


@lru_cache(maxsize=68)  # four loop labels x u-degrees -8..8: 68 rows
def _loop_basis_row(degree: int, fixed_dim: int, lines: int, rank: int, label: str, ok: bool) -> tuple:
    row = {"type": label, "degree": degree, "fixed_dim": fixed_dim, "lines": lines, "rank": rank}
    return _row(row, () if ok else (row,))


@lru_cache(maxsize=138)  # the (type, root, k) of DIRECTION_LABELS at depths 1-6 with a recipe: 138
def _direction_row(label: str, root, k: int) -> tuple:
    vec = cartan_direction(twisted_datum(label), (root, -k))
    vector = _Fragment(_json_text(vector_rows(vec)))  # as text, the kept key holds no dicts
    return _row({"type": label, "root": root, "level": -k, "vector": vector})


@lru_cache(maxsize=170)  # the (k, x) drawn over --seed 0-3 at k = 1-5: 170
def _sl2_row(k: int, x: str) -> tuple:
    return _row({"k": k, "x": x})


def _suite_loop_basis(window: int) -> SuiteResult:
    rows = []
    for label in LOOP_LABELS:
        for line in verify_invariant_basis(twisted_datum(label), window).lines:
            values = (line.degree, line.fixed_dim, line.progression_count, line.vector_rank)
            rows.append(_loop_basis_row(*values, label, line.ok))
    return _result("loop-basis", None, rows)


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
                else:
                    rows.append(_direction_row(label, root, k))
    return _result("cartan-direction", None, rows, bad)


def _suite_k_symmetry(max_rank: int, max_pairing: int, seed: int) -> SuiteResult:
    labels = sweep_type_labels(max_rank)
    rows = [row for label in labels for row in _k_symmetry_rows(label, max_pairing, seed)]
    return _result("k-symmetry", seed, rows)


def _suite_edge_sweep(kind: str, max_rank: int, max_pairing: int) -> SuiteResult:
    labels = sweep_type_labels(max_rank)
    chunks = [_edge_sweep_rows(kind, label, max_pairing) for label in labels]
    rows = [row for chunk, _ in chunks for row in chunk]
    if kind != "stembridge":
        return _result(kind, None, rows)
    histogram = {label: cases for label, (_, cases) in zip(labels, chunks) if cases}
    return _result(kind, None, rows, (), {"histogram": histogram})


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
                rows.append(_sl2_row(k, str(x)))
            else:
                bad.append({"k": k, "x": str(x)})
    return _result("sl2-factorization", seed, rows, bad)
