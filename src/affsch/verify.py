"""Property sweeps behind the `verify` subcommand.

Each suite re-checks one of the structural facts the library rests on, over
an enumerated family of instances plus an optional seeded random sample, and
returns a SuiteResult, plain data that reproduces the run byte for byte.

One rule orders every suite: its rows share one key set, so a row sorts by
its values in sorted-key order.  _row makes a row's (key, text,
counterexamples carried), and _result sorts a request's rows and
counterexamples by that rule.  The stembridge case histogram is counted from
those keys.  run_suite and sweep_coweights check a request with _check_request.

The sweeps range over boxes of dominant mu, and the loop suites over
--window values, that overlap from request to request, so bounded memos keep
each box, each k-symmetry draw pool and each row as _row makes it.  A sweep
row depends only on its top's down-set (Stembridge 1998), which the kept
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

from affsch.jsontext import _json_text, _terms_text
from affsch.rootsys import Coweight, IntVec, build_root_system
from affsch.schubert import _poset
from affsch.twist import MAX_WINDOW, twisted_datum

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
# run_suite refuses a larger max_pairing, which bounds a sweep's work and the
# memos sized below; at 40 a sweep takes under a second in a fresh process on a
# 2-core host (mindeg-inequality 0.6 s, stembridge 0.35 s, k-symmetry 0.2 s).
MAX_PAIRING = 40


@dataclass(frozen=True)
class SuiteResult:
    """One suite's outcome.

    instances holds the instance rows, each as json.dumps(row, indent=2,
    sort_keys=True) writes its dict; counterexamples holds the failing
    instances as the dicts json.loads gives back, vectors as lists.  Both are
    sorted by their values in sorted-key order.
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


@lru_cache(maxsize=len(SWEEP_TYPES) * (MAX_PAIRING + 1))  # one per (type, --max-pairing)
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
    """Dominant coroot-lattice coweights with <mu, 2rho> <= max_pairing, refused as run_suite does."""
    _check_request({"max_pairing": max_pairing})
    return [Coweight(system, p) for p in _box(system, max_pairing)]


def _key(row: dict) -> tuple:
    """A row's values in sorted-key order: rows with one key set sort by it as by their sorted items."""
    return tuple([row[name] for name in sorted(row)])


def _row(row: dict, failures: tuple[dict, ...] = ()) -> tuple[tuple, str, tuple[dict, ...]]:
    """A row's sort key, json.dumps(row, indent=2, sort_keys=True), and its counterexamples."""
    return _key(row), _json_text(row), failures


@lru_cache(maxsize=1144)  # one per (suite, type, top): 2 x 572 tops at MAX_PAIRING 40
def _edge_rows(kind: str, label: str, top: IntVec) -> tuple[tuple, ...]:
    """A row for the lower end of each covering edge below top."""
    system = build_root_system(label)
    poset = _poset(system, top)
    dim = sum(h * x for h, x in zip(system.two_rho_coefficients, top))
    rows = []
    for p in poset.below(top):
        for lam, _, _, case in poset.edges(p):
            row = {"type": label, "mu": top, "lambda": lam}
            failures = ()
            if kind == "stembridge":
                row["case"] = case
            else:
                row["dim"], row["root_bound"] = dim, sum(poset.k_vector(lam, top))
                if row["root_bound"] < dim:
                    failures = ({**row, "mu": list(top), "lambda": list(lam)},)
            rows.append(_row(row, failures))
    return tuple(rows)


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
    positive = system.positive_roots
    failures = []
    # k_vector lists the negative roots after the positive ones, in the same order
    for root, plus, minus in zip(positive, counts, counts[len(positive):]):
        step = sum(m * x for m, x in zip(root, lam))
        if plus != minus + step:
            failures.append({"type": label, "mu": list(mu), "lambda": list(lam), "root": list(root),
                             "k_plus": plus, "k_minus": minus, "pairing": step})
    return _row({"type": label, "mu": mu, "lambda": lam}, tuple(failures))


@lru_cache(maxsize=len(SWEEP_TYPES) * (MAX_PAIRING + 1))  # one per (type, --max-pairing)
def _k_symmetry_draws(label: str, max_pairing: int) -> tuple[tuple, tuple[IntVec, ...]]:
    """The covering pairs (mu, lam) of the type's box, and its tops the draws pick from.

    A box is a down-set, so its covering pairs are the covers of its points.
    """
    system = build_root_system(label)
    box = _box(system, max_pairing)
    pairs = tuple((mu, lam) for mu in box for lam, *_ in _poset(system, mu).edges(mu))
    return pairs, tuple(mu for mu in box if any(mu))


@lru_cache(maxsize=572)  # one per (type, top): 572 tops at MAX_PAIRING 40
def _down_set(label: str, mu: IntVec) -> tuple[IntVec, ...]:
    """The dominant lam <= mu in stratum order, the pool a draw below mu picks from."""
    return tuple(_poset(build_root_system(label), mu).below(mu))


def _result(suite: str, seed, rows: list[tuple], unrendered=(), details=None) -> SuiteResult:
    """The result of rows made by _row, and of failing instances that have no row."""
    rows.sort(key=itemgetter(0))
    # copies: a caller that edits a counterexample must not edit the one a memo keeps
    failures = [deepcopy(bad) for _, _, found in rows if found for bad in found] + list(unrendered)
    texts = tuple([text for _, text, _ in rows])
    failures.sort(key=_key)
    checked = len(rows) + len(unrendered)
    return SuiteResult(suite, not failures, seed, checked, texts, tuple(failures), details or {})


def _check_request(args: dict) -> None:
    """ValueError before any memo is read: an inexact int (2.5, True) or a bound out of range."""
    for arg, value in args.items():
        if type(value) is not int:
            raise ValueError(f"{arg}: expected an int, got {value!r}")
    for arg, high in ("max_pairing", MAX_PAIRING), ("window", MAX_WINDOW):
        if not 0 <= args.get(arg, 0) <= high:
            raise ValueError(f"{arg}: expected an integer from 0 to {high}, got {args[arg]!r}")


def run_suite(
    name: str,
    *,
    max_rank: int = 4,
    max_pairing: int = 14,
    window: int = 4,
    seed: int = 0,
) -> SuiteResult:
    """One suite's result; ValueError for an unknown suite, an inexact or out-of-range bound, or no instance."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    _check_request({"max_rank": max_rank, "max_pairing": max_pairing, "window": window, "seed": seed})
    if name == "loop-basis":
        outcome = _suite_loop_basis(window)
    elif name == "cartan-direction":
        outcome = _suite_cartan_direction(window)
    elif name == "k-symmetry":
        outcome = _suite_k_symmetry(max_rank, max_pairing, seed)
    elif name == "sl2-factorization":
        outcome = _suite_sl2(window, seed)
    else:
        outcome = _suite_edge_sweep(name, max_rank, max_pairing)
    if not outcome.instances_checked:
        raise ValueError(f"suite {name} has no instance to check within these bounds")
    return outcome


@lru_cache(maxsize=len(LOOP_LABELS) * (2 * MAX_WINDOW + 1))  # one per (label, u-degree)
def _loop_basis_row(degree: int, fixed_dim: int, lines: int, rank: int, label: str, ok: bool) -> tuple:
    row = {"type": label, "degree": degree, "fixed_dim": fixed_dim, "lines": lines, "rank": rank}
    return _row(row, () if ok else (row,))


@lru_cache(maxsize=138)  # the (type, root, k) of DIRECTION_LABELS at depths 1-6 with a recipe: 138
def _direction_row(label: str, root, k: int) -> tuple:
    from affsch import loopalg

    terms = loopalg.cartan_direction(twisted_datum(label), (root, -k)).terms
    # as text at its place in the row, so the kept key holds no dicts
    vector = _terms_text(terms, "  ")
    return _row({"type": label, "root": root, "level": -k, "vector": vector})


@lru_cache(maxsize=170)  # the (k, x) drawn over --seed 0-3 at k = 1-5: 170
def _sl2_row(k: int, x: str) -> tuple:
    return _row({"k": k, "x": x})


def _suite_loop_basis(window: int) -> SuiteResult:
    from affsch import loopalg  # on first use: see affsch/__init__.py

    rows = []
    for label in LOOP_LABELS:
        for line in loopalg.verify_invariant_basis(twisted_datum(label), window).lines:
            values = (line.degree, line.fixed_dim, line.progression_count, line.vector_rank)
            rows.append(_loop_basis_row(*values, label, line.ok))
    return _result("loop-basis", None, rows)


def _suite_cartan_direction(window: int) -> SuiteResult:
    from affsch import loopalg

    depth = max(1, min(window, 6))
    rows, bad = [], []
    for label in DIRECTION_LABELS:
        datum = twisted_datum(label)
        for root, level in loopalg.cartan_recipe_roots(datum, depth):
            try:
                loopalg.cartan_direction(datum, (root, level))
            except (ValueError, RuntimeError, AssertionError) as exc:
                bad.append({"type": label, "root": list(root), "level": level, "error": str(exc)})
            else:
                rows.append(_direction_row(label, root, -level))
    return _result("cartan-direction", None, rows, bad)


def _suite_k_symmetry(max_rank: int, max_pairing: int, seed: int) -> SuiteResult:
    """The row of each covering pair of each type's box, and of 25 seeded pairs lam <= mu each.

    Random.choice reads only the length and one index of what it picks from,
    so the kept tuples draw what lists of the same keys would.
    """
    rows = []
    for label in sweep_type_labels(max_rank):
        covering, tops = _k_symmetry_draws(label, max_pairing)
        pairs = list(covering)
        rng = random.Random(f"{seed}:{label}")  # string seeding is process-stable
        for _ in range(25 if tops else 0):
            mu = rng.choice(tops)
            pairs.append((mu, rng.choice(_down_set(label, mu))))
        rows += [_k_symmetry_row(label, mu, lam) for mu, lam in dict.fromkeys(pairs)]
    return _result("k-symmetry", seed, rows)


def _suite_edge_sweep(kind: str, max_rank: int, max_pairing: int) -> SuiteResult:
    rows = [
        row
        for label in sweep_type_labels(max_rank)
        for top in _box(build_root_system(label), max_pairing)
        for row in _edge_rows(kind, label, top)
    ]
    if kind != "stembridge":
        return _result(kind, None, rows)
    # a stembridge row's key is (case, lambda, mu, type); SWEEP_TYPES is in sorted order
    histogram: dict[str, dict[str, int]] = {}
    for (label, case), count in sorted(Counter([(key[3], key[0]) for key, _, _ in rows]).items()):
        histogram.setdefault(label, {})[str(case)] = count
    return _result(kind, None, rows, (), {"histogram": histogram})


def _suite_sl2(window: int, seed: int) -> SuiteResult:
    from affsch import loopalg

    rng = random.Random(seed)
    xs = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    while len(xs) < 13:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x != 0:
            xs.append(x)
    rows, bad = [], []
    for k in range(1, max(3, min(window, 5)) + 1):
        for x in xs:
            if loopalg.verify_sl2_factorization(k, x):
                rows.append(_sl2_row(k, str(x)))
            else:
                bad.append({"k": k, "x": str(x)})
    return _result("sl2-factorization", seed, rows, bad)
