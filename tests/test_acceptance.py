"""Capability gate: nine end-to-end checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Each check exercises a full pipeline at its stated budget; the
frozen numbers come from independent hand computations and from the
brute-force oracles in the per-module test files.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from affsch.loopalg import (
    LoopVector,
    ad_exp,
    cartan_component,
    cartan_direction,
    loop_context,
    make_e_a,
    matrix_realization,
    realize,
    verify_invariant_basis,
    verify_sl2_factorization,
)
from affsch.rootsys import Coweight, build_root_system, two_rho_pairing
from affsch.schubert import (
    certificate,
    dominant_below,
    k_vector,
    minimal_degenerations,
    root_tangent_bound,
    smooth_locus_report,
)
from affsch.twist import (
    build_twisted,
    cartan_sigma_dim,
    sigma_affine_to_relative,
    twisted_datum,
)
from affsch.verify import sweep_coweights

SWEEP_TYPES = (
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D4", "G2",
)
PAIRING_CAP = 30


def _report(label: str, ok: bool, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"{label}{tail}"


def _all_dominant(system, bound: int) -> list[Coweight]:
    """Every dominant coweight with pairing against 2rho at most bound.

    Unlike sweep_coweights this does not restrict to the coroot lattice:
    dominance covers only constrain the difference, so classification runs
    over every dominant top.
    """
    heights = system.two_rho_coefficients
    out: list[Coweight] = []

    def rec(i: int, acc: list[int], used: int) -> None:
        if i == system.rank:
            out.append(Coweight(system, tuple(acc)))
            return
        for value in range((bound - used) // heights[i] + 1):
            acc.append(value)
            rec(i + 1, acc, used + value * heights[i])
            acc.pop()

    rec(0, [], 0)
    return out


@lru_cache(maxsize=1)
def _lattice_sweep() -> tuple:
    """Deduplicated covering edges over coroot-lattice tops, per type."""
    out = []
    for label in SWEEP_TYPES:
        system = build_root_system(label)
        seen: set[tuple] = set()
        edges = []
        for mu in sweep_coweights(system, PAIRING_CAP):
            for edge in minimal_degenerations(mu):
                key = (edge.mu.pairings, edge.lam.pairings)
                if key in seen:
                    continue
                seen.add(key)
                edges.append(edge)
        out.append((label, tuple(edges)))
    return tuple(out)


def test_01_triality_quasiminuscule_certificate() -> None:
    start = time.perf_counter()
    datum = twisted_datum("3D4")
    sigma = datum.echelonnage
    mu = Coweight(sigma, (0, 1))
    zero = Coweight(sigma, (0, 0))
    dim = two_rho_pairing(mu)
    bound = root_tangent_bound(zero, mu)
    fixed = cartan_sigma_dim(datum, 1)
    cert = certificate(mu, zero, datum)
    elapsed = time.perf_counter() - start
    ok = (
        dim == 6
        and bound == 6
        and fixed == 1
        and cert.verdict == "singular"
        and cert.root_bound + cert.cartan_extra == 7
        and elapsed < 1.0
    )
    _report(
        "triality quasi-minuscule orbit closure is certified singular",
        ok,
        f"dim={dim} roots={bound} cartan={fixed} total="
        f"{cert.root_bound + cert.cartan_extra} {elapsed:.3f}s",
    )


def test_02_rank_one_loop_conjugation_matrices() -> None:
    start = time.perf_counter()
    failures: list[str] = []

    a1 = twisted_datum("A1")
    ctx = loop_context(a1)
    lower = LoopVector.make(ctx.algebra, 1, [(("X", (-1,)), -1, 1)])
    raiser = LoopVector.make(ctx.algebra, 1, [(("X", (1,)), 0, 1)])
    full = ad_exp(lower, raiser)
    expected_terms = {
        (("X", (1,)), 0): Fraction(1),
        (("H", 0), -1): Fraction(-1),
        (("X", (-1,)), -2): Fraction(-1),
    }
    got_terms = {(sym, deg): coeff for sym, deg, coeff in full.terms}
    if {k: v.a for k, v in got_terms.items()} != expected_terms:
        failures.append(f"sl2 expansion terms {sorted(got_terms)}")
    cartan_part = cartan_component(full)
    direction = cartan_direction(a1, ((1,), -1))
    if cartan_part.terms != direction.terms:
        failures.append("cartan component differs from the direction recipe")
    if [(s, d, c.a) for s, d, c in direction.terms] != [(("H", 0), -1, Fraction(-1))]:
        failures.append(f"sl2 cartan part {direction.terms}")
    table = matrix_realization("A1", 1)
    matrix = realize(full, table)
    two_by_two = {
        (0, 0): {-1: Fraction(-1)},
        (0, 1): {0: Fraction(1)},
        (1, 0): {-2: Fraction(-1)},
        (1, 1): {-1: Fraction(1)},
    }
    for (i, j), cells in two_by_two.items():
        got = {deg: coeff.a for deg, coeff in matrix.entry(i, j).items()}
        if got != cells:
            failures.append(f"sl2 matrix entry {(i, j)} = {got}")

    su3 = twisted_datum("2A2")
    e_a = make_e_a(su3, sigma_affine_to_relative(su3, ((1,), -1)))
    e_b = make_e_a(su3, sigma_affine_to_relative(su3, ((-1,), 0)))
    su3_table = matrix_realization("A2", 2)
    h = realize(e_b, su3_table).exp_nilpotent()
    h_inv = realize(e_b.scale(-1), su3_table).exp_nilpotent()
    conjugated = h @ realize(e_a, su3_table) @ h_inv
    diagonal = [conjugated.entry(i, i).get(-1) for i in range(3)]
    wanted = (Fraction(-1, 2), Fraction(1), Fraction(-1, 2))
    for cell, value in zip(diagonal, wanted):
        if cell is None or cell.a != value or cell.b != 0:
            failures.append(f"su3 diagonal {diagonal}")
            break
    if conjugated.trace() != {}:
        failures.append(f"su3 trace {conjugated.trace()}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    _report(
        "rank-one loop conjugations match their matrix models",
        ok,
        failures[0] if failures else f"{elapsed:.3f}s",
    )


def test_03_tangent_bound_dominates_dimension() -> None:
    start = time.perf_counter()
    checked = 0
    violations: list[str] = []
    for label, edges in _lattice_sweep():
        for edge in edges:
            checked += 1
            bound = root_tangent_bound(edge.lam, edge.mu)
            dim = two_rho_pairing(edge.mu)
            if bound < dim:
                violations.append(
                    f"{label} {edge.lam.pairings}<{edge.mu.pairings}"
                    f" bound {bound} < dim {dim}"
                )
    elapsed = time.perf_counter() - start
    ok = checked > 0 and not violations and elapsed < 120.0
    _report(
        "root-curve tangent bound reaches the closure dimension on every cover",
        ok,
        violations[0] if violations else f"{checked} edges {elapsed:.1f}s",
    )


def test_04_root_negation_shift_identity() -> None:
    start = time.perf_counter()
    checked = 0
    violations = 0
    for label, edges in _lattice_sweep():
        system = build_root_system(label)
        pairs = [(edge.lam, edge.mu) for edge in edges]
        pool = sweep_coweights(system, PAIRING_CAP)
        rng = random.Random(f"shift-identity:{label}")
        below_cache: dict[tuple, list[Coweight]] = {}
        for _ in range(500):
            mu = pool[rng.randrange(len(pool))]
            if mu.pairings not in below_cache:
                below_cache[mu.pairings] = dominant_below(mu)
            lam_pool = below_cache[mu.pairings]
            pairs.append((lam_pool[rng.randrange(len(lam_pool))], mu))
        for lam, mu in pairs:
            kv = k_vector(lam, mu)
            for root, value in kv.entries:
                negated = tuple(-m for m in root)
                pairing = sum(m * p for m, p in zip(root, lam.pairings))
                checked += 1
                if value != kv[negated] + pairing:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = checked > 0 and violations == 0
    _report(
        "negating the root shifts its curve bound by the lambda pairing",
        ok,
        f"{checked} identities {elapsed:.1f}s",
    )


def test_05_cover_classification_histogram() -> None:
    start = time.perf_counter()
    histograms: dict[str, Counter] = {}
    mismatches: list[str] = []
    unclassified = 0
    total = 0
    for label in SWEEP_TYPES:
        system = build_root_system(label)
        hist: Counter = Counter()
        for mu in _all_dominant(system, PAIRING_CAP):
            below = dominant_below(mu)
            strict = [lam for lam in below if lam.pairings != mu.pairings]
            dominated = {
                lam.pairings: {x.pairings for x in dominant_below(lam)}
                for lam in strict
            }
            brute = {
                lam.pairings
                for lam in strict
                if not any(
                    nu.pairings != lam.pairings
                    and lam.pairings in dominated[nu.pairings]
                    for nu in strict
                )
            }
            direct = [
                edge
                for edge in minimal_degenerations(mu)
                if edge.mu.pairings == mu.pairings
            ]
            if brute != {edge.lam.pairings for edge in direct}:
                mismatches.append(f"{label} top {mu.pairings}")
            for edge in direct:
                total += 1
                if edge.stembridge_case not in (1, 2, 3, 4, 5):
                    unclassified += 1
                hist[edge.stembridge_case] += 1
        histograms[label] = hist
    elapsed = time.perf_counter() - start

    coverage: list[str] = []
    for label in SWEEP_TYPES:
        for case in (1, 2):
            if histograms[label][case] == 0:
                coverage.append(f"{label} missing case {case}")
    for label in ("C2", "C3", "C4"):
        if histograms[label][3] == 0:
            coverage.append(f"{label} missing case 3")
    for case in (4, 5):
        if histograms["G2"][case] == 0:
            coverage.append(f"G2 missing case {case}")

    print(
        "note: tops range over all dominant coweights; only cover differences"
        " are confined to the coroot lattice, and restricting tops to the"
        " lattice would hide every doubled-bond case-3 cover in the C labeling"
    )
    ok = not mismatches and unclassified == 0 and not coverage
    detail = (mismatches + coverage)[0] if (mismatches or coverage) else (
        f"{total} covers {elapsed:.1f}s "
        + " ".join(
            f"{label}:{dict(sorted(histograms[label].items()))}"
            for label in ("C2", "G2")
        )
    )
    _report("every brute-force cover lands in exactly one of the five cases", ok, detail)


def test_06_graded_invariant_dimensions() -> None:
    start = time.perf_counter()
    failures: list[str] = []
    for label in ("2A2", "2A3", "2D4", "3D4"):
        report = verify_invariant_basis(twisted_datum(label), 6)
        for line in report.lines:
            if not line.ok:
                failures.append(
                    f"{label} degree {line.degree}: fixed {line.fixed_dim}"
                    f" lines {line.progression_count} rank {line.vector_rank}"
                )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(
        "graded fixed spaces match the affine root count with independent spans",
        ok,
        failures[0] if failures else f"window 6, 4 labels {elapsed:.1f}s",
    )


def test_07_smooth_locus_reports() -> None:
    start = time.perf_counter()
    cases = (("3D4", (0, 1)), ("A1", (4,)), ("C2", (1, 1)))
    failures: list[str] = []
    for label, top in cases:
        datum = twisted_datum(label)
        mu = Coweight(datum.echelonnage, top)
        report = smooth_locus_report(mu, datum)
        for stratum in report.strata:
            if stratum.lam.pairings == top:
                if stratum.status != "smooth" or stratum.mechanism != "open-orbit":
                    failures.append(f"{label} top stratum {stratum.status}")
                continue
            if stratum.status != "singular":
                failures.append(f"{label} {stratum.lam.pairings} {stratum.status}")
            if stratum.mechanism == "certificate":
                cert = stratum.certificate
                if cert is None or cert.root_bound + cert.cartan_extra < cert.dim + 1:
                    failures.append(f"{label} weak certificate at {stratum.lam.pairings}")
    if "C2" == cases[-1][0]:
        c2 = twisted_datum("C2")
        edge = minimal_degenerations(Coweight(c2.echelonnage, (1, 1)))[0]
        if edge.stembridge_case != 3:
            failures.append(f"C2 cover classifies as case {edge.stembridge_case}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(
        "closure reports mark only the open stratum smooth",
        ok,
        failures[0] if failures else f"3 closures {elapsed:.2f}s",
    )


def test_08_unipotent_triangular_factorization() -> None:
    start = time.perf_counter()
    failures: list[str] = []
    for k in (1, 2, 3):
        for x in (Fraction(1), Fraction(-2), Fraction(3, 2)):
            if not verify_sl2_factorization(k, x):
                failures.append(f"k={k} x={x}")
    elapsed = time.perf_counter() - start
    ok = not failures
    _report(
        "negative-loop unipotents factor through the nonnegative subgroup",
        ok,
        failures[0] if failures else f"9 instances {elapsed:.3f}s",
    )


def test_09_folded_type_table() -> None:
    start = time.perf_counter()
    table = {
        ("A3", 2): "C2",
        ("A4", 2): "C2",
        ("A5", 2): "B3",
        ("D4", 2): "C3",
        ("E6", 2): "F4",
        ("D4", 3): "G2",
    }
    failures: list[str] = []
    for (absolute, order), folded in table.items():
        datum = build_twisted(absolute, order)
        if datum.echelonnage.label != folded:
            failures.append(f"{order}{absolute} folded to {datum.echelonnage.label}")
    a4 = build_twisted("A4", 2)
    if a4.multipliable_roots != ((0, 1), (2, 1)):
        failures.append(f"2A4 multipliable {a4.multipliable_roots}")
    if build_twisted("A3", 2).multipliable_roots != ():
        failures.append("2A3 unexpectedly multipliable")
    triality = build_twisted("D4", 3)
    if triality.sigma_simple_images != ((0, 1, 0, 0), (1, 0, 1, 1)):
        failures.append(f"3D4 images {triality.sigma_simple_images}")
    elapsed = time.perf_counter() - start
    print(
        "note: folded A5 comes out as B3 and folded twice-D4 as C3; the"
        " transposed-Cartan labeling swaps those two letters, and the orbit"
        " sums here pin the long roots first"
    )
    ok = not failures
    _report(
        "folded type table with multipliable metadata and triality basis",
        ok,
        failures[0] if failures else f"6 foldings {elapsed:.3f}s",
    )
