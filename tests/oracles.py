"""Slow, definition-level oracles shared by the tests.

None of these has a caller in the package: each restates a fact the library
computes another way (the dominance order by a lattice solve, dominant
representatives by a Weyl-orbit scan and by reflecting tuples, Stembridge
steps subtracted in full, covers, down-sets and k_alpha walks over them on
pairing tuples, root-curve targets and case tags from
a pair's endpoints, the level correspondence by Fraction progressions, the
Cartan direction by the whole adjoint series, the root-sum and
structure-constant tables by adding root tuples and by the closed form, the
bracket by adding root tuples, the Jacobi and sigma0 build checks over that
bracket, the rank-one
factorization by its values at rational points, the sweep suites' rows as
dicts, built from the public schubert functions, the loop suites' rows as
dicts, all sorted by their items, the stratum and edge rows of the closure
documents as dicts, built from the public report and edge objects, the
openness-propagation column of a closure by lattice solves against its
covers, and the degree rows and Cartan directions of a loopcheck document as dicts, their
terms from vector_rows, and the Cartan inverse and exact ranks by
Gauss-Jordan elimination over a field), so the tests can check the fast
paths against them.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import lru_cache

from affsch.loopalg import (
    ad_exp,
    cartan_component,
    cartan_direction,
    cartan_recipe_roots,
    make_e_a,
    root_line_vectors,
    verify_invariant_basis,
)
from affsch.rootsys import (
    Coweight,
    CorootVector,
    IntVec,
    Root,
    build_root_system,
    dominant_rep,
    two_rho_pairing,
)
from affsch.schubert import (
    DegenerationEdge,
    SmoothnessCertificate,
    _classify,
    certificate,
    dominant_below,
    k_alpha,
    k_vector,
    minimal_degenerations,
    root_tangent_bound,
)
from affsch.twist import _vec_add, sigma_affine_to_relative, twisted_datum
from affsch.verify import DIRECTION_LABELS, LOOP_LABELS

AffineRoot = tuple[Root, int]


def gauss_jordan(rows: list[list], ncols: int) -> list:
    """Reduce rows in place to reduced row-echelon form on their first ncols columns.

    Works over any exact field with a truth value and a reciprocal 1 / x:
    Fraction for the Cartan inverse, loopalg.CycScalar for ranks over Q(zeta).
    Each pivot row is scaled by one inverse and cleared out of every other row.
    Returns the pivots in the order found, before scaling; their number is the rank.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank][col]
        pivots.append(pivot)
        inv = 1 / pivot
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
    return pivots


def fraction_inverse(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det, adjugate) of a positive definite integer matrix, by Gauss-Jordan on [cartan | I] in Fractions.

    With every pivot positive no row swap came first, so det is the pivot
    product, and adjugate is det times the inverse in the right half.
    """
    n = len(cartan)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
           for i, row in enumerate(cartan)]
    pivots = gauss_jordan(aug, n)
    assert len(pivots) == n and all(p > 0 for p in pivots), "not positive definite"
    det = 1
    for pivot in pivots:
        det *= pivot
    adjugate = tuple(tuple(x * det for x in row[n:]) for row in aug)
    assert det.denominator == 1 and all(x.denominator == 1 for row in adjugate for x in row)
    return int(det), tuple(tuple(int(x) for x in row) for row in adjugate)

def reflect_coweight(nu: Coweight, i: int) -> Coweight:
    pi = nu.pairings[i]
    col = nu.system.columns[i]
    return Coweight(nu.system, tuple(p - pi * c for p, c in zip(nu.pairings, col)))


def weyl_orbit(nu: Coweight) -> frozenset[IntVec]:
    """All pairing vectors in the Weyl orbit of nu (exponential in rank; test-sized inputs only)."""
    columns = nu.system.columns
    rank = nu.system.rank
    seen = {nu.pairings}
    frontier = [nu.pairings]
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(rank):
                pi = p[i]
                if pi == 0:
                    continue
                col = columns[i]
                q = tuple(pj - pi * cj for pj, cj in zip(p, col))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)


def difference_coroot(lam: Coweight, mu: Coweight) -> CorootVector | None:
    """mu - lam as a coroot vector, or None when it is outside the coroot lattice."""
    if lam.system is not mu.system:
        raise ValueError("coweights live on different systems")
    dp = tuple(m - l for l, m in zip(lam.pairings, mu.pairings))
    c = lam.system.lattice_coefficients(dp)
    return None if c is None else CorootVector(lam.system, c)


def dominance_leq(lam: Coweight, mu: Coweight) -> bool:
    """lam <= mu: mu - lam a nonnegative integer combination of simple coroots."""
    diff = difference_coroot(lam, mu)
    return diff is not None and all(x >= 0 for x in diff.coefficients)


def root_curve_target(
    lam: Coweight, alpha: Root, k: int, mu: Coweight | None = None
) -> Coweight:
    """Stratum label reached by the alpha root curve at winding k."""
    if k < 1:
        raise ValueError("winding number k must be at least 1")
    if mu is not None and k > k_alpha(lam, mu, alpha):
        raise ValueError("k exceeds the root-curve count for this pair")
    step = lam.system.coroot_pairings(alpha)
    cand = tuple(p - k * s for p, s in zip(lam.pairings, step))
    return dominant_rep(Coweight(lam.system, cand))


@lru_cache(maxsize=None)
def positive_coroots(system) -> tuple[tuple[IntVec, IntVec], ...]:
    """(pairing vector, coefficients) of beta^vee for each positive root beta, in root order."""
    return tuple(
        (system.coroot_pairings(beta), system.coroot_coefficients(beta))
        for beta in system.positive_roots
    )


def stembridge_steps(system, p: IntVec) -> list[tuple[IntVec, IntVec]]:
    """(p - beta^vee, coefficients of beta^vee) for each positive root beta leaving p - beta^vee dominant.

    Every step is subtracted in full and kept when its least entry is nonnegative.
    """
    steps = []
    for pairings, coefficients in positive_coroots(system):
        q = tuple(a - b for a, b in zip(p, pairings))
        if min(q) >= 0:
            steps.append((q, coefficients))
    return steps


def _stratum_order(system, p: IntVec) -> tuple[int, IntVec]:
    return -sum(h * x for h, x in zip(system.two_rho_coefficients, p)), p


def stembridge_covers(system, p: IntVec) -> list[tuple[IntVec, IntVec]]:
    """The steps from p that no other step undercuts coefficientwise, in stratum order."""
    steps = stembridge_steps(system, p)

    def undercut(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    covers = [(q, c) for q, c in steps if not any(undercut(d, c) for _, d in steps)]
    return sorted(covers, key=lambda step: _stratum_order(system, step[0]))


def stembridge_below(system, mu: IntVec) -> dict[IntVec, IntVec]:
    """Each point a breadth-first walk of stembridge_steps reaches from mu, with its gap, in stratum order."""
    gaps = {mu: (0,) * system.rank}
    queue = [mu]
    for p in queue:
        for q, c in stembridge_steps(system, p):
            if q not in gaps:
                gaps[q] = tuple(a + b for a, b in zip(gaps[p], c))
                queue.append(q)
    return {p: gaps[p] for p in sorted(queue, key=lambda p: _stratum_order(system, p))}


def _dominant_rep_raw(p: IntVec, columns: tuple[IntVec, ...]) -> IntVec:
    """The dominant representative of p's orbit, reflecting in the first negative coordinate on tuples."""
    cur = list(p)
    rank = len(cur)
    while True:
        for i in range(rank):
            pi = cur[i]
            if pi < 0:
                col = columns[i]
                for j in range(rank):
                    cur[j] -= pi * col[j]
                break
        else:
            return tuple(cur)


def tuple_k_vector(system, lam: IntVec, below: dict[IntVec, IntVec], dom: dict) -> tuple[int, ...]:
    """k_alpha(lam, mu) for every root, in root order, walked on pairing tuples.

    below is stembridge_below(system, mu), whose first key is mu.  dom
    memoises the dominant representative of every candidate, a dominant one
    mapped to itself, and may be shared between calls on one system.  A
    positive root's walk subtracts its coroot's pairing vector and the
    matching negative root's walk adds it; the first candidate whose
    representative leaves the down-set ends a walk.
    """
    mu = next(iter(below))
    cap = two_rho_pairing(Coweight(system, mu)) + 1
    walks = []
    for move in (operator.sub, operator.add):
        for step, _ in positive_coroots(system):
            cand = lam
            k = 0
            while True:
                cand = tuple(map(move, cand, step))
                rep = dom.get(cand)
                if rep is None:
                    rep = _dominant_rep_raw(cand, system.columns)
                    rep = dom[cand] = dom.setdefault(rep, rep)
                if rep not in below:
                    break
                k += 1
                if k > cap:
                    raise RuntimeError("root-curve count exceeded the dimension cap")
            walks.append(k)
    return tuple(walks)


def classify_degeneration(edge: DegenerationEdge) -> int:
    """Recompute the case tag 1..5 of a covering pair from its endpoints alone."""
    gap = difference_coroot(edge.lam, edge.mu).coefficients
    support = tuple(i for i, x in enumerate(gap) if x)
    return _classify(edge.mu.system, edge.mu.pairings, edge.lam.pairings, gap, support)


# -- the closure documents' row lists, one dict per row ------------------------


def certificate_row(cert: SmoothnessCertificate) -> dict:
    """A certificate as analyze documents write it, in a stratum row or as the focus."""
    return {
        "lambda": cert.lam.pairings,
        "dim": cert.dim,
        "root_bound": cert.root_bound,
        "cartan_extra": cert.cartan_extra,
        "total": cert.root_bound + cert.cartan_extra,
        "verdict": cert.verdict,
    }


def analyze_strata_rows(strata) -> list[dict]:
    """The strata list of an analyze document, one dict per StratumReport."""
    return [
        {
            "lambda": stratum.lam.pairings,
            "dimension": two_rho_pairing(stratum.lam),
            "status": stratum.status,
            "mechanism": stratum.mechanism,
            "certificate": certificate_row(stratum.certificate) if stratum.certificate else None,
            "via": stratum.via.pairings if stratum.via else None,
        }
        for stratum in strata
    ]


def poset_edge_rows(edges) -> list[dict]:
    """The edges list of a poset document, one dict per DegenerationEdge."""
    return [
        {
            "upper": edge.mu.pairings,
            "lower": edge.lam.pairings,
            "case": edge.stembridge_case,
            "support": edge.support_indices,
        }
        for edge in edges
    ]


def propagation_rows(mu: Coweight, datum) -> list[tuple[IntVec, str, IntVec | None]]:
    """(lam, status, via) of each stratum of the mu closure that is neither mu nor a cover.

    In stratum order.  The covers are stembridge_covers of mu, and via is the
    first of them, in stratum order, whose certificate is singular and that
    lies above lam by dominance_leq, a lattice solve: no gaps and no codes.
    status is "singular" with a via and "unresolved" without.
    """
    system, top = mu.system, mu.pairings
    covers = [Coweight(system, q) for q, _ in stembridge_covers(system, top)]
    singular = [q for q in covers if certificate(mu, q, datum).verdict == "singular"]
    rows = []
    for p in stembridge_below(system, top):
        lam = Coweight(system, p)
        if p == top or lam in covers:
            continue
        via = next((q for q in singular if dominance_leq(lam, q)), None)
        rows.append((p, "unresolved", None) if via is None else (p, "singular", via.pairings))
    return rows


def translate_affine_root(a: AffineRoot, lam: Coweight) -> AffineRoot:
    """Conjugating by the translation t^lam shifts the level by <lam, root>."""
    sigma_root, k = a
    return (sigma_root, k + lam.pairing_with_root(sigma_root))


def level_progressions(datum, sigma_root: Root) -> tuple[tuple[str, Fraction, Fraction, int], ...]:
    """(case, offset, step, scale) of each progression of relative levels over a root of Sigma.

    The admissible relative levels of a case are offset + step*Z, and the
    Sigma-level at relative level m is m*scale: (1/d)Z and scale d in case 1
    (orbit size d), (1/2)Z and scale 4 in case 2a, 1/2 + Z and scale 2 in case 2b.
    """
    data = datum.orbit_data(sigma_root)
    if not data.multipliable:
        return (("case1", Fraction(0), Fraction(1, data.d), data.d),)
    return ("case2a", Fraction(0), Fraction(1, 2), 4), ("case2b", Fraction(1, 2), Fraction(1), 2)


def progression_sigma_levels(datum, sigma_root: Root, n: int) -> tuple[int, ...]:
    """Sigma-levels over sigma_root at u-degree n, through the relative level n/e."""
    m = Fraction(n, datum.e)
    return tuple(
        int(m * scale)
        for _, offset, step, scale in level_progressions(datum, sigma_root)
        if (m - offset) % step == 0
    )


def cartan_direction_by_series(datum, a: AffineRoot):
    """The Cartan part of the whole series Ad(exp e_b) e_a = sum of ad(e_b)^n e_a / n!.

    b is -beta one step shallower: level k - 1 in case 1 and 2(k - 1) in
    case 2b, for a = (beta, -k).  Every order is summed until it vanishes, and
    the vectors are built afresh, not read from the memo.
    """
    beta, level = a
    rel_a = sigma_affine_to_relative(datum, a)
    shallower = -level - 1 if rel_a.case == "case1" else 2 * (-level - 1)
    rel_b = sigma_affine_to_relative(datum, (tuple(-x for x in beta), shallower))
    return cartan_component(ad_exp(make_e_a(datum, rel_b), make_e_a(datum, rel_a)))


def root_sum_table(roots: list[Root]) -> list[list[int | None]]:
    """add by tuple sums: the index of roots[i] + roots[j], len(roots) for a zero sum, None off the roots."""
    sums = {r: i for i, r in enumerate(roots)}
    sums[tuple(0 for _ in roots[0])] = len(roots)
    return [[sums.get(_vec_add(g, d)) for d in roots] for g in roots]


def structure_constant_table(algebra) -> list[list[int]]:
    """N(g, d) by the closed form over root tuples where g + d is a root, 0 elsewhere.

    eps(g, d) = (-1)^(g.d + sum over oriented edges (a, b) of g_a d_b), times the
    signs of g, d and g + d; roots[i] < 0 iff i >= |R+|.
    """
    roots, positive = algebra.system.roots, len(algebra.system.positive_roots)
    add = root_sum_table(roots)
    table = [[0] * len(roots) for _ in roots]
    for i, g in enumerate(roots):
        for j, d in enumerate(roots):
            s = add[i][j]
            if s is not None and s != len(roots):
                odd = sum(map(operator.mul, g, d)) + sum(g[a] * d[b] for a, b in algebra.oriented)
                odd += (i >= positive) + (j >= positive) + (s >= positive)
                table[i][j] = -1 if odd & 1 else 1
    return table


def jacobi_triples(algebra) -> list[tuple[Root, Root, Root]]:
    """Root triples, in root order, whose Jacobi sum can be nonzero: a set of sorted index triples.

    [[X_a, X_b], X_c] vanishes unless a + b is zero, or a root with a + b + c
    zero or a root; a triple needs a check only when one of its pairs passes.
    """
    roots = algebra.system.roots
    root_set = set(roots)
    live = root_set | {(0,) * algebra.system.rank}
    triples = set()
    for i, a in enumerate(roots):
        for j in range(i + 1, len(roots)):
            s = _vec_add(a, roots[j])
            if s in live:
                triples.update(
                    tuple(sorted((i, j, k)))
                    for k, c in enumerate(roots)
                    if k != i and k != j and (s not in root_set or _vec_add(s, c) in live)
                )
    return [(roots[i], roots[j], roots[k]) for i, j, k in sorted(triples)]


def bracket_by_roots(algebra, x: tuple, y: tuple) -> list[tuple[int, tuple]]:
    """[x, y] of two basis symbols over root tuples; only N is read from the algebra."""
    system = algebra.system
    if x[0] == "H":
        return [] if y[0] == "H" else [(system.pairing_with_coroot(y[1], x[1]), y)]
    if y[0] == "H":
        return [(-system.pairing_with_coroot(x[1], y[1]), x)]
    g, d = x[1], y[1]
    s = _vec_add(g, d)
    if not any(s):
        return [(m, ("H", j)) for j, m in enumerate(g) if m]
    if s not in system.root_index:
        return []
    n = algebra.n_constant(g, d)
    return [(n, ("X", s))] if n else []


def jacobi_sum(algebra, g: Root, d: Root, m: Root) -> dict[tuple, int]:
    """The three cyclic double brackets of X_g, X_d, X_m, summed by symbol."""
    acc: dict[tuple, int] = {}
    for a, b, c in ((g, d, m), (d, m, g), (m, g, d)):
        for n1, s1 in bracket_by_roots(algebra, ("X", a), ("X", b)):
            for n2, s2 in bracket_by_roots(algebra, s1, ("X", c)):
                acc[s2] = acc.get(s2, 0) + n1 * n2
    return acc


def check_jacobi(algebra) -> int:
    """The Jacobi check over root tuples; returns the triples checked."""
    triples = jacobi_triples(algebra)
    for g, d, m in triples:
        if any(jacobi_sum(algebra, g, d, m).values()):
            raise AssertionError(f"Jacobi failure at {g}, {d}, {m}")
    return len(triples)


def check_sigma0(sigma) -> int:
    """sigma0 against every bracket of basis symbols; returns the symbol pairs checked."""
    algebra = sigma.algebra
    symbols = algebra.symbols
    for x in symbols:
        for y in symbols:
            left: dict[tuple, int] = {}
            for n, s in bracket_by_roots(algebra, x, y):
                cs, ss = sigma.image_symbol(s)
                left[ss] = left.get(ss, 0) + n * cs
            cx, sx = sigma.image_symbol(x)
            cy, sy = sigma.image_symbol(y)
            right: dict[tuple, int] = {}
            for n, s in bracket_by_roots(algebra, sx, sy):
                right[s] = right.get(s, 0) + n * cx * cy
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            if left != right:
                raise AssertionError("sigma0 extension breaks a bracket")
    return len(symbols) ** 2


# -- the sweep suites, one dict per row ---------------------------------------


def sweep_box(system, max_pairing: int) -> list[Coweight]:
    """Dominant coweights in the coroot lattice with <mu, 2rho> <= max_pairing, by a lattice solve each."""
    h = system.two_rho_coefficients
    out: list[Coweight] = []

    def rec(i: int, acc: list[int], total: int) -> None:
        if i == system.rank:
            p = tuple(acc)
            if system.lattice_coefficients(p) is not None:
                out.append(Coweight(system, p))
            return
        for v in range((max_pairing - total) // h[i] + 1):
            acc.append(v)
            rec(i + 1, acc, total + v * h[i])
            acc.pop()

    rec(0, [], 0)
    return out


def _cover_pairs(mus: list[Coweight]) -> list[tuple[IntVec, IntVec]]:
    return [
        (edge.mu.pairings, edge.lam.pairings) for mu in mus for edge in minimal_degenerations(mu)
    ]


def _random_pairs(label: str, mus: list[Coweight], seed: int, count: int):
    """Seeded dominant pairs lam <= mu, not necessarily covers, drawn from mus."""
    mus = [m for m in mus if any(m.pairings)]
    rng = random.Random(f"{seed}:{label}")
    out = []
    for _ in range(count if mus else 0):
        mu = rng.choice(mus)
        lam = rng.choice(dominant_below(mu))
        out.append((mu.pairings, lam.pairings))
    return out


def _check_k_symmetry(system, mu_p: IntVec, lam_p: IntVec) -> list[dict]:
    """k(alpha) = k(-alpha) + <lam, alpha>, with both counts walked independently."""
    lam = Coweight(system, lam_p)
    kv = k_vector(lam, Coweight(system, mu_p))
    bad = []
    for root in system.positive_roots:
        plus = kv[root]
        minus = kv[tuple(-c for c in root)]
        step = lam.pairing_with_root(root)
        if plus != minus + step:
            bad.append(
                {
                    "type": system.label,
                    "mu": list(mu_p),
                    "lambda": list(lam_p),
                    "root": list(root),
                    "k_plus": plus,
                    "k_minus": minus,
                    "pairing": step,
                }
            )
    return bad


def _k_symmetry_rows(task) -> tuple[list[dict], list[dict]]:
    """One type of the k-symmetry sweep: an instance row per distinct pair, and the failures."""
    label, max_pairing, seed = task
    system = build_root_system(label)
    mus = sweep_box(system, max_pairing)
    pairs = dict.fromkeys(_cover_pairs(mus) + _random_pairs(label, mus, seed, 25))
    instances = [{"type": label, "mu": list(mu_p), "lambda": list(lam_p)} for mu_p, lam_p in pairs]
    failures = [row for mu_p, lam_p in pairs for row in _check_k_symmetry(system, mu_p, lam_p)]
    return instances, failures


def _edge_rows(task) -> list[dict]:
    """One type of an edge sweep: the rows of every top in its box."""
    label, max_pairing, kind = task
    rows = []
    for mu in sweep_box(build_root_system(label), max_pairing):
        for edge in minimal_degenerations(mu):
            row = {"type": label, "mu": list(mu.pairings), "lambda": list(edge.lam.pairings)}
            if kind == "stembridge":
                row["case"] = edge.stembridge_case
            else:
                row["dim"] = two_rho_pairing(mu)
                row["root_bound"] = root_tangent_bound(edge.lam, mu)
            rows.append(row)
    return rows


def _canonical(rows: list[dict]) -> tuple[dict, ...]:
    return tuple(sorted(rows, key=lambda r: sorted(r.items(), key=str)))


def sweep_result(suite: str, labels, max_pairing: int, seed: int) -> dict:
    """The result of a stembridge, mindeg-inequality or k-symmetry sweep, as vars(SuiteResult) gives it."""
    details: dict = {}
    if suite == "k-symmetry":
        instances, bad = [], []
        for label in labels:
            rows, failures = _k_symmetry_rows((label, max_pairing, seed))
            instances += rows
            bad += failures
    else:
        instances = [row for label in labels for row in _edge_rows((label, max_pairing, suite))]
        seed = None
        if suite == "stembridge":
            histogram: dict[str, dict[int, int]] = {}
            for row in instances:
                per_type = histogram.setdefault(row["type"], {})
                per_type[row["case"]] = per_type.get(row["case"], 0) + 1
            details["histogram"] = {
                label: {str(case): count for case, count in sorted(cases.items())}
                for label, cases in sorted(histogram.items())
            }
            bad = []
        else:
            bad = [row for row in instances if row["root_bound"] < row["dim"]]
    return {
        "suite": suite,
        "passed": not bad,
        "seed": seed,
        "instances_checked": len(instances),
        "instances": list(_canonical(instances)),
        "counterexamples": list(_canonical(bad)),
        "details": details,
    }


def min_exponent(rows) -> int:
    """The least u-exponent of rows of {n: c} cells, as LaurentMatrix.rows stores them; 0 if none."""
    exps = [n for row in rows for cell in row for n in cell]
    return min(exps) if exps else 0


def laurent_at(rows, u: Fraction) -> list[list[Fraction]]:
    """A matrix of Laurent polynomials {n: c} with rational c, evaluated at u."""
    return [[sum(c * u**n for n, c in cell.items()) for cell in row] for row in rows]


def _times_2x2(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def sl2_factorization_by_values(k: int, x) -> bool:
    """The rank-one identity checked at 4k + 1 rational values of u, with no Laurent arithmetic.

    Times u^k, every entry of opposite . translation . plus_part - left and
    the determinant of plus_part - 1 is a polynomial of degree at most 4k
    (the factors' exponents lie in 0..k, -k..k and 0..k), so one that
    vanishes at 4k + 1 distinct values of u is zero.
    """
    if k < 1:
        raise ValueError("winding k must be at least 1")
    x = Fraction(x)
    if x == 0:
        raise ValueError("the zero curve value stays at the base point")

    left = [[{0: 1}, {-k: x}], [{}, {0: 1}]]
    opposite = [[{0: 1}, {}], [{k: 1 / x}, {0: 1}]]
    translation = [[{-k: 1}, {}], [{}, {k: 1}]]
    plus_part = [[{k: 1}, {0: x}], [{0: -1 / x}, {}]]
    if min_exponent(plus_part) < 0:
        return False
    for n in range(1, 4 * k + 2):
        u = Fraction(n)
        (a, b), (c, d) = plus = laurent_at(plus_part, u)
        if a * d - b * c != 1:
            return False
        product = _times_2x2(_times_2x2(laurent_at(opposite, u), laurent_at(translation, u)), plus)
        if product != laurent_at(left, u):
            return False
    return True


def sl2_values(seed: int) -> list[Fraction]:
    """The curve values the sl2-factorization suite checks at every winding for seed."""
    rng = random.Random(seed)
    xs = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    while len(xs) < 13:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x != 0:
            xs.append(x)
    return xs


def vector_rows(vec) -> list[dict]:
    """A LoopVector's terms as the dicts a loopcheck or verify document holds."""
    return [
        {
            "kind": kind,
            "index": list(payload) if kind == "X" else payload,
            "degree": degree,
            "coeff": str(coeff.a) if coeff.b == 0 else f"{coeff.a}+({coeff.b})z",
        }
        for (kind, payload), degree, coeff in vec.terms
    ]


def loopcheck_directions(datum) -> list[dict]:
    """The Cartan directions of a loopcheck document as dicts, one per root with a recipe."""
    return [
        {"root": list(a[0]), "level": a[1], "terms": vector_rows(cartan_direction(datum, a))}
        for a in cartan_recipe_roots(datum, 1)
    ]


def loopcheck_degree_row(datum, n: int) -> dict:
    """The degree row of a loopcheck document as a dict, from the root lines at u-degree n."""
    vectors = [
        {"root": list(root), "sigma_level": level, "case": rel.case, "terms": vector_rows(vec)}
        for root, level, rel, vec in root_line_vectors(datum, n)
    ]
    return {"degree": n, "lines": len(vectors), "vectors": vectors}


def _loop_basis_rows(window: int) -> tuple[list[dict], list[dict]]:
    rows, bad = [], []
    for label in LOOP_LABELS:
        for line in verify_invariant_basis(twisted_datum(label), window).lines:
            row = {
                "type": label,
                "degree": line.degree,
                "fixed_dim": line.fixed_dim,
                "lines": line.progression_count,
                "rank": line.vector_rank,
            }
            rows.append(row)
            if not line.ok:
                bad.append(row)
    return rows, bad


def _cartan_direction_rows(window: int) -> tuple[list[dict], list[dict]]:
    rows, bad = [], []
    for label in DIRECTION_LABELS:
        datum = twisted_datum(label)
        for root in datum.echelonnage.roots:
            for k in range(1, max(1, min(window, 6)) + 1):
                if sigma_affine_to_relative(datum, (root, -k)).case == "case2a":
                    continue
                row = {"type": label, "root": list(root), "level": -k}
                try:
                    row["vector"] = vector_rows(cartan_direction(datum, (root, -k)))
                    rows.append(row)
                except (ValueError, RuntimeError, AssertionError) as exc:
                    row["error"] = str(exc)
                    bad.append(row)
    return rows, bad


def _sl2_rows(window: int, seed: int) -> tuple[list[dict], list[dict]]:
    rows, bad = [], []
    for k in range(1, max(3, min(window, 5)) + 1):
        for x in sl2_values(seed):
            row = {"k": k, "x": str(x)}
            (rows if sl2_factorization_by_values(k, x) else bad).append(row)
    return rows, bad


def loop_suite_result(suite: str, window: int, seed: int) -> dict:
    """The result of a loop-basis, cartan-direction or sl2-factorization suite, as vars(SuiteResult) gives it."""
    if suite == "loop-basis":
        rows, bad = _loop_basis_rows(window)
        checked, seed = len(rows), None
    elif suite == "cartan-direction":
        rows, bad = _cartan_direction_rows(window)
        checked, seed = len(rows) + len(bad), None
    else:
        rows, bad = _sl2_rows(window, seed)
        checked = len(rows) + len(bad)
    return {
        "suite": suite,
        "passed": not bad,
        "seed": seed,
        "instances_checked": checked,
        "instances": list(_canonical(rows)),
        "counterexamples": list(_canonical(bad)),
        "details": {},
    }
