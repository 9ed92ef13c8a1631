"""Slow, definition-level oracles shared by the tests.

None of these has a caller in the package: each restates a fact the library
computes another way (the dominance order by a lattice solve, dominant
representatives by a Weyl-orbit scan, root-curve targets and case tags from
a pair's endpoints, the level correspondence by Fraction progressions, the
bracket by adding root tuples, and the Jacobi and sigma0 build checks over
that bracket), so the tests can check the fast paths against them.
"""

from __future__ import annotations

from fractions import Fraction

from affsch.rootsys import Coweight, CorootVector, IntVec, Root, dominant_rep
from affsch.schubert import DegenerationEdge, _classify, k_alpha
from affsch.twist import _vec_add

AffineRoot = tuple[Root, int]


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


def classify_degeneration(edge: DegenerationEdge) -> int:
    """Recompute the case tag 1..5 of a covering pair from its endpoints alone."""
    gap = difference_coroot(edge.lam, edge.mu)
    return _classify(edge.mu, edge.lam, gap.coefficients)


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
