"""Root-system core: frozen examples plus randomized structural checks.

Oracles used here are deliberately independent of the library internals:
closed-form root counts, Weyl-orbit scans for dominant representatives, and
brute-force enumeration of coroot combinations for the dominance order.
"""

import random
import signal
from contextlib import contextmanager
from itertools import permutations, product

import pytest

from affsch import rootsys
from affsch.rootsys import (
    CorootVector,
    Coweight,
    build_root_system,
    cartan_matrix,
    dominant_rep,
    pairing,
    recognize_components,
    short_dominant_coroot,
    two_rho_pairing,
    FiniteRootSystem,
)
from affsch.schubert import DominancePoset, _support_components
from oracles import difference_coroot, dominance_leq, reflect_coweight, weyl_orbit

# every label cartan_matrix accepts, 33 in all
RANGE_LABELS = [
    f"{letter}{rank}" for letter, (lo, hi) in rootsys._RANK_RANGE.items() for rank in range(lo, hi + 1)
]

ROOT_COUNTS = {
    **{f"A{n}": n * (n + 1) for n in range(1, 9)},
    **{f"B{n}": 2 * n * n for n in range(2, 9)},
    **{f"C{n}": 2 * n * n for n in range(2, 9)},
    **{f"D{n}": 2 * n * (n - 1) for n in range(3, 9)},
    "E6": 72,
    "E7": 126,
    "E8": 240,
    "F4": 48,
    "G2": 12,
}


def orbit_dominant_oracle(nu: Coweight) -> tuple:
    doms = [p for p in weyl_orbit(nu) if all(x >= 0 for x in p)]
    assert len(doms) == 1, "a Weyl orbit holds exactly one dominant point"
    return doms[0]


def dominance_oracle(lam: Coweight, mu: Coweight) -> bool:
    """Enumerates nonnegative integer coroot combinations; no linear algebra."""
    system = lam.system
    dp = tuple(m - l for l, m in zip(lam.pairings, mu.pairings))
    gap = two_rho_pairing(mu) - two_rho_pairing(lam)
    if gap < 0 or gap % 2:
        return False
    total = gap // 2
    for c in product(range(total + 1), repeat=system.rank):
        if sum(c) != total:
            continue
        if all(
            sum(system.cartan[i][j] * c[j] for j in range(system.rank)) == dp[i]
            for i in range(system.rank)
        ):
            return True
    return False


def test_root_counts_match_closed_forms():
    for label, count in ROOT_COUNTS.items():
        system = build_root_system(label)
        assert len(system.roots) == count, label
        assert len(system.positive_roots) == count // 2


def test_reflections_stay_inside_the_root_set():
    for label in ("A3", "B3", "C4", "D4", "F4", "G2", "E6"):
        system = build_root_system(label)
        roots = set(system.roots)
        for m in system.roots:
            for i in range(system.rank):
                assert rootsys._reflect_root(m, i, system.cartan) in roots


def test_norms_take_two_values_per_component():
    g2 = build_root_system("G2")
    assert sorted(set(g2.norms)) == [2, 6]
    assert g2.root_norm2((3, 2)) == 6
    assert g2.root_norm2((2, 1)) == 2
    b3 = build_root_system("B3")
    assert sorted(set(b3.norms)) == [2, 4]
    a4 = build_root_system("A4")
    assert set(a4.norms) == {2}


def test_highest_roots():
    assert build_root_system("G2").highest_root == (3, 2)
    assert build_root_system("A2").highest_root == (1, 1)
    assert build_root_system("C2").highest_root == (2, 1)
    assert build_root_system("D4").highest_root == (1, 2, 1, 1)


def test_pairing_is_bilinear_in_the_root():
    g2 = build_root_system("G2")
    nu = Coweight(g2, (0, 1))
    idx_long = g2.root_index[(3, 2)]
    idx_short = g2.root_index[(2, 1)]
    assert pairing(nu, idx_long) == 2
    assert pairing(nu, idx_short) == 1
    assert pairing(Coweight(g2, (0, 0)), idx_long) == 0
    a1 = build_root_system("A1")
    assert pairing(Coweight(a1, (2,)), a1.root_index[(1,)]) == 2


def test_two_rho_against_full_positive_sums():
    rng = random.Random(11)
    for label in ("A2", "C2", "G2", "B3", "D4"):
        system = build_root_system(label)
        for _ in range(25):
            nu = Coweight(system, tuple(rng.randint(-4, 4) for _ in range(system.rank)))
            brute = sum(nu.pairing_with_root(m) for m in system.positive_roots)
            assert two_rho_pairing(nu) == brute


def test_simple_coroots_pair_to_two_with_two_rho():
    for label in ROOT_COUNTS:
        system = build_root_system(label)
        for i in range(system.rank):
            col = tuple(system.cartan[j][i] for j in range(system.rank))
            assert two_rho_pairing(Coweight(system, col)) == 2, (label, i)


def test_dominant_rep_examples():
    a1 = build_root_system("A1")
    assert dominant_rep(Coweight(a1, (-2,))).pairings == (2,)
    assert dominant_rep(Coweight(a1, (3,))).pairings == (3,)
    g2 = build_root_system("G2")
    assert dominant_rep(Coweight(g2, (0, 0))).pairings == (0, 0)


def test_dominant_rep_bound_is_tight_on_the_antidominant_regular_vector():
    """-rho goes to rho by exactly |R+| reflections, the bound of both dominant_rep loops."""
    for label in RANGE_LABELS:
        system = build_root_system(label)
        minus_rho, rho = (-1,) * system.rank, (1,) * system.rank
        assert dominant_rep(Coweight(system, minus_rho)).pairings == rho, label
        layout = DominancePoset(system)._fit(rho)
        assert layout.dominant_rep(layout.code(minus_rho)) == layout.code(rho), label


def test_dominant_rep_matches_orbit_scan():
    rng = random.Random(23)
    for label in ("A2", "C2", "G2", "A3", "B3"):
        system = build_root_system(label)
        for _ in range(40):
            nu = Coweight(system, tuple(rng.randint(-4, 4) for _ in range(system.rank)))
            assert dominant_rep(nu).pairings == orbit_dominant_oracle(nu)


def test_dominant_rep_is_weyl_invariant():
    rng = random.Random(37)
    for label in ("A3", "C3", "G2", "D4"):
        system = build_root_system(label)
        for _ in range(200):
            nu = Coweight(system, tuple(rng.randint(-5, 5) for _ in range(system.rank)))
            moved = nu
            for _ in range(rng.randint(0, 12)):
                moved = reflect_coweight(moved, rng.randrange(system.rank))
            assert dominant_rep(moved).pairings == dominant_rep(nu).pairings


def test_dominance_frozen_examples():
    a2 = build_root_system("A2")
    zero = Coweight(a2, (0, 0))
    theta = Coweight(a2, (1, 1))
    assert dominance_leq(zero, theta)
    assert difference_coroot(zero, theta).coefficients == (1, 1)
    assert not dominance_leq(theta, zero)

    g2 = build_root_system("G2")
    assert dominance_leq(Coweight(g2, (0, 1)), Coweight(g2, (1, 0)))
    assert difference_coroot(Coweight(g2, (0, 1)), Coweight(g2, (1, 0))).coefficients == (1, 1)
    assert not dominance_leq(Coweight(g2, (1, 0)), Coweight(g2, (0, 1)))

    c2 = build_root_system("C2")
    # (1,1) - (0,0) is not in the coroot lattice of C2
    assert not dominance_leq(Coweight(c2, (0, 0)), Coweight(c2, (1, 1)))
    assert difference_coroot(Coweight(c2, (0, 0)), Coweight(c2, (1, 1))) is None
    assert dominance_leq(Coweight(c2, (0, 1)), Coweight(c2, (1, 1)))


def test_dominance_against_brute_force():
    rng = random.Random(51)
    for label in ("A2", "C2", "G2", "B3"):
        system = build_root_system(label)
        for _ in range(150):
            lam = Coweight(system, tuple(rng.randint(0, 3) for _ in range(system.rank)))
            mu = Coweight(system, tuple(rng.randint(0, 3) for _ in range(system.rank)))
            assert dominance_leq(lam, mu) == dominance_oracle(lam, mu)


def test_dominance_is_a_partial_order_on_samples():
    rng = random.Random(77)
    system = build_root_system("C3")
    sample = [
        Coweight(system, tuple(rng.randint(0, 3) for _ in range(3))) for _ in range(25)
    ]
    for x in sample:
        assert dominance_leq(x, x)
    for x in sample:
        for y in sample:
            if dominance_leq(x, y) and dominance_leq(y, x):
                assert x.pairings == y.pairings
            if dominance_leq(x, y) and x.pairings != y.pairings:
                assert two_rho_pairing(x) < two_rho_pairing(y)
    for x in sample:
        for y in sample:
            for z in sample:
                if dominance_leq(x, y) and dominance_leq(y, z):
                    assert dominance_leq(x, z)


def test_adjugate_identity():
    for label in ("A4", "B3", "C4", "D4", "F4", "G2", "E6"):
        system = build_root_system(label)
        n = system.rank
        for i in range(n):
            for j in range(n):
                acc = sum(system.adjugate[i][k] * system.cartan[k][j] for k in range(n))
                assert acc == (system.det if i == j else 0)


def test_coroot_coefficient_examples():
    g2 = build_root_system("G2")
    # long highest root 3a+2b has coroot a^vee + 2b^vee
    assert g2.coroot_coefficients((3, 2)) == (1, 2)
    assert g2.coroot_pairings((3, 2)) == (0, 1)
    # short roots have coroot coefficients equal to... the scaled expansion
    assert g2.coroot_coefficients((2, 1)) == (2, 3)
    c2 = build_root_system("C2")
    assert c2.coroot_coefficients((2, 1)) == (1, 1)
    assert c2.coroot_pairings((2, 1)) == (1, 0)
    for label in ("A3", "B3", "D4"):
        system = build_root_system(label)
        for i in range(system.rank):
            simple = tuple(1 if j == i else 0 for j in range(system.rank))
            assert system.coroot_pairings(simple) == system.columns[i]


def test_short_dominant_coroot_examples():
    a2 = short_dominant_coroot(build_root_system("A2"))
    assert a2.coefficients == (1, 1)
    a1 = short_dominant_coroot(build_root_system("A1"))
    assert a1.coefficients == (1,)
    g2 = short_dominant_coroot(build_root_system("G2"))
    assert g2.coefficients == (1, 2)
    assert g2.pairings == (0, 1)
    c2 = short_dominant_coroot(build_root_system("C2"))
    assert c2.coefficients == (1, 1)
    assert c2.pairings == (1, 0)


def test_short_dominant_coroot_by_scan():
    for label in ("A3", "B3", "C3", "D4", "F4", "G2"):
        system = build_root_system(label)
        # coroot squared length is 4 / root squared length, so order by -norm2
        dominant = [
            (system.root_norm2(m), system.coroot_coefficients(m))
            for m in system.positive_roots
            if all(x >= 0 for x in system.coroot_pairings(m))
        ]
        top = max(n2 for n2, _ in dominant)
        shortest = [cc for n2, cc in dominant if n2 == top]
        assert len(shortest) == 1, label
        assert short_dominant_coroot(system).coefficients == shortest[0], label


def test_sub_system_recognition():
    # the subsystem spanned by a cover's support, named in ambient indices
    c3 = build_root_system("C3")
    assert _support_components(c3, (0, 1)) == (("A2", (0, 1)),)

    b3 = build_root_system("B3")
    # canonical C2 order puts the short root first: ambient index 2 is short in B3
    assert _support_components(b3, (1, 2)) == (("C2", (2, 1)),)

    g2 = build_root_system("G2")
    assert _support_components(g2, (0, 1)) == (("G2", (0, 1)),)

    a4 = build_root_system("A4")
    assert _support_components(a4, (0, 2, 3)) == (("A1", (0,)), ("A2", (2, 3)))


def test_recognition_canonicalizes_rank_two_and_d3():
    b2_cartan = ((2, -2), (-1, 2))
    assert recognize_components(b2_cartan)[0][0] == "C2"
    d3 = cartan_matrix("D", 3)
    assert recognize_components(d3)[0][0] == "A3"
    # every label, and a copy with its nodes rotated, is recognised as itself
    assert len(RANGE_LABELS) == 33
    for label in RANGE_LABELS:
        expected = {"B2": "C2", "D3": "A3"}.get(label, label)
        cartan = build_root_system(label).cartan
        perm = [*range(1, len(cartan)), 0]  # node k moves to node k - 1
        rotated = tuple(tuple(cartan[i][j] for j in perm) for i in perm)
        for matrix in cartan, rotated:
            comps = recognize_components(matrix)
            assert [name for name, _ in comps] == [expected], (label, matrix)


def test_malformed_labels_and_matrices():
    with pytest.raises(ValueError):
        build_root_system("H3")
    with pytest.raises(ValueError):
        build_root_system("B1")
    with pytest.raises(ValueError):
        build_root_system("A9")
    with pytest.raises(ValueError):
        build_root_system("D2")
    with pytest.raises(ValueError):  # not even with a trailing newline
        build_root_system("A2\n")
    with pytest.raises(ValueError):
        FiniteRootSystem(((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        FiniteRootSystem(((2, -1), (0, 2)))


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the test instead of hanging past the limit."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _blocks(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return tuple(tuple(row) for row in out)


@pytest.mark.parametrize(
    "cartan",
    [
        ((2, -2), (-2, 2)),  # affine A1
        ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2
        _blocks(((2, -3), (-3, 2)), ((2, -3), (-3, 2))),  # hyperbolic, det 25
        _blocks(((2, -1), (-1, 2)), ((2, -2), (-2, 2))),  # A2 + affine A1
    ],
    ids=["affine-A1", "affine-A2", "two-hyperbolic-blocks", "A2-plus-affine-A1"],
)
def test_non_finite_cartan_matrix_is_rejected_before_the_closure(cartan):
    with time_limit(2.0), pytest.raises(ValueError, match="positive definite"):
        FiniteRootSystem(cartan)


def _det(m) -> int:
    """Leibniz expansion: an oracle that shares no code with the elimination."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_positive_definite_check_matches_leading_minors():
    # symmetric Cartan-shaped matrices: every 3x3 one with off-diagonal
    # entries in {0,-1,-2,-3}, and every 4x4 one with entries in {0,-1};
    # several have a zero leading minor followed by a nonzero entry below it
    shapes = [(3, (0, -1, -2, -3)), (4, (0, -1))]
    accepted = rejected = 0
    with time_limit(10.0):
        for n, values in shapes:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for entries in product(values, repeat=len(pairs)):
                m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
                for (i, j), v in zip(pairs, entries):
                    m[i][j] = m[j][i] = v
                definite = all(_det([row[:k] for row in m[:k]]) > 0 for k in range(1, n + 1))
                if definite:
                    assert FiniteRootSystem(m).det == _det(m)
                    accepted += 1
                else:
                    with pytest.raises(ValueError):
                        FiniteRootSystem(m)
                    rejected += 1
    assert accepted and rejected


def test_adjugate_times_cartan_is_det_identity():
    for label in sorted(ROOT_COUNTS):  # every label cartan_matrix supports
        system = build_root_system(label)
        a, adj, n = system.cartan, system.adjugate, system.rank
        assert system.det > 0, label
        for i in range(n):
            for j in range(n):
                entry = sum(adj[i][k] * a[k][j] for k in range(n))
                assert entry == (system.det if i == j else 0), label


def test_coweight_validation():
    a2 = build_root_system("A2")
    with pytest.raises(ValueError):
        Coweight(a2, (1,))
    # a bool hashes as an int and a list cannot be hashed: both are refused up front
    for pairings in ((True, True), (1, False), [1, 1], (1.0, 1)):
        with pytest.raises(ValueError, match="a tuple of integers"):
            Coweight(a2, pairings)
    with pytest.raises(ValueError):
        dominance_leq(Coweight(a2, (0, 0)), Coweight(build_root_system("A1"), (0,)))


def test_coroot_vector_validation():
    # unchecked, (1,) would zip away to the pairings (2, -1), and (True, 1.5)
    # would give the float pairings (0.5, 2.0) in an exact engine
    a2 = build_root_system("A2")
    for coefficients in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="must have 2 entries"):
            CorootVector(a2, coefficients)
    for coefficients in ((True, 1.5), (1, False), [1, 1], (1.0, 1)):
        with pytest.raises(ValueError, match="a tuple of integers"):
            CorootVector(a2, coefficients)
    assert CorootVector(a2, (1, 0)).pairings == (2, -1)
    assert CorootVector(a2, (1, 1)).pairings == (1, 1)
