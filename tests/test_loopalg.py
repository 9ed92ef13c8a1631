"""Loop-algebra tests: exact scalars, structure constants, invariant vectors.

Matrix realizations of the small A types act as the independent oracle: the
abstract brackets, exponential conjugations, and Cartan projections must
reproduce honest 2x2 and 3x3 Laurent-matrix arithmetic entry for entry.
"""

import copy
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest
from benchdata import clear_request_memos
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bracket_by_roots,
    cartan_direction_by_series,
    check_jacobi,
    check_sigma0,
    gauss_jordan,
    jacobi_sum,
    jacobi_triples,
    root_sum_table,
    sl2_factorization_by_values,
    sl2_values,
    structure_constant_table,
)

from affsch import loopalg
from affsch.loopalg import (
    ChevalleyAlgebra,
    CycScalar,
    LaurentMatrix,
    LoopVector,
    Sigma0Map,
    ad_exp,
    build_chevalley,
    cartan_component,
    cartan_direction,
    loop_context,
    make_e_a,
    matrix_realization,
    realize,
    root_line_vectors,
    root_lines_at_degree,
    sigma0_automorphism,
    sigma_action,
    verify_invariant_basis,
    verify_sl2_factorization,
)
from affsch.rootsys import build_root_system
from affsch.twist import (
    _CASES,
    RelativeAffineRoot,
    _eigenspace_dim,
    affine_roots_negative_at_vertex,
    build_twisted,
    cartan_sigma_dim,
    sigma_affine_to_relative,
    twisted_datum,
)
from affsch.verify import DIRECTION_LABELS, run_suite

LOOP_TYPES = ("A1", "2A2", "2A3", "2A4", "2A5", "2D4", "2D5", "3D4", "2E6")


def cyc(e, a, b=0):
    return CycScalar.of(e, a, b)


def lmat(e, size, triples):
    m = LaurentMatrix(e, size)
    for i, j, n, v in triples:
        m.add_term(i, j, n, v)
    return m


def _rank(rows):
    """Exact rank over Q(zeta) by elimination: the oracle for the support count."""
    if not rows:
        return 0
    return len(gauss_jordan([row[:] for row in rows], len(rows[0])))


def dense_fixed_dim(ctx, n, kind="X"):
    """Fixed dimension of zeta^n sigma0 on the span of one kind of basis symbol.

    The oracle for the cycle rule: the exact rank of the dense matrix
    zeta^n sigma0 - id over Q(zeta), one row and column per symbol.
    """
    e = ctx.datum.e
    symbols = [sym for sym in ctx.algebra.symbols if sym[0] == kind]
    index = {sym: i for i, sym in enumerate(symbols)}
    zero, one, zn = cyc(e, 0), cyc(e, 1), CycScalar.zeta_power(e, n)
    mat = [[zero] * len(symbols) for _ in symbols]
    for sym in symbols:
        sign, img = ctx.sigma0.image_symbol(sym)
        mat[index[img]][index[sym]] = mat[index[img]][index[sym]] + zn.scale(sign)
        mat[index[sym]][index[sym]] = mat[index[sym]][index[sym]] - one
    return len(symbols) - _rank(mat)


def window_inventory(label, window=8):
    """(datum, rel) of every root line at u-degrees -window..window."""
    datum = twisted_datum(label)
    return [
        (datum, sigma_affine_to_relative(datum, (root, k)))
        for n in range(-window, window + 1)
        for root, k in root_lines_at_degree(datum, n)
    ]


def walk_vector(datum, rel):
    """e_a by its definition, through whatever sigma0.image_symbol is in place."""
    ctx = loop_context(datum)
    n = rel.degree
    sym, sign, items = ("X", rel.orbit[-1]), 1, []
    for i in range(1, len(rel.orbit) + 1):
        c, sym = ctx.sigma0.image_symbol(sym)
        sign *= c
        items.append((sym, n, CycScalar.zeta_power(datum.e, i * n).scale(sign)))
    return LoopVector.make(ctx.algebra, datum.e, items)


def direction_inventory():
    """(datum, a) of every Cartan direction the loop requests ask for, rejections left out.

    The cartan-direction suite goes to depth 6 over DIRECTION_LABELS; loopcheck
    asks for level -1 on every loop type.
    """
    out = []
    for label in LOOP_TYPES:
        datum = twisted_datum(label)
        depth = 6 if label in DIRECTION_LABELS else 1
        for a in affine_roots_negative_at_vertex(datum, depth):
            if sigma_affine_to_relative(datum, a).case != "case2a":
                out.append((datum, a))
    return out


@pytest.fixture
def fresh_directions():
    """Tests that patch loop internals must not read or leave memoised loop vectors.

    That is the Cartan directions (loopalg._cartan_direction, the memo behind
    cartan_direction), the root-line inventory, and the rows and blocks
    rendered from them: every request-path memo is emptied.
    """
    clear_request_memos()
    yield
    clear_request_memos()


# -- scalars -------------------------------------------------------------------


def test_cyc_scalar_field_axioms():
    zeta = CycScalar.zeta_power(3, 1)
    assert zeta * zeta == cyc(3, -1, -1)
    assert zeta * zeta * zeta == cyc(3, 1)
    assert cyc(3, 1) + zeta + zeta * zeta == cyc(3, 0)
    samples = [cyc(3, 2, -3), cyc(3, Fraction(1, 2), Fraction(5, 7)), zeta]
    for x in samples:
        assert x * x.inverse() == cyc(3, 1)
        assert (x + (-x)).is_zero()
    a, b = cyc(3, 2, 1), cyc(3, -1, 4)
    assert (a / b) * b == a
    assert a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2)) == a


def test_cyc_scalar_truth_value_and_reciprocal():
    zeta = CycScalar.zeta_power(3, 1)
    assert not cyc(3, 0) and not cyc(2, 0) and zeta and cyc(3, 0, -1)
    for x in (zeta, cyc(3, 2, -3), cyc(2, Fraction(3, 4)), cyc(1, -5)):
        assert 1 / x == x.inverse()
        assert (1 / x) * x == cyc(x.e, 1)
        assert Fraction(2, 3) / x == x.inverse().scale(Fraction(2, 3))
    with pytest.raises(ZeroDivisionError):
        1 / cyc(3, 0)


def test_rank_is_exact_over_cyclotomic_scalars():
    z = CycScalar.zeta_power(3, 1)
    one, zero = cyc(3, 1), cyc(3, 0)
    cases = [
        ([], 0),
        ([[zero, zero], [zero, zero]], 0),
        # a zero leading entry forces a row swap
        ([[zero, one, z], [one, z, zero], [one, z + one, z]], 2),
        ([[zero, one], [one, zero]], 2),
        # rank one over Q(zeta) only: the second row is zeta times the first
        ([[one, z], [z, z * z]], 1),
        # 1 + zeta + zeta^2 = 0 makes the third row the negated sum of the others
        ([[one, zero, z], [zero, z, one], [-one, -z, -z - one]], 2),
        # the leading minor 1 - zeta^3 vanishes; 1 - zeta^2 does not
        ([[one, z, zero], [z * z, one, z], [zero, zero, one]], 2),
        ([[one, z, zero], [z, one, z], [zero, zero, one]], 3),
    ]
    for rows, expected in cases:
        before = [row[:] for row in rows]
        assert _rank(rows) == expected, rows
        assert rows == before  # the input is left as it was


def test_cyc_scalar_low_orders_fold():
    assert cyc(2, 0, 1) == cyc(2, -1)
    assert cyc(1, 0, 1) == cyc(1, 1)
    assert CycScalar.zeta_power(2, 5) == cyc(2, -1)
    assert CycScalar.zeta_power(2, -2) == cyc(2, 1)
    assert CycScalar.zeta_power(1, 7) == cyc(1, 1)
    with pytest.raises(ValueError):
        cyc(2, 1) + cyc(3, 1)
    with pytest.raises(ZeroDivisionError):
        cyc(3, 0).inverse()
    with pytest.raises(ValueError):
        cyc(4, 1)


# -- Chevalley construction ----------------------------------------------------


def test_build_chevalley_checks_jacobi_on_build():
    # Jacobi runs inside the constructor, on every triple of roots whose
    # double brackets can be nonzero, for every type
    for label in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        algebra = build_chevalley(label)
        assert build_chevalley(label) is algebra
    for label in ("B2", "C3", "G2", "B3"):
        with pytest.raises(ValueError):
            build_chevalley(label)


class FlippedPairAlgebra(ChevalleyAlgebra):
    """Structure constants with the given pairs negated in the table, before the checks."""

    def __init__(self, label, *pairs):
        self.flipped = pairs
        super().__init__(build_chevalley(label).system, label[0])

    def _structure_constants(self):
        table = super()._structure_constants()
        for g, d in self.flipped:
            i, j = self.index[("X", g)], self.index[("X", d)]
            table[i][j] = -table[i][j]
        return table


@pytest.mark.parametrize(
    "label,g,d",
    [
        ("E6", (0, 1, 0, 0, 0, 0), (1, 1, 2, 3, 2, 1)),
        ("D5", (0, 1, 1, 0, 0), (1, 1, 1, 1, 1)),
    ],
)
def test_jacobi_check_catches_one_flipped_pair(label, g, d):
    # a 500-triple sample of D5 or E6 misses both pairs; the exhaustive check must not
    # N stays antisymmetric: the pair is negated in both orders
    assert build_chevalley(label).n_constant(g, d) != 0
    with pytest.raises(AssertionError, match="Jacobi failure"):
        FlippedPairAlgebra(label, (g, d), (d, g))


def test_antisymmetry_check_catches_one_flipped_constant():
    with pytest.raises(AssertionError, match="antisymmetry failure"):
        FlippedPairAlgebra("A3", ((1, 0, 0), (0, 1, 0)))


FLIPPED_PAIRS = [
    ("E6", (0, 1, 0, 0, 0, 0), (1, 1, 2, 3, 2, 1)),
    ("D5", (0, 1, 1, 0, 0), (1, 1, 1, 1, 1)),
]


class UncheckedFlippedPair(FlippedPairAlgebra):
    """A flipped table that skips the build-time checks, for the checks to be run by hand."""

    def _verify(self):
        return 0


# the Jacobi check visits exactly these triples; the Guarantees section of the
# README quotes the E6 and D5 counts
JACOBI_TRIPLES = {
    "A1": 0, "A2": 14, "A3": 92, "A4": 320, "A5": 820, "D4": 584, "D5": 2040, "E6": 9240,
}


def visited_triples(algebra) -> list[tuple]:
    """Root triples, in root order, that the Jacobi check visits."""
    roots = algebra.roots
    return [(roots[i], roots[j], roots[k]) for i, j, k in sorted(algebra._triples())]


@pytest.mark.parametrize("label", sorted(JACOBI_TRIPLES))
def test_indexed_jacobi_check_matches_the_root_tuple_oracle(label):
    algebra = build_chevalley(label)
    triples = visited_triples(algebra)
    # the same triples in the same order, every sum zero in both checks
    assert triples == jacobi_triples(algebra)
    assert algebra._verify() == check_jacobi(algebra) == len(triples) == JACOBI_TRIPLES[label]


@pytest.mark.parametrize("label,g,d", FLIPPED_PAIRS)
def test_indexed_jacobi_sums_match_the_oracle_on_flipped_constants(label, g, d):
    algebra = UncheckedFlippedPair(label, (g, d), (d, g))
    symbols = algebra.symbols
    failing = h_valued = 0
    for triple in algebra._triples():
        indexed = {symbols[s]: v for s, v in algebra._jacobi_sum(*triple).items() if v}
        expected = jacobi_sum(algebra, *(algebra.roots[i] for i in triple))
        assert indexed == {s: v for s, v in expected.items() if v}, triple
        failing += bool(indexed)
        h_valued += any(sym[0] == "H" for sym in indexed)
    # g, d, -(g + d) fails on the H symbols alone: every cyclic term has a + b + c = 0
    assert failing and h_valued
    # both checks reject the table
    with pytest.raises(AssertionError, match="Jacobi failure"):
        check_jacobi(algebra)
    with pytest.raises(AssertionError, match="Jacobi failure"):
        FlippedPairAlgebra(label, (g, d), (d, g))


def _rejects(check, message: str) -> bool:
    """Whether check() raises an AssertionError; its message must start with message."""
    try:
        check()
    except AssertionError as exc:
        assert str(exc).startswith(message), exc
        return True
    return False


@pytest.mark.parametrize("label", ["A4", "D4"])
def test_jacobi_check_rejects_a_flipped_pair_exactly_when_the_oracle_does(label):
    algebra = build_chevalley(label)
    roots, rejected = algebra.roots, 0
    for i, j in combinations(range(algebra.zero), 2):
        if algebra.add[i][j] not in (None, algebra.zero):
            # every root-sum pair, negated in both orders so that N stays antisymmetric
            pairs = (roots[i], roots[j]), (roots[j], roots[i])
            built = _rejects(lambda: FlippedPairAlgebra(label, *pairs), "Jacobi failure at ")
            unchecked = UncheckedFlippedPair(label, *pairs)
            assert built == _rejects(lambda: check_jacobi(unchecked), "Jacobi failure at "), pairs
            rejected += built
    assert rejected


# E7 and E8 pinned: the root-tuple oracle would take seconds on them
ALL_JACOBI_TRIPLES = {**JACOBI_TRIPLES, "E7": 38724, "E8": 212240}


@pytest.mark.parametrize("label", sorted(ALL_JACOBI_TRIPLES))
def test_jacobi_check_visits_each_triple_once_in_index_order(label):
    algebra = build_chevalley(label)
    triples = list(algebra._triples())
    assert all(i < j < k for i, j, k in triples)
    assert len(set(triples)) == len(triples) == ALL_JACOBI_TRIPLES[label]
    assert algebra._verify() == ALL_JACOBI_TRIPLES[label]


# |R| (2h - 4): each root g has 2h - 4 roots d with g + d a root
TABLE_SIZES = {"A1": 0, "A2": 12, "A3": 48, "A4": 120, "A5": 240, "D4": 192, "D5": 480, "E6": 1440}


@pytest.mark.parametrize("label", sorted(TABLE_SIZES))
def test_structure_constants_are_signs_exactly_on_root_sums(label):
    algebra = build_chevalley(label)
    roots = algebra.system.roots
    nonzero = 0
    for g in roots:
        for d in roots:
            n = algebra.n_constant(g, d)
            s = tuple(a + b for a, b in zip(g, d))
            assert n in ((1, -1) if s in roots else (0,)), (g, d)
            assert algebra.n_constant(d, g) == -n
            nonzero += n != 0
        # arguments that are not roots lie off the table
        assert algebra.n_constant(tuple(2 * a for a in g), tuple(-a for a in g)) == 0
    assert nonzero == TABLE_SIZES[label]


@pytest.mark.parametrize("label", ["A4", "D4"])
def test_jacobi_triples_skip_only_vanishing_double_brackets(label):
    algebra = build_chevalley(label)
    checked = visited_triples(algebra)
    all_triples = list(combinations(algebra.system.roots, 3))
    skipped = set(all_triples).difference(checked)
    # every sorted triple is checked once, in root order, or skipped
    assert checked == [t for t in all_triples if t not in skipped]
    assert skipped
    for triple in skipped:
        for a, b, c in permutations(triple):
            for n1, s1 in algebra.bracket_symbols(("X", a), ("X", b)):
                for n2, _ in algebra.bracket_symbols(s1, ("X", c)):
                    assert n1 * n2 == 0, (a, b, c)


def test_structure_constants_a2():
    algebra = build_chevalley("A2")
    assert algebra.n_constant((1, 0), (0, 1)) == -1
    assert algebra.n_constant((0, 1), (1, 0)) == 1
    assert algebra.n_constant((1, 0), (1, 1)) == 0
    assert algebra.bracket_symbols(("X", (1, 0)), ("X", (-1, 0))) == [(1, ("H", 0))]
    assert algebra.bracket_symbols(("H", 0), ("X", (1, 0))) == [(2, ("X", (1, 0)))]
    assert algebra.bracket_symbols(("H", 0), ("X", (0, 1))) == [(-1, ("X", (0, 1)))]


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7"])
def test_tables_match_the_tuple_sums_and_the_closed_form_entry_for_entry(label):
    algebra = build_chevalley(label)
    assert algebra.add == root_sum_table(algebra.roots)
    assert algebra.n == structure_constant_table(algebra)


class UncheckedRootSums(ChevalleyAlgebra):
    """The root-sum table alone, over a stand-in for a root system: no constants, no checks."""

    def _structure_constants(self):
        return []

    def _verify(self):
        return 0


@pytest.mark.parametrize("scale", [1, 3, 2**64 + 1])
@pytest.mark.parametrize("bound", [1, 6, 7])
def test_root_codes_keep_add_exact_whatever_the_coefficients(bound, scale):
    # every nonzero vector of a grid, closed under negation like a root system: a
    # digit too narrow for the sums would code some sum off the grid as a vector on it
    a2 = build_root_system("A2")
    grid = [tuple(scale * c for c in v) for v in product(range(-bound, bound + 1), repeat=2)]
    grid.remove((0, 0))
    stand_in = SimpleNamespace(
        half_norms=(1, 1), roots=grid, rank=2, cartan=a2.cartan,
        pairing_with_coroot=a2.pairing_with_coroot,
    )
    assert UncheckedRootSums(stand_in, "A").add == root_sum_table(grid)


@pytest.mark.parametrize("label", sorted(JACOBI_TRIPLES))
def test_indexed_bracket_matches_the_root_tuple_bracket(label):
    algebra = build_chevalley(label)
    for x in algebra.symbols:
        for y in algebra.symbols:
            assert algebra.bracket_symbols(x, y) == bracket_by_roots(algebra, x, y), (x, y)


@pytest.mark.parametrize("stranger", [("X", (5, 5)), ("H", 7)])
def test_bracket_symbols_refuses_symbols_outside_the_basis(stranger):
    algebra = build_chevalley("A2")
    for x, y in ((stranger, ("H", 0)), (("H", 0), stranger), (stranger, ("X", (1, 0)))):
        with pytest.raises(ValueError, match=re.escape(f"{stranger!r} is not a basis symbol")):
            algebra.bracket_symbols(x, y)


@pytest.mark.parametrize("label,size", [("A1", 2), ("A2", 3)])
def test_matrix_realization_is_a_homomorphism(label, size):
    algebra = build_chevalley(label)
    table = matrix_realization(label, 1)
    for x in algebra.symbols:
        for y in algebra.symbols:
            lhs = table[x] @ table[y] + (table[y] @ table[x]).scale(-1)
            rhs = LaurentMatrix(1, size)
            for n, sym in algebra.bracket_symbols(x, y):
                rhs = rhs + table[sym].scale(n)
            assert lhs == rhs, (x, y)


# (i, j, u-exponent) -> (a, b) of a + b zeta: the terms of a matrix of size at most 3
_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    max_size=8,
)


def _kept(terms, size, strict):
    """The terms inside a size x size matrix, and above its diagonal if strict."""
    return {
        (i, j, n): v
        for (i, j, n), v in terms.items()
        if i < size and j < size and (i < j or not strict)
    }


def _values(e, size, terms, u):
    """The terms' matrix at u, summed term by term: zeta is a constant of Q(zeta)."""
    out = [[cyc(e, 0) for _ in range(size)] for _ in range(size)]
    for (i, j, n), (a, b) in terms.items():
        out[i][j] = out[i][j] + cyc(e, a, b) * cyc(e, u**n)
    return out


def _value_at(e, poly, u):
    total = cyc(e, 0)
    for n, c in poly.items():
        total = total + c * cyc(e, u**n)
    return total


def _product(e, a, b):
    size = len(a)
    out = [[cyc(e, 0) for _ in range(size)] for _ in range(size)]
    for i, j, k in product(range(size), repeat=3):
        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 3), _TERMS, _TERMS, st.integers(-5, 5))
def test_laurent_matrix_arithmetic_matches_its_values(e, size, p, q, r):
    """@, +, scale, trace and exp_nilpotent against the matrices of values at 13 points of u.

    Every entry of every result has its u-exponents in -6..6, so agreeing at
    13 distinct values of u is agreeing as Laurent polynomials.
    """
    p, q, strict = _kept(p, size, False), _kept(q, size, False), _kept(p, size, True)
    a, b, nilpotent = (
        LaurentMatrix(e, size, {key: cyc(e, *ab) for key, ab in terms.items()})
        for terms in (p, q, strict)
    )
    factor = cyc(e, r, 1)
    results = {
        "product": a @ b,
        "sum": a + b,
        "scaled": a.scale(factor),
        "exp": nilpotent.exp_nilpotent(),
    }
    trace = a.trace()
    for u in map(Fraction, range(1, 14)):
        av, bv, nv = (_values(e, size, terms, u) for terms in (p, q, strict))
        identity = [[cyc(e, int(i == j)) for j in range(size)] for i in range(size)]
        exp, power = identity, identity
        for m in range(1, size):
            power = _product(e, power, nv)
            step = cyc(e, Fraction(1, math.factorial(m)))
            exp = [[x + y * step for x, y in zip(*rows)] for rows in zip(exp, power)]
        expected = {
            "product": _product(e, av, bv),
            "sum": [[x + y for x, y in zip(*rows)] for rows in zip(av, bv)],
            "scaled": [[x * factor for x in row] for row in av],
            "exp": exp,
        }
        for name, matrix in results.items():
            got = [[_value_at(e, matrix.entry(i, j), u) for j in range(size)] for i in range(size)]
            assert got == expected[name], (name, u)
        diagonal = cyc(e, 0)
        for i in range(size):
            diagonal = diagonal + av[i][i]
        assert _value_at(e, trace, u) == diagonal, u


# -- the pinned automorphism ----------------------------------------------------


def test_sigma0_triality_has_order_three_and_no_signs():
    algebra = build_chevalley("D4")
    sigma = sigma0_automorphism(algebra, (2, 1, 3, 0))
    assert sigma.order == 3
    for root in algebra.system.roots:
        sign, _ = sigma.image(root)
        assert sign == 1


def test_sigma0_a2_flip_twists_the_fixed_root():
    algebra = build_chevalley("A2")
    sigma = sigma0_automorphism(algebra, (1, 0))
    assert sigma.order == 2
    assert sigma.image((1, 0)) == (1, (0, 1))
    assert sigma.image((1, 1)) == (-1, (1, 1))
    assert sigma.image((-1, -1)) == (-1, (-1, -1))


def test_sigma0_flip_signs_odd_versus_even_rank():
    # odd rank: the symmetric orientation keeps every sign positive
    algebra3 = build_chevalley("A3")
    flip3 = sigma0_automorphism(algebra3, (2, 1, 0))
    assert flip3.image((1, 1, 1)) == (1, (1, 1, 1))
    assert flip3.image((1, 1, 0)) == (1, (0, 1, 1))
    # even rank: flip-fixed roots are forced to twist
    algebra4 = build_chevalley("A4")
    flip4 = sigma0_automorphism(algebra4, (3, 2, 1, 0))
    assert flip4.image((0, 1, 1, 0)) == (-1, (0, 1, 1, 0))
    assert flip4.image((1, 1, 1, 1)) == (-1, (1, 1, 1, 1))
    assert flip4.image((1, 1, 0, 0)) == (1, (0, 0, 1, 1))
    assert flip4.image((1, 1, 1, 0)) == (-1, (0, 1, 1, 1))
    assert flip4.order == 2


@pytest.mark.parametrize("stranger", [("X", (5, 5, 5)), ("H", 3)])
def test_sigma0_image_refuses_symbols_outside_the_basis(stranger):
    sigma = sigma0_automorphism(build_chevalley("A3"), (2, 1, 0))
    with pytest.raises(ValueError, match=re.escape(f"{stranger!r} is not a basis symbol")):
        sigma.image_symbol(stranger)
    if stranger[0] == "X":
        with pytest.raises(ValueError, match=re.escape(f"{stranger!r} is not a basis symbol")):
            sigma.image(stranger[1])


NON_AUTOMORPHISMS = {
    "not-a-diagram-automorphism": (1, 0, 2),
    "too-short": (1, 0),
    "too-long": (0, 1, 2, 3),
    "repeated-entry": (2, 1, 0, 0),
}


def _sigma0_on_a3(perm):
    return sigma0_automorphism(build_chevalley("A3"), perm)


def _twisted_a3(perm):
    return build_twisted("A3", 2, perm)


@pytest.mark.parametrize(
    "build,perm",
    [pytest.param(_sigma0_on_a3, perm, id=name) for name, perm in NON_AUTOMORPHISMS.items()]
    + [
        pytest.param(_twisted_a3, perm, id=f"build_twisted-{name}")
        for name, perm in NON_AUTOMORPHISMS.items()
    ],
)
def test_sigma0_rejects_non_automorphism(build, perm):
    # one diagram-automorphism check serves the loop algebra and the twisted datum
    with pytest.raises(ValueError, match="permutation of the simple indices|preserve the Cartan"):
        build(perm)


class TwistedSignSigma0(Sigma0Map):
    """The A3 flip with the signs of X_(1,1,0) and X_(-1,-1,0) negated after the recursion."""

    def _extend(self):
        signs = super()._extend()
        for root in ((1, 1, 0), (-1, -1, 0)):
            signs[root] = -signs[root]
        return signs


def test_sigma0_check_catches_a_flipped_sign():
    with pytest.raises(AssertionError, match="sigma0 extension breaks a bracket"):
        TwistedSignSigma0(build_chevalley("A3"), (2, 1, 0))


class UncheckedTwistedSign(TwistedSignSigma0):
    def _verify(self):
        return 0


def test_sigma0_oracle_rejects_the_flipped_sign_too():
    sigma = UncheckedTwistedSign(build_chevalley("A3"), (2, 1, 0))
    with pytest.raises(AssertionError, match="sigma0 extension breaks a bracket"):
        check_sigma0(sigma)


@pytest.mark.parametrize("label", LOOP_TYPES)
def test_indexed_sigma0_check_matches_the_oracle_on_every_symbol_pair(label):
    sigma = loop_context(twisted_datum(label)).sigma0
    system = sigma.algebra.system
    assert sigma._verify() == check_sigma0(sigma) == (len(system.roots) + system.rank) ** 2


def _sigma0_mutants(sigma):
    """(kind, image table) of each mutation of sigma0's images, one kind per branch of its check.

    "pair" negates a positive non-simple root with its negative, as
    TwistedSignSigma0 does; "one" negates one root alone, breaking its zero-sum
    pair; "h" moves the H symbols by another permutation than perm.
    """
    algebra, image = sigma.algebra, sigma._image
    positive, zero = len(algebra.system.positive_roots), algebra.zero

    def negated(*indices):
        return [(-c, i) if k in indices else (c, i) for k, (c, i) in enumerate(image)]

    for k, root in enumerate(algebra.system.positive_roots):
        if sum(root) > 1:
            yield "pair", negated(k, k + positive)
    for k in range(zero):
        yield "one", negated(k)
    for perm in permutations(range(algebra.system.rank)):
        if perm != sigma.perm:
            yield "h", image[:zero] + [(1, zero + p) for p in perm]


@pytest.mark.parametrize("label", ["2A3", "2A4", "2D4", "3D4"])
def test_sigma0_table_check_rejects_a_mutation_exactly_when_the_oracle_does(label):
    sigma = loop_context(twisted_datum(label)).sigma0
    message = "sigma0 extension breaks a bracket"
    rejected = Counter()
    for kind, table in _sigma0_mutants(sigma):
        mutant = copy.copy(sigma)
        mutant._image = table
        rejects = _rejects(mutant._verify, message)
        assert rejects == _rejects(lambda: check_sigma0(mutant), message), (kind, table)
        rejected[kind] += rejects
    # every kind is met, and rejected at least once
    assert set(rejected) == {"pair", "one", "h"} and all(rejected.values())


@pytest.mark.parametrize("label", LOOP_TYPES)
def test_sigma0_order_is_the_first_signed_return(label):
    # brute force: apply image_symbol until every symbol is back with sign +1
    sigma = loop_context(twisted_datum(label)).sigma0
    start = [(1, sym) for sym in sigma.algebra.symbols]
    state = start
    for k in range(1, 13):
        state = [(sign * c, img) for sign, sym in state for c, img in [sigma.image_symbol(sym)]]
        if state == start:
            break
    else:
        pytest.fail("sigma0 does not return within 12 steps")
    assert sigma.order == k


def test_loop_context_is_cached_and_order_checked():
    datum = twisted_datum("3D4")
    ctx = loop_context(datum)
    assert loop_context(datum) is ctx
    assert ctx.sigma0.order == datum.e == 3


def test_loop_context_cache_is_bounded():
    maxsize = loop_context.cache_info().maxsize
    assert maxsize is not None and maxsize >= len(LOOP_TYPES)
    loop_context.cache_clear()
    contexts = [loop_context(twisted_datum(label)) for label in LOOP_TYPES]
    assert all(loop_context(twisted_datum(label)) is ctx for label, ctx in zip(LOOP_TYPES, contexts))
    # keyed by datum identity: data built directly must not pile up
    data = [build_twisted("A1", 1) for _ in range(maxsize + 1)]
    first = loop_context(data[0])
    for datum in data[1:]:
        loop_context(datum)
    assert loop_context.cache_info().currsize == maxsize
    assert loop_context(data[0]) is not first


# -- loop vectors and invariant lines -------------------------------------------


def test_loop_vector_arithmetic():
    algebra = build_chevalley("A2")
    x = LoopVector.make(algebra, 1, [(("X", (1, 0)), 2, 1), (("X", (0, 1)), 0, -3)])
    y = LoopVector.make(algebra, 1, [(("X", (0, 1)), 0, 3)])
    assert (x + y).coefficient(("X", (0, 1)), 0).is_zero()
    assert x.scale(Fraction(1, 3)).coefficient(("X", (0, 1)), 0) == cyc(1, -1)
    assert x.bracket(y) + y.bracket(x) == LoopVector.zero(algebra, 1)
    assert x.bracket(y).coefficient(("X", (1, 1)), 2) == cyc(1, -3)
    assert LoopVector.make(algebra, 1, [(("H", 0), 0, 0)]).is_zero()


def test_make_e_a_split_type_is_a_plain_monomial():
    datum = twisted_datum("A1")
    rel = sigma_affine_to_relative(datum, ((1,), -2))
    vec = make_e_a(datum, rel)
    assert vec.terms == ((("X", (1,)), -2, cyc(1, 1)),)


def test_make_e_a_triality_orbit_sum():
    datum = twisted_datum("3D4")
    rel = sigma_affine_to_relative(datum, ((0, 1), -3))
    assert rel.case == "case1" and rel.degree == -3
    vec = make_e_a(datum, rel)
    degrees = {n for _, n, _ in vec.terms}
    assert degrees == {-3}
    rel1 = sigma_affine_to_relative(datum, ((0, 1), -1))
    vec1 = make_e_a(datum, rel1)
    zeta = CycScalar.zeta_power(3, 1)
    assert vec1.coefficient(("X", (1, 0, 0, 0)), -1) == cyc(3, 1)
    assert vec1.coefficient(("X", (0, 0, 1, 0)), -1) == zeta * zeta
    assert vec1.coefficient(("X", (0, 0, 0, 1)), -1) == zeta


def test_make_e_a_twisted_a2_both_progressions():
    datum = twisted_datum("2A2")
    # odd levels live on the doubled root, one term
    down = make_e_a(datum, sigma_affine_to_relative(datum, ((1,), -1)))
    assert down.terms == ((("X", (1, 1)), -1, cyc(2, 1)),)
    up = make_e_a(datum, sigma_affine_to_relative(datum, ((1,), 3)))
    assert up.terms == ((("X", (1, 1)), 3, cyc(2, 1)),)
    # even levels live on the pair, alternating relative sign
    pair = make_e_a(datum, sigma_affine_to_relative(datum, ((1,), 2)))
    assert pair.coefficient(("X", (1, 0)), 1) == cyc(2, 1)
    assert pair.coefficient(("X", (0, 1)), 1) == cyc(2, -1)
    pair0 = make_e_a(datum, sigma_affine_to_relative(datum, ((1,), 0)))
    assert pair0.coefficient(("X", (1, 0)), 0) == cyc(2, 1)
    assert pair0.coefficient(("X", (0, 1)), 0) == cyc(2, 1)


def test_root_line_vectors_match_a_fresh_walk(fresh_directions):
    # every entry against root_lines_at_degree -> sigma_affine_to_relative ->
    # make_e_a, and against the walk oracle
    for label in LOOP_TYPES:
        datum = twisted_datum(label)
        for n in range(-8, 9):
            fresh = [
                (root, k, sigma_affine_to_relative(datum, (root, k)))
                for root, k in root_lines_at_degree(datum, n)
            ]
            entries = root_line_vectors(datum, n)
            assert [entry[:3] for entry in entries] == fresh, (label, n)
            for (_, _, rel), (_, _, _, vec) in zip(fresh, entries):
                assert vec == make_e_a(datum, rel) == walk_vector(datum, rel), (label, rel)
            assert root_line_vectors(datum, n) is entries
    info = root_line_vectors.cache_info()
    assert info.misses == info.currsize == len(LOOP_TYPES) * 17 <= info.maxsize


def test_root_line_vectors_memo_is_bounded(fresh_directions):
    maxsize = root_line_vectors.cache_info().maxsize
    assert maxsize is not None
    for label in LOOP_TYPES:
        datum = twisted_datum(label)
        for n in range(-40, 41):
            root_line_vectors(datum, n)
            assert root_line_vectors.cache_info().currsize <= maxsize
    assert root_line_vectors.cache_info().misses == len(LOOP_TYPES) * 81


def test_make_e_a_rejects_levels_off_the_progression():
    datum = twisted_datum("2A3")
    bad = RelativeAffineRoot("case1", ((0, 1, 0),), 1, (1, 0), 0)  # relative level 1/2
    with pytest.raises(ValueError):
        make_e_a(datum, bad)


def test_closing_check_agrees_with_the_sigma_action_oracle():
    total = 0
    for label in LOOP_TYPES:
        for datum, rel in window_inventory(label):
            vec = make_e_a(datum, rel)  # the closing check accepted it
            assert sigma_action(datum, vec) == vec, (label, rel)
            assert vec == walk_vector(datum, rel)
            total += 1
    assert total == 1932


@pytest.mark.parametrize(
    "label,a",
    [
        ("A1", ((1,), -2)),
        ("2A2", ((1,), -1)),  # one term on the doubled root, whose sign is -1
        ("2A2", ((1,), 2)),  # the two-term pair
        ("3D4", ((0, 1), -1)),  # the three-term orbit sum
        ("2E6", ((0, 0, 1, 1), -3)),
    ],
)
def test_flipped_closing_sign_fails_the_check_and_the_oracle(monkeypatch, fresh_directions, label, a):
    datum = twisted_datum(label)
    rel = sigma_affine_to_relative(datum, a)
    sigma0 = loop_context(datum).sigma0
    start, real = ("X", rel.orbit[-1]), sigma0.image_symbol

    def flipped(sym):
        # the step of the walk that closes it gets the opposite sign
        c, img = real(sym)
        return (-c if img == start else c), img

    monkeypatch.setattr(sigma0, "image_symbol", flipped)
    with pytest.raises(AssertionError, match="closing scalar"):
        make_e_a(datum, rel)
    mutated = walk_vector(datum, rel)
    assert sigma_action(datum, mutated) != mutated


def test_closing_check_rejects_misread_orbits():
    # 3D4 moves X_(1,0,0,0): a one-member orbit does not return to its start
    datum = twisted_datum("3D4")
    rel = RelativeAffineRoot("case1", ((1, 0, 0, 0),), 0, (0, 1), 0)
    with pytest.raises(AssertionError, match="did not return"):
        make_e_a(datum, rel)
    vec = walk_vector(datum, rel)
    assert sigma_action(datum, vec) != vec
    # 2A2 fixes X_(1,1) with sign -1: at an even degree its closing scalar is -1
    datum = twisted_datum("2A2")
    rel = RelativeAffineRoot("case1", ((1, 1),), 0, (1,), 0)
    with pytest.raises(AssertionError, match="closing scalar"):
        make_e_a(datum, rel)
    vec = walk_vector(datum, rel)
    assert sigma_action(datum, vec) != vec


def test_inventory_coefficients_are_ints_or_fractions():
    def coeffs(vectors):
        return [x for vec in vectors for _, _, c in vec.terms for x in (c.a, c.b)]

    inventory = [(datum, rel) for label in LOOP_TYPES for datum, rel in window_inventory(label)]
    assert all(type(rel.degree) is int and type(rel.level) is int for _, rel in inventory)
    lines = [make_e_a(datum, rel) for datum, rel in inventory]
    directions = [cartan_direction(datum, a) for datum, a in direction_inventory()]
    # signs and zeta powers stay ints; the 1/2 of case 2b makes Fractions
    assert all(type(x) is int for x in coeffs(lines))
    assert all(type(x) in (int, Fraction) for x in coeffs(directions))
    assert any(type(x) is Fraction for x in coeffs(directions))


def test_sigma_action_has_the_advertised_order():
    for label in ("A1", "2A2", "2A3", "3D4"):
        datum = twisted_datum(label)
        ctx = loop_context(datum)
        for sym in ctx.algebra.symbols:
            for n in (-2, -1, 0, 1, 2):
                v = LoopVector.make(ctx.algebra, datum.e, [(sym, n, 1)])
                w = v
                for _ in range(datum.e):
                    w = sigma_action(datum, w)
                assert w == v, (label, sym, n)


# -- exponential conjugation -----------------------------------------------------


def test_ad_exp_sl2_expansion_matches_matrices():
    datum = twisted_datum("A1")
    ctx = loop_context(datum)
    x = LoopVector.make(ctx.algebra, 1, [(("X", (-1,)), -1, 1)])
    y = LoopVector.make(ctx.algebra, 1, [(("X", (1,)), 0, 1)])
    out = ad_exp(x, y)
    assert out.coefficient(("X", (1,)), 0) == cyc(1, 1)
    assert out.coefficient(("H", 0), -1) == cyc(1, -1)
    assert out.coefficient(("X", (-1,)), -2) == cyc(1, -1)
    assert len(out.terms) == 3
    table = matrix_realization("A1", 1)
    h = realize(x, table).exp_nilpotent()
    h_inv = realize(x.scale(-1), table).exp_nilpotent()
    assert h @ realize(y, table) @ h_inv == realize(out, table)
    assert cartan_component(out).terms == ((("H", 0), -1, cyc(1, -1)),)


def test_ad_exp_guards():
    algebra = build_chevalley("A1")
    h = LoopVector.make(algebra, 1, [(("H", 0), 0, 1)])
    x = LoopVector.make(algebra, 1, [(("X", (1,)), 0, 1)])
    with pytest.raises(ValueError):
        ad_exp(h, x)
    semisimple = LoopVector.make(
        algebra, 1, [(("X", (1,)), 0, 1), (("X", (-1,)), 0, 1)]
    )
    with pytest.raises(RuntimeError):
        ad_exp(semisimple, x)


# -- Cartan directions -----------------------------------------------------------


def test_cartan_direction_split_a1():
    datum = twisted_datum("A1")
    assert cartan_direction(datum, ((1,), -1)).terms == (
        (("H", 0), -1, cyc(1, -1)),
    )
    assert cartan_direction(datum, ((1,), -2)).terms == (
        (("H", 0), -1, cyc(1, -1)),
    )


def test_cartan_direction_twisted_a2_against_su3():
    datum = twisted_datum("2A2")
    vec = cartan_direction(datum, ((1,), -1))
    assert vec.terms == (
        (("H", 0), -1, cyc(2, Fraction(-1, 2))),
        (("H", 1), -1, cyc(2, Fraction(1, 2))),
    )
    # reconstruct the full conjugation and push it through 3x3 matrices
    rel_a = sigma_affine_to_relative(datum, ((1,), -1))
    rel_b = sigma_affine_to_relative(datum, ((-1,), 0))
    e_a, e_b = make_e_a(datum, rel_a), make_e_a(datum, rel_b)
    conjugated = ad_exp(e_b, e_a)
    assert conjugated.coefficient(("X", (1, 1)), -1) == cyc(2, 1)
    assert conjugated.coefficient(("X", (-1, -1)), -1) == cyc(2, Fraction(1, 4))
    table = matrix_realization("A2", 2)
    h = realize(e_b, table).exp_nilpotent()
    expected_h = lmat(
        2,
        3,
        [
            (0, 0, 0, 1),
            (1, 0, 0, 1),
            (1, 1, 0, 1),
            (2, 0, 0, Fraction(-1, 2)),
            (2, 1, 0, -1),
            (2, 2, 0, 1),
        ],
    )
    assert h == expected_h
    h_inv = realize(e_b.scale(-1), table).exp_nilpotent()
    conjugated_matrix = h @ realize(e_a, table) @ h_inv
    assert conjugated_matrix == realize(conjugated, table)
    for i, value in enumerate((Fraction(-1, 2), 1, Fraction(-1, 2))):
        assert conjugated_matrix.entry(i, i) == {-1: cyc(2, value)}
    assert conjugated_matrix.trace() == {}
    assert conjugated_matrix.entry(2, 0) == {-1: cyc(2, Fraction(1, 4))}


def test_cartan_direction_triality_lands_on_the_invariant_line():
    datum = twisted_datum("3D4")
    vec = cartan_direction(datum, ((0, 1), -1))
    lead = vec.coefficient(("H", 0), -1)
    assert not lead.is_zero()
    ctx = loop_context(datum)
    zeta = CycScalar.zeta_power(3, 1)
    candidates = [
        LoopVector.make(
            ctx.algebra,
            3,
            [(("H", 0), -1, 1), (("H", 2), -1, first), (("H", 3), -1, second)],
        )
        for first, second in ((zeta * zeta, zeta), (zeta, zeta * zeta))
    ]
    assert any(vec == cand.scale(lead) for cand in candidates)


def test_cartan_direction_folded_a3_long_and_short():
    datum = twisted_datum("2A3")
    long_vec = cartan_direction(datum, ((0, 1), -1))
    assert long_vec.terms == (
        (("H", 0), -1, cyc(2, -1)),
        (("H", 2), -1, cyc(2, 1)),
    )
    short_vec = cartan_direction(datum, ((1, 0), -1))
    assert short_vec.terms == ((("H", 1), -2, cyc(2, -1)),)


def test_cartan_direction_rejections():
    datum = twisted_datum("2A2")
    with pytest.raises(ValueError):
        cartan_direction(datum, ((1,), -2))  # even level over a multipliable root
    with pytest.raises(ValueError):
        cartan_direction(datum, ((1,), 0))
    with pytest.raises(ValueError):
        cartan_direction(datum, ((1,), 1))


def test_cartan_direction_cache_holds_the_loop_inventory(fresh_directions):
    inventory = direction_inventory()
    assert len(set(inventory)) == len(inventory) == 262
    first = [cartan_direction(datum, a) for datum, a in inventory]
    info = loopalg._cartan_direction.cache_info()
    assert info.maxsize is not None and info.maxsize >= len(inventory)
    assert info.misses == info.currsize == len(inventory)
    # a second pass is served whole from the cache, the same objects
    again = [cartan_direction(datum, a) for datum, a in inventory]
    assert all(x is y for x, y in zip(first, again))
    assert loopalg._cartan_direction.cache_info().hits == len(inventory)


def test_a_raising_cartan_direction_fails_every_request(monkeypatch, fresh_directions):
    # warm memos first: a rendered row must not stand in for a check that now raises
    assert run_suite("cartan-direction", window=2).passed
    broken = (twisted_datum("2A2"), ((1,), -1))

    def raising(datum, a):
        if (datum, a) == broken:
            raise RuntimeError("vanishing Cartan component contradicts the recipe")
        return cartan_direction(datum, a)

    monkeypatch.setattr(loopalg, "cartan_direction", raising)
    bad = {"type": "2A2", "root": [1], "level": -1,
           "error": "vanishing Cartan component contradicts the recipe"}
    for _ in range(2):
        outcome = run_suite("cartan-direction", window=2)
        assert not outcome.passed and outcome.counterexamples == (bad,)
        assert len(outcome.instances) == outcome.instances_checked - 1


def test_cartan_recipe_roots_are_the_inputs_cartan_direction_accepts(fresh_directions):
    inventory = direction_inventory()
    accepted, listed = [], []
    for label in LOOP_TYPES:
        datum = twisted_datum(label)
        depth = 6 if label in DIRECTION_LABELS else 1
        for a in affine_roots_negative_at_vertex(datum, depth):
            try:
                cartan_direction(datum, a)
            except ValueError:
                continue
            accepted.append((datum, a))
        listed += [(datum, a) for a in loopalg.cartan_recipe_roots(datum, depth)]
    assert listed == accepted == inventory and len(listed) == 262


def test_cartan_direction_rejections_are_not_memoised(fresh_directions):
    datum = twisted_datum("2A2")
    for _ in range(2):
        with pytest.raises(ValueError, match="even levels over a multipliable root"):
            cartan_direction(datum, ((1,), -2))
    assert loopalg._cartan_direction.cache_info().currsize == 0


def recipe_inventory():
    """(datum, a) of every root with a Cartan recipe, to depth 6 on all nine loop types: 870.

    A superset of direction_inventory, which goes to depth 6 only over DIRECTION_LABELS.
    """
    out = []
    for label in LOOP_TYPES:
        datum = twisted_datum(label)
        roots = affine_roots_negative_at_vertex(datum, 6)
        out += [(datum, a) for a in roots if sigma_affine_to_relative(datum, a).case != "case2a"]
    return out


def test_cartan_direction_matches_the_whole_series(fresh_directions):
    inventory = recipe_inventory()
    assert len(inventory) == 870 and set(direction_inventory()) <= set(inventory)
    cases = {sigma_affine_to_relative(datum, a).case for datum, a in inventory}
    assert cases == {"case1", "case2b"}
    for datum, a in inventory:
        assert cartan_direction(datum, a) == cartan_direction_by_series(datum, a), (datum.label, a)


def test_only_the_height_ratio_order_reaches_the_cartan():
    # the cases with a recipe are the cases of twist._CASES but 2a
    assert set(loopalg._CARTAN_ORDER) == set(_CASES) - {"case2a"}
    for datum, a in recipe_inventory():
        beta, level = a
        rel_a = sigma_affine_to_relative(datum, a)
        order = loopalg._CARTAN_ORDER[rel_a.case]
        shallower = -level - 1 if rel_a.case == "case1" else 2 * (-level - 1)
        rel_b = sigma_affine_to_relative(datum, (tuple(-x for x in beta), shallower))
        if order == 1:  # opposite orbits
            assert {tuple(-x for x in r) for r in rel_a.orbit} == set(rel_b.orbit)
        else:  # one divisible root, minus the sum of the case-2a pair
            assert (len(rel_a.orbit), rel_b.case, len(rel_b.orbit)) == (1, "case2a", 2)
            assert rel_a.orbit[0] == tuple(-x - y for x, y in zip(*rel_b.orbit))
        # sigma0 keeps height: one height per orbit, and a's is -n times b's
        (height_a,) = {sum(root) for root in rel_a.orbit}
        (height_b,) = {sum(root) for root in rel_b.orbit}
        assert height_a == -order * height_b != 0, (datum.label, a)
        # and of the whole series only ad(e_b)^order e_a has a Cartan part
        e_b, term, reaching = make_e_a(datum, rel_b), make_e_a(datum, rel_a), []
        for n in range(1, 10):
            term = e_b.bracket(term)
            if term.is_zero():
                break
            if not cartan_component(term).is_zero():
                reaching.append(n)
        assert reaching == [order], (datum.label, a)


@pytest.mark.parametrize(
    "a",
    [((1,), -1.0), ((1.0,), -1), ((True,), -1), ((1,), Fraction(-1)), ([1], -1), ((1,), True)],
)
def test_cartan_direction_refuses_inexact_roots_on_cold_and_warm_memos(fresh_directions, a):
    datum = twisted_datum("2A2")
    message = "a tuple of ints and an int level"
    with pytest.raises(ValueError, match=message):
        cartan_direction(datum, a)  # cold
    # warm e_a memo, cold direction memo: a RelativeAffineRoot of degree -1.0 equals the int key
    cartan_direction(datum, ((1,), -1))
    loopalg._cartan_direction.cache_clear()
    with pytest.raises(ValueError, match=message):
        cartan_direction(datum, a)
    # both memos warm
    cartan_direction(datum, ((1,), -1))
    with pytest.raises(ValueError, match=message):
        cartan_direction(datum, a)
    assert loopalg._cartan_direction.cache_info().currsize == 1


# -- graded dimension audit -------------------------------------------------------


def test_invariant_basis_windows():
    # at u-degree -1 multipliable roots contribute two lines each, so the
    # rank-1 folded datum already shows 4; the rank-3 ones show 6 of 24
    frozen = {"2A2": 4, "2A3": 4, "2D4": 6, "3D4": 6}
    for label, count_at_minus_one in frozen.items():
        datum = twisted_datum(label)
        report = verify_invariant_basis(datum, 3)
        assert report.ok
        by_degree = {line.degree: line for line in report.lines}
        assert set(by_degree) == set(range(-3, 4))
        line = by_degree[-1]
        assert line.progression_count == count_at_minus_one
        assert line.fixed_dim == count_at_minus_one
        assert line.vector_rank == count_at_minus_one
        zero_line = by_degree[0]
        assert zero_line.progression_count == len(datum.echelonnage.roots)


def test_invariant_basis_split_type_counts_all_roots():
    datum = twisted_datum("A1")
    report = verify_invariant_basis(datum, 2)
    assert report.ok
    for line in report.lines:
        assert line.fixed_dim == 2


@pytest.mark.parametrize("label", LOOP_TYPES)
def test_eigenspace_rule_matches_dense_fixed_dim(label):
    datum = twisted_datum(label)
    ctx = loop_context(datum)
    e = datum.e
    assert sum(length for length, _ in ctx.sigma0.cycles) == len(ctx.algebra.system.roots)
    for n in sorted(set(range(-2 * e, 2 * e + 1)) | {-8, 8}):
        assert _eigenspace_dim(ctx.sigma0.cycles, e, n) == dense_fixed_dim(ctx, n), n
        # the zeta^n eigenspace on the Cartan part is the fixed space of zeta^-n sigma0
        assert cartan_sigma_dim(datum, n) == dense_fixed_dim(ctx, -n, "H"), n


@pytest.mark.parametrize("label", LOOP_TYPES)
def test_root_line_rank_from_supports_matches_elimination(label):
    datum = twisted_datum(label)
    roots = loop_context(datum).algebra.system.roots
    index = {r: i for i, r in enumerate(roots)}
    for line in verify_invariant_basis(datum, 8).lines:
        rows, seen = [], set()
        for root, k in root_lines_at_degree(datum, line.degree):
            vec = make_e_a(datum, sigma_affine_to_relative(datum, (root, k)))
            support = {sym[1] for sym, _, _ in vec.terms}
            # nonempty and pairwise disjoint supports
            assert support and seen.isdisjoint(support), (line.degree, root, k)
            seen |= support
            row = [cyc(datum.e, 0)] * len(roots)
            for sym, _, c in vec.terms:
                row[index[sym[1]]] = c
            rows.append(row)
        assert _rank(rows) == line.vector_rank == line.progression_count, line.degree


def test_root_line_rank_deficit_fails_the_report(monkeypatch, fresh_directions):
    # every root line at a degree gets that degree's first vector: rank 1, not the count
    real, first = loopalg.make_e_a, {}

    def repeated(datum, rel):
        vec = real(datum, rel)
        return first.setdefault((datum.label, vec.terms[0][1]), vec)

    monkeypatch.setattr(loopalg, "make_e_a", repeated)
    report = verify_invariant_basis(twisted_datum("3D4"), 2)
    assert [line.vector_rank for line in report.lines] == [1] * 5
    assert not report.ok
    assert not run_suite("loop-basis", window=1).passed


def test_invariant_basis_window_bounds():
    datum = twisted_datum("2A2")
    with pytest.raises(ValueError):
        verify_invariant_basis(datum, 9)
    with pytest.raises(ValueError):
        verify_invariant_basis(datum, -1)


# -- rank-one factorization -------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("x", [1, -2, Fraction(3, 2)])
def test_sl2_factorization_identity(k, x):
    assert verify_sl2_factorization(k, x)


def test_sl2_factorization_matches_the_matrix_oracle_on_the_suite_draws():
    pairs = {(k, x) for seed in range(4) for x in sl2_values(seed) for k in range(1, 6)}
    assert len(pairs) == 170
    loopalg._verify_sl2_factorization.cache_clear()
    for k, x in sorted(pairs):
        assert verify_sl2_factorization(k, x) is sl2_factorization_by_values(k, x) is True


def test_sl2_factorization_rejects_degenerate_input():
    with pytest.raises(ValueError):
        verify_sl2_factorization(0, 1)
    with pytest.raises(ValueError):
        verify_sl2_factorization(2, 0)
    # inexact input is refused before the memo, cold or warm: 1.5 is no
    # winding, True and 2.0 would read the memo of the int they equal, and
    # Fraction would read 0.5 or "1/3" as a curve value
    assert verify_sl2_factorization(1, 1) and verify_sl2_factorization(2, 1)
    for k, x in ((1.5, 1), (True, 1), (2.0, 1), (2, 0.5), (2, "1/3"), (2, True), (-1, 1)):
        for _ in range(2):
            with pytest.raises(ValueError):
                verify_sl2_factorization(k, x)
    memo = loopalg._verify_sl2_factorization
    memo.cache_clear()
    with pytest.raises(ValueError):
        verify_sl2_factorization(2.0, 1)
    assert memo.cache_info().currsize == memo.cache_info().misses == 0
