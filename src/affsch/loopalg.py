"""Exact symbolic loop algebra over a Chevalley basis, with a twist.

Scalars live in Q(zeta) for zeta a primitive e-th root of unity, e <= 3.
ChevalleyAlgebra holds the basis X_gamma, H_i with exact integer structure
constants, and Sigma0Map extends a diagram automorphism to it through the
pinning.  The loop extension acts by sigma(X u^n) = zeta^n sigma0(X) u^n;
the invariant vectors e_a attached to relative affine roots, their
conjugates under exp(ad), and the Cartan components extracted from those
conjugates are all computed term by term with no floating point anywhere.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from affsch.rootsys import FiniteRootSystem, IntVec, Root, build_root_system
from affsch.twist import (
    MAX_WINDOW,
    AffineRoot,
    RelativeAffineRoot,
    TwistedDatum,
    _act,
    _check_diagram_automorphism,
    _cycle_order,
    _cycles,
    _eigenspace_dim,
    affine_roots_negative_at_vertex,
    sigma_affine_to_relative,
    sigma_levels_at_degree,
    validate_relative_root,
)

Symbol = tuple
Rational = int | Fraction


# -- cyclotomic scalars -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CycScalar:
    """a + b*zeta with rational a, b; zeta a primitive e-th root of unity.

    For e <= 2 the zeta part is folded away (zeta = 1 or -1), so b == 0.
    For e == 3 products reduce through zeta^2 = -1 - zeta.  Coefficients stay
    int until a division makes a Fraction; only inverse divides.  of refuses
    any other coefficient type, bool and float included.
    """

    e: int
    a: Rational
    b: Rational

    @staticmethod
    def of(e: int, a: Rational, b: Rational = 0) -> "CycScalar":
        if type(a) not in (int, Fraction) or type(b) not in (int, Fraction):
            raise ValueError(f"coefficients {a!r}, {b!r} are not ints or Fractions")
        if e == 1:
            a, b = a + b, 0
        elif e == 2:
            a, b = a - b, 0
        elif e != 3:
            raise ValueError("cyclotomic order must be 1, 2, or 3")
        return CycScalar(e, a, b)

    @staticmethod
    def zeta_power(e: int, n: int) -> "CycScalar":
        """zeta^n, one value shared per (e, n mod e); a CycScalar is frozen."""
        powers = _ZETA_POWERS.get(e)
        if powers is None:
            raise ValueError("cyclotomic order must be 1, 2, or 3")
        return powers[n % e]

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def is_zero(self) -> bool:
        return not self

    def _check(self, other: "CycScalar") -> None:
        if self.e != other.e:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        return CycScalar(self.e, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        return CycScalar(self.e, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "CycScalar":
        return CycScalar(self.e, -self.a, -self.b)

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        self._check(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if self.e != 3:
            return CycScalar(self.e, a * c, 0)
        return CycScalar(3, a * c - b * d, a * d + b * c - b * d)

    def inverse(self) -> "CycScalar":
        # through Fraction: 1 / int would be a float
        if not self:
            raise ZeroDivisionError("inverting zero cyclotomic scalar")
        if self.e != 3:
            return CycScalar(self.e, Fraction(1) / self.a, 0)
        norm = Fraction(self.a * self.a - self.a * self.b + self.b * self.b)
        return CycScalar(3, (self.a - self.b) / norm, -self.b / norm)

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        return self * other.inverse()

    def __rtruediv__(self, other: Rational) -> "CycScalar":
        """r / x for rational r, so that 1 / x inverts as it does for a Fraction."""
        inv = self.inverse()
        return inv if other == 1 else inv.scale(other)

    def scale(self, r: Rational) -> "CycScalar":
        return CycScalar(self.e, self.a * r, self.b * r)


# zeta^0, ..., zeta^(e-1) for each cyclotomic order e: zeta^2 = -1 - zeta for e = 3
_ZETA_POWERS = {
    1: (CycScalar.of(1, 1),),
    2: (CycScalar.of(2, 1), CycScalar.of(2, -1)),
    3: (CycScalar.of(3, 1), CycScalar.of(3, 0, 1), CycScalar.of(3, -1, -1)),
}


# -- Chevalley basis ----------------------------------------------------------


def _oriented_edges(system: FiniteRootSystem, letter: str) -> frozenset[tuple[int, int]]:
    """Orient the Dynkin diagram; chosen symmetric under the standard folds."""
    rank = system.rank
    edges = [(i, j) for i in range(rank) for j in range(i + 1, rank) if system.cartan[i][j] != 0]
    oriented: set[tuple[int, int]] = set()
    if letter == "A":
        # toward the center; the middle edge of even A breaks the symmetry,
        # which is what forces the sign twist on the flip-fixed roots
        for i, j in edges:
            oriented.add((i, j) if i < (rank - 1) / 2 else (j, i))
    elif letter == "D":
        hub = rank - 3
        for i, j in edges:
            di, dj = abs(i - hub), abs(j - hub)
            if j >= rank - 2:
                oriented.add((i, j))  # branch edges leave the hub
            else:
                oriented.add((i, j) if di < dj else (j, i))
    elif letter == "E" and rank == 6:
        oriented = {(0, 2), (2, 3), (4, 3), (5, 4), (1, 3)}
    elif letter == "E":
        oriented = set(edges)
    else:
        raise ValueError(f"no Chevalley orientation for type {letter}{rank}")
    return frozenset(oriented)


class ChevalleyAlgebra:
    """Basis symbols ("X", root) and ("H", i) with integer structure constants.

    The asymmetry function eps(gamma, delta) = (-1)^(sum over loops and
    oriented edges of coefficient products) gives [X_g, X_d] = N X_{g+d} with
    N = eps(g, d) * s(g) s(d) s(g+d), where s is the sign of the root; the
    remaining brackets are [X_g, X_{-g}] = H_g and the pairing action of H.

    Everything is tabulated once, over symbol indices: X_(roots[i]) is i and
    H_j is zero + j, with zero = len(roots).  add[i][j] is the index of
    roots[i] + roots[j], zero when the sum vanishes and None off the roots,
    looked up by one int code per root; n[i][j] is the structure constant, 0
    off the root sums; pairing[c][j] is <roots[c], alpha_j^vee>.  Both
    build-time checks and every bracket read them, as flat integer tables.
    """

    def __init__(self, system: FiniteRootSystem, letter: str) -> None:
        if any(d != 1 for d in system.half_norms):
            raise ValueError("Chevalley construction here requires a simply-laced type")
        self.system = system
        self.oriented = _oriented_edges(system, letter)
        self.roots = roots = system.roots
        self.zero = zero = len(roots)
        self.symbols: tuple[Symbol, ...] = tuple(("X", r) for r in roots) + tuple(
            ("H", i) for i in range(system.rank)
        )
        self.index = {sym: i for i, sym in enumerate(self.symbols)}
        # each root as one int of signed digits wide enough for any sum of two; 0 codes zero
        shift = (4 * max((abs(c) for r in roots for c in r), default=0)).bit_length()
        codes = [sum(c << shift * k for k, c in enumerate(r)) for r in roots]
        sums = dict(zip([*codes, 0], range(zero + 1)))
        self.add = [[sums.get(g + d) for d in codes] for g in codes]
        self.pairing = [
            [system.pairing_with_coroot(r, j) for j in range(system.rank)] for r in roots
        ]
        self.n = self._structure_constants()
        self._verify()

    def __repr__(self) -> str:
        return f"ChevalleyAlgebra({self.system.label})"

    def _structure_constants(self) -> list[list[int]]:
        """N(g, d) where g + d is a root, 0 elsewhere; roots[i] < 0 iff i >= |R+|.

        eps(g, d) = (-1)^(g Q d), Q the identity plus the oriented edges; the
        parity is a bit count of g's row of Q mod 2 AND d mod 2.
        """
        positive, zero, roots = len(self.system.positive_roots), self.zero, self.roots
        bits = [sum((c & 1) << k for k, c in enumerate(r)) for r in roots]
        form = self.oriented | {(k, k) for k in range(self.system.rank)}
        rows = [reduce(operator.xor, ((g[a] & 1) << b for a, b in form), 0) for g in roots]
        table = [[0] * zero for _ in roots]
        for i, sums in enumerate(self.add):
            for j, s in enumerate(sums):
                if s is not None and s != zero:
                    odd = (rows[i] & bits[j]).bit_count() + (i >= positive) + (j >= positive)
                    table[i][j] = -1 if (odd + (s >= positive)) & 1 else 1
        return table

    def n_constant(self, g: Root, d: Root) -> int:
        """N with [X_g, X_d] = N X_{g+d}, looked up: 0 where g, d or g + d is not a root."""
        i, j = self.index.get(("X", g)), self.index.get(("X", d))
        return 0 if i is None or j is None else self.n[i][j]

    def bracket(self, x: int, y: int) -> list[tuple[int, int]]:
        """[x, y] of two basis symbols by index, as (coefficient, index) terms."""
        zero = self.zero
        if x >= zero:
            return [] if y >= zero else [(self.pairing[y][x - zero], y)]
        if y >= zero:
            return [(-self.pairing[x][y - zero], x)]
        s = self.add[x][y]
        if s is None:
            return []
        if s == zero:
            return [(m, zero + j) for j, m in enumerate(self.roots[x]) if m]
        n = self.n[x][y]
        return [(n, s)] if n else []

    def bracket_symbols(self, x: Symbol, y: Symbol) -> list[tuple[int, Symbol]]:
        """bracket over basis symbols; ValueError for a symbol outside the basis."""
        try:
            ix, iy = self.index[x], self.index[y]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a basis symbol of {self!r}") from None
        return [(n, self.symbols[s]) for n, s in self.bracket(ix, iy)]

    def _triples(self) -> Iterator[tuple[int, int, int]]:
        """Index triples i < j < k whose Jacobi sum can be nonzero, each once, in no set order.

        [[X_a, X_b], X_c] vanishes unless a + b is zero, or a root with a + b + c
        zero or a root; a triple needs a check only when one of its pairs
        passes.  Each pair (p, q) whose sum s is zero or a root proposes the
        thirds that pass with it, every root for s = 0, and a triple comes from
        its first passing pair in the order (i, j), (i, k), (j, k).
        """
        add, zero = self.add, self.zero
        # live[s]: the r with s + r zero or a root; every root for s = 0, none off the roots
        live = {s: {r for r, t in enumerate(row) if t is not None} for s, row in enumerate(add)}
        live[zero], live[None] = set(range(zero)), set()
        for p in range(zero):
            for q in range(p + 1, zero):
                for r in live[add[p][q]]:
                    if r > q:
                        yield p, q, r
                    elif p < r < q and q not in live[add[p][r]]:
                        yield p, r, q
                    elif r < p and q not in live[add[r][p]] and p not in live[add[r][q]]:
                        yield r, p, q

    def _jacobi_sum(self, g: int, d: int, m: int) -> dict[int, int]:
        """The three cyclic double brackets [[X_a, X_b], X_c] of a triple, by symbol index."""
        add, n, zero = self.add, self.n, self.zero
        acc: dict[int, int] = {}
        for a, b, c in ((g, d, m), (d, m, g), (m, g, d)):
            s = add[a][b]
            if s is None:
                continue
            if s == zero:
                # [X_a, X_-a] = sum of a_j H_j, and [H_j, X_c] = <c, alpha_j^vee> X_c
                acc[c] = acc.get(c, 0) + sum(map(operator.mul, self.roots[a], self.pairing[c]))
                continue
            t = add[s][c]
            if t == zero:
                # a + b + c = 0: [X_s, X_-s] = sum of s_j H_j
                n1 = n[a][b]
                for j, x in enumerate(self.roots[s]):
                    if x:
                        acc[zero + j] = acc.get(zero + j, 0) + n1 * x
            elif t is not None:
                acc[t] = acc.get(t, 0) + n[a][b] * n[s][c]
        return acc

    def _verify(self) -> int:
        """Antisymmetry, then Jacobi on every triple that can fail it; returns the triples checked."""
        n = self.n
        if any(list(map(operator.neg, column)) != row for row, column in zip(n, zip(*n))):
            raise AssertionError("antisymmetry failure in structure constants")
        # with the bracket antisymmetric the Jacobi sum is alternating: one order per triple
        checked = 0
        for triple in self._triples():
            if any(self._jacobi_sum(*triple).values()):
                g, d, m = (self.roots[i] for i in triple)
                raise AssertionError(f"Jacobi failure at {g}, {d}, {m}")
            checked += 1
        return checked


@lru_cache(maxsize=None)
def build_chevalley(type_label: str) -> ChevalleyAlgebra:
    """Chevalley algebra of a simply-laced type with build-time checks."""
    system = build_root_system(type_label)
    return ChevalleyAlgebra(system, type_label[0])


# -- the pinned diagram automorphism ------------------------------------------


class Sigma0Map:
    """sigma0 on the Chevalley basis: X_gamma -> c_gamma X_{sigma0 gamma}.

    Simple generators are pinned with c = +1; other signs are forced by the
    bracket recursion and verified to give an automorphism of the stated order.
    cycles holds the (length, sign product) of each cycle on the roots; the H
    symbols follow the simple roots, whose signs are +1, so order comes from them.
    """

    def __init__(self, algebra: ChevalleyAlgebra, perm: IntVec) -> None:
        self.algebra = algebra
        self.perm = perm
        signs = self._extend()
        # the (sign, index) image of every symbol, by symbol index
        self._image = [(signs[r], algebra.index[("X", _act(perm, r))]) for r in algebra.roots]
        self._image += [(1, algebra.zero + p) for p in perm]
        self._verify()
        # _extend rejected any perm that is not a diagram automorphism: cycles close
        self.cycles = tuple(
            (len(cycle), math.prod(self._image[i][0] for i in cycle))
            for cycle in _cycles(lambda i: self._image[i][1], range(algebra.zero))
        )
        self.order = _cycle_order(self.cycles)

    def _extend(self) -> dict[Root, int]:
        system = self.algebra.system
        rank = system.rank
        _check_diagram_automorphism(system.cartan, self.perm)
        signs: dict[Root, int] = {}
        for gamma in system.positive_roots:  # sorted by height
            if sum(gamma) == 1:
                signs[gamma] = 1
                continue
            for i in range(rank):
                if gamma[i] == 0:
                    continue
                delta = tuple(g - (1 if j == i else 0) for j, g in enumerate(gamma))
                if delta not in signs:
                    continue
                alpha = tuple(1 if j == i else 0 for j in range(rank))
                # delta + alpha = gamma is a root, so both constants are +-1
                n_old = self.algebra.n_constant(delta, alpha)
                n_new = self.algebra.n_constant(_act(self.perm, delta), _act(self.perm, alpha))
                signs[gamma] = signs[delta] * n_new * n_old
                break
            else:
                raise AssertionError("positive root with no simple-step decomposition")
        for gamma in list(signs):
            signs[tuple(-g for g in gamma)] = signs[gamma]
        return signs

    def _verify(self) -> int:
        """The extension must respect every bracket, else the orientation lies.

        Every symbol pair is read off the tables, with (cx, ix) the image of x.
        For X symbols x, y: a root sum s needs ix + iy to be the image of s and
        the signed constants to agree, a zero sum cx cy = 1 and H images that
        carry x's coefficients to ix's, no bracket none between the images.
        [H_j, X_x], either way round, is read against the H image in _image,
        and H symbols must map to H symbols.  Returns the pairs checked.
        """
        algebra, image = self.algebra, self._image
        add, n, zero = algebra.add, algebra.n, algebra.zero
        h_image = [(c, h - zero) for c, h in image[zero:]]
        ok = all(j >= 0 for _, j in h_image)
        for x, (cx, ix) in enumerate(image[:zero]):
            coefficients, pairings = algebra.roots[ix], algebra.pairing[ix]
            for m, p, (c, j) in zip(algebra.roots[x], algebra.pairing[x], h_image):
                ok = ok and p == c * pairings[j] and c * m == coefficients[j]
            for y, s in enumerate(add[x]):
                cy, iy = image[y]
                t = add[ix][iy]
                if s is None or s == zero:
                    ok = ok and t == s and (s is None or cx * cy == 1)
                else:
                    cs, i_s = image[s]
                    ok = ok and t == i_s and n[x][y] * cs == cx * cy * n[ix][iy]
            if not ok:
                raise AssertionError("sigma0 extension breaks a bracket")
        return len(image) ** 2

    def image(self, gamma: Root) -> tuple[int, Root]:
        c, (_, root) = self.image_symbol(("X", gamma))
        return c, root

    def image_symbol(self, sym: Symbol) -> tuple[int, Symbol]:
        """(sign, symbol) of sigma0 on sym; ValueError for a symbol outside the basis."""
        try:
            index = self.algebra.index[sym]
        except KeyError:
            raise ValueError(f"{sym!r} is not a basis symbol of {self.algebra!r}") from None
        c, i = self._image[index]
        return c, self.algebra.symbols[i]


def sigma0_automorphism(algebra: ChevalleyAlgebra, perm: IntVec) -> Sigma0Map:
    """Extend a diagram automorphism through the pinning; verified at build."""
    return Sigma0Map(algebra, tuple(perm))


# -- loop vectors -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LoopVector:
    """Finitely supported combination of basis symbols times powers of u."""

    algebra: ChevalleyAlgebra
    e: int
    terms: tuple[tuple[Symbol, int, CycScalar], ...]

    @staticmethod
    def make(algebra: ChevalleyAlgebra, e: int, items) -> "LoopVector":
        acc: dict[tuple[Symbol, int], CycScalar] = {}
        for sym, n, c in items:
            if not isinstance(c, CycScalar):
                c = CycScalar.of(e, c)
            key = (sym, n)
            acc[key] = acc[key] + c if key in acc else c
        terms = tuple((sym, n, c) for (sym, n), c in sorted(acc.items()) if c)
        return LoopVector(algebra, e, terms)

    @staticmethod
    def zero(algebra: ChevalleyAlgebra, e: int) -> "LoopVector":
        return LoopVector(algebra, e, ())

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "LoopVector") -> None:
        if self.algebra is not other.algebra or self.e != other.e:
            raise ValueError("loop vectors from different contexts")

    def __add__(self, other: "LoopVector") -> "LoopVector":
        self._check(other)
        return LoopVector.make(self.algebra, self.e, list(self.terms) + list(other.terms))

    def __sub__(self, other: "LoopVector") -> "LoopVector":
        return self + other.scale(-1)

    def scale(self, factor) -> "LoopVector":
        if not isinstance(factor, CycScalar):
            factor = CycScalar.of(self.e, factor)
        return LoopVector.make(self.algebra, self.e, [(s, n, c * factor) for s, n, c in self.terms])

    def bracket(self, other: "LoopVector") -> "LoopVector":
        self._check(other)
        items = []
        for s1, n1, c1 in self.terms:
            for s2, n2, c2 in other.terms:
                prod = c1 * c2
                for n, sym in self.algebra.bracket_symbols(s1, s2):
                    items.append((sym, n1 + n2, prod.scale(n)))
        return LoopVector.make(self.algebra, self.e, items)

    def coefficient(self, sym: Symbol, n: int) -> CycScalar:
        return next((c for s, m, c in self.terms if s == sym and m == n), CycScalar.of(self.e, 0))


# -- twisted context ----------------------------------------------------------


class TwistedLoopAlgebra:
    """Chevalley algebra of the absolute type plus the pinned automorphism."""

    def __init__(self, datum: TwistedDatum) -> None:
        self.datum = datum
        self.algebra = build_chevalley(datum.absolute.label)
        self.sigma0 = sigma0_automorphism(self.algebra, datum.sigma0)
        if self.sigma0.order != datum.e:
            raise AssertionError("pinned automorphism order differs from the twist order")


@lru_cache(maxsize=16)  # keyed by datum identity; holds the nine named loop types
def loop_context(datum: TwistedDatum) -> TwistedLoopAlgebra:
    return TwistedLoopAlgebra(datum)


def sigma_action(datum: TwistedDatum, v: LoopVector) -> LoopVector:
    """sigma(X times u^n) = zeta^n sigma0(X) times u^n, extended linearly."""
    ctx = loop_context(datum)
    e = datum.e
    items = []
    for sym, n, c in v.terms:
        sign, img = ctx.sigma0.image_symbol(sym)
        items.append((img, n, c * CycScalar.zeta_power(e, n).scale(sign)))
    return LoopVector.make(v.algebra, e, items)


def make_e_a(datum: TwistedDatum, rel: RelativeAffineRoot) -> LoopVector:
    """The invariant vector spanning the root line of a relative affine root.

    Uniform over the three cases: with n the u-degree, d orbit members and
    representative alpha', e_a = sum over i = 1..d of
    t_i = zeta^(i n) sigma0^i(X_{alpha'}) u^n = zeta^(i n) c_i X_{sigma0^i alpha'} u^n,
    with c_i the sign product of the first i steps of the walk.  This
    specializes to the orbit sum, the two-term pair, and the single fixed
    vector respectively.

    The result is checked to be sigma-fixed by its closing scalar.  sigma
    applies sigma0 and multiplies by zeta^n, so it sends t_i to t_(i+1) and
    the sum telescopes: sigma(e_a) - e_a = t_(d+1) - t_1.  That vanishes
    exactly when t_(d+1) and t_1 sit on one symbol, i.e. the walk is back at
    X_{alpha'} after d steps, where t_(d+1) = zeta^(d n) c_d t_1, and the
    closing scalar zeta^(d n) c_d is 1: the eigenspace rule for one cycle of
    length d and sign c_d at degree n.
    """
    validate_relative_root(datum, rel)  # ValueError off the correspondence
    ctx = loop_context(datum)
    e, n, d = datum.e, rel.degree, len(rel.orbit)
    start: Symbol = ("X", rel.orbit[-1])
    sym, sign, items = start, 1, []
    for i in range(1, d + 1):
        ci, sym = ctx.sigma0.image_symbol(sym)
        sign *= ci
        items.append((sym, n, CycScalar.zeta_power(e, i * n).scale(sign)))
    if sym != start:
        raise AssertionError("root-line orbit walk did not return to its start")
    if not _eigenspace_dim(((d, sign),), e, n):
        raise AssertionError("closing scalar of a root-line vector is not 1: not sigma-fixed")
    return LoopVector.make(ctx.algebra, e, items)


@lru_cache(maxsize=2048)  # the nine loop types' root lines and Cartan recipes need 1,986
def _e_a(datum: TwistedDatum, rel: RelativeAffineRoot) -> LoopVector:
    """make_e_a(datum, rel), built once per (datum, relative root).

    root_line_vectors, cartan_direction and loopcheck's 2A2 block read the
    same vectors, and a LoopVector is immutable, so all of them share one.
    """
    return make_e_a(datum, rel)


def ad_exp(x: LoopVector, y: LoopVector) -> LoopVector:
    """Ad(exp x) y = sum over n of ad(x)^n y / n!, for nilpotent x."""
    x._check(y)
    if any(sym[0] == "H" for sym, _, _ in x.terms):
        raise ValueError("exp argument must be supported on root directions")
    total, term = y, y
    for n in range(1, 11):
        term = x.bracket(term)
        if term.is_zero():
            return total
        total = total + term.scale(Fraction(1, math.factorial(n)))
    raise RuntimeError("adjoint series failed to terminate")


def cartan_component(v: LoopVector) -> LoopVector:
    """Projection onto the span of the H symbols, all u-degrees."""
    return LoopVector(v.algebra, v.e, tuple(t for t in v.terms if t[0][0] == "H"))


# The one order n of ad(e_b) whose Cartan part is nonzero, by the case of a: see cartan_direction.
_CARTAN_ORDER = {"case1": 1, "case2b": 2}


def cartan_direction(datum: TwistedDatum, a) -> LoopVector:
    """Cartan-valued tangent vector conjugated out of a negative root line.

    For a = (beta, -k) with k >= 1, the opposite line b over -beta is taken one
    step shallower (b = -beta - m - 1/d), and the result is the Cartan part of
    Ad(exp e_b) e_a = sum of ad(e_b)^n e_a / n!: nonzero and sigma-invariant,
    by construction of the correspondence.  Even levels over a multipliable
    root have no such recipe and are rejected.

    Only the order n that is the height ratio of a to b reaches the Cartan,
    and only it is computed: sigma0 keeps height, so an orbit has one height,
    and a term of ad(e_b)^n e_a is Cartan only where a root of a's orbit is
    minus a sum of n roots of b's.  In case 1 the orbits are opposite: n = 1.
    In case 2b e_a sits on one divisible root alpha' + sigma0 alpha'
    (twist._CASES: orbit size 1) and e_b on the case-2a pair over -alpha': n = 2.

    The root and level must be exact ints: 1.0 or True would read the memo
    of the int it equals.  Results are memoised; rejections raise every call.
    """
    root, level = a
    if type(root) is not tuple or any(type(x) is not int for x in (*root, level)):
        raise ValueError("an affine root is a tuple of ints and an int level")
    return _cartan_direction(datum, (root, level))


@lru_cache(maxsize=512)  # every loopcheck window and loop suite ask for 262 inputs
def _cartan_direction(datum: TwistedDatum, a: AffineRoot) -> LoopVector:
    beta, level = a
    if level >= 0:
        raise ValueError("need a strictly negative level")
    rel_a = sigma_affine_to_relative(datum, a)
    order = _CARTAN_ORDER.get(rel_a.case)
    if order is None:
        raise ValueError("no Cartan recipe at even levels over a multipliable root")
    rel_b = sigma_affine_to_relative(datum, (tuple(-x for x in beta), order * (-level - 1)))
    e_b, term = _e_a(datum, rel_b), _e_a(datum, rel_a)
    for _ in range(order):
        term = e_b.bracket(term)
    cartan = cartan_component(term)
    if order > 1:  # the 1/n! of the series; at n = 1 the coefficients stay int
        cartan = cartan.scale(Fraction(1, math.factorial(order)))
    if cartan.is_zero():
        raise RuntimeError("vanishing Cartan component contradicts the recipe")
    if sigma_action(datum, cartan) != cartan:
        raise AssertionError("Cartan component escaped the invariant subspace")
    return cartan


def cartan_recipe_roots(datum: TwistedDatum, depth: int) -> tuple[AffineRoot, ...]:
    """The (root, -k), 1 <= k <= depth, that cartan_direction has a recipe for.

    Every Sigma-affine root at those levels but the even levels over a
    multipliable root, in the order of affine_roots_negative_at_vertex.
    """
    sigma_roots = affine_roots_negative_at_vertex(datum, depth)
    return tuple(a for a in sigma_roots if sigma_affine_to_relative(datum, a).case in _CARTAN_ORDER)


# -- invariant-basis verification ----------------------------------------------


@dataclass(frozen=True)
class DegreeLine:
    degree: int
    fixed_dim: int
    progression_count: int
    vector_rank: int

    @property
    def ok(self) -> bool:
        return self.fixed_dim == self.progression_count == self.vector_rank


@dataclass(frozen=True)
class InvariantBasisReport:
    label: str
    window: int
    lines: tuple[DegreeLine, ...]

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)


def root_lines_at_degree(datum: TwistedDatum, n: int) -> tuple[tuple[Root, int], ...]:
    """(sigma_root, sigma_level) pairs whose root line sits at u-degree n, sorted."""
    roots = datum.echelonnage.roots
    return tuple(sorted((r, k) for r in roots for k in sigma_levels_at_degree(datum, r, n)))


@lru_cache(maxsize=9 * (2 * MAX_WINDOW + 1))  # nine loop types x |n| <= MAX_WINDOW: 153 keys
def root_line_vectors(
    datum: TwistedDatum, n: int
) -> tuple[tuple[Root, int, RelativeAffineRoot, LoopVector], ...]:
    """(sigma_root, sigma_level, relative root, e_a) of every root line at u-degree n.

    In the order of root_lines_at_degree.  Memoised per (datum, n): every
    loopcheck window and loop-basis window reads the rows of the windows
    below it again, and a LoopVector is immutable, so all of them share one.
    """
    rows = []
    for root, k in root_lines_at_degree(datum, n):
        rel = sigma_affine_to_relative(datum, (root, k))
        rows.append((root, k, rel, _e_a(datum, rel)))
    return tuple(rows)


def verify_invariant_basis(datum: TwistedDatum, degree_window: int) -> InvariantBasisReport:
    """Check the sigma-fixed dimension against the root-line inventory.

    Per u-degree n: the signed cycles of sigma0 count the fixed space of
    zeta^n sigma0 on the span of the X symbols (its zeta^-n eigenspace, as
    large as the zeta^n one since the signs are +-1); the progressions predict
    how many root lines land there; the e_a vectors must be independent and
    fill it.  Root lines at one degree come from distinct sigma0 orbits, so
    vector_rank counts the e_a with a nonempty support disjoint from those
    before: never above their rank, and equal to it for disjoint supports.
    """
    if not 0 <= degree_window <= MAX_WINDOW:
        raise ValueError(f"degree window must be between 0 and {MAX_WINDOW}")
    ctx = loop_context(datum)
    lines = []
    for n in range(-degree_window, degree_window + 1):
        fixed_dim = _eigenspace_dim(ctx.sigma0.cycles, datum.e, n)
        entries = root_line_vectors(datum, n)
        seen: set[Root] = set()
        rank = 0
        for _, _, _, vec in entries:
            if any(deg != n or sym[0] != "X" for sym, deg, _ in vec.terms):
                raise AssertionError("root-line vector strayed from its degree")
            support = {sym[1] for sym, _, _ in vec.terms}
            if support and seen.isdisjoint(support):
                rank += 1
            seen |= support
        lines.append(DegreeLine(n, fixed_dim, len(entries), rank))
    return InvariantBasisReport(datum.label, degree_window, tuple(lines))


# -- Laurent matrices and the rank-one factorization ---------------------------


class LaurentMatrix:
    """Small square matrix over Q(zeta)[u, u^-1], for the explicit realizations.

    rows[i][j] is entry (i, j), a Laurent polynomial {exponent: CycScalar}
    computed by the helpers of the rank-one check: _laurent, _times, _matmul.
    """

    def __init__(self, e: int, size: int, entries=None) -> None:
        self.e = e
        self.size = size
        self.rows = [[{} for _ in range(size)] for _ in range(size)]
        for (i, j, n), value in (entries or {}).items():
            self.add_term(i, j, n, value)

    @staticmethod
    def _from_rows(e: int, rows: list[list[dict]]) -> "LaurentMatrix":
        out = LaurentMatrix(e, len(rows))
        out.rows = rows
        return out

    def add_term(self, i: int, j: int, n: int, value) -> None:
        if not isinstance(value, CycScalar):
            value = CycScalar.of(self.e, value)
        self.rows[i][j] = _laurent([*self.rows[i][j].items(), (n, value)])

    @staticmethod
    def identity(e: int, size: int) -> "LaurentMatrix":
        return LaurentMatrix(e, size, {(i, i, 0): 1 for i in range(size)})

    def __add__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        pairs = zip(self.rows, other.rows)
        rows = [[_laurent([*p.items(), *q.items()]) for p, q in zip(*pair)] for pair in pairs]
        return LaurentMatrix._from_rows(self.e, rows)

    def scale(self, factor) -> "LaurentMatrix":
        if not isinstance(factor, CycScalar):
            factor = CycScalar.of(self.e, factor)
        rows = [[_laurent(_times(p, {0: factor})) for p in row] for row in self.rows]
        return LaurentMatrix._from_rows(self.e, rows)

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        return LaurentMatrix._from_rows(self.e, _matmul(self.rows, other.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (self.e, self.size, self.rows) == (other.e, other.size, other.rows)

    def entry(self, i: int, j: int) -> dict[int, CycScalar]:
        return dict(self.rows[i][j])

    def trace(self) -> dict[int, CycScalar]:
        return _laurent(t for i, row in enumerate(self.rows) for t in row[i].items())

    def exp_nilpotent(self) -> "LaurentMatrix":
        total, term = LaurentMatrix.identity(self.e, self.size), self
        for n in range(1, 10):
            if not any(map(any, term.rows)):
                return total
            total = total + term.scale(Fraction(1, math.factorial(n)))
            term = term @ self
        raise RuntimeError("matrix exponential of a non-nilpotent argument")


def matrix_realization(label: str, e: int) -> dict[Symbol, LaurentMatrix]:
    """Faithful matrix images of the basis symbols for the small A types."""

    def mat(size, triples):
        return LaurentMatrix(e, size, {(i, j, 0): v for i, j, v in triples})

    if label == "A1":
        return {
            ("X", (1,)): mat(2, [(0, 1, 1)]),
            ("X", (-1,)): mat(2, [(1, 0, 1)]),
            ("H", 0): mat(2, [(0, 0, 1), (1, 1, -1)]),
        }
    if label == "A2":
        return {
            ("X", (1, 0)): mat(3, [(0, 1, 1)]),
            ("X", (0, 1)): mat(3, [(1, 2, -1)]),
            ("X", (1, 1)): mat(3, [(0, 2, 1)]),
            ("X", (-1, 0)): mat(3, [(1, 0, 1)]),
            ("X", (0, -1)): mat(3, [(2, 1, -1)]),
            ("X", (-1, -1)): mat(3, [(2, 0, 1)]),
            ("H", 0): mat(3, [(0, 0, 1), (1, 1, -1)]),
            ("H", 1): mat(3, [(1, 1, 1), (2, 2, -1)]),
        }
    raise ValueError("matrix realizations cover A1 and A2 only")


def realize(v: LoopVector, table: dict[Symbol, LaurentMatrix]) -> LaurentMatrix:
    """Image of a loop vector under a matrix realization of its algebra."""

    def cell(i: int, j: int) -> dict[int, CycScalar]:
        return _laurent(t for sym, n, c in v.terms for t in _times(table[sym].rows[i][j], {n: c}))

    size = next(iter(table.values())).size
    return LaurentMatrix._from_rows(v.e, [[cell(i, j) for j in range(size)] for i in range(size)])


def _laurent(terms) -> dict:
    """The Laurent polynomial sum of c u^n over the (n, c) of terms, as {n: c} without zeros.

    c is a Fraction in the rank-one check and a CycScalar in a LaurentMatrix.
    """
    poly: dict = {}
    for n, c in terms:
        poly[n] = poly[n] + c if n in poly else c
    return {n: c for n, c in poly.items() if c}


def _times(p: dict, q: dict):
    """The terms of the product of two Laurent polynomials, before collecting."""
    return ((m + n, c * d) for m, c in p.items() for n, d in q.items())


def _matmul(a, b):
    """The product of two square matrices of Laurent polynomials, given as lists of rows."""
    columns = list(zip(*b))
    return [
        [_laurent(t for p, q in zip(row, col) if p and q for t in _times(p, q)) for col in columns]
        for row in a
    ]


def verify_sl2_factorization(k: int, x) -> bool:
    """Check the rank-one curve value splits off its translation part.

    The 2x2 identity: a unipotent with entry x u^-k equals (opposite
    unipotent) times diag(u^-k, u^k) times a matrix with nonnegative
    u-exponents and determinant one.  Zero x has no such splitting.  The
    entries are Laurent polynomials {exponent: coefficient}.

    The winding k must be an exact int and x an int or a Fraction: 2.0 or
    True would read the memo of the int it equals, and 1.5 is no winding.
    Verdicts are memoised; rejections raise every call.
    """
    if type(k) is not int or k < 1 or (type(x) is not int and type(x) is not Fraction):
        raise ValueError("need an int winding k >= 1 and an int or Fraction curve value x")
    return _verify_sl2_factorization(k, x)


@lru_cache(maxsize=170)  # verify's sl2-factorization draws 170 (k, x) over --seed 0-3 at k = 1-5
def _verify_sl2_factorization(k: int, x) -> bool:
    x = Fraction(x)
    if x == 0:
        raise ValueError("the zero curve value stays at the base point")

    left = [[{0: 1}, {-k: x}], [{}, {0: 1}]]
    opposite = [[{0: 1}, {}], [{k: 1 / x}, {0: 1}]]
    translation = [[{-k: 1}, {}], [{}, {k: 1}]]
    plus_part = [[{k: 1}, {0: x}], [{0: -1 / x}, {}]]
    if any(n < 0 for row in plus_part for cell in row for n in cell):
        return False
    (a, b), (c, d) = plus_part
    det = _laurent([*_times(a, d), *((n, -v) for n, v in _times(b, c))])
    if det != {0: 1}:
        return False
    return _matmul(_matmul(opposite, translation), plus_part) == left
