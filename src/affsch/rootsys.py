"""Exact root-system combinatorics over the integers.

Roots are integer coefficient tuples on the simple-root basis.  Coweights are
stored as pairing vectors against the simple roots, so every operation here is
pure integer (or Fraction) arithmetic; floats never appear.

Matrix convention: cartan[i][j] = <alpha_j^vee, alpha_i>, i.e. row i lists the
pairings of the root alpha_i against all simple coroots.  Consequently the
pairing vector of the coroot alpha_j^vee is column j, and a coroot vector with
coefficients c has pairing vector cartan . c.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Root = tuple[int, ...]
IntVec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_LABEL_RE = re.compile(r"([A-G])([1-9])")

# _recognize_irreducible tries the letters in this order: C before B, so that
# a rank-2 double bond is C2, and A before D, so that D3 is A3.
_RANK_RANGE = {
    "A": (1, 8),
    "C": (2, 8),
    "B": (2, 8),
    "D": (3, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def cartan_matrix(letter: str, rank: int) -> Matrix:
    """Bourbaki Cartan matrix, 0-indexed.

    B_n ends with a short root (a[n-2][n-1] = -2), C_n with a long one,
    D_n branches at node n-3, E types chain 0-2-3-...-(n-1) with node 1
    hanging off node 3, F4 has a[1][2] = -2, and G2 is [[2,-1],[-3,2]]
    with the short root first.
    """
    if letter not in _RANK_RANGE:
        raise ValueError(f"unknown type letter {letter!r}")
    lo, hi = _RANK_RANGE[letter]
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} out of range for type {letter}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if letter in "ABCF":
        for i in range(rank - 1):
            edge(i, i + 1)
        if letter == "B":
            edge(rank - 2, rank - 1, -2, -1)
        elif letter == "C":
            edge(rank - 2, rank - 1, -1, -2)
        elif letter == "F":
            edge(1, 2, -2, -1)
    elif letter == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        edge(rank - 3, rank - 1)
    elif letter == "E":
        edge(0, 2)
        for i in range(2, rank - 1):
            edge(i, i + 1)
        edge(1, 3)
    else:
        edge(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def _component_indices(cartan: Matrix) -> tuple[IntVec, ...]:
    rank = len(cartan)
    seen: set[int] = set()
    comps: list[IntVec] = []
    for start in range(rank):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if j not in seen and i != j and cartan[i][j] != 0:
                    seen.add(j)
                    comp.append(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


def _half_norms(cartan: Matrix) -> IntVec:
    """Per-component length normalization: d_i = (alpha_i, alpha_i)/2, short = 1.

    Propagates d_j / d_i = a_ji / a_ij along Dynkin edges (the symmetry
    condition on the bilinear form), then scales each component so its
    minimum is 1.  Finite types give d in {1, 2, 3}.
    """
    rank = len(cartan)
    d: list[Fraction] = [Fraction(0)] * rank
    for comp in _component_indices(cartan):
        d[comp[0]] = Fraction(1)
        stack = [comp[0]]
        while stack:
            i = stack.pop()
            for j in comp:
                if i != j and cartan[i][j] != 0 and d[j] == 0:
                    d[j] = d[i] * cartan[j][i] / cartan[i][j]
                    stack.append(j)
        lo = min(d[j] for j in comp)
        for j in comp:
            d[j] /= lo
    out = []
    for x in d:
        if x.denominator != 1 or int(x) not in (1, 2, 3):
            raise ValueError("Cartan matrix does not carry a finite-type length function")
        out.append(int(x))
    return tuple(out)


def _reflect_root(m: Root, i: int, cartan: Matrix) -> Root:
    pair = sum(mj * cartan[j][i] for j, mj in enumerate(m) if mj)
    out = list(m)
    out[i] -= pair
    return tuple(out)


def _root_closure(cartan: Matrix) -> tuple[Root, ...]:
    """Positive roots: reflection closure of the simples, sorted by height then lex."""
    rank = len(cartan)
    simples = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    seen: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(rank):
                r = _reflect_root(m, i, cartan)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    pos = [m for m in seen if all(c >= 0 for c in m)]
    neg = [m for m in seen if all(c <= 0 for c in m)]
    if len(pos) + len(neg) != len(seen) or len(pos) != len(neg):
        raise ValueError("reflection closure produced mixed-sign roots; Cartan matrix is not finite type")
    return tuple(sorted(pos, key=lambda m: (sum(m), m)))


def _gauss_jordan(rows: list[list], ncols: int) -> list:
    """Reduce rows in place to reduced row-echelon form on their first ncols columns.

    Works over any exact field with a truth value and a reciprocal 1 / x:
    Fraction here, loopalg.CycScalar only in the rank oracle of the tests.  Each
    pivot row is scaled by one inverse and cleared out of every other row.
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


class FiniteRootSystem:
    """Reduced finite root system presented by an integer Cartan matrix.

    Attributes of note:
      positive_roots / roots: coefficient tuples; roots = positives then the
        mirrored negatives, in matching order.
      norms: squared lengths aligned with roots, short roots normalized to 2
        per irreducible component.
      two_rho_coefficients: 2*rho expanded on the simple roots, so
        <nu, 2rho> = dot(two_rho_coefficients, nu.pairings).
      adjugate/det: adjugate . p = det * c solves cartan . c = p exactly in
        integers.
    """

    def __init__(self, cartan: Matrix, label: str | None = None) -> None:
        cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        rank = len(cartan)
        for i, row in enumerate(cartan):
            if len(row) != rank or row[i] != 2:
                raise ValueError("malformed Cartan matrix")
            for j in range(rank):
                if i != j and (row[j] > 0 or (row[j] == 0) != (cartan[j][i] == 0)):
                    raise ValueError("malformed Cartan matrix")
        self.cartan = cartan
        self.rank = rank
        self.half_norms = _half_norms(cartan)
        self.bilinear = tuple(
            tuple(cartan[i][j] * self.half_norms[j] for j in range(rank)) for i in range(rank)
        )
        for i in range(rank):
            for j in range(rank):
                if self.bilinear[i][j] != self.bilinear[j][i]:
                    raise ValueError("length function is inconsistent with the Cartan matrix")
        # Sylvester's criterion, before the reflection closure, which never
        # ends on a non-finite type.  The leading minors of cartan are those of
        # the symmetric bilinear = cartan . diag(half_norms) up to positive
        # factors, and the k-th is the product of the first k pivots unless a
        # row swap came first.  Elimination keeps the off-diagonal entries
        # nonpositive while the pivots are positive, so a swap brings in a
        # negative pivot: rank many positive pivots is the criterion.
        aug = [
            [Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(rank)]
            for i, row in enumerate(cartan)
        ]
        pivots = _gauss_jordan(aug, rank)
        if len(pivots) < rank or any(p <= 0 for p in pivots):
            raise ValueError("Cartan matrix is not positive definite")
        det = math.prod(pivots)
        adj = [[x * det for x in row[rank:]] for row in aug]
        if any(x.denominator != 1 for row in adj for x in row):
            raise AssertionError("adjugate must be integral")
        self.det = int(det)
        self.adjugate = tuple(tuple(int(x) for x in row) for row in adj)
        self.positive_roots = _root_closure(cartan)
        negatives = tuple(tuple(-c for c in m) for m in self.positive_roots)
        self.roots = self.positive_roots + negatives
        self.root_index = {m: k for k, m in enumerate(self.roots)}
        self.two_rho_coefficients = tuple(
            sum(m[i] for m in self.positive_roots) for i in range(rank)
        )
        self.columns = tuple(tuple(cartan[j][i] for j in range(rank)) for i in range(rank))
        self.norms = tuple(self.root_norm2(m) for m in self.roots)
        self.components = recognize_components(cartan)
        self.label = label if label is not None else "+".join(lbl for lbl, _ in self.components)

    def __repr__(self) -> str:
        return f"FiniteRootSystem({self.label})"

    @property
    def is_irreducible(self) -> bool:
        return len(self.components) == 1

    def form(self, a: Root, b: Root) -> int:
        """The invariant bilinear form (a, b) on root coefficients; short roots have (a, a) = 2."""
        bil = self.bilinear
        return sum(ai * bj * bil[i][j] for i, ai in enumerate(a) if ai for j, bj in enumerate(b) if bj)

    def root_norm2(self, m: Root) -> int:
        return self.form(m, m)

    def root_half_norm(self, m: Root) -> int:
        n2 = self.root_norm2(m)
        if n2 % 2:
            raise AssertionError("odd squared length")
        return n2 // 2

    def pairing_with_coroot(self, m: Root, i: int) -> int:
        """<m, alpha_i^vee> for a root m."""
        return sum(mj * self.cartan[j][i] for j, mj in enumerate(m) if mj)

    def coroot_coefficients(self, m: Root) -> IntVec:
        """m^vee expanded on the simple coroots: c_j = m_j * d_j / d_m."""
        dm = self.root_half_norm(m)
        out = []
        for j, mj in enumerate(m):
            num = mj * self.half_norms[j]
            if num % dm:
                raise AssertionError("non-integral coroot coefficient")
            out.append(num // dm)
        return tuple(out)

    def coroot_pairings(self, m: Root) -> IntVec:
        """Pairing vector of m^vee, i.e. cartan . coroot_coefficients(m)."""
        cc = self.coroot_coefficients(m)
        return tuple(sum(row[j] * cj for j, cj in enumerate(cc) if cj) for row in self.cartan)

    @property
    def highest_root(self) -> Root:
        if not self.is_irreducible:
            raise ValueError("highest root requires an irreducible system")
        best = self.positive_roots[-1]
        if len(self.positive_roots) > 1 and sum(self.positive_roots[-2]) == sum(best):
            raise AssertionError("highest root is not unique")
        return best

    def lattice_coefficients(self, dp: IntVec) -> IntVec | None:
        """Solve cartan . c = dp over the integers; None when dp is not in the coroot lattice."""
        det = self.det
        out = []
        for row in self.adjugate:
            q = sum(row[k] * dp[k] for k in range(self.rank))
            if q % det:
                return None
            out.append(q // det)
        return tuple(out)


@lru_cache(maxsize=None)
def _recognize_irreducible(cartan: Matrix) -> tuple[str, IntVec]:
    """Name a connected finite-type Cartan matrix and order its nodes.

    Returns (label, order) with order[k] = input index playing Bourbaki
    simple root k of the named type.  Rank-2 double-bond systems are
    canonically labeled C2, and D3-shaped input is labeled A3.
    """
    rank = len(cartan)
    letters = [letter for letter, (lo, hi) in _RANK_RANGE.items() if lo <= rank <= hi]
    if not letters:
        raise ValueError(f"rank {rank} out of supported range")
    for letter in letters:
        target = cartan_matrix(letter, rank)
        order = _match_permutation(cartan, target)
        if order is not None:
            return f"{letter}{rank}", order
    raise ValueError("not a finite-type Cartan matrix")


def _match_permutation(cartan: Matrix, target: Matrix) -> IntVec | None:
    """Lexicographically first permutation with cartan[p(i)][p(j)] == target[i][j]."""
    n = len(cartan)
    used = [False] * n
    perm: list[int] = []

    def fits(k: int, cand: int) -> bool:
        for pos in range(k):
            if target[k][pos] != cartan[cand][perm[pos]] or target[pos][k] != cartan[perm[pos]][cand]:
                return False
        return True

    def rec(k: int) -> bool:
        if k == n:
            return True
        for cand in range(n):
            if not used[cand] and fits(k, cand):
                used[cand] = True
                perm.append(cand)
                if rec(k + 1):
                    return True
                perm.pop()
                used[cand] = False
        return False

    return tuple(perm) if rec(0) else None


@lru_cache(maxsize=None)
def recognize_components(cartan: Matrix) -> tuple[tuple[str, IntVec], ...]:
    """Irreducible type decomposition: ((label, node order), ...) in ambient indices."""
    out = []
    for comp in _component_indices(cartan):
        sub = tuple(tuple(cartan[i][j] for j in comp) for i in comp)
        label, order = _recognize_irreducible(sub)
        out.append((label, tuple(comp[k] for k in order)))
    return tuple(out)


@lru_cache(maxsize=None)
def build_root_system(type_label: str) -> FiniteRootSystem:
    """Construct the root system named by a Bourbaki label such as "C3"."""
    m = _LABEL_RE.fullmatch(type_label)
    if m is None:
        raise ValueError(f"malformed type label {type_label!r}")
    return FiniteRootSystem(cartan_matrix(m.group(1), int(m.group(2))), label=type_label)


def _check_vector(system: FiniteRootSystem, values, name: str) -> None:
    """ValueError unless values is a tuple of exact ints, one per simple root of system.

    Exact types: a bool would reach the poset memos as the int key it equals,
    a float would leave the exact engine, and a list cannot be a key at all.
    """
    if type(values) is not tuple or any(type(x) is not int for x in values):
        raise ValueError(f"{name} must be a tuple of integers")
    if len(values) != system.rank:
        raise ValueError(f"{name} must have {system.rank} entries, one per simple root")


@dataclass(frozen=True)
class Coweight:
    """A coweight stored by its pairings with the simple roots, a tuple of exact ints."""

    system: FiniteRootSystem
    pairings: IntVec

    def __post_init__(self) -> None:
        _check_vector(self.system, self.pairings, "pairings")

    def is_dominant(self) -> bool:
        return all(p >= 0 for p in self.pairings)

    def pairing_with_root(self, m: Root) -> int:
        return sum(mi * pi for mi, pi in zip(m, self.pairings))


@dataclass(frozen=True)
class CorootVector:
    """An integer combination of simple coroots, by its coefficients, a tuple of exact ints."""

    system: FiniteRootSystem
    coefficients: IntVec

    def __post_init__(self) -> None:
        _check_vector(self.system, self.coefficients, "coefficients")

    @property
    def pairings(self) -> IntVec:
        a = self.system.cartan
        return tuple(
            sum(a[i][j] * c for j, c in enumerate(self.coefficients) if c)
            for i in range(self.system.rank)
        )


def pairing(nu: Coweight, root_index: int) -> int:
    """<nu, alpha> for the root at root_index in nu.system.roots."""
    return nu.pairing_with_root(nu.system.roots[root_index])


def dominant_rep(nu: Coweight) -> Coweight:
    """The dominant Weyl-chamber representative of nu's orbit.

    Reflects in the first simple root nu pairs negatively with until there is
    none, at most once per positive root: each shortens the Weyl element left.
    """
    if nu.is_dominant():
        return nu
    cur = list(nu.pairings)
    rank, columns = len(cur), nu.system.columns
    for _ in range(len(nu.system.positive_roots) + 1):
        for i in range(rank):
            pi = cur[i]
            if pi < 0:
                col = columns[i]
                for j in range(rank):
                    cur[j] -= pi * col[j]
                break
        else:
            return Coweight(nu.system, tuple(cur))
    raise RuntimeError("dominant representative did not stabilize")


def two_rho_pairing(mu: Coweight) -> int:
    """<mu, 2rho>, the dimension pairing against the sum of the positive roots."""
    return sum(h * p for h, p in zip(mu.system.two_rho_coefficients, mu.pairings))


def short_dominant_coroot(system: FiniteRootSystem) -> CorootVector:
    """The unique short dominant coroot: the coroot of the highest root."""
    theta = system.highest_root
    return CorootVector(system, system.coroot_coefficients(theta))
