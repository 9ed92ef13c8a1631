"""Twisted affine data: diagram automorphisms and folded root systems.

A TwistedDatum packages a simply-laced absolute root system with a diagram
automorphism sigma0 of order e and the reduced system Sigma spanned by the
modified orbit sums of the simple roots (orbit sums, doubled exactly when an
orbit contains two adjacent nodes).  Every root of Sigma is matched to the
sigma0-orbit(s) of absolute roots it is proportional to; this matching drives
the level correspondence between a Sigma-affine root (root, k) and the root
line it spans at u-degree n (relative level n/e):

  case 1   orthogonal orbit of size d: k = n*d/e, so a line at degree n
           exactly when e | n*d;
  case 2a  adjacent pair orbit (the multipliable half): k = 2n, a line at
           every degree n;
  case 2b  fixed root equal to an adjacent pair's sum (the divisible half):
           k = n, a line at odd degrees n only.

Only the doubled orbits of A_{2n} with the flip (e = 2) produce cases 2a/2b.
sigma_affine_to_relative computes this correspondence, and a relative root is
valid exactly when it makes it: see validate_relative_root.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, partial

from affsch.rootsys import (
    Coweight,
    FiniteRootSystem,
    Root,
    IntVec,
    _recognize_irreducible,
    build_root_system,
    cartan_matrix,
)

_TWISTED_RE = re.compile(r"([123]?)([A-G])([1-9])")
# The widest u-degree window, -MAX_WINDOW..MAX_WINDOW, graded checks and loop requests take.
MAX_WINDOW = 8

ABSOLUTELY_SPECIAL = "absolutely-special"
OTHER_SPECIAL = "special-non-absolutely"

AffineRoot = tuple[Root, int]


@dataclass(frozen=True, slots=True)
class RelativeAffineRoot:
    """An affine root on the relative side of the level correspondence.

    degree is the u-degree n of its root line; the relative level is n/e.
    """

    case: str
    orbit: tuple[Root, ...]
    degree: int
    sigma_root: Root
    level: int


@dataclass(frozen=True)
class _OrbitData:
    orbit: tuple[Root, ...]
    d: int
    multipliable: bool
    divisible_orbit: tuple[Root, ...] | None


def parse_type_label(label: str) -> tuple[int, str, int]:
    """Split a twisted label like "3D4" into (e, letter, rank)."""
    m = _TWISTED_RE.fullmatch(label)
    if m is None:
        raise ValueError(f"malformed twisted type label {label!r}")
    e = int(m.group(1)) if m.group(1) else 1
    return e, m.group(2), int(m.group(3))


def default_sigma0(letter: str, rank: int, e: int) -> IntVec:
    """The standard diagram automorphism of order e, as an index permutation."""
    if e == 1:
        return tuple(range(rank))
    if e == 2:
        if letter == "A" and rank >= 2:
            return tuple(rank - 1 - i for i in range(rank))
        if letter == "D":
            return tuple(range(rank - 2)) + (rank - 1, rank - 2)
        if letter == "E" and rank == 6:
            return (5, 1, 4, 3, 2, 0)
    if e == 3 and letter == "D" and rank == 4:
        # fixes the central node, rotates the three outer ones
        return (2, 1, 3, 0)
    raise ValueError(f"no default diagram automorphism of order {e} for {letter}{rank}")


def _cycles(step, items) -> list[tuple]:
    """The cycles through items of the permutation step, each walked once and sorted."""
    cycles: list[tuple] = []
    seen: set = set()
    for x in items:
        if x not in seen:
            cycle = [x]
            while (y := step(cycle[-1])) != x:
                cycle.append(y)
            seen.update(cycle)
            cycles.append(tuple(sorted(cycle)))
    return cycles


def _cycle_order(cycles) -> int:
    """Order of a signed permutation from its (length L, sign product c) cycles: lcm of L or 2L."""
    return math.lcm(*(length if c == 1 else 2 * length for length, c in cycles))


def _eigenspace_dim(cycles, e: int, m: int) -> int:
    """Dimension of the zeta^m eigenspace of a signed permutation, from its cycles.

    cycles holds (length L, sign product c) pairs.  A cycle's eigenvalues are
    the L roots of x^L = c, each once, so it adds a line exactly when
    zeta^(mL) = c: when 2mL is 0 (c = 1) or e (c = -1) modulo 2e.
    """
    return sum(1 for length, c in cycles if (2 * m * length - (0 if c == 1 else e)) % (2 * e) == 0)


def _check_diagram_automorphism(cartan, perm: IntVec) -> None:
    """ValueError unless perm permutes range(rank) and preserves the Cartan matrix."""
    rank = len(cartan)
    if sorted(perm) != list(range(rank)):
        raise ValueError("sigma0 must be a permutation of the simple indices")
    if any(cartan[perm[i]][perm[j]] != cartan[i][j] for i in range(rank) for j in range(rank)):
        raise ValueError("sigma0 does not preserve the Cartan matrix")


def _act(perm: IntVec, m: Root) -> Root:
    out = [0] * len(m)
    for i, mi in enumerate(m):
        out[perm[i]] = mi
    return tuple(out)


def _vec_add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _vec_scale(a: Root, s: int) -> Root:
    return tuple(s * x for x in a)


def _negated_orbit(orbit: tuple[Root, ...]) -> tuple[Root, ...]:
    return tuple(sorted(tuple(-x for x in g) for g in orbit))


class TwistedDatum:
    """A simply-laced absolute system folded by a diagram automorphism.

    Attributes:
      absolute, sigma0, e: the folding input.
      echelonnage: the reduced system Sigma on the modified orbit sums,
        relabeled and reordered to its canonical Bourbaki presentation.
      sigma_simple_images: absolute coefficient tuples realizing the simple
        roots of Sigma, index-aligned with echelonnage's simples.
      multipliable_roots: Sigma roots whose orbit data carries a divisible
        partner (nonempty only for the folded odd A types).
      vertex: base-point tag; certificate logic accepts only the absolutely
        special one.
    """

    def __init__(
        self,
        label: str,
        absolute: FiniteRootSystem,
        e: int,
        sigma0: IntVec,
        vertex: str = ABSOLUTELY_SPECIAL,
    ) -> None:
        self.label = label
        self.absolute = absolute
        self.e = e
        self.sigma0 = sigma0
        self.vertex = vertex
        self._build_sigma()
        self._match_orbits()

    def __repr__(self) -> str:
        return f"TwistedDatum({self.label}, Sigma={self.echelonnage.label})"

    # -- construction ------------------------------------------------------

    def _build_sigma(self) -> None:
        absolute, perm = self.absolute, self.sigma0
        rank = absolute.rank
        basis: list[Root] = []
        for orb in _cycles(perm.__getitem__, range(rank)):
            v = [0] * rank
            for i in orb:
                v[i] = 1
            doubled = any(
                absolute.cartan[i][j] != 0 for i in orb for j in orb if i != j
            )
            basis.append(tuple((2 if doubled else 1) * x for x in v))

        if self.e == 1:
            self.echelonnage = absolute
            self.sigma_simple_images = tuple(
                tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
            )
            return

        n = len(basis)
        gram = [[absolute.form(basis[k], basis[l]) for l in range(n)] for k in range(n)]
        cart = []
        for k in range(n):
            row = []
            for l in range(n):
                num = 2 * gram[k][l]
                if num % gram[l][l]:
                    raise AssertionError("folded Cartan matrix must be integral")
                row.append(num // gram[l][l])
            cart.append(tuple(row))
        sigma_label, order = _recognize_irreducible(tuple(cart))
        self.echelonnage = build_root_system(sigma_label)
        self.sigma_simple_images = tuple(basis[k] for k in order)

    def _match_orbits(self) -> None:
        absolute, perm = self.absolute, self.sigma0
        sigma = self.echelonnage

        orbits = _cycles(partial(_act, perm), absolute.positive_roots)

        def abs_vec(root: Root) -> Root:
            acc = (0,) * absolute.rank
            for k, mk in enumerate(root):
                if mk:
                    acc = _vec_add(acc, _vec_scale(self.sigma_simple_images[k], mk))
            return acc

        plain: dict[Root, tuple[Root, ...]] = {}
        halves: dict[Root, list[tuple[Root, ...]]] = {}
        targets = {abs_vec(root): root for root in sigma.positive_roots}
        for orb in orbits:
            s = (0,) * absolute.rank
            for g in orb:
                s = _vec_add(s, g)
            if s in targets:
                root = targets[s]
                if root in plain:
                    raise AssertionError("two orbits match one folded root")
                plain[root] = orb
            elif _vec_scale(s, 2) in targets:
                halves.setdefault(targets[_vec_scale(s, 2)], []).append(orb)
            else:
                raise AssertionError("orbit sum matches no folded root")

        def orthogonal(orb: tuple[Root, ...]) -> bool:
            return all(absolute.form(a, b) == 0 for a in orb for b in orb if a < b)

        meta: dict[Root, _OrbitData] = {}
        for root in sigma.positive_roots:
            if root in plain:
                if root in halves:
                    raise AssertionError("folded root matched at two scales")
                orb = plain[root]
                if not orthogonal(orb):
                    raise AssertionError("plain orbit with adjacent members")
                meta[root] = _OrbitData(orb, len(orb), False, None)
            else:
                parts = halves.get(root)
                if parts is None:
                    raise AssertionError("folded root with no matching orbit")
                pair = [o for o in parts if len(o) == 2]
                single = [o for o in parts if len(o) == 1]
                if len(parts) != 2 or len(pair) != 1 or len(single) != 1:
                    raise AssertionError("multipliable root needs one pair and one fixed orbit")
                a, b = pair[0]
                if _vec_add(a, b) != single[0][0]:
                    raise AssertionError("divisible partner must be the pair's sum")
                meta[root] = _OrbitData(pair[0], 2, True, single[0])
        for root in sigma.positive_roots:
            data = meta[root]
            meta[tuple(-x for x in root)] = _OrbitData(
                _negated_orbit(data.orbit),
                data.d,
                data.multipliable,
                data.divisible_orbit and _negated_orbit(data.divisible_orbit),
            )
        self._meta = meta
        self.multipliable_roots = tuple(
            root for root in sigma.positive_roots if meta[root].multipliable
        )

    # -- queries -----------------------------------------------------------

    def orbit_data(self, sigma_root: Root) -> _OrbitData:
        """Orbit data for any root of Sigma; negatives mirror the positives."""
        try:
            return self._meta[sigma_root]
        except (KeyError, TypeError):  # TypeError: an unhashable list for a tuple
            raise ValueError(f"{sigma_root} is not a root of {self.echelonnage.label}") from None

    def with_other_special_vertex(self) -> "TwistedDatum":
        """The special but not absolutely special base point (folded odd A types only)."""
        if not self.multipliable_roots:
            raise ValueError("only data with multipliable roots have a second special vertex")
        twin = object.__new__(TwistedDatum)
        twin.__dict__.update(self.__dict__)
        twin.vertex = OTHER_SPECIAL
        return twin


def build_twisted(
    absolute_type: str, e: int, sigma0_spec: IntVec | None = None
) -> TwistedDatum:
    """Fold the named simply-laced system by an order-e diagram automorphism."""
    absolute = build_root_system(absolute_type)
    if e not in (1, 2, 3):
        raise ValueError("twisting order must be 1, 2, or 3")
    if e > 1 and any(d != 1 for d in absolute.half_norms):
        raise ValueError("twisting requires a simply-laced absolute type")
    letter, rank = absolute_type[0], absolute.rank
    sigma0 = (
        tuple(sigma0_spec)
        if sigma0_spec is not None
        else default_sigma0(letter, rank, e)
    )
    _check_diagram_automorphism(absolute.cartan, sigma0)
    order = _cycle_order((len(cycle), 1) for cycle in _cycles(sigma0.__getitem__, range(rank)))
    if order != e:
        raise ValueError(f"sigma0 has order {order}, expected {e}")
    label = f"{e if e > 1 else ''}{absolute_type}"
    return TwistedDatum(label, absolute, e, sigma0)


@lru_cache(maxsize=None)
def twisted_datum(label: str) -> TwistedDatum:
    """The datum of a twisted label such as "A3", "2A4", or "3D4".

    One object per parsed (e, letter, rank): "1A1" and "A1" give the same
    datum, as the loop memos, keyed on the datum and sized per type, need.
    This memo, on the label, keeps the parse off the request path.
    """
    return _twisted_datum(*parse_type_label(label))


@lru_cache(maxsize=None)
def _twisted_datum(e: int, letter: str, rank: int) -> TwistedDatum:
    return build_twisted(f"{letter}{rank}", e)


def _check_int(value, what: str) -> None:
    """ValueError unless value is an exact int: 1.0, True and Fraction(3) each equal an int."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an int")


def sigma_levels_at_degree(datum: TwistedDatum, sigma_root: Root, n: int) -> tuple[int, ...]:
    """The Sigma-levels k whose affine root (sigma_root, k) has its root line at u-degree n.

    Over a non-multipliable root with orbit size d: k = n*d/e when e | n*d.
    Over a multipliable root (e = 2): 2n (case 2a), then n when n is odd (case 2b).
    """
    _check_int(n, "u-degree")
    data = datum.orbit_data(sigma_root)
    if data.multipliable:
        return (2 * n, n) if n % 2 else (2 * n,)
    k, r = divmod(n * data.d, datum.e)
    return () if r else (k,)


def sigma_affine_to_relative(datum: TwistedDatum, a: AffineRoot) -> RelativeAffineRoot:
    """Translate a Sigma-affine root (root, level) across the level correspondence.

    The u-degree is e*k/d in case 1 (d divides e), k/2 in case 2a (k even)
    and k in case 2b (k odd), so it is always an integer.  The level must be
    an exact int.
    """
    sigma_root, k = a
    _check_int(k, "level")
    data = datum.orbit_data(sigma_root)
    if not data.multipliable:
        return RelativeAffineRoot("case1", data.orbit, datum.e * k // data.d, sigma_root, k)
    if k % 2:
        return RelativeAffineRoot("case2b", data.divisible_orbit, k, sigma_root, k)
    return RelativeAffineRoot("case2a", data.orbit, k // 2, sigma_root, k)


def validate_relative_root(datum: TwistedDatum, rel: RelativeAffineRoot) -> None:
    """The one rule for a relative affine root: the correspondence makes it.

    rel is valid exactly when its degree and level are exact ints and
    sigma_affine_to_relative(datum, (rel.sigma_root, rel.level)) == rel, so
    its case, orbit and u-degree are those of its own Sigma-root and level.
    Raises ValueError otherwise.
    """
    _check_int(rel.degree, "u-degree")
    if sigma_affine_to_relative(datum, (rel.sigma_root, rel.level)) != rel:
        raise ValueError(f"{datum.label} does not make {rel} from its Sigma-root and level")


def cartan_sigma_dim(datum: TwistedDatum, m: int) -> int:
    """Dimension of the zeta^m eigenspace of sigma0 on the Cartan subalgebra.

    sigma0 permutes the simple coroots without signs.  m must be an exact int.
    """
    _check_int(m, "eigenvalue exponent")
    cycles = _cycles(datum.sigma0.__getitem__, range(len(datum.sigma0)))
    return _eigenspace_dim([(len(cycle), 1) for cycle in cycles], datum.e, m)


def affine_roots_negative_at_vertex(
    datum: TwistedDatum, depth_cutoff: int
) -> tuple[AffineRoot, ...]:
    """All Sigma-affine roots (root, -k), 1 <= k <= cutoff, in a fixed order."""
    if depth_cutoff < 1:
        raise ValueError("depth cutoff must be at least 1")
    sigma = datum.echelonnage
    return tuple(
        (root, -k) for k in range(1, depth_cutoff + 1) for root in sigma.roots
    )
