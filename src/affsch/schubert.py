"""Dominance strata, minimal degenerations, and singularity certificates.

Coweights are compared in the dominance order: lam <= mu when mu - lam is a
nonnegative integer combination of simple coroots.  The stratum labeled mu
has dimension <mu, 2rho>.  For a pair lam <= mu, the count

    k_alpha = max{ k >= 0 : dominant_rep(lam - k*alpha_coroot) <= mu }

measures tangent directions along the root curve attached to alpha; summed
over all roots (both signs) it bounds the tangent space at the lam stratum
from below.  Adding one Cartan direction when some k over a negative root is
positive yields the singularity certificate: the closure is singular along
the lam stratum whenever the total strictly exceeds <mu, 2rho>.

The public functions share one DominancePoset per root system, kept from
call to call (see _poset), whose walks run on the point codes of _Layout.
The stratum rows (_stratum_rows) and edges (_edges_below) of a closure are
raw tuples: the public functions wrap them in the objects they hand out, and
cli writes its documents from them directly.  Every entrance checks its call
once, in _closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, le, mul, sub

from affsch.rootsys import (
    Coweight,
    CorootVector,
    FiniteRootSystem,
    IntVec,
    Root,
    build_root_system,
    recognize_components,
    short_dominant_coroot,
)
from affsch.twist import ABSOLUTELY_SPECIAL, TwistedDatum, cartan_sigma_dim

SINGULAR = "singular"
INCONCLUSIVE = "inconclusive"
# Bound on the entries of all kept posets together (see DominancePoset.entries and _poset)
MAX_POSET_ENTRIES = 30_000


@dataclass(frozen=True)
class DegenerationEdge:
    """A covering pair lam < mu of dominant coweights, with its case tag."""

    mu: Coweight
    lam: Coweight
    diff: CorootVector
    support_indices: tuple[int, ...]
    stembridge_case: int


@dataclass(frozen=True)
class KVector:
    """k_alpha for every root, in the ambient system's root order."""

    system: FiniteRootSystem
    entries: tuple[tuple[Root, int], ...]

    def __getitem__(self, root: Root) -> int:
        return self.entries[self.system.root_index[root]][1]

    @property
    def total(self) -> int:
        return sum(v for _, v in self.entries)


@dataclass(frozen=True)
class SmoothnessCertificate:
    mu: Coweight
    lam: Coweight
    dim: int
    root_bound: int
    cartan_extra: int
    verdict: str


@dataclass(frozen=True)
class StratumReport:
    """One stratum of a closure, with the mechanism deciding its status.

    mechanism is "open-orbit" for the top stratum, "certificate" for covers,
    and "openness-propagation" for deeper strata, where `via` names the cover
    whose certificate the open-smooth-locus argument pulls down.
    """

    lam: Coweight
    status: str
    mechanism: str
    certificate: SmoothnessCertificate | None = None
    via: Coweight | None = None


@dataclass(frozen=True)
class SmoothLocusReport:
    mu: Coweight
    strata: tuple[StratumReport, ...]


# -- coroot tables, one per root system --------------------------------------


@lru_cache(maxsize=32)
def _positive_coroots(system: FiniteRootSystem) -> tuple[tuple[IntVec, IntVec], ...]:
    """(pairings, coefficients) of beta^vee for every positive root beta."""
    return tuple(
        (system.coroot_pairings(beta), system.coroot_coefficients(beta))
        for beta in system.positive_roots
    )


@lru_cache(maxsize=32)
def _cover_table(system: FiniteRootSystem) -> tuple[IntVec, tuple[IntVec, ...], IntVec]:
    """(order, supports, undercuts) of the positive coroots, by index in _positive_coroots.

    order lists the indices by pairing vector, largest first: the order of
    the steps' targets, smallest first.  supports[j] holds the indices where
    coroot j's coefficients are nonzero, and bit k of undercuts[j] is set when
    coroot k's coefficients are componentwise below coroot j's, and not equal.
    """
    table = _positive_coroots(system)
    order = tuple(sorted(range(len(table)), key=lambda j: table[j][0], reverse=True))
    supports = tuple(tuple(i for i, x in enumerate(c) if x) for _, c in table)
    # componentwise below and not equal is componentwise below at a smaller height
    heights = [sum(c) for _, c in table]
    undercuts = tuple(
        sum(1 << k for k, (_, d) in enumerate(table) if heights[k] < h and all(map(le, d, c)))
        for (_, c), h in zip(table, heights)
    )
    return order, supports, undercuts


class _Layout:
    """Point codes of one field width for one root system.

    The code of a vector p is the sum of (p_i + 2^(w-1)) << w*(rank-1-i): a
    field of w bits per coordinate, coordinate 0 most significant, each
    offset by its guard bit 2^(w-1).  While every coordinate lies in
    [-2^(w-1), 2^(w-1)), each field holds its own coordinate, so a code names
    one vector, int order is the lexicographic order of the vectors, and a
    vector is dominant exactly when code & guard == guard.  Coding is linear:
    the step p - beta^vee is one subtraction of the offset of beta^vee.
    """

    __slots__ = ("width", "half", "guard", "shifts", "steps", "moves", "walk", "columns")

    def __init__(self, system: FiniteRootSystem, width: int) -> None:
        rank = system.rank
        self.width = width
        self.half = 1 << (width - 1)
        self.shifts = tuple(width * (rank - 1 - i) for i in range(rank))
        self.guard = sum(self.half << s for s in self.shifts)
        table = _positive_coroots(system)
        # the offset of each positive coroot, in the order of _positive_coroots
        self.steps = tuple(self.offset(step) for step, _ in table)
        # what each root's k_alpha walk adds, in root order: system.roots lists
        # the negative roots after the positive ones, in the same order
        self.moves = tuple(-s for s in self.steps) + self.steps
        self.walk = tuple(
            (s, step, coeffs, sum(coeffs)) for s, (step, coeffs) in zip(self.steps, table)
        )
        # columns[k] is the offset of alpha_i^vee for the field k from the bottom,
        # k = rank - i: the bit length of that field's guard is w * k
        self.columns = (0,) + tuple(self.offset(col) for col in reversed(system.columns))

    def offset(self, v: IntVec) -> int:
        """What adding v does to a code."""
        return sum(x << s for x, s in zip(v, self.shifts))

    def code(self, p: IntVec) -> int:
        return self.guard + self.offset(p)

    def taken(self, code: int) -> int:
        """Bit j set for each positive coroot j whose step from the coded point stays dominant."""
        guard, taken = self.guard, 0
        for j, step in enumerate(self.steps):
            if (code - step) & guard == guard:
                taken |= 1 << j
        return taken

    def dominant_rep(self, code: int) -> int:
        """The code of the dominant representative of a coded vector's orbit.

        The most significant cleared guard bit names the first negative
        coordinate x_i, and adding -x_i times the offset of alpha_i^vee
        reflects in alpha_i, at most once per positive root, as in
        rootsys.dominant_rep.
        """
        guard, width, mask = self.guard, self.width, (1 << self.width) - 1
        for _ in range(len(self.steps) + 1):
            cleared = guard & ~code
            if not cleared:
                return code
            top = cleared.bit_length()
            x = ((code >> (top - width)) & mask) - self.half
            code -= x * self.columns[top // width]
        raise RuntimeError("dominant representative did not stabilize")


# -- the memoised poset -------------------------------------------------------


class DominancePoset:
    """The dominance order on the dominant coweights of one root system, memoised.

    Stembridge (The partial order of dominant weights, Adv. Math. 136, 1998):
    for dominant lam < nu there is a positive root beta with nu - beta^vee
    dominant and lam <= nu - beta^vee.  So a walk from mu over dominant steps
    nu -> nu - beta^vee reaches every stratum below mu, and every cover of nu
    is such a step, one whose coroot coefficients are minimal among them.

    The walks run on one int per point, its code in the poset's _Layout,
    which is widened before a walk from a top that needs more.  Take mu
    dominant with <mu,2rho> = D, and h the largest coefficient sum of a
    positive coroot.  For dominant d, 2rho minus a positive root is a sum of
    positive roots, so every point of d's Weyl orbit has coordinates of
    absolute value at most <d,2rho>.  Every point a walk from mu visits is a
    point of the orbit of some dominant d <= mu, whose <d,2rho> is at most D,
    moved by one coroot, and its dominant representative pairs with 2rho to
    at most D + 2h: <alpha_i^vee,2rho> = 2 makes <beta^vee,2rho> twice
    beta^vee's coefficient sum.  So the points a walk visits, and every
    reflection on the way to a representative, stay within fields of width
    (D + 2h).bit_length() + 1.  h is not read off highest_root, which a
    reducible system does not have.
    """

    def __init__(self, system: FiniteRootSystem) -> None:
        self.system = system
        self._coroot_height = max(sum(coeffs) for _, coeffs in _positive_coroots(system))
        self._format: _Layout | None = None
        self._below: dict[IntVec, dict[IntVec, IntVec]] = {}
        # (lower, gap, support, case) of each classified edge below an upper end
        self._edges: dict[IntVec, tuple[tuple[IntVec, IntVec, IntVec, int], ...]] = {}
        self._k_vectors: dict[tuple[IntVec, IntVec], tuple[int, ...]] = {}
        # the code of every dominant point a walk met, mapped to its pairing
        # vector, the one tuple the other memos share; and the code of the
        # dominant representative of every other point a k_alpha walk met
        self._points: dict[int, IntVec] = {}
        self._reps: dict[int, int] = {}
        self._members = 0  # down-set members over every top in _below

    @property
    def entries(self) -> int:
        """Memo size: one per key of every memo, one per member of every down-set."""
        memos = (self._edges, self._k_vectors, self._points, self._reps)
        return self._members + sum(map(len, memos))

    def _fit(self, top: IntVec) -> _Layout:
        """The poset's layout, first widened if walks from the dominant top need it.

        Widening codes the kept points afresh and drops the representatives.
        """
        bound = sum(map(mul, self.system.two_rho_coefficients, top)) + 2 * self._coroot_height
        layout = self._format
        if layout is None or bound >= layout.half:
            layout = self._format = _Layout(self.system, bound.bit_length() + 1)
            self._points = {layout.code(p): p for p in self._points.values()}
            self._reps = {}
        return layout

    def below(self, mu: IntVec) -> dict[IntVec, IntVec]:
        """Each dominant lam <= mu, mapped to the coroot coefficients of mu - lam.

        The keys come in stratum order, sorted on (height of the gap, code):
        <lam,2rho> = <mu,2rho> - 2 ht(mu - lam), and code order is the
        lexicographic order that breaks ties in the stratum order.
        Only the coset of mu is reached, so membership is the
        dominance test for any dominant lam in that coset.  mu must be
        dominant.  A point's tuple is built the first time any walk meets
        it, its gap the first time this walk does.
        """
        below = self._below.get(mu)
        if below is None:
            layout = self._fit(mu)
            guard, points = layout.guard, self._points
            top = layout.code(mu)
            mu = points.setdefault(top, mu)
            seen = {top}
            queue = [(0, top, mu, (0,) * self.system.rank)]
            for height, code, p, gap in queue:  # grows while it is walked: breadth first
                for step, pairings, coeffs, rise in layout.walk:
                    q = code - step
                    if q & guard == guard and q not in seen:
                        seen.add(q)
                        lam = points.get(q)
                        if lam is None:
                            lam = points[q] = tuple(map(sub, p, pairings))
                        queue.append((height + rise, q, lam, tuple(map(add, gap, coeffs))))
            queue.sort()  # codes are distinct, so no two points are compared
            below = self._below[mu] = {p: gap for _, _, p, gap in queue}
            self._members += len(below)
        return below

    def edges(self, p: IntVec) -> tuple[tuple[IntVec, IntVec, IntVec, int], ...]:
        """(lower end, gap, support, case) of each covering edge below p, by lower end.

        gap holds the coroot coefficients of p - lower, support the indices
        where it is nonzero, and case the Stembridge case tag.  A dominant
        step is a cover unless another one drops by componentwise less: that
        step's target lies strictly between p and this one's.  The edges
        depend only on p, so every top above p shares them.
        """
        edges = self._edges.get(p)
        if edges is None:
            layout = self._fit(p)
            code = layout.code(p)
            taken = layout.taken(code)
            table, points = _positive_coroots(self.system), self._points
            order, supports, undercuts = _cover_table(self.system)
            found = []
            for j in order:
                if taken >> j & 1 and not undercuts[j] & taken:
                    step, gap = table[j]
                    # the down-set's tuple, once walked
                    q = points.get(code - layout.steps[j]) or tuple(map(sub, p, step))
                    support = supports[j]
                    found.append((q, gap, support, _classify(self.system, p, q, gap, support)))
            edges = self._edges[p] = tuple(found)
        return edges

    def k_vector(self, lam: IntVec, mu: IntVec) -> tuple[int, ...]:
        """k_alpha(lam, mu) for every root alpha, in root order, walked once per pair.

        k_alpha is the largest k with dom(lam - k alpha^vee) in the down-set
        of mu.  Every candidate lies in lam's coset, which is mu's, so
        down-set membership is the dominance test: no lattice solve.  The
        admissible set is an initial interval of the integers, so the first
        failure ends a walk; the cap turns any broken monotonicity into a
        loud error instead of a wrong answer.  Each candidate is one addition
        to the code of the one before.
        """
        counts = self._k_vectors.get((lam, mu))
        if counts is None:
            below = self.below(mu)
            layout = self._fit(mu)
            guard, rep_of = layout.guard, layout.dominant_rep
            points, reps = self._points, self._reps
            cap = sum(map(mul, self.system.two_rho_coefficients, mu)) + 1
            start = layout.code(lam)
            walks = []
            for move in layout.moves:
                cand = start
                k = 0
                while True:
                    cand += move
                    rep = cand
                    if cand & guard != guard:
                        rep = reps.get(cand)
                        if rep is None:
                            rep = reps[cand] = rep_of(cand)
                    if points.get(rep) not in below:
                        break
                    k += 1
                    if k > cap:
                        raise RuntimeError("root-curve count exceeded the dimension cap")
                walks.append(k)
            counts = self._k_vectors[lam, mu] = tuple(walks)
        return counts


# The poset of every root system asked about, kept from one call to the next.
_posets: dict[FiniteRootSystem, DominancePoset] = {}


def _poset(system: FiniteRootSystem, top: IntVec) -> DominancePoset:
    """The kept poset of system, for a call about the closure of top.

    A call about a top the poset has walked takes it as it is, so the calls
    of one closure share one poset.  Before a new top, past MAX_POSET_ENTRIES
    in total, the posets of the other systems are dropped, and this one is
    started afresh if it alone is still past the bound.  So a long run holds
    at most the bound plus one request's worth.
    """
    poset = _posets.get(system)
    if poset is not None and top in poset._below:
        return poset
    if sum(kept.entries for kept in _posets.values()) > MAX_POSET_ENTRIES:
        _posets.clear()
        if poset is not None and poset.entries <= MAX_POSET_ENTRIES:
            _posets[system] = poset
    if system not in _posets:
        poset = _posets[system] = DominancePoset(system)
    return poset


def _closure(
    mu: Coweight, lam: Coweight | None = None, datum: TwistedDatum | None = None
) -> DominancePoset:
    """The kept poset for a call about the closure of mu, after its checks, each run once.

    mu must be dominant, and so must lam if given, in mu's system and below
    mu; a datum must sit at the absolutely special vertex, with mu in its
    folded root system.  Each refusal is a ValueError.
    """
    if datum is not None:
        if datum.vertex != ABSOLUTELY_SPECIAL:
            raise ValueError("certificates are only valid at an absolutely special vertex")
        if mu.system is not datum.echelonnage:
            raise ValueError("coweights must live in the datum's folded root system")
    if lam is not None and lam.system is not mu.system:
        raise ValueError("coweights live in different root systems")
    if not (mu.is_dominant() and (lam is None or lam.is_dominant())):
        raise ValueError("coweights must be dominant")
    poset = _poset(mu.system, mu.pairings)
    if lam is not None and lam.pairings not in poset.below(mu.pairings):
        raise ValueError("lam must lie below mu in the dominance order")
    return poset


# -- poset enumeration -------------------------------------------------------


def dominant_below(mu: Coweight) -> list[Coweight]:
    """All dominant lam with lam <= mu and mu - lam in the coroot lattice."""
    return [Coweight(mu.system, p) for p in _closure(mu).below(mu.pairings)]


def minimal_degenerations(mu: Coweight) -> list[DegenerationEdge]:
    """Every covering pair of the dominance order on dominant_below(mu)."""
    system = mu.system
    found = []
    for p, edges in _edges_below(mu):
        upper = Coweight(system, p)
        for q, gap, support, case in edges:
            lower = Coweight(system, q)
            found.append(DegenerationEdge(upper, lower, CorootVector(system, gap), support, case))
    return found


def _edges_below(
    mu: Coweight,
) -> list[tuple[IntVec, tuple[tuple[IntVec, IntVec, IntVec, int], ...]]]:
    """(p, DominancePoset.edges(p)) for every stratum p of the mu closure, in stratum order."""
    poset = _closure(mu)
    return [(p, poset.edges(p)) for p in poset.below(mu.pairings)]


# -- degeneration classification ---------------------------------------------


@lru_cache(maxsize=64)
def _canonical_sdc(label: str) -> IntVec:
    return short_dominant_coroot(build_root_system(label)).coefficients


# One per (system, support) of a covering edge: a system of rank r has at most
# 2^r - 1 supports, 15 for the rank-4 sweep and closure types.
@lru_cache(maxsize=512)
def _support_components(
    system: FiniteRootSystem, support: IntVec
) -> tuple[tuple[str, IntVec], ...]:
    """Irreducible components of the simple roots in support, in ambient indices."""
    sub_cartan = tuple(tuple(system.cartan[i][j] for j in support) for i in support)
    return tuple(
        (label, tuple(support[k] for k in order))
        for label, order in recognize_components(sub_cartan)
    )


def _classify(
    system: FiniteRootSystem, mu: IntVec, lam: IntVec, gap: IntVec, support: IntVec
) -> int:
    """Match a covering pair against the five minimal-degeneration shapes.

    mu and lam are pairing vectors, gap the coroot coefficients of mu - lam
    and support the indices where gap is nonzero.  Patterns with an
    irreducible support are tried before the simple-coroot one: a rank-one
    support with lam vanishing on it belongs to the orbit pattern, not the
    simple-root pattern.
    """
    components = _support_components(system, support)
    if len(components) == 1:
        label, order = components[0]
        sdc = _canonical_sdc(label)
        gap_matches_sdc = all(gap[order[k]] == sdc[k] for k in range(len(order)))
        lam_on = tuple(lam[i] for i in order)
        if gap_matches_sdc and all(x == 0 for x in lam_on):
            return 2
        if (
            label.startswith("C")
            and gap_matches_sdc
            and lam_on[-1] == 1
            and all(x == 0 for x in lam_on[:-1])
        ):
            return 3
        if label == "G2" and gap[order[0]] == 1 and gap[order[1]] == 1:
            mu_on = tuple(mu[i] for i in order)
            if lam_on == (0, 2) and mu_on == (1, 1):
                return 4
            if lam_on == (0, 1) and mu_on == (1, 0):
                return 5
    if sum(gap) == 1:
        return 1
    raise RuntimeError(
        f"covering pair {mu} over {lam} matches no "
        "known minimal-degeneration pattern"
    )


# -- root-curve counts --------------------------------------------------------


def k_alpha(lam: Coweight, mu: Coweight, alpha: Root) -> int:
    """Largest k with dominant_rep(lam - k * coroot(alpha)) <= mu."""
    poset = _closure(mu, lam)
    index = lam.system.root_index.get(alpha)
    if index is None:
        raise ValueError(f"{alpha} is not a root of {lam.system.label}")
    return poset.k_vector(lam.pairings, mu.pairings)[index]


def k_vector(lam: Coweight, mu: Coweight) -> KVector:
    """k_alpha for every root, each by its own walk."""
    counts = _closure(mu, lam).k_vector(lam.pairings, mu.pairings)
    return KVector(lam.system, tuple(zip(lam.system.roots, counts)))


def root_tangent_bound(lam: Coweight, mu: Coweight) -> int:
    """Sum of k_alpha over all roots: a lower bound for the tangent dimension."""
    return k_vector(lam, mu).total


# -- certificates -------------------------------------------------------------


def certificate(mu: Coweight, lam: Coweight, datum: TwistedDatum) -> SmoothnessCertificate:
    """Singularity certificate for the lam stratum inside the mu closure."""
    poset = _closure(mu, lam, datum)
    if lam == mu:
        raise ValueError("need a strict degeneration, got lam == mu")
    row = _certificate_row(poset, mu.pairings, lam.pairings, datum)
    return SmoothnessCertificate(mu, lam, *row)


def _certificate_row(
    poset: DominancePoset, mu: IntVec, lam: IntVec, datum: TwistedDatum
) -> tuple[int, int, int, str]:
    """(dim, root_bound, cartan_extra, verdict) of the certificate of lam < mu, both in poset."""
    system = poset.system
    counts = poset.k_vector(lam, mu)
    dim = sum(map(mul, system.two_rho_coefficients, mu))
    root_bound = sum(counts)
    # system.roots lists the negative roots after the positive ones
    if any(counts[len(system.positive_roots) :]):
        if cartan_sigma_dim(datum, 1) < 1:
            raise RuntimeError(
                "no Cartan direction available: sigma0 has a trivial zeta eigenspace"
            )
        cartan_extra = 1
    else:
        cartan_extra = 0
    verdict = SINGULAR if root_bound + cartan_extra >= dim + 1 else INCONCLUSIVE
    return dim, root_bound, cartan_extra, verdict


def smooth_locus_report(mu: Coweight, datum: TwistedDatum) -> SmoothLocusReport:
    """Status of every stratum of the mu closure.

    The top stratum is the open orbit.  Each cover gets a direct certificate.
    Anything deeper inherits singularity from a cover above it: were a deep
    stratum smooth, openness of the smooth locus would force smoothness on
    every stratum between it and mu, contradicting that cover's certificate.
    """
    system = mu.system
    strata = []
    for p, status, mechanism, cert, via in _stratum_rows(mu, datum):
        lam = Coweight(system, p)
        strata.append(
            StratumReport(
                lam,
                status,
                mechanism,
                None if cert is None else SmoothnessCertificate(mu, lam, *cert),
                None if via is None else Coweight(system, via),
            )
        )
    return SmoothLocusReport(mu, tuple(strata))


def _stratum_rows(
    mu: Coweight, datum: TwistedDatum
) -> list[tuple[IntVec, str, str, tuple[int, int, int, str] | None, IntVec | None]]:
    """(lam, status, mechanism, certificate, via) of every stratum of the mu closure.

    The rows of smooth_locus_report as raw tuples, in stratum order: lam and
    via are pairing vectors, and certificate is the _certificate_row of a
    cover, None for every other stratum.
    """
    poset = _closure(mu, datum=datum)
    top = mu.pairings
    covers = {q for q, _, _, _ in poset.edges(top)}
    rows, singular = [], []
    for p, gap in poset.below(top).items():
        if p in covers:
            cert = _certificate_row(poset, top, p, datum)
            if cert[3] == SINGULAR:
                singular.append((p, gap))
            status = "singular" if cert[3] == SINGULAR else "unresolved"
            rows.append((p, status, "certificate", cert, None))
        elif not any(gap):
            rows.append((p, "smooth", "open-orbit", None, None))
        else:
            # the first singular cover, in stratum order, whose gap is
            # componentwise at most p's: a cover of smaller gap comes before p,
            # and none has p's gap, since the stratum with a cover's gap is that cover
            status, via = "unresolved", None
            for cover, c in singular:
                if all(map(le, c, gap)):
                    status, via = "singular", cover
                    break
            rows.append((p, status, "openness-propagation", None, via))
    return rows
