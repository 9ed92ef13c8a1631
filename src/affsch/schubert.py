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

None of this depends on the closure top mu beyond its down-set, so one
DominancePoset per root system memoises it, each fact once: the down-set
with gaps of every top, the covers of every upper end asked about (kept only
as classified edges), the k-vector of every pair asked about over all roots,
and the dominant representatives its k_alpha walks land on, with one tuple
per distinct dominant point.  The memos hold raw tuples only.  The stratum
rows of a closure (_stratum_rows) and its edges (_edges_below) are raw
tuples too: the public functions wrap them in the Coweight, StratumReport
and DegenerationEdge objects they hand out, and cli writes its documents
from them directly.  Every entrance checks its call once, in _closure.  The
Stembridge steps are recomputed, not kept, and the walk builds only those
that stay dominant.
The steps and the k_alpha walks read one table of positive coroots: the walk
of a negative root adds what the walk of its positive root subtracts.
The public functions keep one poset per root system from call to call, so
the calls of one closure, and every sweep that comes back to a type, walk
each down-set once.  MAX_POSET_ENTRIES bounds the total over all of them:
before a call walks a new top past it, the posets of the other
systems are dropped, and the poset in use starts afresh only if it alone is
past the bound.  So a closure is never served by two posets, and a long run
holds at most the bound plus one request's worth.
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
    _dominant_rep_raw,
    build_root_system,
    recognize_components,
    short_dominant_coroot,
    two_rho_pairing,  # no use here; the demos and tests import it from this module
)
from affsch.twist import ABSOLUTELY_SPECIAL, TwistedDatum, cartan_sigma_dim

SINGULAR = "singular"
INCONCLUSIVE = "inconclusive"
# Bound on the entries of all kept posets together (see DominancePoset.entries
# and _poset).  Measured in a fresh process with stdout to /dev/null, among
# the largest closures cli admits: analyze fills 21,651 entries for G2 64,74
# with --lambda 0,0 and 16,600 for 2E6 14,1,5,2 (peak RSS +7.1 and +5.7 MB);
# one type of verify --max-pairing 40 fills at most 9,622 (A3, the
# mindeg-inequality suite).  poset --json, which also classifies the edges
# below every stratum, fills 28,044 and 22,752 for those two tops (peak RSS
# +30.7 and +38.1 MB, mostly transient: the edge objects and the document;
# the kept posets hold 4.4 and 4.7 MiB, 0.2 KB per entry).  A long run holds
# at most this plus one request's worth.
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
def _positive_coroots(
    system: FiniteRootSystem,
) -> tuple[tuple[IntVec, IntVec, IntVec], ...]:
    """(pairings, coefficients, positive) of beta^vee for every positive root beta.

    positive lists the coordinates i with <alpha_i, beta^vee> > 0, the only
    ones a step by beta^vee can take below zero from a dominant point.
    """
    table = []
    for beta in system.positive_roots:
        step = system.coroot_pairings(beta)
        positive = tuple(i for i, x in enumerate(step) if x > 0)
        table.append((step, system.coroot_coefficients(beta), positive))
    return tuple(table)


def _stratum_key(system: FiniteRootSystem, p: IntVec) -> tuple[int, IntVec]:
    """Stratum order: larger <lam,2rho> first, ties by pairing vector."""
    return -sum(map(mul, system.two_rho_coefficients, p)), p


def _componentwise_lt(a: IntVec, b: IntVec) -> bool:
    return a != b and all(map(le, a, b))


# -- the memoised poset -------------------------------------------------------


class DominancePoset:
    """The dominance order on the dominant coweights of one root system, memoised.

    Stembridge (The partial order of dominant weights, Adv. Math. 136, 1998):
    for dominant lam < nu there is a positive root beta with nu - beta^vee
    dominant and lam <= nu - beta^vee.  So a walk from mu over dominant steps
    nu -> nu - beta^vee reaches every stratum below mu, and every cover of nu
    is such a step, one whose coroot coefficients are minimal among them.

    Points are raw pairing vectors.  The classified edges below a point
    depend only on it, so every top above the point shares them.
    """

    def __init__(self, system: FiniteRootSystem) -> None:
        self.system = system
        self._below: dict[IntVec, dict[IntVec, IntVec]] = {}
        # (lower, gap, support, case) of each classified edge below an upper end
        self._edges: dict[IntVec, tuple[tuple[IntVec, IntVec, IntVec, int], ...]] = {}
        # dominant representative of every point a walk met; a dominant point
        # maps to itself, and the other memos share that one tuple
        self._dom: dict[IntVec, IntVec] = {}
        self._k_vectors: dict[tuple[IntVec, IntVec], tuple[int, ...]] = {}
        self._members = 0  # down-set members over every top in _below

    @property
    def entries(self) -> int:
        """Memo size: one per key of every memo, one per member of every down-set."""
        memos = (self._edges, self._dom, self._k_vectors)
        return self._members + sum(map(len, memos))

    def steps(self, p: IntVec) -> list[tuple[IntVec, IntVec]]:
        """(p - beta^vee, coefficients of beta^vee) for each dominant step from p.

        p must be dominant, as every point the poset walks is: then only the
        coordinates where beta^vee pairs positively can drop below zero, so
        only they are tested, and only a step that stays dominant is built.
        Not memoised: a memo of the steps held about half of a kept poset.
        """
        steps = []
        for step, coeffs, positive in _positive_coroots(self.system):
            for i in positive:
                if p[i] < step[i]:
                    break
            else:
                steps.append((tuple(map(sub, p, step)), coeffs))
        return steps

    def below(self, mu: IntVec) -> dict[IntVec, IntVec]:
        """Each dominant lam <= mu, mapped to the coroot coefficients of mu - lam.

        The keys come in stratum order.  Only the coset of mu is reached, so
        membership is the dominance test for any dominant lam in that coset.
        mu must be dominant: every point walked enters _dom as its own
        representative.
        """
        below = self._below.get(mu)
        if below is None:
            intern = self._dom.setdefault
            mu = intern(mu, mu)
            gaps = {mu: (0,) * self.system.rank}
            queue = [mu]
            for p in queue:  # the queue grows while it is walked: breadth first
                for q, coeffs in self.steps(p):
                    if q not in gaps:
                        q = intern(q, q)
                        gaps[q] = tuple(map(add, gaps[p], coeffs))
                        queue.append(q)
            queue.sort(key=lambda p: _stratum_key(self.system, p))
            below = self._below[mu] = {p: gaps[p] for p in queue}
            self._members += len(below)
        return below

    def edges(self, p: IntVec) -> tuple[tuple[IntVec, IntVec, IntVec, int], ...]:
        """(lower end, gap, support, case) of each covering edge below p, by lower end.

        gap holds the coroot coefficients of p - lower, support the indices
        where it is nonzero, and case the Stembridge case tag.  A dominant
        step is a cover unless another one drops by componentwise less: that
        step's target lies strictly between p and this one's.
        """
        edges = self._edges.get(p)
        if edges is None:
            steps, dom = self.steps(p), self._dom
            found = []
            for q, gap in sorted(steps):
                if any(_componentwise_lt(other, gap) for _, other in steps):
                    continue
                q = dom.get(q, q)  # the down-set's tuple, once walked
                support = tuple(i for i, x in enumerate(gap) if x)
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
        loud error instead of a wrong answer.  system.roots lists the
        negative roots after the positive ones, in the same order, so a
        positive root's walk subtracts its coroot's pairing vector and the
        matching negative root's walk adds it.
        """
        counts = self._k_vectors.get((lam, mu))
        if counts is None:
            below = self.below(mu)
            cap = sum(h * x for h, x in zip(self.system.two_rho_coefficients, mu)) + 1
            dom, columns = self._dom, self.system.columns
            walks = []
            for move in (sub, add):
                for step, _, _ in _positive_coroots(self.system):
                    cand = lam
                    k = 0
                    while True:
                        cand = tuple(map(move, cand, step))
                        rep = dom.get(cand)
                        if rep is None:
                            rep = _dominant_rep_raw(cand, columns)
                            rep = dom[cand] = dom.setdefault(rep, rep)
                        if rep not in below:
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
    started afresh if it alone is still past the bound.
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
    system, top = mu.system, mu.pairings
    below = poset.below(top)
    certificates, singular = {}, []
    covers = sorted(poset.edges(top), key=lambda edge: _stratum_key(system, edge[0]))
    for q, gap, _, _ in covers:
        cert = certificates[q] = _certificate_row(poset, top, q, datum)
        if cert[3] == SINGULAR:
            singular.append((q, gap))
    rows = []
    for p, gap in below.items():
        cert = certificates.get(p)
        if cert is not None:
            status = "singular" if cert[3] == SINGULAR else "unresolved"
            rows.append((p, status, "certificate", cert, None))
        elif not any(gap):
            rows.append((p, "smooth", "open-orbit", None, None))
        else:
            # the first cover above p, in stratum order, with a singular certificate
            via = next((cover for cover, c in singular if _componentwise_lt(c, gap)), None)
            status = "unresolved" if via is None else "singular"
            rows.append((p, status, "openness-propagation", None, via))
    return rows
