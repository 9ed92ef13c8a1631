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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    two_rho_pairing,
)
from affsch.twist import ABSOLUTELY_SPECIAL, TwistedDatum, cartan_sigma_dim

SINGULAR = "singular"
INCONCLUSIVE = "inconclusive"


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


# -- cached primitives on raw pairing tuples --------------------------------


@lru_cache(maxsize=None)
def _coroot_step(system: FiniteRootSystem, root: Root) -> IntVec:
    return CorootVector(system, system.coroot_coefficients(root)).pairings


@lru_cache(maxsize=None)
def _dom_raw(system: FiniteRootSystem, p: IntVec) -> IntVec:
    return _dominant_rep_raw(p, system.columns)


@lru_cache(maxsize=None)
def _gap_raw(system: FiniteRootSystem, lp: IntVec, mp: IntVec) -> IntVec | None:
    """Coroot coefficients of mu - lam if lam <= mu in dominance, else None."""
    c = system.lattice_coefficients(tuple(m - l for l, m in zip(lp, mp)))
    if c is None or any(x < 0 for x in c):
        return None
    return c


def _require_dominant_pair(lam: Coweight, mu: Coweight) -> None:
    if lam.system is not mu.system:
        raise ValueError("coweights live in different root systems")
    if not (lam.is_dominant() and mu.is_dominant()):
        raise ValueError("both coweights must be dominant")


# -- poset enumeration -------------------------------------------------------


def _stratum_key(system: FiniteRootSystem, p: IntVec) -> tuple[int, IntVec]:
    """Stratum order: larger <lam,2rho> first, ties by pairing vector."""
    return -sum(h * x for h, x in zip(system.two_rho_coefficients, p)), p


@lru_cache(maxsize=None)
def _positive_coroots(system: FiniteRootSystem) -> tuple[tuple[IntVec, IntVec], ...]:
    """(pairings, coefficients) of beta^vee for every positive root beta."""
    return tuple(
        (_coroot_step(system, beta), system.coroot_coefficients(beta))
        for beta in system.positive_roots
    )


def _dominant_steps(system: FiniteRootSystem, p: IntVec) -> list[tuple[IntVec, IntVec]]:
    """(p - beta^vee, coefficients of beta^vee) for each dominant step from p."""
    steps = []
    for step, coeffs in _positive_coroots(system):
        q = tuple(x - s for x, s in zip(p, step))
        if all(x >= 0 for x in q):
            steps.append((q, coeffs))
    return steps


def _below_with_gaps(mu: Coweight) -> list[tuple[Coweight, IntVec]]:
    """Dominant lam <= mu, paired with the coroot coefficients of mu - lam.

    Stembridge (The partial order of dominant weights, Adv. Math. 136, 1998):
    for dominant lam < nu there is a positive root beta with nu - beta^vee
    dominant and lam <= nu - beta^vee.  So a walk from mu over dominant steps
    nu -> nu - beta^vee reaches every stratum, and every cover of nu is such a
    step, one whose coroot coefficients are minimal among them (_covers).
    """
    system = mu.system
    gaps = {mu.pairings: (0,) * system.rank}
    queue = [mu.pairings]
    for p in queue:  # the queue grows while it is walked: breadth first
        for q, coeffs in _dominant_steps(system, p):
            if q not in gaps:
                gaps[q] = tuple(a + b for a, b in zip(gaps[p], coeffs))
                queue.append(q)
    return [
        (Coweight(system, p), gaps[p])
        for p in sorted(gaps, key=lambda p: _stratum_key(system, p))
    ]


def dominant_below(mu: Coweight) -> list[Coweight]:
    """All dominant lam with lam <= mu and mu - lam in the coroot lattice."""
    _require_dominant_pair(mu, mu)
    return [lam for lam, _ in _below_with_gaps(mu)]


def _componentwise_lt(a: IntVec, b: IntVec) -> bool:
    return a != b and all(x <= y for x, y in zip(a, b))


def _covers(system: FiniteRootSystem, p: IntVec) -> list[tuple[Coweight, IntVec]]:
    """Covers of the dominant p, each with the coefficients of p - cover; stratum order.

    A dominant step is a cover unless another one drops by componentwise less:
    that step's target lies strictly between p and this one's.
    """
    steps = _dominant_steps(system, p)
    covers = [
        (q, coeffs)
        for q, coeffs in steps
        if not any(_componentwise_lt(other, coeffs) for _, other in steps)
    ]
    covers.sort(key=lambda step: _stratum_key(system, step[0]))
    return [(Coweight(system, q), coeffs) for q, coeffs in covers]


def minimal_degenerations(mu: Coweight) -> list[DegenerationEdge]:
    """Every covering pair of the dominance order on dominant_below(mu)."""
    _require_dominant_pair(mu, mu)
    system = mu.system
    edges: list[DegenerationEdge] = []
    for upper, _ in _below_with_gaps(mu):
        for lower, gap in _covers(system, upper.pairings):
            support = tuple(i for i, x in enumerate(gap) if x)
            case = _classify(upper, lower, gap)
            edges.append(
                DegenerationEdge(upper, lower, CorootVector(system, gap), support, case)
            )
    edges.sort(key=lambda e: (-two_rho_pairing(e.mu), e.mu.pairings, e.lam.pairings))
    return edges


# -- degeneration classification ---------------------------------------------


@lru_cache(maxsize=None)
def _canonical_sdc(label: str) -> IntVec:
    return short_dominant_coroot(build_root_system(label)).coefficients


def _support_components(
    system: FiniteRootSystem, support: IntVec
) -> tuple[tuple[str, IntVec], ...]:
    """Irreducible components of the simple roots in support, in ambient indices."""
    sub_cartan = tuple(tuple(system.cartan[i][j] for j in support) for i in support)
    return tuple(
        (label, tuple(support[k] for k in order))
        for label, order in recognize_components(sub_cartan)
    )


def _classify(mu: Coweight, lam: Coweight, gap: IntVec) -> int:
    """Match a covering pair against the five minimal-degeneration shapes.

    Patterns with an irreducible support are tried before the simple-coroot
    one: a rank-one support with lam vanishing on it belongs to the orbit
    pattern, not the simple-root pattern.
    """
    support = tuple(i for i, x in enumerate(gap) if x)
    components = _support_components(mu.system, support)
    if len(components) == 1:
        label, order = components[0]
        sdc = _canonical_sdc(label)
        gap_matches_sdc = all(gap[order[k]] == sdc[k] for k in range(len(order)))
        lam_on = tuple(lam.pairings[i] for i in order)
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
            mu_on = tuple(mu.pairings[i] for i in order)
            if lam_on == (0, 2) and mu_on == (1, 1):
                return 4
            if lam_on == (0, 1) and mu_on == (1, 0):
                return 5
    if sum(gap) == 1:
        return 1
    raise RuntimeError(
        f"covering pair {mu.pairings} over {lam.pairings} matches no "
        "known minimal-degeneration pattern"
    )


def classify_degeneration(edge: DegenerationEdge) -> int:
    """Recompute the case tag 1..5 of a covering pair from its endpoints."""
    return _classify(edge.mu, edge.lam, edge.diff.coefficients)


# -- root-curve counts --------------------------------------------------------


def k_alpha(lam: Coweight, mu: Coweight, alpha: Root) -> int:
    """Largest k with dominant_rep(lam - k * coroot(alpha)) <= mu.

    The admissible set is an initial interval of the integers, so the first
    failure ends the search; the cap turns any broken monotonicity into a
    loud error instead of a wrong answer.
    """
    _require_dominant_pair(lam, mu)
    system = lam.system
    if _gap_raw(system, lam.pairings, mu.pairings) is None:
        raise ValueError("lam must lie below mu in the dominance order")
    step = _coroot_step(system, alpha)
    cap = two_rho_pairing(mu) + 1
    mp = mu.pairings
    k = 0
    while True:
        cand = tuple(p - (k + 1) * s for p, s in zip(lam.pairings, step))
        if _gap_raw(system, _dom_raw(system, cand), mp) is None:
            return k
        k += 1
        if k > cap:
            raise RuntimeError("root-curve count exceeded the dimension cap")


def k_vector(lam: Coweight, mu: Coweight) -> KVector:
    system = lam.system
    return KVector(
        system, tuple((root, k_alpha(lam, mu, root)) for root in system.roots)
    )


def root_tangent_bound(lam: Coweight, mu: Coweight) -> int:
    """Sum of k_alpha over all roots: a lower bound for the tangent dimension."""
    return k_vector(lam, mu).total


def root_curve_target(
    lam: Coweight, alpha: Root, k: int, mu: Coweight | None = None
) -> Coweight:
    """Stratum label reached by the alpha root curve at winding k."""
    if k < 1:
        raise ValueError("winding number k must be at least 1")
    if mu is not None and k > k_alpha(lam, mu, alpha):
        raise ValueError("k exceeds the root-curve count for this pair")
    system = lam.system
    step = _coroot_step(system, alpha)
    cand = tuple(p - k * s for p, s in zip(lam.pairings, step))
    return Coweight(system, _dom_raw(system, cand))


# -- certificates -------------------------------------------------------------


def certificate(
    mu: Coweight, lam: Coweight, datum: TwistedDatum
) -> SmoothnessCertificate:
    """Singularity certificate for the lam stratum inside the mu closure."""
    if datum.vertex != ABSOLUTELY_SPECIAL:
        raise ValueError("certificates are only valid at an absolutely special vertex")
    if mu.system is not datum.echelonnage:
        raise ValueError("coweights must live in the datum's folded root system")
    _require_dominant_pair(lam, mu)
    if lam == mu:
        raise ValueError("need a strict degeneration, got lam == mu")
    if _gap_raw(mu.system, lam.pairings, mu.pairings) is None:
        raise ValueError("lam must lie below mu in the dominance order")
    kv = k_vector(lam, mu)
    dim = two_rho_pairing(mu)
    root_bound = kv.total
    negative_direction = any(
        kv[tuple(-x for x in alpha)] >= 1 for alpha in mu.system.positive_roots
    )
    if negative_direction:
        if cartan_sigma_dim(datum, 1) < 1:
            raise RuntimeError(
                "no Cartan direction available: sigma0 has a trivial zeta eigenspace"
            )
        cartan_extra = 1
    else:
        cartan_extra = 0
    verdict = SINGULAR if root_bound + cartan_extra >= dim + 1 else INCONCLUSIVE
    return SmoothnessCertificate(mu, lam, dim, root_bound, cartan_extra, verdict)


def smooth_locus_report(mu: Coweight, datum: TwistedDatum) -> SmoothLocusReport:
    """Status of every stratum of the mu closure.

    The top stratum is the open orbit.  Each cover gets a direct certificate.
    Anything deeper inherits singularity from a cover above it: were a deep
    stratum smooth, openness of the smooth locus would force smoothness on
    every stratum between it and mu, contradicting that cover's certificate.
    """
    if datum.vertex != ABSOLUTELY_SPECIAL:
        raise ValueError("reports are only valid at an absolutely special vertex")
    if mu.system is not datum.echelonnage:
        raise ValueError("mu must live in the datum's folded root system")
    _require_dominant_pair(mu, mu)
    pairs = _below_with_gaps(mu)
    covers = _covers(mu.system, mu.pairings)
    certificates = {lam: certificate(mu, lam, datum) for lam, _ in covers}
    strata: list[StratumReport] = []
    for lam, gap in pairs:
        if not any(gap):
            strata.append(StratumReport(lam, "smooth", "open-orbit"))
        elif lam in certificates:
            cert = certificates[lam]
            status = "singular" if cert.verdict == SINGULAR else "unresolved"
            strata.append(StratumReport(lam, status, "certificate", cert))
        else:
            via, status = None, "unresolved"
            for cover, cover_gap in covers:
                if _componentwise_lt(cover_gap, gap) and (
                    certificates[cover].verdict == SINGULAR
                ):
                    via, status = cover, "singular"
                    break
            strata.append(
                StratumReport(lam, status, "openness-propagation", None, via)
            )
    return SmoothLocusReport(mu, tuple(strata))
