"""Dominance strata, covers, classification, k counts, certificates."""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsch import schubert
from affsch.rootsys import (
    _RANK_RANGE,
    Coweight,
    CorootVector,
    build_root_system,
    dominant_rep,
    two_rho_pairing,
)
from affsch.schubert import (
    DegenerationEdge,
    DominancePoset,
    _positive_coroots,
    certificate,
    dominant_below,
    k_alpha,
    k_vector,
    minimal_degenerations,
    root_tangent_bound,
    smooth_locus_report,
)
from affsch.twist import twisted_datum
from affsch.verify import SWEEP_TYPES, sweep_coweights
from benchdata import load_workloads
from oracles import (
    classify_degeneration,
    difference_coroot,
    dominance_leq,
    propagation_rows,
    root_curve_target,
    stembridge_below,
    stembridge_covers,
)


def cw(label: str, pairings) -> Coweight:
    return Coweight(build_root_system(label), tuple(pairings))


# -- independent oracles -----------------------------------------------------


def box_scan_below(mu: Coweight) -> set:
    """Dominant strata below mu, found by scanning a box of pairing vectors.

    Deliberately a different search space from the coroot-coefficient simplex
    below and from the library's step walk: for dominant lam <= mu,
    <lam,alpha_i> is one summand of <lam,2rho> <= <mu,2rho>, so each pairing
    entry is bounded by <mu,2rho>.
    """
    system = mu.system
    bound = two_rho_pairing(mu)
    out = set()

    def scan(prefix):
        if len(prefix) == system.rank:
            lam = Coweight(system, tuple(prefix))
            if dominance_leq(lam, mu):
                out.add(lam)
            return
        for v in range(bound + 1):
            scan(prefix + [v])

    scan([])
    return out


def simplex_scan_below(mu: Coweight) -> list:
    """(lam, coroot coefficients of mu - lam) for dominant lam <= mu, in stratum order.

    Scans every coefficient vector c >= 0 with sum(c) <= <mu,2rho>/2, sound
    because each simple coroot pairs to 2 with 2rho and <lam,2rho> stays
    nonnegative.  Exponential in the rank; the library walks Stembridge steps.
    """
    system = mu.system
    rank = system.rank
    cols = system.columns
    budget = two_rho_pairing(mu) // 2
    found = []
    c = [0] * rank

    def descend(j, remaining, p):
        if j == rank:
            if all(x >= 0 for x in p):
                found.append((Coweight(system, p), tuple(c)))
            return
        col = cols[j]
        for cj in range(remaining + 1):
            c[j] = cj
            descend(j + 1, remaining - cj, tuple(x - cj * y for x, y in zip(p, col)))
        c[j] = 0

    descend(0, budget, mu.pairings)
    found.sort(key=lambda pair: (-two_rho_pairing(pair[0]), pair[0].pairings))
    return found


def _strictly_below(a, b) -> bool:
    return a != b and all(x <= y for x, y in zip(a, b))


def gap_covers(pairs) -> set:
    """Covering pairs among (lam, gap) rows: gap order with nothing strictly between."""
    return {
        (upper, lower)
        for upper, cu in pairs
        for lower, cl in pairs
        if _strictly_below(cu, cl)
        and not any(
            _strictly_below(cu, cm) and _strictly_below(cm, cl) for _, cm in pairs
        )
    }


def dominant_up_to(system, bound: int) -> list:
    """Every dominant pairing vector p with <p,2rho> <= bound, in or off the coroot lattice."""
    h = system.two_rho_coefficients
    out = []

    def rec(prefix, total):
        if len(prefix) == system.rank:
            out.append(tuple(prefix))
            return
        for v in range((bound - total) // h[len(prefix)] + 1):
            rec(prefix + [v], total + v * h[len(prefix)])

    rec([], 0)
    return out


def brute_covers(mu: Coweight) -> set:
    """Hasse edges of the restricted dominance poset, by betweenness checks."""
    below = sorted(box_scan_below(mu), key=lambda v: v.pairings)
    edges = set()
    for upper in below:
        for lower in below:
            if lower == upper or not dominance_leq(lower, upper):
                continue
            between = any(
                mid != lower
                and mid != upper
                and dominance_leq(lower, mid)
                and dominance_leq(mid, upper)
                for mid in below
            )
            if not between:
                edges.add((upper, lower))
    return edges


def k_alpha_oracle(lam: Coweight, mu: Coweight, alpha, cap: int) -> int:
    """Definition-level scan, also checking the admissible set is an interval."""
    system = lam.system
    coroot = system.coroot_coefficients(alpha)
    step = tuple(
        sum(system.cartan[i][j] * coroot[j] for j in range(system.rank))
        for i in range(system.rank)
    )
    flags = []
    for k in range(cap + 1):
        cand = Coweight(system, tuple(p - k * s for p, s in zip(lam.pairings, step)))
        flags.append(dominance_leq(dominant_rep(cand), mu))
    assert flags[0], "k = 0 must always qualify"
    best = max(k for k, ok in enumerate(flags) if ok)
    assert all(flags[: best + 1]) and not any(flags[best + 1 :]), "not an interval"
    return best


# -- strata enumeration ------------------------------------------------------


def test_dominant_below_frozen():
    a1 = dominant_below(cw("A1", (2,)))
    assert [x.pairings for x in a1] == [(2,), (0,)]
    g2 = dominant_below(cw("G2", (0, 1)))
    assert [x.pairings for x in g2] == [(0, 1), (0, 0)]
    chain = dominant_below(cw("A1", (4,)))
    assert [x.pairings for x in chain] == [(4,), (2,), (0,)]
    c2 = dominant_below(cw("C2", (1, 1)))
    assert [x.pairings for x in c2] == [(1, 1), (0, 1)]
    a2 = dominant_below(cw("A2", (2, 0)))
    assert [x.pairings for x in a2] == [(2, 0), (0, 1)]
    # reflexivity: mu always leads its own list
    for mu in [cw("B3", (1, 0, 1)), cw("D4", (0, 1, 0, 0))]:
        assert dominant_below(mu)[0] == mu


@pytest.mark.parametrize(
    "label,p",
    [
        ("A2", (2, 2)),
        ("C2", (2, 1)),
        ("B3", (1, 1, 0)),
        ("G2", (1, 1)),
        ("A3", (1, 0, 2)),
    ],
)
def test_dominant_below_vs_box_scan(label, p):
    mu = cw(label, p)
    assert set(dominant_below(mu)) == box_scan_below(mu)


TWISTED_LABELS = ("2A2", "2A3", "2A4", "2A5", "2D4", "2D5", "3D4", "2E6")
# Every dominant mu with <mu,2rho> up to this: 970 tops, over a hundred for
# A2-A4 but only 3-4 for F4 and E6, where the simplex oracle grows too fast
# (in rank and pairing) to go further within a few seconds.
DIFFERENTIAL_PAIRING = 28


@pytest.mark.parametrize(
    "label", SWEEP_TYPES + ("F4", "B5", "D5", "E6") + TWISTED_LABELS
)
def test_below_with_gaps_vs_simplex_scan(label):
    if label[0].isdigit():
        system = twisted_datum(label).echelonnage
    else:
        system = build_root_system(label)
    for p in dominant_up_to(system, DIFFERENTIAL_PAIRING):
        mu = Coweight(system, p)
        pairs = simplex_scan_below(mu)
        # same strata, same gaps, same order
        below = DominancePoset(system).below(p)
        assert [(Coweight(system, q), gap) for q, gap in below.items()] == pairs, p
        edges = minimal_degenerations(mu)
        assert {(e.mu, e.lam) for e in edges} == gap_covers(pairs), p


# The types analyze and poset are benchmarked on, and the sweep types.
WALK_LABELS = tuple(dict.fromkeys(load_workloads().CLOSURE_TYPES + SWEEP_TYPES))
# Every dominant point with <p,2rho> up to this, in or off the coroot lattice:
# 681 points, from 3 for 2E6 to 119 for A3.
WALK_PAIRING = 24


@pytest.mark.parametrize("label", WALK_LABELS)
def test_pruned_walk_matches_full_subtraction(label):
    """edges and below (keys, order and gaps) as subtracting every coroot in full gives them."""
    system = twisted_datum(label).echelonnage
    for (step, coeffs), beta in zip(_positive_coroots(system), system.positive_roots):
        assert (step, coeffs) == (system.coroot_pairings(beta), system.coroot_coefficients(beta))
    poset = DominancePoset(system)
    for p in dominant_up_to(system, WALK_PAIRING):
        assert [e[:2] for e in poset.edges(p)] == sorted(stembridge_covers(system, p)), p
        below = poset.below(p)
        expected = stembridge_below(system, p)
        assert list(below.items()) == list(expected.items()), p


REUSE_PAIRING = 14  # the default --max-pairing of the verify sweeps


def _edge_order(edge):
    return (-two_rho_pairing(edge.mu), edge.mu.pairings, edge.lam.pairings)


def fresh_edges(mu: Coweight) -> list:
    """minimal_degenerations(mu) from a poset of its own."""
    edges, _ = _with_fresh_poset(lambda: minimal_degenerations(mu))
    return edges


def fresh_k_counts(lam: Coweight, mu: Coweight) -> list:
    """k_alpha(lam, mu) over every root, in root order, from a poset of its own."""
    return list(DominancePoset(mu.system).k_vector(lam.pairings, mu.pairings))


@pytest.mark.parametrize("label", SWEEP_TYPES)
def test_shared_poset_matches_fresh_posets_and_oracles(label):
    """The public calls over a sweep box answer as a fresh poset per call and the oracles do."""
    system = build_root_system(label)
    covers = set()
    for mu in sweep_coweights(system, REUSE_PAIRING):
        pairs = simplex_scan_below(mu)
        below = DominancePoset(system).below(mu.pairings)
        assert [(Coweight(system, q), gap) for q, gap in below.items()] == pairs, mu
        assert dominant_below(mu) == [Coweight(system, q) for q in below], mu
        assert dominant_below(mu) == [lam for lam, _ in pairs], mu
        edges = minimal_degenerations(mu)
        assert edges == fresh_edges(mu), mu
        assert edges == sorted(edges, key=_edge_order), mu
        assert {(e.mu, e.lam) for e in edges} == gap_covers(pairs), mu
        covers.update((e.mu, e.lam) for e in edges)
    assert covers
    for upper, lower in covers:
        kv = k_vector(lower, upper)
        assert [v for _, v in kv.entries] == fresh_k_counts(lower, upper)
        cap = two_rho_pairing(upper) + 1
        for root, value in kv.entries:
            assert value == k_alpha_oracle(lower, upper, root, cap), (upper, lower, root)


BOUNDARY_LABELS = ("A2", "C2", "G2", "B3", "2A2", "2A3", "2D4", "3D4")


def _fully_valid(nu) -> bool:
    """nu passes Coweight's own validation: rank-many entries, each an exact int."""
    return (
        type(nu) is Coweight
        and type(nu.pairings) is tuple
        and len(nu.pairings) == nu.system.rank
        and all(type(x) is int for x in nu.pairings)
        and Coweight(nu.system, nu.pairings) == nu
    )


@pytest.mark.parametrize("label", BOUNDARY_LABELS)
def test_boundary_objects_are_valid_and_match_the_old_construction(label):
    """Every point handed out passes full validation, and every edge is the validated one."""
    datum = twisted_datum(label)
    system = datum.echelonnage
    for p in dominant_up_to(system, 12):
        mu = Coweight(system, p)
        points = list(dominant_below(mu))
        edges = minimal_degenerations(mu)
        points += [nu for edge in edges for nu in (edge.mu, edge.lam)]
        for stratum in smooth_locus_report(mu, datum).strata:
            points.append(stratum.lam)
            if stratum.via is not None:
                points.append(stratum.via)
            if stratum.certificate is not None:
                points += [stratum.certificate.mu, stratum.certificate.lam]
        assert all(_fully_valid(nu) for nu in points), p
        # each edge as it was built before: validated Coweights over the brute covers
        old = []
        for upper, lower in brute_covers(mu):
            gap = difference_coroot(lower, upper).coefficients
            support = tuple(i for i, x in enumerate(gap) if x)
            edge = DegenerationEdge(
                Coweight(system, upper.pairings),
                Coweight(system, lower.pairings),
                CorootVector(system, gap),
                support,
                0,
            )
            old.append(replace(edge, stembridge_case=classify_degeneration(edge)))
        assert sorted(old, key=_edge_order) == edges, p


def test_poset_refuses_a_foreign_system_and_non_roots():
    a2 = build_root_system("A2")
    with pytest.raises(ValueError):
        k_alpha(Coweight(a2, (0, 0)), Coweight(a2, (1, 1)), (1, 1, 0))
    with pytest.raises(ValueError):
        k_alpha(Coweight(a2, (0, 0)), Coweight(a2, (1, 1)), (2, 2))


def test_poset_walks_each_k_vector_once_and_counts_it():
    poset = DominancePoset(build_root_system("B3"))
    mu = (1, 1, 0)
    strata = list(poset.below(mu))
    # every walk of a pair reads this poset's down-set of mu once, a memo hit none
    walked = []
    below = poset.below
    poset.below = lambda top: walked.append(top) or below(top)
    for k, lam in enumerate(strata, 1):
        counts = poset.k_vector(lam, mu)
        assert len(walked) == len(poset._k_vectors) == k
        assert poset.entries == _memo_size(poset)
        entries = poset.entries
        assert poset.k_vector(lam, mu) is counts and poset.entries == entries
        assert len(walked) == k
        assert list(counts) == fresh_k_counts(cw("B3", lam), cw("B3", mu))
    assert walked == [mu] * len(strata)


# Twisted and split types of rank 2 and 3 whose closures the oracles scan quickly.
INTERLEAVE_LABELS = ("A2", "G2", "2A3", "2A4", "2D4", "3D4")
PUBLIC_CALLS = (
    "dominant_below",
    "minimal_degenerations",
    "k_alpha",
    "k_vector",
    "root_tangent_bound",
    "certificate",
    "smooth_locus_report",
)


def _public_answer(name: str, datum, mu: Coweight, lam: Coweight, alpha):
    fn = getattr(schubert, name)
    if name in ("dominant_below", "minimal_degenerations"):
        return fn(mu)
    if name == "k_alpha":
        return fn(lam, mu, alpha)
    if name in ("k_vector", "root_tangent_bound"):
        return fn(lam, mu)
    if name == "certificate":
        return fn(mu, lam, datum) if lam != mu else None
    return fn(mu, datum)


def _oracle_check(name: str, answer, mu: Coweight, lam: Coweight, alpha) -> None:
    cap = two_rho_pairing(mu) + 1
    if name == "dominant_below":
        assert answer == [x for x, _ in simplex_scan_below(mu)]
    elif name == "minimal_degenerations":
        assert {(e.mu, e.lam) for e in answer} == gap_covers(simplex_scan_below(mu))
    elif name == "k_alpha":
        assert answer == k_alpha_oracle(lam, mu, alpha, cap)
    elif name == "k_vector":
        for root, value in answer.entries:
            assert value == k_alpha_oracle(lam, mu, root, cap), root


def _with_fresh_poset(ask):
    """ask() with no poset kept, then the kept ones put back; also the posets ask() left."""
    kept = dict(schubert._posets)
    schubert._posets.clear()
    try:
        return ask(), dict(schubert._posets)
    finally:
        schubert._posets.clear()
        schubert._posets.update(kept)


def _memo_size(poset: DominancePoset) -> int:
    """Every dict the poset holds, one per key, a dict of dicts one per inner key."""
    return sum(
        sum(len(value) if isinstance(value, dict) else 1 for value in memo.values())
        for memo in vars(poset).values()
        if isinstance(memo, dict)
    )


@st.composite
def interleavings(draw):
    """Two or three systems and a run of public calls, each about a small top of one of them."""
    labels = draw(st.lists(st.sampled_from(INTERLEAVE_LABELS), min_size=2, max_size=3, unique=True))
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        datum = twisted_datum(draw(st.sampled_from(labels)))
        system = datum.echelonnage
        mu = Coweight(system, tuple(draw(st.integers(0, 3)) for _ in range(system.rank)))
        # lam and alpha are drawn by index, so shrinking stays in range
        below = list(DominancePoset(system).below(mu.pairings))
        lam = Coweight(system, below[draw(st.integers(0, len(below) - 1))])
        alpha = system.roots[draw(st.integers(0, len(system.roots) - 1))]
        calls.append((draw(st.sampled_from(PUBLIC_CALLS)), datum, mu, lam, alpha))
    return calls


@settings(max_examples=60, deadline=None, database=None)
@given(interleavings())
def test_interleaved_public_calls_match_fresh_posets_and_oracles(calls):
    """Calls about several systems, in any order, answer as a fresh poset per call does."""
    for name, datum, mu, lam, alpha in calls:
        answer = _public_answer(name, datum, mu, lam, alpha)
        fresh, _ = _with_fresh_poset(lambda: _public_answer(name, datum, mu, lam, alpha))
        assert answer == fresh, (name, mu, lam)
        _oracle_check(name, answer, mu, lam, alpha)


def _closure_request(mu: Coweight):
    """What an analyze of mu asks: the covering edges, then k along each cover of mu."""
    edges = minimal_degenerations(mu)
    return edges, [k_vector(e.lam, mu) for e in edges if e.mu == mu]


def test_shared_poset_stays_within_its_bound_across_resets(monkeypatch):
    """Past the bound in total the kept posets are trimmed, and the answers stay right.

    Closures of A3 and G2 take turns.  Every kept poset counts every memo it
    holds, the total stays within the bound plus one request's worth, and one
    poset serves each request from its first call to its last.
    """
    bound = 300  # above the 147 entries of the largest request below
    monkeypatch.setattr(schubert, "MAX_POSET_ENTRIES", bound)
    monkeypatch.setattr(schubert, "_posets", {})
    taken = []
    take = schubert._poset

    def recording(system, top):
        taken.append(take(system, top))
        return taken[-1]

    monkeypatch.setattr(schubert, "_poset", recording)
    a3, g2 = build_root_system("A3"), build_root_system("G2")
    a3_tops, g2_tops = sweep_coweights(a3, 24), sweep_coweights(g2, 40)
    tops = [mu for pair in zip(a3_tops, g2_tops) for mu in pair] + a3_tops[len(g2_tops):]
    posets, dropped = set(), 0
    for mu in tops:
        before = dict(schubert._posets)
        taken.clear()
        answer = _closure_request(mu)
        assert len({id(poset) for poset in taken}) == 1, mu  # never replaced part-way
        posets.add(id(taken[0]))
        dropped += any(system not in schubert._posets for system in before)
        fresh, alone = _with_fresh_poset(lambda: _closure_request(mu))
        request = sum(poset.entries for poset in alone.values())
        assert request <= bound, mu
        for poset in schubert._posets.values():
            assert poset.entries == _memo_size(poset), mu
        assert sum(poset.entries for poset in schubert._posets.values()) <= bound + request, mu
        assert answer == fresh, mu
        assert {(e.mu, e.lam) for e in answer[0]} == gap_covers(simplex_scan_below(mu)), mu
    assert dropped > 2 and len(posets) > 4  # more tops than the bound admits: trimmed often


def test_posets_are_kept_per_system_and_dropped_past_the_bound(monkeypatch):
    """A system's poset outlives calls about other systems until the total passes the bound."""
    monkeypatch.setattr(schubert, "_posets", {})
    a2, g2 = twisted_datum("A2"), twisted_datum("G2")
    dominant_below(Coweight(a2.echelonnage, (2, 2)))
    kept = schubert._posets[a2.echelonnage]
    minimal_degenerations(Coweight(g2.echelonnage, (1, 1)))
    k_vector(Coweight(a2.echelonnage, (0, 0)), Coweight(a2.echelonnage, (3, 0)))
    assert schubert._posets[a2.echelonnage] is kept
    assert set(schubert._posets) == {a2.echelonnage, g2.echelonnage}
    # past a small bound, every switch of system drops the other system's poset
    monkeypatch.setattr(schubert, "MAX_POSET_ENTRIES", 8)
    tops = [(a2, (1, 1)), (g2, (1, 0)), (a2, (3, 0)), (g2, (0, 2)), (a2, (2, 2)), (g2, (2, 1))]
    for datum, top in tops:
        system = datum.echelonnage
        mu = Coweight(system, top)
        below = list(DominancePoset(system).below(top))
        lam = Coweight(system, below[len(below) // 2])
        for k, name in enumerate(PUBLIC_CALLS):
            alpha = system.roots[k % len(system.roots)]
            answer = _public_answer(name, datum, mu, lam, alpha)
            assert list(schubert._posets) == [system], (name, mu)
            fresh, _ = _with_fresh_poset(lambda: _public_answer(name, datum, mu, lam, alpha))
            assert answer == fresh, (name, mu, lam)
            _oracle_check(name, answer, mu, lam, alpha)


@st.composite
def coset_triples(draw):
    """A sweep type and three dominant coweights in one coset of its coroot lattice."""
    system = build_root_system(draw(st.sampled_from(SWEEP_TYPES)))
    base = [draw(st.integers(0, 3)) for _ in range(system.rank)]

    def member():
        p = list(base)
        for col in system.columns:  # col is the pairing vector of a simple coroot
            c = draw(st.integers(-3, 3))
            p = [x + c * y for x, y in zip(p, col)]
        return dominant_rep(Coweight(system, tuple(p)))

    return system, (member(), member(), member())


@settings(max_examples=300, deadline=None, database=None)
@given(coset_triples())
def test_dominance_is_a_partial_order_by_down_set_membership(triple):
    system, points = triple
    poset = DominancePoset(system)

    def leq(a, b):
        return a.pairings in poset.below(b.pairings)

    for x in points:
        assert leq(x, x)
        for y in points:
            assert leq(x, y) == dominance_leq(x, y), (x, y)
            if leq(x, y) and leq(y, x):
                assert x == y
            for z in points:
                if leq(x, y) and leq(y, z):
                    assert leq(x, z)


@pytest.mark.parametrize(
    "label,p",
    [
        ("A2", (2, 2)),
        ("C2", (2, 1)),
        ("G2", (1, 1)),
        ("A1", (6,)),
        ("B3", (1, 1, 0)),
        ("A3", (1, 0, 1)),
        ("A4", (1, 0, 0, 1)),
        ("B2", (1, 1)),
        ("B4", (1, 0, 0, 0)),
        ("C3", (1, 0, 1)),
        ("C4", (1, 0, 0, 0)),
        ("D4", (1, 0, 1, 0)),
        ("G2", (2, 1)),
    ],
)
def test_minimal_degenerations_vs_brute_covers(label, p):
    mu = cw(label, p)
    edges = minimal_degenerations(mu)
    assert {(e.mu, e.lam) for e in edges} == brute_covers(mu)
    for e in edges:
        # diff really is mu - lam and the support matches its positive entries
        assert e.diff.pairings == tuple(
            m - l for l, m in zip(e.lam.pairings, e.mu.pairings)
        )
        assert e.support_indices == tuple(
            i for i, x in enumerate(e.diff.coefficients) if x
        )
        assert classify_degeneration(e) == e.stembridge_case


def test_minimal_degenerations_frozen():
    # chain: 2a -> a -> 0
    edges = minimal_degenerations(cw("A1", (4,)))
    assert [(e.mu.pairings, e.lam.pairings) for e in edges] == [
        ((4,), (2,)),
        ((2,), (0,)),
    ]
    # the adjoint stratum of A2 covers only the origin
    edges = minimal_degenerations(cw("A2", (1, 1)))
    assert len(edges) == 1 and edges[0].lam.pairings == (0, 0)
    assert edges[0].diff.coefficients == (1, 1)
    assert minimal_degenerations(cw("G2", (0, 0))) == []


# -- classification ----------------------------------------------------------


def edge_for(mu: Coweight, lam: Coweight):
    for e in minimal_degenerations(mu):
        if e.mu == mu and e.lam == lam:
            return e
    raise AssertionError("not a covering pair")


def test_classification_frozen_cases():
    # rank-one support with lam vanishing on it: the orbit pattern wins
    assert edge_for(cw("A2", (2, 0)), cw("A2", (0, 1))).stembridge_case == 2
    # rank-one support, lam nonzero on it
    assert edge_for(cw("A1", (4,)), cw("A1", (2,))).stembridge_case == 1
    assert edge_for(cw("A2", (3, 0)), cw("A2", (1, 1))).stembridge_case == 1
    # full-support short dominant coroot drops
    assert edge_for(cw("A2", (1, 1)), cw("A2", (0, 0))).stembridge_case == 2
    assert edge_for(cw("G2", (0, 1)), cw("G2", (0, 0))).stembridge_case == 2
    # C2: lam pairs to 1 with the long simple root
    assert edge_for(cw("C2", (1, 1)), cw("C2", (0, 1))).stembridge_case == 3
    # the two G2 exceptional shapes
    assert edge_for(cw("G2", (1, 1)), cw("G2", (0, 2))).stembridge_case == 4
    assert edge_for(cw("G2", (1, 0)), cw("G2", (0, 1))).stembridge_case == 5


# Every label twisted_datum accepts: the split types, then the twisted ones.
ACCEPTED_LABELS = (
    tuple(f"{letter}{rank}" for letter, (lo, hi) in _RANK_RANGE.items() for rank in range(lo, hi + 1))
    + tuple(f"2A{rank}" for rank in range(2, 9))
    + tuple(f"2D{rank}" for rank in range(3, 9))
    + ("2E6", "3D4")
)


def test_classification_complete_on_unit_tops_of_every_label():
    """Every cover of every top with entries in {0, 1} matches a known shape.

    _classify raises RuntimeError on a covering shape it does not know.
    """
    for label in ("2A1", "2A9", "2D9", "2E7", "3D5", "3A4", "D9"):
        with pytest.raises(ValueError):
            twisted_datum(label)
    tops = 0
    for label in ACCEPTED_LABELS:
        system = twisted_datum(label).echelonnage
        poset = DominancePoset(system)
        for p in product((0, 1), repeat=system.rank):
            assert all(case in (1, 2, 3, 4, 5) for *_, case in poset.edges(p)), (label, p)
            tops += 1
    assert (len(ACCEPTED_LABELS), tops) == (48, 2_828)


def test_classification_complete_on_samples():
    for label, p in [("B3", (1, 1, 0)), ("C3", (1, 0, 1)), ("D4", (1, 0, 1, 0)),
                     ("A4", (1, 1, 0, 0)), ("G2", (2, 1))]:
        for e in minimal_degenerations(cw(label, p)):
            assert e.stembridge_case in (1, 2, 3, 4, 5)


# -- root-curve counts -------------------------------------------------------


def test_k_alpha_frozen():
    a1 = build_root_system("A1")
    lam, mu = Coweight(a1, (2,)), Coweight(a1, (4,))
    assert k_alpha(lam, mu, (1,)) == 3
    assert k_alpha(lam, mu, (-1,)) == 1
    zero = Coweight(a1, (0,))
    assert k_alpha(zero, Coweight(a1, (2,)), (1,)) == 1
    assert k_alpha(zero, Coweight(a1, (2,)), (-1,)) == 1

    g2 = build_root_system("G2")
    lam, mu = Coweight(g2, (0, 0)), Coweight(g2, (0, 1))
    for root in g2.roots:
        expected = 1 if g2.root_norm2(root) == 6 else 0
        assert k_alpha(lam, mu, root) == expected, root

    # lam = mu = 0 kills every curve
    z = Coweight(g2, (0, 0))
    assert all(k_alpha(z, z, root) == 0 for root in g2.roots)


def test_k_vector_c2_frozen():
    c2 = build_root_system("C2")
    kv = k_vector(Coweight(c2, (0, 1)), Coweight(c2, (1, 1)))
    expected = {
        (1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 1,
        (1, 1): 1, (-1, -1): 0, (2, 1): 2, (-2, -1): 1,
    }
    for root, value in expected.items():
        assert kv[root] == value, root
    assert kv.total == 9


def test_k_alpha_matches_oracle():
    pairs = [
        (cw(label, lp), cw(label, mp))
        for label, lp, mp in [
            ("A2", (0, 1), (2, 0)),
            ("C2", (0, 1), (1, 1)),
            ("G2", (0, 0), (0, 1)),
            ("B3", (0, 0, 1), (1, 1, 0)),
            ("A1", (0,), (6,)),
        ]
    ]
    # the k-walk's stopping rule over every cover of the sweep box
    for label in SWEEP_TYPES:
        for top in sweep_coweights(build_root_system(label), 14):
            pairs += [(edge.lam, edge.mu) for edge in minimal_degenerations(top)]
    for lam, mu in pairs:
        cap = two_rho_pairing(mu) + 1
        for root in lam.system.roots:
            assert k_alpha(lam, mu, root) == k_alpha_oracle(lam, mu, root, cap)


def test_k_symmetry_and_edge_inequality():
    for label, p in [("A3", (1, 0, 1)), ("C3", (1, 0, 1)), ("G2", (1, 1)),
                     ("B3", (0, 1, 0))]:
        mu = cw(label, p)
        system = mu.system
        for e in minimal_degenerations(mu):
            kv = k_vector(e.lam, e.mu)
            for root in system.positive_roots:
                neg = tuple(-x for x in root)
                assert kv[root] == kv[neg] + e.lam.pairing_with_root(root)
            assert kv.total >= two_rho_pairing(e.mu)


def test_tangent_bound_frozen():
    g2 = build_root_system("G2")
    assert root_tangent_bound(Coweight(g2, (0, 0)), Coweight(g2, (0, 1))) == 6
    a1 = build_root_system("A1")
    assert root_tangent_bound(Coweight(a1, (0,)), Coweight(a1, (2,))) == 2
    # lam = mu collapses the bound to <lam, 2rho>
    lam = Coweight(g2, (1, 1))
    assert root_tangent_bound(lam, lam) == two_rho_pairing(lam)


def test_root_curve_target():
    g2 = build_root_system("G2")
    zero = Coweight(g2, (0, 0))
    long_root = (0, 1)
    assert root_curve_target(zero, long_root, 1).pairings == (0, 1)
    a1 = build_root_system("A1")
    assert root_curve_target(Coweight(a1, (2,)), (1,), 2).pairings == (2,)
    with pytest.raises(ValueError):
        root_curve_target(zero, long_root, 0)
    with pytest.raises(ValueError):
        root_curve_target(zero, long_root, 2, mu=Coweight(g2, (0, 1)))
    # W-symmetry at the origin: alpha and -alpha land on the same stratum
    for root in g2.positive_roots:
        neg = tuple(-x for x in root)
        assert root_curve_target(zero, root, 1) == root_curve_target(zero, neg, 1)


def test_validation_errors():
    a1, a2 = build_root_system("A1"), build_root_system("A2")
    with pytest.raises(ValueError):
        k_alpha(Coweight(a1, (0,)), Coweight(a2, (0, 0)), (1,))
    with pytest.raises(ValueError):
        k_alpha(Coweight(a1, (-2,)), Coweight(a1, (2,)), (1,))
    with pytest.raises(ValueError):
        k_alpha(Coweight(a1, (4,)), Coweight(a1, (2,)), (1,))  # not below
    with pytest.raises(ValueError):
        dominant_below(Coweight(a1, (-2,)))


# -- certificates ------------------------------------------------------------


def test_certificate_triality():
    datum = twisted_datum("3D4")
    g2 = datum.echelonnage
    cert = certificate(Coweight(g2, (0, 1)), Coweight(g2, (0, 0)), datum)
    assert cert.dim == 6
    assert cert.root_bound == 6
    assert cert.cartan_extra == 1
    assert cert.verdict == "singular"


def test_certificate_split_a1():
    datum = twisted_datum("A1")
    a1 = datum.echelonnage
    cert = certificate(Coweight(a1, (2,)), Coweight(a1, (0,)), datum)
    assert (cert.dim, cert.root_bound, cert.cartan_extra) == (2, 2, 1)
    assert cert.verdict == "singular"
    deeper = certificate(Coweight(a1, (4,)), Coweight(a1, (2,)), datum)
    assert (deeper.dim, deeper.root_bound, deeper.cartan_extra) == (4, 4, 1)
    assert deeper.verdict == "singular"


def test_certificate_rejections():
    datum = twisted_datum("2A4")
    c2 = datum.echelonnage
    mu, lam = Coweight(c2, (1, 1)), Coweight(c2, (0, 1))
    assert certificate(mu, lam, datum).verdict == "singular"
    with pytest.raises(ValueError):
        certificate(mu, mu, datum)
    with pytest.raises(ValueError):
        certificate(mu, lam, datum.with_other_special_vertex())
    with pytest.raises(ValueError):
        certificate(mu, lam, twisted_datum("3D4"))  # wrong system


def test_smooth_locus_reports():
    datum = twisted_datum("3D4")
    g2 = datum.echelonnage
    report = smooth_locus_report(Coweight(g2, (0, 1)), datum)
    assert [(s.lam.pairings, s.status) for s in report.strata] == [
        ((0, 1), "smooth"),
        ((0, 0), "singular"),
    ]
    assert report.strata[1].mechanism == "certificate"

    a1 = twisted_datum("A1")
    chain = smooth_locus_report(Coweight(a1.echelonnage, (4,)), a1)
    assert [(s.lam.pairings, s.status, s.mechanism) for s in chain.strata] == [
        ((4,), "smooth", "open-orbit"),
        ((2,), "singular", "certificate"),
        ((0,), "singular", "openness-propagation"),
    ]
    assert chain.strata[2].via.pairings == (2,)

    trivial = smooth_locus_report(Coweight(a1.echelonnage, (0,)), a1)
    assert len(trivial.strata) == 1 and trivial.strata[0].status == "smooth"


def test_smooth_locus_via_is_first_singular_cover_in_stratum_order():
    datum = twisted_datum("A2")
    report = smooth_locus_report(Coweight(datum.echelonnage, (2, 2)), datum)
    deep = next(s for s in report.strata if s.lam.pairings == (1, 1))
    assert deep.mechanism == "openness-propagation"
    # (0,3) and (3,0) both cover (2,2) at equal dimension; stratum order puts
    # (0,3) first, while the positive-root order would reach (3,0) first
    assert deep.via.pairings == (0, 3)
    # the covers of A3 (1,1,3) come in opposite orders lexicographically and
    # by stratum: (0,0,4) < (1,2,1), but <(1,2,1),2rho> = 14 > 12 = <(0,0,4),2rho>
    datum = twisted_datum("A3")
    mu = Coweight(datum.echelonnage, (1, 1, 3))
    covers = [edge.lam.pairings for edge in minimal_degenerations(mu) if edge.mu == mu]
    assert covers == [(0, 0, 4), (1, 2, 1)]
    report = smooth_locus_report(mu, datum)
    assert [s.lam.pairings for s in report.strata[1:3]] == [(1, 2, 1), (0, 0, 4)]
    assert all(s.status == "singular" for s in report.strata[1:3])
    origin = report.strata[-1]
    assert origin.lam.pairings == (0, 0, 0) and origin.mechanism == "openness-propagation"
    assert origin.via.pairings == (1, 2, 1)


def _propagation_tops(with_sweeps: bool) -> list:
    """(datum, mu) of every closures top of the benchmark, and of every sweep top up to REUSE_PAIRING."""
    workloads = load_workloads()
    tops = [(label, mu) for _, label, choices in workloads.closure_slots() for mu in choices]
    tops += [(label, mu) for _, label, mu in workloads.PINNED_CLOSURES]
    pairs = []
    for label, p in dict.fromkeys(tops):
        datum = twisted_datum(label)
        pairs.append((datum, Coweight(datum.echelonnage, p)))
    for label in SWEEP_TYPES if with_sweeps else ():
        datum = twisted_datum(label)
        pairs += [(datum, mu) for mu in sweep_coweights(datum.echelonnage, REUSE_PAIRING)]
    return pairs


def _propagation_column(mu: Coweight, datum) -> list:
    """(lam, status, via) of the openness-propagation rows of _stratum_rows."""
    rows = schubert._stratum_rows(mu, datum)
    return [(p, status, via) for p, status, mechanism, _, via in rows if mechanism == "openness-propagation"]


def test_openness_propagation_matches_the_lattice_oracle():
    tops = _propagation_tops(with_sweeps=True)
    mismatches = [
        (datum.label, mu.pairings)
        for datum, mu in tops
        if _propagation_column(mu, datum) != propagation_rows(mu, datum)
    ]
    assert mismatches == []
    assert len(tops) == 374  # 300 closures tops and 74 sweep tops


def test_openness_propagation_skips_an_inconclusive_cover(monkeypatch):
    """With the first cover of each closures top forced inconclusive, via skips it, as the oracle does.

    The engine finds every cover singular, so only a forced verdict shows
    which covers the scan reads.
    """
    forced = set()
    original = schubert._certificate_row

    def forced_row(poset, mu, lam, datum):
        dim, bound, extra, verdict = original(poset, mu, lam, datum)
        return dim, bound, extra, schubert.INCONCLUSIVE if (mu, lam) in forced else verdict

    skipped = unresolved = 0
    for datum, mu in _propagation_tops(with_sweeps=False):
        covers = stembridge_covers(mu.system, mu.pairings)
        if not covers:
            continue
        before = _propagation_column(mu, datum)
        forced.add((mu.pairings, covers[0][0]))
        with monkeypatch.context() as patch:
            patch.setattr(schubert, "_certificate_row", forced_row)
            after = _propagation_column(mu, datum)
            assert after == propagation_rows(mu, datum), (datum.label, mu.pairings)
        for (_, _, old), (_, status, new) in zip(before, after):
            skipped += old == covers[0][0] and new is not None
            unresolved += status == "unresolved"
    assert skipped and unresolved


def test_smooth_locus_c2_case3():
    datum = twisted_datum("2A4")
    c2 = datum.echelonnage
    report = smooth_locus_report(Coweight(c2, (1, 1)), datum)
    by_pairings = {s.lam.pairings: s for s in report.strata}
    assert by_pairings[(1, 1)].status == "smooth"
    assert by_pairings[(0, 1)].status == "singular"
    cert = by_pairings[(0, 1)].certificate
    assert cert.root_bound + cert.cartan_extra >= cert.dim + 1
