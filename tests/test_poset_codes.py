"""The coded DominancePoset against the tuple walks it replaced.

Down-sets (keys, order, gaps), covering edges and k-vectors are held to the
oracles on the sweep tops, the benchmark's closure tops and a reducible
system; the field width is held to the bound its argument proves at tops on
either side of each width boundary; code reflection is held to reflection
on tuples.
"""

from functools import lru_cache
from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsch.rootsys import FiniteRootSystem, build_root_system, cartan_matrix
from affsch.schubert import DominancePoset
from affsch.twist import twisted_datum
from affsch.verify import SWEEP_TYPES, sweep_coweights
from benchdata import load_workloads
from oracles import (
    _dominant_rep_raw,
    stembridge_below,
    stembridge_covers,
    tuple_k_vector,
)


def _two_rho(system, p) -> int:
    return sum(h * x for h, x in zip(system.two_rho_coefficients, p))


def _coroot_height(system) -> int:
    return max(sum(system.coroot_coefficients(beta)) for beta in system.positive_roots)


def _check_against_oracles(poset: DominancePoset, top, pairs, checked: set) -> dict:
    """below(top) in full, the edges below each of its strata not in checked, and k along pairs(below).

    Returns the tuple walks' memo: every candidate met, mapped to its dominant representative.
    """
    system = poset.system
    below = poset.below(top)
    expected = stembridge_below(system, top)
    assert list(below.items()) == list(expected.items()), top
    for p in below.keys() - checked:
        checked.add(p)
        edges = poset.edges(p)
        assert [edge[:2] for edge in edges] == sorted(stembridge_covers(system, p)), p
        for _, gap, support, _ in edges:
            assert support == tuple(i for i, x in enumerate(gap) if x), p
    dom: dict = {}
    for lam in pairs(below):
        assert poset.k_vector(lam, top) == tuple_k_vector(system, lam, expected, dom), (top, lam)
    return dom


def _covers_of(poset, top):
    return lambda below: [top] + [q for q, *_ in poset.edges(top)]


def test_sweep_tops_match_the_tuple_walks():
    """Every top of every sweep type at the default --max-pairing, on one poset per type."""
    for label in SWEEP_TYPES:
        system = build_root_system(label)
        poset, checked = DominancePoset(system), set()
        for mu in sweep_coweights(system, 14):
            _check_against_oracles(poset, mu.pairings, list, checked)


def test_closure_tops_match_the_tuple_walks():
    """Every closures top of the benchmark, k along each cover of the top as analyze asks."""
    posets = {}
    for _, label, mus in load_workloads().closure_slots():
        system = twisted_datum(label).echelonnage
        poset, checked = posets.setdefault(system, (DominancePoset(system), set()))
        for mu in mus:
            _check_against_oracles(poset, mu, _covers_of(poset, mu), checked)


def _reducible() -> FiniteRootSystem:
    """G2 + A1 + B2: three components, with no highest root."""
    blocks = [cartan_matrix("G", 2), cartan_matrix("A", 1), cartan_matrix("B", 2)]
    rank = sum(map(len, blocks))
    rows, offset = [], 0
    for block in blocks:
        for row in block:
            rows.append((0,) * offset + row + (0,) * (rank - offset - len(block)))
        offset += len(block)
    return FiniteRootSystem(tuple(rows))


def test_reducible_system_matches_the_tuple_walks():
    system = _reducible()
    assert not system.is_irreducible
    poset, checked = DominancePoset(system), set()
    tops = [(0, 0, 0, 0, 0), (1, 0, 2, 0, 1), (0, 1, 1, 1, 0), (1, 1, 3, 1, 2), (2, 0, 0, 2, 1)]
    for top in tops:
        _check_against_oracles(poset, top, list, checked)


# -- field widths -------------------------------------------------------------------

# The largest <mu,2rho> of the boundary tops of each system, the F4
# echelonnage of 2E6 among them: widths up to 9 bits, 8 for B3 and A4, whose
# down-sets grow fastest.  A1, whose coordinate is its <p,2rho>, fills its
# fields up to the bound.
RANGE_SYSTEMS = {"A1": 128, "G2": 128, "B3": 64, "A4": 64, "2E6": 128}


@lru_cache(maxsize=None)
def _boundary_tops(label: str) -> tuple[tuple[int, ...], ...]:
    """Tops of the largest <mu,2rho> below each width boundary and of the smallest at or past it.

    The boundary of width w + 1 is where <mu,2rho> + 2h, the bound of the
    walks from mu, reaches 2**(w - 1).  One top per <mu,2rho> on each side,
    the least pairing vector, from the dominant coroot-lattice tops up to
    RANGE_SYSTEMS[label].
    """
    system = twisted_datum(label).echelonnage
    height, largest = _coroot_height(system), RANGE_SYSTEMS[label]
    by_pairing = {}
    for mu in product(*(range(largest // h + 1) for h in system.two_rho_coefficients)):
        pairing = _two_rho(system, mu)
        if pairing <= largest and system.lattice_coefficients(mu) is not None:
            by_pairing.setdefault(pairing, mu)
    tops = []
    for k in range(2, largest.bit_length() + 1):
        fits = [d for d in by_pairing if d + 2 * height < 2**k]
        past = [d for d in by_pairing if d + 2 * height >= 2**k]
        for side in (max(fits, default=None), min(past, default=None)):
            if side is not None and by_pairing[side] not in tops:
                tops.append(by_pairing[side])
    return tuple(tops)


def test_boundary_tops_reach_the_width_bound_and_stay_within_it():
    """Every k-walk from every stratum of each boundary top, against the tuple walks.

    The representatives the walks meet pair with 2rho up to <mu,2rho> + 2h
    and no further, and every one fits the fields of the top's layout.
    """
    for label in RANGE_SYSTEMS:
        system = twisted_datum(label).echelonnage
        height = _coroot_height(system)
        tops = _boundary_tops(label)
        assert len(tops) >= 4, label
        for top in tops:
            poset = DominancePoset(system)
            dom = _check_against_oracles(poset, top, list, set())
            reach = max(_two_rho(system, rep) for rep in dom.values())
            assert reach == _two_rho(system, top) + 2 * height, (label, top)
            assert reach < poset._format.half, (label, top)


RANDOM_SYSTEMS = ("A1", "A2", "C3", "G2", "B3", "A4", "D4", "F4")


@st.composite
def non_dominant_points(draw):
    system = build_root_system(draw(st.sampled_from(RANDOM_SYSTEMS)))
    p = tuple(draw(st.integers(-40, 40)) for _ in range(system.rank))
    assume(min(p) < 0)
    return system, p


@settings(max_examples=300, deadline=None, database=None)
@given(non_dominant_points())
def test_code_reflection_matches_reflection_on_tuples(case):
    """The code of a point reflected to dominance is the code of its tuple representative."""
    system, p = case
    rep = _dominant_rep_raw(p, system.columns)
    layout = DominancePoset(system)._fit(rep)  # the layout of walks from rep, whose orbit holds p
    assert layout.dominant_rep(layout.code(p)) == layout.code(rep)
