"""Folded (twisted) data: recognition, orbit matching, level arithmetic."""

from fractions import Fraction

import pytest

from affsch.rootsys import Coweight, build_root_system
from affsch.twist import (
    ABSOLUTELY_SPECIAL,
    OTHER_SPECIAL,
    RelativeAffineRoot,
    _cycle_order,
    affine_roots_negative_at_vertex,
    build_twisted,
    cartan_sigma_dim,
    default_sigma0,
    parse_type_label,
    sigma_affine_to_relative,
    sigma_levels_at_degree,
    twisted_datum,
    validate_relative_root,
)
from oracles import progression_sigma_levels, translate_affine_root

ALL_LABELS = ["A1", "A2", "A3", "2A2", "2A3", "2A4", "2A5", "2A6", "2A7",
              "2D3", "2D4", "2D5", "2E6", "3D4"]
MORE_SPLIT_LABELS = ["G2", "B3", "C3", "F4", "D4"]


def orbit_partition_oracle(datum) -> None:
    """Orbit sizes over the folded roots must partition the absolute positives."""
    total = 0
    for root in datum.echelonnage.positive_roots:
        data = datum.orbit_data(root)
        total += len(data.orbit)
        if data.multipliable:
            total += len(data.divisible_orbit)
    assert total == len(datum.absolute.positive_roots)


def count_lines_at_degree(datum, n: int) -> int:
    """Independent count of admissible root lines at a fixed loop degree."""
    return sum(len(progression_sigma_levels(datum, root, n)) for root in datum.echelonnage.roots)


# -- recognition table ---------------------------------------------------


def test_recognition_table():
    expected = {
        "2A2": "A1", "2A3": "C2", "2A4": "C2", "2A5": "B3", "2A6": "C3",
        "2A7": "B4", "2D3": "C2", "2D4": "C3", "2D5": "C4", "2E6": "F4",
        "3D4": "G2", "A2": "A2", "A1": "A1", "A3": "A3",
    }
    for label, sigma_label in expected.items():
        datum = twisted_datum(label)
        assert datum.echelonnage.label == sigma_label, label
        # shared instance with the plain constructor, so coweights interoperate
        assert datum.echelonnage is build_root_system(sigma_label)
        orbit_partition_oracle(datum)


def test_simple_images_frozen():
    assert twisted_datum("2A3").sigma_simple_images == ((0, 1, 0), (1, 0, 1))
    assert twisted_datum("2A4").sigma_simple_images == ((1, 0, 0, 1), (0, 2, 2, 0))
    assert twisted_datum("2A5").sigma_simple_images == (
        (1, 0, 0, 0, 1), (0, 1, 0, 1, 0), (0, 0, 1, 0, 0))
    assert twisted_datum("2D4").sigma_simple_images == (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))
    assert twisted_datum("2E6").sigma_simple_images == (
        (1, 0, 0, 0, 0, 1), (0, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0))
    assert twisted_datum("3D4").sigma_simple_images == ((0, 1, 0, 0), (1, 0, 1, 1))
    assert twisted_datum("2A2").sigma_simple_images == ((2, 2),)


def test_multipliable_inventory():
    assert twisted_datum("2A2").multipliable_roots == ((1,),)
    # the folded even A types are the only source of multipliable roots,
    # and there they are exactly the long roots
    a4 = twisted_datum("2A4")
    long_roots = tuple(r for r in a4.echelonnage.positive_roots
                       if a4.echelonnage.root_norm2(r) == 4)
    assert a4.multipliable_roots == long_roots
    assert a4.multipliable_roots == ((0, 1), (2, 1))
    for label in ["A2", "2A3", "2A5", "2D4", "2E6", "3D4"]:
        assert twisted_datum(label).multipliable_roots == ()


def test_orbit_data_2a4():
    datum = twisted_datum("2A4")
    beta1 = datum.orbit_data((1, 0))
    assert beta1.orbit == ((0, 0, 0, 1), (1, 0, 0, 0)) and beta1.d == 2
    assert not beta1.multipliable
    beta2 = datum.orbit_data((0, 1))
    assert beta2.orbit == ((0, 0, 1, 0), (0, 1, 0, 0))
    assert beta2.divisible_orbit == ((0, 1, 1, 0),)
    mixed = datum.orbit_data((1, 1))
    assert mixed.orbit == ((0, 1, 1, 1), (1, 1, 1, 0)) and not mixed.multipliable
    top = datum.orbit_data((2, 1))
    assert top.orbit == ((0, 0, 1, 1), (1, 1, 0, 0))
    assert top.divisible_orbit == ((1, 1, 1, 1),)
    # negative roots mirror positives
    neg = datum.orbit_data((-2, -1))
    assert neg.orbit == ((-1, -1, 0, 0), (0, 0, -1, -1))
    assert neg.divisible_orbit == ((-1, -1, -1, -1),)


def test_orbit_sizes_3d4():
    datum = twisted_datum("3D4")
    g2 = datum.echelonnage
    for root in g2.positive_roots:
        data = datum.orbit_data(root)
        expected = 3 if g2.root_norm2(root) == 6 else 1
        assert data.d == expected, root
    assert datum.orbit_data((0, 1)).orbit == (
        (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0))


# -- level arithmetic ------------------------------------------------------


def _degree_levels(label, root):
    """u-degree -> Sigma-levels over root, at degrees -3..3."""
    datum = twisted_datum(label)
    return {n: sigma_levels_at_degree(datum, root, n) for n in range(-3, 4)}


def _cases(label, root, levels):
    datum = twisted_datum(label)
    return [sigma_affine_to_relative(datum, (root, k)).case for k in levels]


def test_level_sets_frozen():
    # the long orbits of the triality fold have three members: a line at every degree
    every = {n: (n,) for n in range(-3, 4)}
    assert _degree_levels("3D4", (0, 1)) == every
    assert _cases("3D4", (0, 1), [-1, 0, 1]) == ["case1"] * 3
    # the fixed short root only at degrees divisible by 3
    assert _degree_levels("3D4", (1, 0)) == {
        -3: (-1,), -2: (), -1: (), 0: (0,), 1: (), 2: (), 3: (1,)}

    assert _degree_levels("A2", (1, 0)) == every
    assert _cases("A2", (1, 0), [-1, 0, 1]) == ["case1"] * 3

    # the multipliable root: 2n at every degree (case 2a), n at odd ones (case 2b)
    assert _degree_levels("2A2", (1,)) == {
        -3: (-6, -3), -2: (-4,), -1: (-2, -1), 0: (0,), 1: (2, 1), 2: (4,), 3: (6, 3)}
    assert _cases("2A2", (1,), [2, 1]) == ["case2a", "case2b"]

    assert _degree_levels("2A4", (1, 0)) == every
    assert _cases("2A4", (1, 0), [-1, 0, 1]) == ["case1"] * 3


def test_correspondence_frozen_values():
    a2 = twisted_datum("2A2")
    rel = sigma_affine_to_relative(a2, ((1,), 3))
    assert (rel.case, rel.degree) == ("case2b", 3)
    rel = sigma_affine_to_relative(a2, ((1,), 2))
    assert (rel.case, rel.degree) == ("case2a", 1)
    rel = sigma_affine_to_relative(a2, ((-1,), -1))
    assert (rel.case, rel.degree) == ("case2b", -1)
    assert rel.orbit == ((-1, -1),)

    d4 = twisted_datum("3D4")
    rel = sigma_affine_to_relative(d4, ((0, 1), -1))
    assert (rel.case, rel.degree) == ("case1", -1)
    rel = sigma_affine_to_relative(d4, ((1, 0), -2))
    assert (rel.case, rel.degree) == ("case1", -6)


def test_correspondence_round_trip():
    for label in ["A1", "A2", "2A2", "2A3", "2A4", "2D4", "3D4"]:
        datum = twisted_datum(label)
        for root in datum.echelonnage.roots:
            for k in range(-10, 11):
                rel = sigma_affine_to_relative(datum, (root, k))
                validate_relative_root(datum, rel)
                assert type(rel.degree) is int
                assert k in sigma_levels_at_degree(datum, root, rel.degree)
                assert rel.sigma_root == root and rel.level == k
                if rel.case == "case2b":
                    assert k % 2 != 0
                if rel.case == "case2a":
                    assert k % 2 == 0


def test_sigma_levels_match_the_fraction_progressions():
    triples = 0
    for label in ALL_LABELS + MORE_SPLIT_LABELS:
        datum = twisted_datum(label)
        for root in datum.echelonnage.roots:
            for n in range(-12, 13):
                levels = sigma_levels_at_degree(datum, root, n)
                assert levels == progression_sigma_levels(datum, root, n), (label, root, n)
                for k in levels:
                    assert sigma_affine_to_relative(datum, (root, k)).degree == n, (label, root, k)
                triples += 1
    assert triples == 8600  # (label, root, degree) triples: 344 roots, 25 degrees


def test_validate_relative_root_rejects_inadmissible_input():
    a2 = twisted_datum("2A2")
    pair = sigma_affine_to_relative(a2, ((1,), 2)).orbit
    fixed = sigma_affine_to_relative(a2, ((1,), 1)).orbit
    bad = [
        RelativeAffineRoot("case2a", pair, Fraction(1, 2), (1,), 1),  # not an int degree
        RelativeAffineRoot("case2a", pair, 1.0, (1,), 2),  # integral, but not an int
        RelativeAffineRoot("case2b", fixed, 2, (1,), 2),  # even: off 1/2 + Z
        RelativeAffineRoot("case9", fixed, 1, (1,), 1),  # unknown case
        RelativeAffineRoot("case2a", fixed, 1, (1,), 2),  # pair case, one root
        RelativeAffineRoot("case2b", pair, 1, (1,), 1),  # fixed case, two roots
        RelativeAffineRoot("case1", (), 0, (1,), 0),  # empty orbit
    ]
    for rel in bad:
        with pytest.raises(ValueError):
            validate_relative_root(a2, rel)
    # a three-root orbit does not divide the order of the flip
    d4 = twisted_datum("3D4")
    triple = sigma_affine_to_relative(d4, ((0, 1), -1)).orbit
    with pytest.raises(ValueError):
        validate_relative_root(a2, RelativeAffineRoot("case1", triple, 2, (1,), 3))
    validate_relative_root(d4, sigma_affine_to_relative(d4, ((0, 1), -1)))


def test_degree_counts():
    assert count_lines_at_degree(twisted_datum("2A3"), -1) == 4
    assert count_lines_at_degree(twisted_datum("2D4"), -1) == 6
    assert count_lines_at_degree(twisted_datum("3D4"), -1) == 6
    # at degree 0 every root line appears once, plus nothing divisible
    for label in ALL_LABELS:
        datum = twisted_datum(label)
        n_roots = len(datum.echelonnage.roots)
        assert count_lines_at_degree(datum, 0) == n_roots
        # split data live in integer degrees only
        if datum.e == 1:
            assert count_lines_at_degree(datum, 0) == n_roots


def test_cartan_sigma_dim():
    d4 = twisted_datum("3D4")
    assert cartan_sigma_dim(d4, 0) == 2
    assert cartan_sigma_dim(d4, 1) == 1
    assert cartan_sigma_dim(d4, 2) == 1
    assert cartan_sigma_dim(d4, 3) == 2
    a3 = twisted_datum("2A3")
    assert cartan_sigma_dim(a3, 1) == 1
    assert cartan_sigma_dim(a3, 2) == 2
    split = twisted_datum("A3")
    assert all(cartan_sigma_dim(split, m) == 3 for m in range(4))
    # the swap on two coroots has a full minus-one eigenline
    assert cartan_sigma_dim(twisted_datum("2A2"), 1) == 1


def test_translate_affine_root():
    g2 = build_root_system("G2")
    mu = Coweight(g2, (0, 1))
    assert translate_affine_root(((0, 1), -1), mu) == ((0, 1), 0)
    assert translate_affine_root(((3, 2), -1), mu) == ((3, 2), 1)
    assert translate_affine_root(((-1, 0), 2), mu) == ((-1, 0), 2)


def test_negative_depth_labels():
    g2 = twisted_datum("3D4")
    labels = affine_roots_negative_at_vertex(g2, 1)
    assert len(labels) == 12
    assert all(k == -1 for _, k in labels)
    a1 = twisted_datum("A1")
    labels = affine_roots_negative_at_vertex(a1, 3)
    assert len(labels) == 6
    assert labels == (((1,), -1), ((-1,), -1), ((1,), -2),
                      ((-1,), -2), ((1,), -3), ((-1,), -3))
    # at the absolutely special point of the triality form, loop degree -1
    # sees exactly the six labels whose progression admits it
    hits = [a for a in affine_roots_negative_at_vertex(g2, 1)
            if sigma_affine_to_relative(g2, a).degree == -1]
    assert len(hits) == 6
    with pytest.raises(ValueError):
        affine_roots_negative_at_vertex(g2, 0)


# -- construction and validation -------------------------------------------


def test_parse_labels():
    assert parse_type_label("3D4") == (3, "D", 4)
    assert parse_type_label("2A5") == (2, "A", 5)
    assert parse_type_label("C3") == (1, "C", 3)
    for bad in ["5D4", "2a3", "D", "A10", "A0", "", "3D4\n"]:
        with pytest.raises(ValueError):
            parse_type_label(bad)


def test_one_datum_per_parsed_label():
    """A leading 1 parses as no prefix, so both labels give one datum: the loop memos key on it."""
    assert parse_type_label("1A1") == parse_type_label("A1")
    for label in ("A1", "C3", "D4", "E8"):
        assert twisted_datum(f"1{label}") is twisted_datum(label)


def test_rejected_data():
    for label in ["2A1", "2E7", "2E8", "3A3", "3D5", "3E6"]:
        with pytest.raises(ValueError):
            twisted_datum(label)
    with pytest.raises(ValueError):
        twisted_datum("2C3")  # not simply laced
    with pytest.raises(ValueError):
        twisted_datum("2G2")


def test_sigma0_validation():
    with pytest.raises(ValueError, match="preserve"):
        build_twisted("A3", 2, (1, 0, 2))
    with pytest.raises(ValueError, match="order"):
        build_twisted("A3", 3, (2, 1, 0))
    with pytest.raises(ValueError, match="order"):
        build_twisted("A3", 1, (2, 1, 0))
    with pytest.raises(ValueError, match="permutation"):
        build_twisted("A3", 2, (0, 0, 2))
    # explicit spec that matches a default is accepted
    datum = build_twisted("D4", 3, (2, 1, 3, 0))
    assert datum.echelonnage.label == "G2"
    assert default_sigma0("D", 4, 3) == (2, 1, 3, 0)


def test_cycle_order_doubles_cycles_with_sign_minus_one():
    # a fixed symbol sent to its negative returns after two steps
    assert _cycle_order([(1, -1)]) == 2
    assert _cycle_order([(1, 1)]) == 1
    assert _cycle_order([(3, 1), (1, -1)]) == 6
    assert _cycle_order([(3, 1), (1, 1)]) == 3
    assert _cycle_order([(2, 1), (1, -1)]) == 2
    assert _cycle_order([(2, -1), (3, 1)]) == 12


def test_vertex_tags():
    a4 = twisted_datum("2A4")
    assert a4.vertex == ABSOLUTELY_SPECIAL
    other = a4.with_other_special_vertex()
    assert other.vertex == OTHER_SPECIAL
    assert other.echelonnage is a4.echelonnage
    # the original is untouched
    assert a4.vertex == ABSOLUTELY_SPECIAL
    with pytest.raises(ValueError):
        twisted_datum("3D4").with_other_special_vertex()
    with pytest.raises(ValueError):
        twisted_datum("A2").with_other_special_vertex()


def test_split_datum_is_identity_fold():
    datum = twisted_datum("C3")
    assert datum.e == 1
    assert datum.echelonnage is datum.absolute
    for root in datum.echelonnage.positive_roots:
        data = datum.orbit_data(root)
        assert data.orbit == (root,) and data.d == 1 and not data.multipliable
