"""Catalog the folded root systems reachable from the simply-laced types.

For each admissible pair (absolute type, twisting order) the atlas prints
the relative type, the half-norm pattern of its simple roots, which relative
roots are multipliable, and the admissible relative levels over one root of
each kind.
"""

from fractions import Fraction

from affsch.twist import build_twisted, sigma_affine_to_relative, sigma_levels_at_degree

FOLDINGS = (
    ("A2", 2),
    ("A3", 2),
    ("A4", 2),
    ("A5", 2),
    ("A6", 2),
    ("A7", 2),
    ("D4", 2),
    ("D5", 2),
    ("E6", 2),
    ("D4", 3),
)


def main() -> None:
    print(f"{'input':>8} {'relative':>9} {'half-norms':>12}  multipliable roots")
    for absolute, order in FOLDINGS:
        datum = build_twisted(absolute, order)
        sigma = datum.echelonnage
        print(
            f"{order}x{absolute:>5} {sigma.label:>9} {str(sigma.half_norms):>12}"
            f"  {list(datum.multipliable_roots) or '-'}"
        )

    # Levels over a root come in arithmetic progressions; the step widens on
    # roots with short orbits and splits in two on multipliable ones.
    print("\nlevel progressions over the simple roots of the folded A4:")
    datum = build_twisted("A4", 2)
    sigma = datum.echelonnage
    for index in range(sigma.rank):
        root = tuple(1 if j == index else 0 for j in range(sigma.rank))
        # a root line at u-degree n sits at relative level n/e; the first
        # 3e degrees show three levels of every case
        levels: dict[str, list[Fraction]] = {}
        for n in range(3 * datum.e):
            for k in sigma_levels_at_degree(datum, root, n):
                case = sigma_affine_to_relative(datum, (root, k)).case
                levels.setdefault(case, []).append(Fraction(n, datum.e))
        for case, values in levels.items():
            shown = ", ".join(str(v) for v in values[:3])
            print(f"  alpha_{index} {root} [{case}]: {shown}, ...")

    print("\ntriality fold of D4, simple roots upstairs:")
    triality = build_twisted("D4", 3)
    for index, image in enumerate(triality.sigma_simple_images):
        print(f"  relative alpha_{index} lifts to absolute coefficients {image}")


if __name__ == "__main__":
    main()
