"""Tour the dominance order below a coweight and classify its covering edges.

Every edge of the poset falls into one of five combinatorial patterns, read
off from the support of the gap and the boundary values of the lower
coweight.  The tour prints a small poset in full, then tallies the patterns
across a sweep of tops in a few ambient types.
"""

from collections import Counter

from affsch.rootsys import Coweight, build_root_system, two_rho_pairing
from affsch.schubert import dominant_below, k_vector, minimal_degenerations

CASE_NAMES = {
    1: "single simple coroot gap",
    2: "gap is the short dominant coroot of its support",
    3: "doubled-bond wall pattern",
    4: "G2 short-wall pattern",
    5: "G2 long-wall pattern",
}


def tour_one_top() -> None:
    system = build_root_system("C2")
    mu = Coweight(system, (1, 1))
    print(f"C2 top {mu.pairings}, dimension {two_rho_pairing(mu)}")
    print(f"dominant strata below: {[lam.pairings for lam in dominant_below(mu)]}")
    for edge in minimal_degenerations(mu):
        print(
            f"  cover {edge.mu.pairings} > {edge.lam.pairings}:"
            f" gap coefficients {edge.diff.coefficients},"
            f" case {edge.stembridge_case} ({CASE_NAMES[edge.stembridge_case]})"
        )
        kv = k_vector(edge.lam, edge.mu)
        positives = {r: kv[r] for r in system.positive_roots}
        print(f"  k_alpha on positive roots: {positives}")
        print(f"  total over all roots {kv.total} vs dimension {two_rho_pairing(edge.mu)}")


def histogram_sweep() -> None:
    print("\ncover classification across all dominant tops, dimension <= 20:")
    for label in ("A2", "C2", "B3", "G2"):
        system = build_root_system(label)
        heights = system.two_rho_coefficients
        tops: list[Coweight] = []

        def rec(i: int, acc: list[int], used: int) -> None:
            if i == system.rank:
                tops.append(Coweight(system, tuple(acc)))
                return
            for value in range((20 - used) // heights[i] + 1):
                acc.append(value)
                rec(i + 1, acc, used + value * heights[i])
                acc.pop()

        rec(0, [], 0)
        tally: Counter = Counter()
        for mu in tops:
            for edge in minimal_degenerations(mu):
                if edge.mu.pairings == mu.pairings:
                    tally[edge.stembridge_case] += 1
        print(f"  {label}: {dict(sorted(tally.items()))}")


if __name__ == "__main__":
    tour_one_top()
    histogram_sweep()
