"""Request lists for the three benchmark workloads.

Every request is an ``affsch`` argument vector.  Each workload draws its list
from a finite pool with a seeded ``random.Random``, so the same seed gives the
same list, and every request any seed can produce has a committed output digest
(see ``make_digests.py``).  The pools are plain data: the relative rank and the
``2rho`` coefficients of each type are written out here, so the inputs do not
depend on the code under test.

Why these workloads:

closures
    ``analyze`` and ``poset`` over twisted and split types, from tiny
    ``<mu,2rho>`` up to rank-4 box-scan sizes.  Requests share little work;
    stratum enumeration, cover search and certificates do almost all of it and
    the loop algebra does none.  The list is a fixed set of (command, type,
    level) slots plus the pinned requests; the seed picks mu within each slot,
    so the inputs change with the seed while the cost profile barely does.
sweeps
    ``verify`` suites over small, overlapping ``--max-pairing`` ranges: the same
    ``schubert`` code as ``closures`` spread over thousands of tiny closures,
    with heavy ``lru_cache`` reuse and one root-system build per classified
    edge.  A change tuned for large inputs that slows small ones shows here.
    The seed picks each ``k-symmetry`` request's ``--seed`` and the order.
loops
    every ``loopcheck`` window of the loop types plus the loop-algebra suites.
    ``schubert`` does none of this work, so it is the no-change control for
    every ``schubert`` optimisation.  The seed picks the
    ``sl2-factorization`` seeds and the order.

Left out on purpose: ``analyze --type 2E6 --mu 2,2,2,2`` (about 13 s) and
``poset --type 2E6 --mu 3,3,3,3`` (``<mu,2rho>`` = 330).  One such request
would be half of a run and would hide every other layer's change; the p90
latency covers the large-input tail instead.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("closures", "sweeps", "loops")

# Relative (echelonnage) rank and 2rho coefficients: <mu,2rho> = dot(coeffs, mu).
RELATIVE_2RHO = {
    "2A2": (1,),
    "2A3": (4, 3),
    "2A4": (4, 3),
    "2A5": (5, 8, 9),
    "2D4": (6, 10, 6),
    "2D5": (8, 14, 18, 10),
    "3D4": (10, 6),
    "2E6": (16, 30, 42, 22),
    "A1": (1,),
    "A2": (2, 2),
    "G2": (10, 6),
    "B3": (5, 8, 9),
    "A4": (4, 6, 6, 4),
    "D4": (6, 10, 6, 6),
}
CLOSURE_TYPES = tuple(RELATIVE_2RHO)

# Target <mu,2rho> levels per relative rank; each (type, level) is one slot.
# The enumeration scans C(<mu,2rho>/2 + rank, rank) coroot compositions, so an
# analyze costs about the same for every mu at one level.  A poset's cost
# grows with the square of its stratum count, which varies with the shape of
# mu, so posets take alternate levels below POSET_LEVELS only: the slowest
# tenth of a list, where the p90 latency falls, is analyze requests whose cost
# the seed hardly moves.
LEVELS = {
    1: (1, 2, 3, 4, 6, 8, 10, 12),
    2: (6, 12, 20, 30, 44, 60, 84, 120),
    3: (8, 16, 26, 38, 52, 70, 96, 126),
    4: (12, 20, 28, 36, 44, 52, 60, 76),
}
POSET_LEVELS = 6
# Choices of mu per slot, which bounds the digest table.
CHOICES = 4

# Requests named by the project roadmap, always in the list.
PINNED_CLOSURES = (
    ("analyze", "3D4", (0, 1)),
    ("analyze", "3D4", (8, 8)),
    ("analyze", "2E6", (1, 1, 1, 1)),
    ("poset", "2D4", (2, 2, 2)),
)

# The split types the sweep suites range over (all of rank at most 4).
SWEEP_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
SWEEP_SUITES = ("stembridge", "mindeg-inequality", "k-symmetry")
SWEEP_RANKS = (2, 3, 4)
SWEEP_PAIRINGS = tuple(range(2, 17))
# --seed values the k-symmetry and sl2-factorization requests draw from.
SUITE_SEEDS = tuple(range(4))

LOOP_TYPES = ("A1", "2A2", "2A3", "2A4", "2A5", "2D4", "2D5", "3D4", "2E6")
LOOP_SUITES = ("loop-basis", "cartan-direction", "sl2-factorization")
LOOP_WINDOWS = tuple(range(9))

# The verify defaults (--max-rank 4 --max-pairing 14 --window 4 --seed 0) are
# requested in their default form, without the flags.
DEFAULT_RANK, DEFAULT_PAIRING, DEFAULT_WINDOW = 4, 14, 4


def _mu_text(mu: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in mu)


def closure_request(cmd: str, label: str, mu: tuple[int, ...]) -> tuple[str, ...]:
    return (cmd, "--type", label, "--mu", _mu_text(mu), "--json")


def _dominant_at(coeffs: tuple[int, ...], h: int) -> list[tuple[int, ...]]:
    """Every dominant mu with <mu,2rho> = h, in lexicographic order."""
    if len(coeffs) == 1:
        return [(h // coeffs[0],)] if h % coeffs[0] == 0 else []
    return [
        (v,) + rest
        for v in range(h // coeffs[0] + 1)
        for rest in _dominant_at(coeffs[1:], h - v * coeffs[0])
    ]


def closure_slots() -> list[tuple[str, str, list[tuple[int, ...]]]]:
    """(command, type, mu choices) for every slot, in a fixed order.

    A slot's level is the reachable <mu,2rho> nearest its target; its choices
    are CHOICES of the dominant mu at that level, picked by a fixed shuffle.
    """
    pinned = {(label, mu) for _, label, mu in PINNED_CLOSURES}
    slots = []
    for label in CLOSURE_TYPES:
        coeffs = RELATIVE_2RHO[label]
        def free(h: int) -> list[tuple[int, ...]]:
            return [mu for mu in _dominant_at(coeffs, h) if (label, mu) not in pinned]

        used = set()
        for k, target in enumerate(LEVELS[len(coeffs)]):
            h = min(
                (x for x in range(1, 2 * target + 1) if x not in used and free(x)),
                key=lambda x: (abs(x - target), x),
            )
            used.add(h)
            choices = free(h)
            random.Random(f"choices:{label}:{h}").shuffle(choices)
            cmd = "poset" if k % 2 == 0 and k < POSET_LEVELS else "analyze"
            slots.append((cmd, label, choices[:CHOICES]))
    return slots


def _verify_request(suite: str, rank: int, pairing: int, seed: int | None) -> tuple[str, ...]:
    argv = ["verify", "--suite", suite]
    if (rank, pairing, seed or 0) != (DEFAULT_RANK, DEFAULT_PAIRING, 0):
        argv += ["--max-rank", str(rank), "--max-pairing", str(pairing)]
        if seed is not None:
            argv += ["--seed", str(seed)]
    return tuple(argv + ["--jobs", "1", "--json"])


def _loop_suite_request(suite: str, window: int, seed: int | None) -> tuple[str, ...]:
    argv = ["verify", "--suite", suite]
    if (window, seed or 0) != (DEFAULT_WINDOW, 0):
        argv += ["--window", str(window)]
        if seed is not None:
            argv += ["--seed", str(seed)]
    return tuple(argv + ["--jobs", "1", "--json"])


def sweep_requests(rng: random.Random | None) -> list[tuple[str, ...]]:
    """The full grid; with rng, one seeded --seed per k-symmetry cell, else all."""
    out = []
    for suite in SWEEP_SUITES:
        for rank in SWEEP_RANKS:
            for pairing in SWEEP_PAIRINGS:
                if rng is None and suite == "k-symmetry":
                    out += [_verify_request(suite, rank, pairing, s) for s in SUITE_SEEDS]
                    continue
                seed = None
                if suite == "k-symmetry":
                    seed = 0 if (rank, pairing) == (DEFAULT_RANK, DEFAULT_PAIRING) else rng.choice(SUITE_SEEDS)
                out.append(_verify_request(suite, rank, pairing, seed))
    return out


def loop_requests(rng: random.Random | None) -> list[tuple[str, ...]]:
    out = []
    for label in LOOP_TYPES:
        for window in LOOP_WINDOWS:
            out.append(("loopcheck", "--type", label, "--window", str(window), "--json"))
    for suite in LOOP_SUITES:
        for window in LOOP_WINDOWS:
            if suite != "sl2-factorization":
                out.append(_loop_suite_request(suite, window, None))
            elif rng is None:
                out += [_loop_suite_request(suite, window, s) for s in SUITE_SEEDS]
            else:
                seed = 0 if window == DEFAULT_WINDOW else rng.choice(SUITE_SEEDS)
                out.append(_loop_suite_request(suite, window, seed))
    return out


def requests(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The seeded request list of one workload, in the order it is served."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "closures":
        out = [closure_request(*p) for p in PINNED_CLOSURES]
        out += [closure_request(cmd, label, rng.choice(mus)) for cmd, label, mus in closure_slots()]
    elif workload == "sweeps":
        out = sweep_requests(rng)
    elif workload == "loops":
        out = loop_requests(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    if len(set(out)) != len(out):
        raise AssertionError(f"{workload}: duplicate requests in the list")
    return out


def all_requests() -> list[tuple[str, ...]]:
    """Every request any seed can draw, for the committed digest table."""
    out = [closure_request(*p) for p in PINNED_CLOSURES]
    for cmd, label, mus in closure_slots():
        out += [closure_request(cmd, label, mu) for mu in mus]
    out += sweep_requests(None)
    out += loop_requests(None)
    return out


def datum_labels(workload: str) -> tuple[str, ...]:
    """The twisted-datum labels a workload's set-up builds."""
    return {"closures": CLOSURE_TYPES, "sweeps": SWEEP_TYPES, "loops": LOOP_TYPES}[workload]
