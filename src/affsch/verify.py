"""Property sweeps behind the `verify` subcommand.

Each suite re-checks one of the structural facts the library rests on, over
an enumerated family of instances plus an optional seeded random sample.
Results are plain data: canonical instance rows, explicit counterexamples,
and enough metadata to reproduce the run byte for byte.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from affsch.loopalg import (
    cartan_direction,
    verify_invariant_basis,
    verify_sl2_factorization,
)
from affsch.rootsys import Coweight, IntVec, build_root_system, two_rho_pairing
from affsch.schubert import (
    dominant_below,
    k_vector,
    minimal_degenerations,
    root_tangent_bound,
)
from affsch.twist import sigma_affine_to_relative, twisted_datum

SWEEP_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2")
LOOP_LABELS = ("2A2", "2A3", "2D4", "3D4")
DIRECTION_LABELS = ("A1", "2A2", "2A3", "3D4")
SUITES = (
    "loop-basis",
    "cartan-direction",
    "k-symmetry",
    "stembridge",
    "mindeg-inequality",
    "sl2-factorization",
)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    seed: int | None
    instances_checked: int
    instances: tuple[dict, ...]
    counterexamples: tuple[dict, ...]
    details: dict = field(default_factory=dict)


def sweep_type_labels(max_rank: int) -> tuple[str, ...]:
    return tuple(label for label in SWEEP_TYPES if int(label[1]) <= max_rank)


def sweep_coweights(system, max_pairing: int) -> list[Coweight]:
    """Dominant coweights in the coroot lattice with <mu, 2rho> <= max_pairing."""
    h = system.two_rho_coefficients
    out: list[Coweight] = []

    def rec(i: int, acc: list[int], total: int) -> None:
        if i == system.rank:
            p = tuple(acc)
            if system.lattice_coefficients(p) is not None:
                out.append(Coweight(system, p))
            return
        for v in range((max_pairing - total) // h[i] + 1):
            acc.append(v)
            rec(i + 1, acc, total + v * h[i])
            acc.pop()

    rec(0, [], 0)
    return out


def _cover_pairs(mus: list[Coweight]) -> list[tuple[IntVec, IntVec]]:
    return [
        (edge.mu.pairings, edge.lam.pairings) for mu in mus for edge in minimal_degenerations(mu)
    ]


def _random_pairs(label: str, mus: list[Coweight], seed: int, count: int):
    """Seeded dominant pairs lam <= mu, not necessarily covers, drawn from mus."""
    mus = [m for m in mus if any(m.pairings)]
    rng = random.Random(f"{seed}:{label}")  # string seeding is process-stable
    strata = lru_cache(maxsize=None)(dominant_below)  # tops repeat in small boxes
    out = []
    for _ in range(count if mus else 0):
        mu = rng.choice(mus)
        lam = rng.choice(strata(mu))
        out.append((mu.pairings, lam.pairings))
    return out


def _check_k_symmetry(system, mu_p: IntVec, lam_p: IntVec) -> list[dict]:
    """k(alpha) = k(-alpha) + <lam, alpha>, with both counts walked independently."""
    lam = Coweight(system, lam_p)
    kv = k_vector(lam, Coweight(system, mu_p))
    bad = []
    for root in system.positive_roots:
        plus = kv[root]
        minus = kv[tuple(-c for c in root)]
        step = lam.pairing_with_root(root)
        if plus != minus + step:
            bad.append(
                {
                    "type": system.label,
                    "mu": list(mu_p),
                    "lambda": list(lam_p),
                    "root": list(root),
                    "k_plus": plus,
                    "k_minus": minus,
                    "pairing": step,
                }
            )
    return bad


def _k_symmetry_rows(task) -> tuple[list[dict], list[dict]]:
    """One type of the k-symmetry sweep: an instance row per distinct pair, and the failures."""
    label, max_pairing, seed = task
    system = build_root_system(label)
    mus = sweep_coweights(system, max_pairing)
    pairs = dict.fromkeys(_cover_pairs(mus) + _random_pairs(label, mus, seed, 25))
    instances = [{"type": label, "mu": list(mu_p), "lambda": list(lam_p)} for mu_p, lam_p in pairs]
    failures = [row for mu_p, lam_p in pairs for row in _check_k_symmetry(system, mu_p, lam_p)]
    return instances, failures


def _edge_rows(task) -> list[dict]:
    """One type of an edge sweep: the rows of every top in its box."""
    label, max_pairing, kind = task
    rows = []
    for mu in sweep_coweights(build_root_system(label), max_pairing):
        for edge in minimal_degenerations(mu):
            row = {"type": label, "mu": list(mu.pairings), "lambda": list(edge.lam.pairings)}
            if kind == "stembridge":
                row["case"] = edge.stembridge_case
            else:
                row["dim"] = two_rho_pairing(mu)
                row["root_bound"] = root_tangent_bound(edge.lam, mu)
            rows.append(row)
    return rows


def _map_tasks(fn, tasks, jobs: int):
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1 or len(tasks) < 4:
        return [fn(t) for t in tasks]
    # imported here: a serial run never pays for multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _canonical(rows: list[dict]) -> tuple[dict, ...]:
    return tuple(sorted(rows, key=lambda r: sorted(r.items(), key=str)))


def _format_scalar(value) -> str:
    if value.b == 0:
        return str(value.a)
    return f"{value.a}+({value.b})z"


def vector_rows(vec) -> list[dict]:
    rows = []
    for sym, degree, coeff in vec.terms:
        kind, payload = sym
        rows.append(
            {
                "kind": kind,
                "index": list(payload) if kind == "X" else payload,
                "degree": degree,
                "coeff": _format_scalar(coeff),
            }
        )
    return rows


def run_suite(
    name: str,
    *,
    max_rank: int = 4,
    max_pairing: int = 14,
    window: int = 4,
    seed: int = 0,
    jobs: int = 1,
) -> SuiteResult:
    if name == "loop-basis":
        return _suite_loop_basis(window)
    if name == "cartan-direction":
        return _suite_cartan_direction(window)
    if name == "k-symmetry":
        return _suite_k_symmetry(max_rank, max_pairing, seed, jobs)
    if name == "stembridge":
        return _suite_edge_sweep("stembridge", max_rank, max_pairing, jobs)
    if name == "mindeg-inequality":
        return _suite_edge_sweep("mindeg-inequality", max_rank, max_pairing, jobs)
    if name == "sl2-factorization":
        return _suite_sl2(window, seed)
    raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")


def _suite_loop_basis(window: int) -> SuiteResult:
    rows, bad = [], []
    for label in LOOP_LABELS:
        report = verify_invariant_basis(twisted_datum(label), window)
        for line in report.lines:
            row = {
                "type": label,
                "degree": line.degree,
                "fixed_dim": line.fixed_dim,
                "lines": line.progression_count,
                "rank": line.vector_rank,
            }
            rows.append(row)
            if not line.ok:
                bad.append(row)
    return SuiteResult(
        "loop-basis", not bad, None, len(rows), _canonical(rows), _canonical(bad)
    )


def _suite_cartan_direction(window: int) -> SuiteResult:
    depth = max(1, min(window, 6))
    rows, bad = [], []
    for label in DIRECTION_LABELS:
        datum = twisted_datum(label)
        for root in datum.echelonnage.roots:
            for k in range(1, depth + 1):
                if sigma_affine_to_relative(datum, (root, -k)).case == "case2a":
                    continue  # cartan_direction has no recipe there
                instance = {"type": label, "root": list(root), "level": -k}
                try:
                    vec = cartan_direction(datum, (root, -k))
                    instance["vector"] = vector_rows(vec)
                    rows.append(instance)
                except (ValueError, RuntimeError, AssertionError) as exc:
                    instance["error"] = str(exc)
                    bad.append(instance)
    return SuiteResult(
        "cartan-direction", not bad, None, len(rows) + len(bad), _canonical(rows), _canonical(bad)
    )


def _suite_k_symmetry(max_rank: int, max_pairing: int, seed: int, jobs: int) -> SuiteResult:
    # one task per type; a task names its work, so it pickles small
    tasks = [(label, max_pairing, seed) for label in sweep_type_labels(max_rank)]
    instances, failures = [], []
    for rows, bad in _map_tasks(_k_symmetry_rows, tasks, jobs):
        instances += rows
        failures += bad
    return SuiteResult(
        "k-symmetry",
        not failures,
        seed,
        len(instances),
        _canonical(instances),
        _canonical(failures),
    )


def _suite_edge_sweep(kind: str, max_rank: int, max_pairing: int, jobs: int) -> SuiteResult:
    tasks = [(label, max_pairing, kind) for label in sweep_type_labels(max_rank)]
    rows, bad = [], []
    for chunk in _map_tasks(_edge_rows, tasks, jobs):
        rows.extend(chunk)
    details: dict = {}
    if kind == "stembridge":
        histogram: dict[str, dict[int, int]] = {}
        for row in rows:
            per_type = histogram.setdefault(row["type"], {})
            per_type[row["case"]] = per_type.get(row["case"], 0) + 1
        details["histogram"] = {
            label: {str(case): count for case, count in sorted(cases.items())}
            for label, cases in sorted(histogram.items())
        }
    else:
        bad = [row for row in rows if row["root_bound"] < row["dim"]]
    return SuiteResult(
        kind,
        not bad,
        None,
        len(rows),
        _canonical(rows),
        _canonical(bad),
        details,
    )


def _suite_sl2(window: int, seed: int) -> SuiteResult:
    rng = random.Random(seed)
    xs = [Fraction(1), Fraction(-2), Fraction(3, 2)]
    while len(xs) < 13:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x != 0:
            xs.append(x)
    rows, bad = [], []
    for k in range(1, max(3, min(window, 5)) + 1):
        for x in xs:
            row = {"k": k, "x": str(x)}
            if verify_sl2_factorization(k, x):
                rows.append(row)
            else:
                bad.append(row)
    return SuiteResult(
        "sl2-factorization", not bad, seed, len(rows) + len(bad), _canonical(rows), _canonical(bad)
    )
