"""Property sweeps behind the `verify` subcommand.

Each suite re-checks one of the structural facts the library rests on, over
an enumerated family of instances plus an optional seeded random sample.
Results are plain data: canonical instance rows, explicit counterexamples,
and enough metadata to reproduce the run byte for byte.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from affsch.loopalg import (
    cartan_direction,
    verify_invariant_basis,
    verify_sl2_factorization,
)
from affsch.rootsys import Coweight, IntVec, build_root_system, two_rho_pairing
from affsch.schubert import (
    dominant_below,
    k_alpha,
    minimal_degenerations,
    root_tangent_bound,
)
from affsch.twist import twisted_datum

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


def _cover_pairs(label: str, max_pairing: int) -> list[tuple[IntVec, IntVec]]:
    system = build_root_system(label)
    pairs = []
    for mu in sweep_coweights(system, max_pairing):
        for edge in minimal_degenerations(mu):
            pairs.append((edge.mu.pairings, edge.lam.pairings))
    return pairs


def _random_pairs(label: str, max_pairing: int, seed: int, count: int):
    """Seeded dominant pairs lam <= mu, not necessarily covers."""
    system = build_root_system(label)
    mus = [m for m in sweep_coweights(system, max_pairing) if any(m.pairings)]
    rng = random.Random(f"{seed}:{label}")  # string seeding is process-stable
    out = []
    for _ in range(count if mus else 0):
        mu = rng.choice(mus)
        lam = rng.choice(dominant_below(mu))
        out.append((mu.pairings, lam.pairings))
    return out


def _check_k_symmetry(task) -> list[dict]:
    label, mu_p, lam_p = task
    system = build_root_system(label)
    mu = Coweight(system, mu_p)
    lam = Coweight(system, lam_p)
    bad = []
    for root in system.positive_roots:
        neg = tuple(-c for c in root)
        plus = k_alpha(lam, mu, root)
        minus = k_alpha(lam, mu, neg)
        step = lam.pairing_with_root(root)
        if plus != minus + step:
            bad.append(
                {
                    "type": label,
                    "mu": list(mu_p),
                    "lambda": list(lam_p),
                    "root": list(root),
                    "k_plus": plus,
                    "k_minus": minus,
                    "pairing": step,
                }
            )
    return bad


def _mu_edge_rows(task) -> list[dict]:
    label, mu_p, kind = task
    system = build_root_system(label)
    mu = Coweight(system, mu_p)
    rows = []
    for edge in minimal_degenerations(mu):
        row = {"type": label, "mu": list(mu_p), "lambda": list(edge.lam.pairings)}
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
            multipliable = root in datum.multipliable_roots or tuple(
                -c for c in root
            ) in datum.multipliable_roots
            for k in range(1, depth + 1):
                if multipliable and k % 2 == 0:
                    continue
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
    tasks = []
    for label in sweep_type_labels(max_rank):
        seen = set()
        for mu_p, lam_p in _cover_pairs(label, max_pairing) + _random_pairs(
            label, max_pairing, seed, 25
        ):
            key = (mu_p, lam_p)
            if key not in seen:
                seen.add(key)
                tasks.append((label, mu_p, lam_p))
    failures = [row for rows in _map_tasks(_check_k_symmetry, tasks, jobs) for row in rows]
    instances = [
        {"type": label, "mu": list(mu_p), "lambda": list(lam_p)}
        for label, mu_p, lam_p in tasks
    ]
    return SuiteResult(
        "k-symmetry",
        not failures,
        seed,
        len(tasks),
        _canonical(instances),
        _canonical(failures),
    )


def _suite_edge_sweep(kind: str, max_rank: int, max_pairing: int, jobs: int) -> SuiteResult:
    tasks = []
    for label in sweep_type_labels(max_rank):
        system = build_root_system(label)
        for mu in sweep_coweights(system, max_pairing):
            tasks.append((label, mu.pairings, kind))
    rows, bad = [], []
    for chunk in _map_tasks(_mu_edge_rows, tasks, jobs):
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
