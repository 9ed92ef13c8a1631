"""affsch benchmark: one workload, measured for a fixed time, with checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closures|sweeps|loops --seed N \
        --seconds S --trace 0|1 [--requests N]

The workload's seeded request list (``workloads.py``) is served in passes.
Each pass is a fresh single-threaded process (``worker.py``) that imports
``affsch`` from ``src/``, sets up, then sends the requests one at a time
through ``affsch.cli.main`` (a closed loop with one client).  Passes repeat
until the next one would end after ``--seconds``.  Every response must exit 0,
be a well-formed document, and match the sha256 committed for its request in
``digests.json``; a request that fails any of these counts as failed, and the
run goes on.

Times are reported in reference-scaled seconds: the shared host's speed
drifts by up to 40% for minutes at a time, so each pass also times a fixed
kernel of the benchmark's own beside every request and before set-up, and
each time is multiplied by REFERENCE_S over the kernel's time at that moment
(see ``scaled_latencies``).  A request's latency is the median of its scaled
times over the passes, one sample per request.  With ``--trace 0`` the last
line of stdout reports the end-to-end metrics:

    setup_s         median scaled time to import affsch and build the data
    wall_s          time to serve the whole list: the sum of the latencies
    latency_p50_ms  median request latency
    latency_p90_ms  90th-percentile request latency (nearest rank)
    peak_rss_mb     median peak resident set size of a pass process

With ``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics from the traced ones (see ``layer_metrics``)
plus ``trace.overhead_s``, traced minus untraced ``wall_s``.

Lines before the last give run metadata, exact work counts, sample counts and
the failed fraction.  Each run writes ``perfbench/out/result-*.json`` and the
digests of its responses to ``perfbench/out/digests-<workload>-seed<N>.json``,
so two commits can be compared on any seed.  Exit code 2 means the checkout
has no ``src/affsch`` to measure; 1 means a pass process failed outright.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
# A run must end within this many seconds whatever --seconds says.
HARD_LIMIT_S = 170.0
# Set-up is sampled at least this many times per run.
SETUP_SAMPLES = 5
# Nominal time of worker.reference_work(): its uncontended time on the 2-core
# Xeon host the benchmark was defined on.  Reported times are scaled to a host
# on which the kernel takes exactly this long.
REFERENCE_S = 0.0006
# Requests on each side whose kernel times make a request's reference.
WINDOW = 4
WORK_KEYS = ("strata", "covers", "suite_instances", "root_lines")
# Failed requests listed by name in the report.
MAX_NOTES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class PassFailed(RuntimeError):
    pass


def _run_pass(root: Path, args, trace: int, deadline: float, setup_only=False, spans=None) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
    ]
    if args.requests:
        cmd += ["--requests", str(args.requests)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "AFFSCH_JOBS")}
    # Fixed string hashing, so that every pass iterates its sets alike and
    # does the same work.
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass process exceeded the {HARD_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise PassFailed(f"pass process printed no result: {proc.stderr.strip()[-2000:]}") from exc
    result["process_s"] = time.perf_counter() - start
    return result


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _scale(pass_: dict, i: int) -> float:
    """REFERENCE_S over the reference time around request i of a pass.

    The reference is the median of the kernel times just before requests
    i - 4 .. i + 4, so one slow kernel run does not skew a request.
    """
    refs = [row["ref_s"] for row in pass_["requests"][max(0, i - WINDOW) : i + WINDOW + 1]]
    return REFERENCE_S / statistics.median(refs)


def scaled_latencies(passes: list[dict]) -> list[float]:
    """Each request's latency in reference-scaled seconds, median over the passes.

    The host is shared: its speed drifts by up to 40% for seconds to minutes
    at a time, so raw times swing with the host rather than the code.  Each
    request's time is multiplied by REFERENCE_S over the time of a fixed
    kernel (``worker.reference_work``) run beside it, which cancels most of
    the drift; the median over passes removes what is left of short bursts.
    """
    scaled = [
        [row["latency_s"] * _scale(p, i) for i, row in enumerate(p["requests"])] for p in passes
    ]
    return [statistics.median(column) for column in zip(*scaled)]


def _pass_scale(pass_: dict) -> float:
    return REFERENCE_S / statistics.median(row["ref_s"] for row in pass_["requests"])


def _ratio(cache: dict | None) -> float:
    if not cache or not cache["hits"] + cache["misses"]:
        return 0.0
    return cache["hits"] / (cache["hits"] + cache["misses"])


def layer_metrics(traced: list[dict], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: times are reference-scaled medians over traced passes, counts from the first."""
    first = traced[0]

    def self_s(name: str) -> float:
        return statistics.median(
            p["layers"].get(name, {}).get("self_s", 0.0) * _pass_scale(p) for p in traced
        )

    def calls(name: str) -> int:
        return first["layers"].get(name, {}).get("calls", 0)

    caches = first["caches"]
    metrics: dict[str, tuple[float, str]] = {
        "schubert.smooth_locus_report.self_s": (self_s("schubert.smooth_locus_report"), "s"),
        "schubert.minimal_degenerations.self_s": (self_s("schubert.minimal_degenerations"), "s"),
        "schubert.dominant_below.s": (
            statistics.median(p["probe_s"] * _pass_scale(p) for p in traced),
            "s",
        ),
        "rootsys.systems_built": (first["counters"]["rootsys.systems_built"], "count"),
        "rootsys.sub_system.calls": (calls("rootsys.sub_system"), "count"),
        "rootsys.sub_system.self_s": (self_s("rootsys.sub_system"), "s"),
        "schubert.certificate.calls": (calls("schubert.certificate"), "count"),
        "schubert.certificate.self_s": (self_s("schubert.certificate"), "s"),
        "schubert.k_alpha.calls": (calls("schubert.k_alpha"), "count"),
        "rootsys.lattice_solves": (first["counters"]["rootsys.lattice_solves"], "count"),
        "schubert.dom_cache.hit_ratio": (_ratio(caches.get("schubert._dom_raw")), "ratio"),
        "schubert.gap_cache.hit_ratio": (_ratio(caches.get("schubert._gap_raw")), "ratio"),
        "schubert.cache_entries": (
            sum(c["currsize"] for name, c in caches.items() if name.startswith("schubert.")),
            "count",
        ),
        "loopalg.build_chevalley.self_s": (self_s("loopalg.build_chevalley"), "s"),
        "loopalg.loop_context.self_s": (self_s("loopalg.loop_context"), "s"),
        "loopalg.make_e_a.calls": (calls("loopalg.make_e_a"), "count"),
        "loopalg.make_e_a.self_s": (self_s("loopalg.make_e_a"), "s"),
        "loopalg.ad_exp.self_s": (self_s("loopalg.ad_exp"), "s"),
        "loopalg.cartan_direction.self_s": (self_s("loopalg.cartan_direction"), "s"),
        "loopalg.verify_invariant_basis.self_s": (self_s("loopalg.verify_invariant_basis"), "s"),
        "loopalg.root_lines_at_degree.self_s": (self_s("loopalg.root_lines_at_degree"), "s"),
        "twist.twisted_datum.self_s": (self_s("twist.twisted_datum"), "s"),
        "twist.twisted_datum.hit_ratio": (_ratio(caches.get("twist.twisted_datum")), "ratio"),
        "rootsys.build_root_system.self_s": (self_s("rootsys.build_root_system"), "s"),
        "verify.run_suite.self_s": (self_s("verify.run_suite"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (sum(r["bytes"] for r in first["requests"]), "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    totals = _work_totals(first)
    for key in WORK_KEYS:
        metrics[f"work.{key}"] = (totals[key], "count")
    return metrics


def _work_totals(one_pass: dict) -> dict[str, int]:
    totals = dict.fromkeys(WORK_KEYS, 0)
    for row in one_pass["requests"]:
        for key, value in row["counts"].items():
            totals[key] += value
    return totals


def _check(reqs, passes, table) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, unchecked, notes) over every served request of every pass."""
    attempted = failed = unchecked = 0
    notes: list[str] = []
    for p in passes:
        for argv, row in zip(reqs, p["requests"]):
            attempted += 1
            key = " ".join(argv)
            expected = table.get(key)
            if expected is None:
                unchecked += 1
            if row["ok"] and expected in (None, row["sha256"]):
                continue
            failed += 1
            if len(notes) < MAX_NOTES:
                why = "digest mismatch" if row["ok"] else row["error"].strip() or f"exit {row['code']}"
                notes.append(f"failed: {key}: {why}")
    first = passes[0]["requests"]
    for p in passes[1:]:
        for argv, a, b in zip(reqs, first, p["requests"]):
            if a["sha256"] != b["sha256"] and len(notes) < 2 * MAX_NOTES:
                notes.append(f"nondeterministic output: {' '.join(argv)}")
    return attempted, failed, unchecked, notes


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0, help="serve only the first N requests (smoke runs)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "affsch" / "cli.py").is_file():
        print(f"error: {root} has no src/affsch to measure; run from the root of a checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    soft_deadline = start + args.seconds
    reqs = workloads.requests(args.workload, args.seed)
    if args.requests:
        reqs = reqs[: args.requests]
    table = json.loads(DIGESTS.read_text())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    kinds = [0, 1] if args.trace else [0]
    plain: list[dict] = []
    traced: list[dict] = []
    longest = dict.fromkeys(kinds, 0.0)
    try:
        while True:
            for kind in kinds:
                spans = OUT / f"spans-{tag}.json" if kind and not traced else None
                result = _run_pass(root, args, kind, hard_deadline, spans=spans)
                longest[kind] = max(longest[kind], result["process_s"])
                (traced if kind else plain).append(result)
            if time.perf_counter() + sum(longest.values()) > soft_deadline:
                break
        setups = plain[:]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_run_pass(root, args, 0, hard_deadline, setup_only=True))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, unchecked, notes = _check(reqs, plain + traced, table)
    latencies = scaled_latencies(plain)
    raw_walls = [sum(row["latency_s"] for row in p["requests"]) for p in plain]
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] * REFERENCE_S / p["setup_ref_s"] for p in setups),
        "wall_s": sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * _percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    if args.trace:
        overhead = sum(scaled_latencies(traced)) - end_to_end["wall_s"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(traced, overhead).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    work = _work_totals(plain[0])
    work["output_bytes"] = sum(row["bytes"] for row in plain[0]["requests"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests_per_pass": len(reqs),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "latency_samples": len(latencies),
        "reference_s": REFERENCE_S,
    }
    report = {
        "meta": meta,
        "work_per_pass": work,
        "end_to_end": end_to_end,
        "failed_frac": failed / attempted,
        "unchecked": unchecked,
        "notes": notes,
        "metrics": metrics,
        "passes": [
            {
                "raw_wall_s": wall,
                "raw_setup_s": p["setup_s"],
                "setup_ref_s": p["setup_ref_s"],
                "peak_rss_mb": p["peak_rss_mb"],
                "latency_s": [row["latency_s"] for row in p["requests"]],
                "ref_s": [row["ref_s"] for row in p["requests"]],
            }
            for wall, p in zip(raw_walls, plain)
        ],
    }
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    digests = {" ".join(argv): row["sha256"] for argv, row in zip(reqs, plain[0]["requests"])}
    (OUT / f"digests-{tag}.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    print("work per pass " + json.dumps(work, sort_keys=True))
    for note in notes:
        print(note)
    print(
        f"unscaled: pass time median {statistics.median(raw_walls):.6g} s, set-up median "
        f"{statistics.median(p['setup_s'] for p in setups):.6g} s, reference kernel median "
        f"{1000 * statistics.median(row['ref_s'] for p in plain for row in p['requests']):.6g} ms"
    )
    print(
        f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} requests; "
        f"{unchecked} without a committed digest)"
    )
    samples = {"setup_s": len(setups), "latency_p50_ms": len(latencies), "latency_p90_ms": len(latencies)}
    for name, value in end_to_end.items():
        extra = f"  (n={samples.get(name, len(plain))})"
        print(f"{name:<16} {value:.6g} {END_TO_END_UNITS[name]}{extra}")
    print(json.dumps({"correct": failed == 0 and not notes, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
