"""One pass of one workload, in a fresh single-threaded process.

Run from the root of a checkout by ``run.py``; it imports ``affsch`` from the
checkout's ``src``.  The pass times set-up (importing the package and building
every datum the workload names), then sends the request list through
``affsch.cli.main(argv)`` one request at a time and captures each stdout
document.  Just before each request, and nine times before set-up, it times
a fixed reference kernel.  It prints one JSON object: per-request latency,
reference time, exit code, sha256 and size of the document, work counts, the
process's peak RSS and, with ``--trace 1``, per-layer spans and counters.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

# A fixed kernel of the kinds of work the engine does (recursion over tuples,
# sorting, dict building, Fraction sums).  It belongs to the benchmark, so no
# change to the package changes its cost; its time tracks the speed of the
# shared host from moment to moment (see run.py).
COLUMNS = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))


def reference_work() -> int:
    found = []

    def descend(j, remaining, p):
        if j == 4:
            if all(x >= 0 for x in p):
                found.append(p)
            return
        col = COLUMNS[j]
        for cj in range(remaining + 1):
            descend(j + 1, remaining - cj, tuple(x - cj * y for x, y in zip(p, col)))

    descend(0, 6, (3, 1, 2, 1))
    index = {p: k for k, p in enumerate(sorted(found, key=lambda p: (-sum(p), p)))}
    acc = Fraction(0)
    for p, k in index.items():
        acc += Fraction(sum(p) + 1, k + 1)
    return len(found) + acc.denominator % 7


def time_reference() -> float:
    """Seconds one reference_work() takes now, with the collector held off."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _work_counts(argv: tuple[str, ...], code: int, text: str) -> tuple[bool, dict[str, int]]:
    """Whether the document is a well-formed success for argv, and what it counted."""
    try:
        doc = json.loads(text)
        result = doc["result"]
        ok = (
            code == 0
            and doc["schema_version"] == 1
            and doc["tool"]["name"] == "affsch"
            and doc["command"] == argv[0]
        )
        if argv[0] == "analyze":
            counts = {
                "strata": len(result["strata"]),
                "covers": sum(s["mechanism"] == "certificate" for s in result["strata"]),
            }
        elif argv[0] == "poset":
            counts = {"strata": len(result["strata"]), "covers": len(result["edges"])}
        elif argv[0] == "verify":
            ok = ok and result["passed"] is True
            counts = {"suite_instances": result["instances_checked"]}
        else:
            counts = {"root_lines": sum(row["lines"] for row in result["degrees"])}
    except (ValueError, KeyError, TypeError):
        return False, {}
    return ok, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=0, help="serve only the first N")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = parser.parse_args()

    reqs = workloads.requests(args.workload, args.seed)
    if args.requests:
        reqs = reqs[: args.requests]
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))

    setup_ref_s = statistics.median(time_reference() for _ in range(9))
    start = time.perf_counter()
    import affsch.cli

    import_s = time.perf_counter() - start
    if src not in Path(affsch.__file__).resolve().parents:
        print(f"affsch was imported from {affsch.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.install(affsch) if args.trace else None

    start = time.perf_counter()
    data = {label: affsch.twist.twisted_datum(label) for label in workloads.datum_labels(args.workload)}
    if args.workload == "loops":
        for datum in data.values():
            affsch.loopalg.loop_context(datum)
    setup_s = import_s + time.perf_counter() - start

    out = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if not args.setup_only:
        out["requests"], out["probe_s"] = _serve(affsch, reqs, tracer, data)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False
        out["layers"] = tracer.layers()
        out["counters"] = tracer.counters
        out["caches"] = tracing.cache_stats(affsch)
        out["spans"] = tracer.dump(args.spans) if args.spans else 0
    print(json.dumps(out))
    return 0


def _serve(affsch, reqs, tracer, data):
    """Serve reqs in a closed loop; returns per-request rows and probe seconds."""
    rows = []
    probe_s = 0.0
    for i, argv in enumerate(reqs):
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = i
        error = None
        ref_s = time_reference()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = affsch.cli.main(list(argv))
        except Exception as exc:  # a failed request is counted, not fatal
            code, error = -1, repr(exc)
        latency = time.perf_counter() - start
        text = stdout.getvalue()
        ok, counts = _work_counts(argv, code, text)
        rows.append(
            {
                "latency_s": latency,
                "ref_s": ref_s,
                "code": code,
                "ok": ok and error is None,
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "bytes": len(text.encode()),
                "counts": counts,
                "error": error or stderr.getvalue()[-500:],
            }
        )
        if tracer is not None and argv[0] in ("analyze", "poset"):
            probe_s += _probe_dominant_below(affsch, tracer, data[argv[2]], argv[4])
    return rows, probe_s


def _probe_dominant_below(affsch, tracer, datum, mu_text: str) -> float:
    """Time one untraced stratum enumeration for the request's mu."""
    mu = affsch.rootsys.Coweight(datum.echelonnage, tuple(int(v) for v in mu_text.split(",")))
    enumerate_below = tracer.originals["schubert.dominant_below"]
    tracer.active = False
    try:
        start = time.perf_counter()
        enumerate_below(mu)
        return time.perf_counter() - start
    finally:
        tracer.active = True


if __name__ == "__main__":
    sys.exit(main())
