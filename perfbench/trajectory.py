"""Measure every workload on several seeds and append a point to trajectory.json.

Run from the root of a checkout:

    python3 perfbench/trajectory.py --label "what changed" [--runs 10] [--first-seed 1]

Runs BENCHMARK.json's command once per (seed, workload), seed-major so that
slow spells of the shared host fall on every workload alike, with seeds
first-seed .. first-seed+runs-1 and --trace 0.  For each workload and
end-to-end metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, and flags a spread wider than a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRAJECTORY = HERE / "trajectory.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    names = [w["name"] for w in spec["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    units: dict[str, str] = {}
    meta = None
    started = time.time()
    for seed in seeds:
        for workload in names:
            argv = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {workload} seed {seed}: {proc.stderr.strip()[-1000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"error: {workload} seed {seed} failed its output check", file=sys.stderr)
                return 1
            meta = json.loads(lines[0].removeprefix("meta "))
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)

    point = {
        "label": args.label,
        "commit": meta["commit"],
        "src_sha256": meta["src_sha256"],
        "python": platform.python_version(),
        "nproc": meta["nproc"],
        "run_seconds": spec["run_seconds"],
        "runs_per_workload": args.runs,
        "seeds": seeds,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "workloads": {},
    }
    steady = True
    for workload in names:
        rows = {}
        for name, vals in values[workload].items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            rows[name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": vals,
            }
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  wider than a third of the bound {bounds[name]}"
                steady = False
            print(f"{workload:9} {name:16} median {median:.6g} {units[name]}  spread {spread:.3f}{flag}")
        point["workloads"][workload] = rows
    doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
    doc["points"].append(point)
    TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"appended point {len(doc['points'])} to {TRAJECTORY}; steady: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
