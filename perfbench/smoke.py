"""Smoke check of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/smoke.py

For every workload in BENCHMARK.json it makes a reduced-size run (the first
few requests, one second of measuring) with --trace 0 and --trace 1, and
checks that each finishes, passes the output check, and prints exactly the
metric names and units BENCHMARK.json declares.  It also checks that the
benchmark refuses to run, without printing a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.  Exit code 0 means every
check passed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

REQUESTS = 12
TIMEOUT_S = 170


def _run(command: list[str], cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = command + [
        "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
        "--requests", str(REQUESTS),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            before = len(failures)
            proc = _run(spec["command"], root, workload, trace)
            result = _last_json(proc.stdout)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                want = {m["name"]: m["unit"] for m in declared}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    failures.append(f"{label}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < REQUESTS:
                    failures.append(f"{label}: correct={result['correct']} failed={result['failed']}")
                if got != want:
                    failures.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(f"{label}: {'ok' if len(failures) == before else 'FAILED'}")

    bare = root / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(spec["command"], bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or _last_json(proc.stdout) is not None:
        failures.append(f"bare directory: exit {proc.returncode}, printed a result")
    print(f"bare directory refused: {'ok' if proc.returncode != 0 else 'FAILED'}")
    shutil.rmtree(bare, ignore_errors=True)

    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
