"""Regenerate digests.json: the sha256 of every response any seed can request.

Run from the root of a checkout:  python3 perfbench/make_digests.py

Serves every request in ``workloads.all_requests()`` through
``affsch.cli.main`` in one process and records the sha256 of each stdout
document.  Regenerate only when the program's output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from affsch.cli import main as affsch_main

    table = {}
    reqs = workloads.all_requests()
    for i, argv in enumerate(reqs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = affsch_main(list(argv))
        if code != 0:
            print(f"error: {' '.join(argv)} exited {code}", file=sys.stderr)
            return 1
        table[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if i % 200 == 0:
            print(f"{i}/{len(reqs)}", file=sys.stderr, flush=True)
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
