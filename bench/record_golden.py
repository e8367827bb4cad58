"""Record the golden outputs of the exact-audit commands.

    python3 bench/record_golden.py

Run from the root of a checkout. It writes the --json standard output
of verify-d4, of verify-d4 --corrupt I,J for every pair a seed can pick,
of galois and of units to bench/golden/<name>.json, and their exit codes
to bench/golden/exit_codes.json. Only rerun it at a commit whose outputs
are known to be right: the benchmark counts any byte difference from
these files as a failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    commands = [("verify-d4", "--json"), ("galois", "--json"), ("units", "--json")]
    commands += [("verify-d4", "--corrupt", f"{i},{j}", "--json") for i, j in workloads.CORRUPT_PAIRS]
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for args in commands:
        proc = subprocess.run([sys.executable, "-m", "sicfield.cli", *args],
                              env=env, capture_output=True, check=False)
        expected = 1 if "--corrupt" in args else 0
        if proc.returncode != expected:
            print(f"{' '.join(args)}: exit {proc.returncode}, expected {expected}", file=sys.stderr)
            return 1
        name = workloads.golden_name(args)
        (GOLDEN / f"{name}.json").write_bytes(proc.stdout)
        codes[name] = proc.returncode
        print(f"{name}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
