"""Reach rows: the largest N a command finishes under the default cap
within a time budget, cold, one child process per run.

    python3 scripts/reach.py --src src --budget 20 > reach.json

For each row, N doubles from its smallest valid value while the run
finishes (exit 0, or 1 for a flagged finding) within the budget, then a
bisection finds the largest such N, assuming that a run that fails at N
also fails above it. The first N that fails is reported with its outcome:
"timeout", or "exit 3" when the cap refuses it. Each row also gives the
cap estimate of the normalized mixed complex at the reached N against the
entries of b and B actually built there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROWS = [("sbi", "m2", 6), ("hc", "kronecker", 2), ("ledger", "product-dual-upper", 2),
        ("hh", "product-ground-m2", 1), ("hh", "group-z4", 1)]

BUILT = """
import sys
from nchodge.corpus import build
from nchodge.hochcyc import NormalizedMixedComplex, estimate_normalized_entries
a, N = build(sys.argv[1], 3), int(sys.argv[2])
nc = NormalizedMixedComplex(a, N)
built = sum(nc.b(n).nnz for n in range(1, N + 1)) + sum(nc.B(n).nnz for n in range(N))
print(estimate_normalized_entries(a, N), built)
"""


def run(src: str, argv: list[str], budget: float):
    env = {**os.environ, "PYTHONPATH": src}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "nchodge.cli", *argv, "--quiet",
                               "--format", "json"], env=env, capture_output=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return "timeout", budget
    seconds = time.perf_counter() - t0
    return ("ok" if proc.returncode in (0, 1) else f"exit {proc.returncode}"), seconds


def reach(src: str, command: str, algebra: str, lo: int, budget: float) -> dict:
    tried: dict[int, tuple[str, float]] = {}

    def ok(N: int) -> bool:
        tried[N] = run(src, [command, algebra, "-N", str(N)], budget)
        return tried[N][0] == "ok"

    good, bad = None, lo
    while ok(bad):
        good, bad = bad, 2 * bad
    while good is not None and bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    row = {"command": f"{command} {algebra}", "largest_N": good,
           "seconds": None if good is None else round(tried[good][1], 3),
           "first_failing_N": bad, "failure": tried[bad][0]}
    if good is not None:
        out = subprocess.run([sys.executable, "-c", BUILT, algebra, str(good)],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        row["estimate"], row["built"] = (int(x) for x in out.stdout.split())
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src", help="the source tree to run")
    ap.add_argument("--budget", type=float, default=20.0, help="seconds per run")
    args = ap.parse_args()
    rows = [reach(args.src, *row, args.budget) for row in ROWS]
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
