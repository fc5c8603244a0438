"""Reach rows: the largest N a command finishes under the default cap
within a time budget, cold, one child process per run.

    python3 scripts/reach.py --src src --budget 20 > reach.json

For each row, N doubles from its smallest valid value while the run
finishes (exit 0, or 1 for a flagged finding) within the budget, then a
bisection finds the largest such N, assuming that a run that fails at N
also fails above it. The first N that fails is reported with its outcome:
"timeout", or "exit 3" when the cap refuses it. The reached N comes with
its time and the peak RSS of its process. Each row also gives, at the
reached N, the entries that `hochcyc.level_counts` counts next to those
the operators hand to `modring._from_keys`, where every construction
from entries starts, before duplicates are summed: b (`hh`) or b and B of the normalized mixed complex, or the
subdivided b (`conjugate`, `edgewise-check`), on the algebra in the basis
the command line runs (`algebra.normalize_basis`). The two agree; the cap
charges a little more (one entry per face and rotation, and the words of
the subdivision). The recount runs under the same budget, and both are
null when it runs out.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROWS = [("sbi", "m2", 6), ("sbi", "trunc-poly-4", 6), ("hc", "kronecker", 2),
        ("ledger", "product-dual-upper", 2), ("hh", "product-ground-m2", 1),
        ("hh", "group-z4", 1), ("hc", "group-z3", 2),
        ("conjugate", "dual-numbers", 1), ("conjugate", "trunc-poly-3", 1),
        ("conjugate", "group-z3", 1), ("conjugate", "group-z4", 1),
        ("edgewise-check", "dual-numbers", 1)]

SUBDIVIDED = ("conjugate", "edgewise-check")

BUILT = """
import sys
from unittest import mock
from nchodge.algebra import normalize_basis
from nchodge.cartier import PCyclicLevels
from nchodge.corpus import build
from nchodge.hochcyc import NormalizedMixedComplex, level_counts
from nchodge import modring

name, N, kind = sys.argv[1], int(sys.argv[2]), sys.argv[3]
a = normalize_basis(build(name, 3))
lengths = []
real = modring._from_keys

def record(shape, m, key, vals=None):
    lengths.append(key.shape[0])
    return real(shape, m, key, vals)

def built(op, levels):
    # an operator's last construction is itself, from its concatenated arrays
    total = 0
    for n in levels:
        op(n)
        total += lengths[-1]
    return total

with mock.patch.object(modring, "_from_keys", record):
    if kind == "subdivided":
        count = sum(b for _, b, _ in level_counts(a, N, p=a.p))
        entries = built(PCyclicLevels(a, N).b, range(1, N + 1))
    else:
        counts = list(level_counts(a, N))[:N + 1]
        nc = NormalizedMixedComplex(a, N, charge_B=kind == "bB")
        count, entries = sum(b for _, b, _ in counts), built(nc.b, range(1, N + 1))
        if kind == "bB":
            count += sum(B for _, _, B in counts[:N])
            entries += built(nc.B, range(N))
print(count, entries)
"""

# runs the command line and prints its peak RSS in KiB as the last line of stderr
CHILD = """
import resource, sys
from nchodge.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def run(src: str, argv: list[str], budget: float):
    """(outcome, seconds, peak RSS in MB or None) of one cold run."""
    env = {**os.environ, "PYTHONPATH": src}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv, "--quiet",
                               "--format", "json"], env=env, capture_output=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return "timeout", budget, None
    seconds = time.perf_counter() - t0
    tail = proc.stderr.split()[-1:]
    rss = round(int(tail[0]) / 1024, 1) if tail and tail[0].isdigit() else None
    return ("ok" if proc.returncode in (0, 1) else f"exit {proc.returncode}"), seconds, rss


def reach(src: str, command: str, algebra: str, lo: int, budget: float) -> dict:
    tried: dict[int, tuple[str, float, float | None]] = {}

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
           "peak_rss_mb": None if good is None else tried[good][2],
           "first_failing_N": bad, "failure": tried[bad][0]}
    if good is not None:
        kind = ("subdivided" if command in SUBDIVIDED else "b" if command == "hh" else "bB")
        try:
            out = subprocess.run([sys.executable, "-c", BUILT, algebra, str(good), kind],
                                 env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                                 text=True, check=True, timeout=budget)
            row["count"], row["built"] = (int(x) for x in out.stdout.split())
        except subprocess.TimeoutExpired:
            row["count"] = row["built"] = None
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
