"""Check the carrier relative to the basis idempotents against S = k.

For every builtin algebra with r > 1 basis idempotents, at each prime and
at every N from 2 up to the largest N where the carrier relative to k fits
the default entry cap, both carriers must give the same HH, HC, SBI ranks
and spots, and the `hodge_ss` verdict and per-degree sums, which `hodge`
and `ledger` print (computed on the relative carrier), must be those of
the HH and HC relative to k. Prints one line per algebra and prime and
exits 1 on any disagreement.

    PYTHONPATH=src:. python3 scripts/relative_check.py [-p 3 5 7]
"""

from __future__ import annotations

import argparse
import sys
import time

from nchodge.complexes import filtration_by_columns
from nchodge.corpus import build, corpus_names
from nchodge.hochcyc import (
    DEFAULT_ENTRY_CAP,
    NormalizedMixedComplex,
    hc_dims,
    hh_dims,
    hodge_ss,
    level_counts,
    sbi_ranks,
)
from tests.sweeps import over_k


def hc_of(carrier) -> dict[int, int]:
    return hc_dims(carrier.algebra, carrier.N, tot=filtration_by_columns(carrier).carrier)


def summary(carrier) -> tuple:
    if carrier.N < 3:
        return hh_dims(carrier.algebra, carrier.N, carrier=carrier), hc_of(carrier), {}, {}
    rep = sbi_ranks(carrier)
    return rep.hh, rep.hc, rep.ranks, rep.spots


def check(a, N: int) -> list[str]:
    ground = NormalizedMixedComplex(over_k(a), N)
    want = summary(ground)
    bad = []
    if summary(NormalizedMixedComplex(a, N)) != want:
        bad.append("hh/hc/sbi")
    hh, hc = want[0], hc_of(ground)
    sums = {n: sum(hh[n - 2 * l] for l in range(n // 2 + 1)) for n in range(N - 1)}
    rep = hodge_ss(a, N, pages_budget=0)
    if (rep.abutment, rep.hodge_sums, rep.degenerate) != \
            (hc, sums, all(hc[n] == sums[n] for n in sums)):
        bad.append("hodge")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-p", "--primes", type=int, nargs="+", default=[3, 5, 7])
    args = parser.parse_args()
    failed = False
    for p in args.primes:
        for name in corpus_names():
            a = build(name, p)
            if a.idempotents.r == 1:
                continue
            top = 2
            while sum(b + B for _, b, B in level_counts(over_k(a), top + 1)) \
                    <= DEFAULT_ENTRY_CAP:
                top += 1
            t0 = time.perf_counter()
            bad = {N: b for N in range(2, top + 1) if (b := check(a, N))}
            failed = failed or bool(bad)
            print(f"{name:20s} p={p} N=2..{top:<3d} {time.perf_counter() - t0:7.1f}s "
                  f"{'agree' if not bad else f'DISAGREE {bad}'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
