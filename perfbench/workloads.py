"""Job lists of the nchodge benchmark workloads.

A job is one `nchodge` command line. It runs in-process through
`nchodge.cli.main(argv + ["--format", "json", "--quiet"])`, so it covers the
same path a user runs, from argument parsing to rendering. NOTES.md says
why each workload exists and which jobs were trimmed to fit the run length.
"""

WIDE_PRIME = 2147483647  # 2**31 - 1
# 2**24 - 3: every int64 intermediate of the wide-prime jobs stays below
# 2**63 at this prime, so its answers are trusted as the reference.
REFERENCE_PRIME = 16777213

_WIDE = ["-p", str(WIDE_PRIME)]

WORKLOADS: dict[str, list[list[str]]] = {
    # plain cyclic-object route at p = 3; elimination dominates
    "plain": [
        ["sbi", "m2", "-N", "6"],
        ["sbi", "kronecker", "-N", "6"],
        ["hh", "group-z4", "-N", "7"],
        ["hc", "group-z4", "-N", "6"],
        ["hodge", "group-z3", "-N", "5", "--pages"],
        ["ledger", "product-dual-upper", "-N", "6"],
    ],
    # p-fold subdivision route; sparse assembly dominates
    "conjugate": [
        ["conjugate", "upper-tri-2", "-N", "3", "--cap", "67108864"],
        ["conjugate", "m2", "-N", "2"],
        ["conjugate", "dual-numbers", "-N", "4"],
        ["conjugate", "dual-numbers", "-N", "2", "-p", "5"],
        ["edgewise-check", "upper-tri-2", "-N", "3", "--cap", "67108864"],
        ["edgewise-check", "m2", "-N", "2"],
    ],
    # plain route at the edge of the int64 range
    "wide-prime": [
        ["hodge", "upper-tri-2", "-N", "5", "--pages"] + _WIDE,
        ["sbi", "m2", "-N", "6"] + _WIDE,
        ["hh", "dual-numbers", "-N", "7"] + _WIDE,
        ["hc", "group-z4", "-N", "6"] + _WIDE,
    ],
}

# Jobs whose answer is known to be wrong at the commit that defined the
# benchmark, with the exit code and the sha256 of the exact payload they gave
# there. They stay in their workload and count as failed. A failure is known
# only while the job gives exactly that wrong answer; any other failure, of
# these jobs or of others, makes the run incorrect.
KNOWN_DEFECTS: dict[str, dict] = {
    "hodge upper-tri-2 -N 5 --pages -p 2147483647": {
        "exit": 0,
        "sha256": "d808e12209e471cbcfdba8ce0c6c0544b12ba9200935066986e092a2e75c557b",
        "note": "silent int64 overflow: exits 0 with pages_certified true but "
                "reports E_3 entry (0, 4) = -2 and nonzero d_2/d_3 ranks",
    },
}


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def reference_argv(argv: list[str]) -> list[str] | None:
    """The same command at the reference prime, for wide-prime jobs."""
    if str(WIDE_PRIME) not in argv:
        return None
    return [str(REFERENCE_PRIME) if a == str(WIDE_PRIME) else a for a in argv]


def algebras_of(jobs: list[list[str]]) -> list[tuple[str, int]]:
    """(builtin name, prime) for every algebra the jobs load."""
    out = []
    for argv in jobs:
        p = int(argv[argv.index("-p") + 1]) if "-p" in argv else 3
        if (argv[1], p) not in out:
            out.append((argv[1], p))
    return out
