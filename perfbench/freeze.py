"""Freeze the expected result of every benchmark job into expected.json.

    python3 perfbench/freeze.py

Run it at the commit whose answers are the reference. A job is expected to
give the exit code and payload digest it gives there. A wide-prime job is
expected to agree with the same command at the reference prime, with the
`p` and `modulus` fields dropped, because its own answer is not trusted.
"""

from __future__ import annotations

import json

from child import DROP_FOR_REFERENCE, EXPECTED, load_package, payload_digest, run_job
from workloads import WORKLOADS, job_key, reference_argv


def main() -> None:
    cli, _ = load_package()
    expected = {}
    for jobs in WORKLOADS.values():
        for argv in jobs:
            ref = reference_argv(argv)
            drop = list(DROP_FOR_REFERENCE) if ref else []
            code, text = run_job(cli, ref or argv)
            expected[job_key(argv)] = {
                "exit": code,
                "sha256": payload_digest(text, drop),
                "drop": drop,
                "reference": job_key(ref) if ref else None,
            }
            print(f"{code}  {job_key(ref or argv)}", flush=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    main()
