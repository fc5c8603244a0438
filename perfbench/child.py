"""One benchmark child process: set up, then run one job of a workload.

run.py starts this file in a fresh interpreter for every job, so every job
starts cold, as a command line does, and imports and algebra validation
count as set-up each time. The child runs its job in a single thread and
prints one JSON object on stdout:

    python3 perfbench/child.py --workload NAME --job INDEX --trace 0|1
        --t0 MONOTONIC

--t0 is the parent's time.monotonic() when it started the child; Linux
shares that clock between processes, so set-up time includes interpreter
start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import KNOWN_DEFECTS, WORKLOADS, algebras_of, job_key

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected.json"
DROP_FOR_REFERENCE = ("p", "modulus")


def load_package():
    """Import the checkout's nchodge, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nchodge
    import nchodge.cartier  # noqa: F401
    import nchodge.cli
    import nchodge.corpus
    import nchodge.hochcyc  # noqa: F401
    import nchodge.specseq  # noqa: F401

    if Path(nchodge.__file__).resolve().parent != (src / "nchodge").resolve():
        raise SystemExit(f"imported nchodge from {nchodge.__file__}, not from {src}")
    return nchodge.cli, nchodge.corpus


def run_job(cli, argv: list[str]) -> tuple[int | str, str]:
    """Run one command in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv + ["--format", "json", "--quiet"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            code = f"crash: {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def payload_digest(text: str, drop=()) -> str:
    """sha256 of the exact JSON bytes, or of the payload re-rendered the
    way the CLI renders it after dropping the given keys."""
    if drop and text:
        payload = json.loads(text)
        for key in drop:
            payload.pop(key, None)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check(expected: dict, argv: list[str], code, text: str) -> dict | None:
    """None if the job matches its expected result, else the failure.

    A failure is known when the job is listed in KNOWN_DEFECTS and gives
    exactly the exit code and payload digest recorded there.
    """
    key = job_key(argv)
    want = expected.get(key)
    if want is None:
        reason = "no expected result recorded"
    elif code != want["exit"]:
        reason = f"exit {code}, expected {want['exit']}"
    elif payload_digest(text, want["drop"]) != want["sha256"]:
        reason = "payload digest differs from " + (want["reference"] or "the frozen payload")
    else:
        return None
    defect = KNOWN_DEFECTS.get(key)
    known = defect is not None and (code, payload_digest(text)) == (defect["exit"],
                                                                     defect["sha256"])
    return {"job": key, "reason": reason, "known": known}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def run_one(cli, argv: list[str], expected: dict, trace: bool) -> dict:
    if not trace:
        t0 = time.perf_counter()
        code, text = run_job(cli, argv)
        out = {"wall_s": time.perf_counter() - t0}
    else:
        from tracer import Tracer
        t0 = time.perf_counter()
        with Tracer() as rec:
            code, text = rec.run("cli.job", run_job, cli, argv)
        out = {"wall_s": time.perf_counter() - t0, "self_s": rec.self_s,
               "counts": rec.counts}
    failure = check(expected, argv, code, text)
    out["failures"] = [failure] if failure else []
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--job", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    jobs = WORKLOADS[args.workload]
    cli, corpus = load_package()
    for name, p in algebras_of(jobs):
        corpus.build(name, p)
    out = {"setup_s": time.monotonic() - args.t0}
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    out.update(run_one(cli, jobs[args.job], expected, bool(args.trace)))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
