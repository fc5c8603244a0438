"""The nchodge benchmark.

    python3 perfbench/run.py --workload plain --seed 1 --trace 0
    python3 perfbench/run.py --workload all --out perfbench/results/parent.jsonl
    python3 perfbench/run.py --compare perfbench/results/parent.jsonl perfbench/results/change.jsonl

A run measures one workload for about --seconds, in passes over the
workload's job list in an order drawn from --seed. Every job runs in its own
fresh child process (child.py), so it starts cold as a command line does,
and set-up is timed in every child. A child is one Python process running
one job at a time, with the BLAS thread variables set to 1: a closed loop
with one client. Every job's exit code and payload digest is checked
against expected.json.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run alternates untraced and traced passes and the result
carries the per-layer metrics. The last line of stdout is the result as JSON;
the lines before it print every metric with its unit. --out appends the full
record, environment included, to a JSONL file that --compare reads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, job_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ADDR_NO_RANDOMIZE = 0x0040000  # from <sys/personality.h>


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fix_address_layout() -> bool:
    """Start every later child without address-space randomization.

    Peak RSS depends on where the allocator's mappings land, not only on
    what is allocated: `conjugate upper-tri-2 -N 3 --cap 67108864` peaked
    at 477 or 507 MB at random from one cold process to the next, while its
    tracemalloc peak was 392.26 MB every time. With a fixed layout it peaks
    at the same RSS on every run. The flag is a personality bit of this
    process, which exec'd children inherit. Returns False where the system
    refuses it; the children then run with randomization, as before.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    current = personality(0xFFFFFFFF)  # 0xffffffff queries without changing
    if current == -1 or personality(current | ADDR_NO_RANDOMIZE) == -1:
        return False
    return bool(personality(0xFFFFFFFF) & ADDR_NO_RANDOMIZE)


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--t0", repr(time.monotonic())] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload: str, order: list[int], traced: bool, deadline: float) -> dict:
    """One pass: every job in its own fresh child, in the given order."""
    children = [_child(["--workload", workload, "--job", str(i),
                        "--trace", str(int(traced))], deadline - time.monotonic())
                for i in order]
    out = {
        "traced": traced,
        "wall_s": sum(c["wall_s"] for c in children),
        "job_walls": {i: c["wall_s"] for i, c in zip(order, children)},
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        "setups": [c["setup_s"] for c in children],
        "failures": [f for c in children for f in c["failures"]],
        "env": children[0]["env"],
    }
    if traced:
        self_s, counts = Counter(), Counter()
        for c in children:
            self_s.update(c["self_s"])
            counts.update(c["counts"])
        out["layers"] = layer_metrics(self_s, counts, out["wall_s"])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; return the full record.

    Passes start while the time used so far plus the median pass so far
    fits in `seconds`. A traced run alternates untraced and traced passes
    and makes at least one of each.
    """
    n_jobs = len(WORKLOADS[workload])
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + LIMIT_S
    passes, durations = [], []
    while True:
        order = list(range(n_jobs))
        rng.shuffle(order)
        t0 = time.monotonic()
        passes.append(_pass(workload, order, bool(trace) and len(passes) % 2 == 1, deadline))
        durations.append(time.monotonic() - t0)
        if trace and len(passes) < 2:
            continue
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    q1, med, q3 = quartiles([p["wall_s"] for p in plain])
    setups = [s for p in passes for s in p["setups"]]
    failures = [f for p in passes for f in p["failures"]]
    attempted = n_jobs * len(passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": passes[0]["env"],
        "attempted": attempted, "failed": len(failures),
        "correct": all(f["known"] for f in failures),
        "failures": sorted({f["job"]: f["reason"] + (" (known defect)" if f["known"] else "")
                            for f in failures}.items()),
        "pass_walls": [p["wall_s"] for p in plain],
        "job_walls": {job_key(WORKLOADS[workload][i]): [p["job_walls"][i] for p in plain]
                      for i in range(n_jobs)},
        "setup_samples": setups,
        "metrics": {
            "wall_s": med, "wall_s.q1": q1, "wall_s.q3": q3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "fail_frac": len(failures) / attempted,
        },
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {name: statistics.fmean(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / med - 1)
        record["layers"] = layers
    return record


def load_bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(record: dict, bench: dict) -> dict:
    """Print the record for people; return the result object."""
    m = record["metrics"]
    walls = record["pass_walls"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{len(walls)} untraced passes")
    print(f"  wall_s       {m['wall_s']:.4f} s   (q1 {m['wall_s.q1']:.4f}, "
          f"q3 {m['wall_s.q3']:.4f}, n={len(walls)} passes)")
    print(f"  setup_s      {m['setup_s']:.4f} s   (median of {len(record['setup_samples'])} "
          f"fresh children)")
    print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB   "
          "(largest child of a pass, median over passes)")
    print(f"  fail_frac    {m['fail_frac']:.4f}     ({record['failed']} of "
          f"{record['attempted']} jobs)")
    for job, reason in record["failures"]:
        print(f"  failed: {job}: {reason}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    if record["trace"]:
        layers = record["layers"]
        units = {x["name"]: x["unit"] for x in bench["per_layer"]}
        wall, rest = layers["trace.wall_s"], layers["trace.unattributed_s"]
        print(f"  traced pass {wall:.4f} s = self times {wall - rest:.4f} s + "
              f"unattributed {rest:.4f} s; overhead {layers['trace.overhead_frac']:+.3f}")
        for name in sorted(units, key=lambda k: (units[k] != "s", -layers[k])):
            print(f"    {name:28s} {layers[name]:14.6g} {units[name]}")
    names = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    source = record["layers"] if record["trace"] else m
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {x["name"]: {"value": source[x["name"]], "unit": x["unit"]}
                    for x in names},
    }


# ---------------- compare ----------------

def _read(path: str) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def _verdict(base: list[float], new: list[float], bound: float, lower: bool) -> str:
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    # share of (parent run, change run) pairs in which the change reads better
    wins = sum((n < b) if lower else (n > b) for b in base for n in new) / (len(base) * len(new))
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
    worse = (nmed - bmed) if lower else (bmed - nmed)
    if spread > bound and wins < 1:
        return f"unresolved (spread {spread:.3f} > bound {bound})"
    if worse > bound * abs(bmed):
        return f"REGRESSION (worse by more than {bound:.0%})"
    if wins >= 0.9 and -worse > bq3 - bq1:
        return f"better (change wins {wins:.0%} of run pairs)"
    return "unchanged within bound"


def compare(parent_path: str, change_path: str, bench: dict) -> int:
    parent, change = _read(parent_path), _read(change_path)
    e2e = {x["name"]: x for x in bench["end_to_end"]}
    e2e["fail_frac"] = {"name": "fail_frac", "unit": "frac", "better": "lower", "bound": 0.0}
    layer = {x["name"]: x for x in bench["per_layer"]}
    regressions = 0
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            print(f"{key[0]} trace {key[1]}: only in one result set")
            continue
        print(f"{key[0]}  trace {key[1]}  (parent {len(parent[key])} runs, "
              f"change {len(change[key])} runs)")
        source, specs = ("layers", layer) if key[1] else ("metrics", e2e)
        for name, spec in specs.items():
            base = [r[source][name] for r in parent[key] if name in r[source]]
            new = [r[source][name] for r in change[key] if name in r[source]]
            if not base or not new:
                continue
            bq1, bmed, bq3 = quartiles(base)
            nq1, nmed, nq3 = quartiles(new)
            ratio = f"{nmed / bmed:.4f} of parent {bmed:.6g} {spec['unit']}" if bmed else "n/a"
            line = (f"  {name:28s} parent {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                    f"change {nmed:.6g} [{nq1:.6g}, {nq3:.6g}]  ratio {ratio}")
            if "bound" in spec:
                verdict = _verdict(base, new, spec["bound"], spec["better"] == "lower")
                regressions += verdict.startswith("REGRESSION")
                line += f"  {verdict}"
            print(line)
    return 1 if regressions else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help="workload name, or 'all' to run every workload once")
    ap.add_argument("--seed", type=int, default=0, help="permutes job order only")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="append full records to this JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two JSONL result sets written by --out")
    args = ap.parse_args()

    bench = load_bench()
    if args.compare:
        return compare(*args.compare, bench)
    if not (ROOT / "src" / "nchodge" / "__init__.py").is_file():
        print(f"error: no nchodge sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload; choose from {', '.join(sorted(WORKLOADS))}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    fixed_layout = fix_address_layout()
    results = {}
    for name in names:
        record = run_workload(name, args.seed, seconds, args.trace)
        record["env"]["fixed_layout"] = fixed_layout
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        results[name] = report(record, bench)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
