"""No command needs scipy: every subcommand gives the same exit code and
the same payload bytes with scipy blocked as in an ordinary process, and
an ordinary process that runs them all never imports it."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import nchodge

SRC = str(Path(nchodge.__file__).resolve().parent.parent)

COMMANDS = [
    ["validate", "m2"],
    ["hh", "dual-numbers", "-N", "4"],
    ["hc", "group-z4", "-N", "3"],
    ["sbi", "dual-numbers", "-N", "6"],
    ["hodge", "upper-tri-2", "-N", "4", "--pages"],
    ["cartier0", "trunc-poly-4", "--samples", "20"],
    ["edgewise-check", "dual-numbers", "-N", "2"],
    ["conjugate", "dual-numbers", "-N", "2"],
    ["ledger", "dual-numbers"],
    ["lift-check", "m2"],
]

# run every command in-process; print the exit codes, the payloads and
# whether any scipy module was loaded
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
if {blocked!r}:
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import nchodge.cartier, nchodge.cli, nchodge.corpus, nchodge.hochcyc, nchodge.specseq
imported = sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy" and sys.modules[name] is not None)
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = nchodge.cli.main(argv + ["--format", "json", "--quiet"])
    results.append([code, out.getvalue()])
imported += sorted(name for name in sys.modules
                   if name.split(".")[0] == "scipy" and sys.modules[name] is not None)
print(json.dumps({{"imported": imported, "results": results}}))
"""


def run_all(blocked: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(src=SRC, blocked=blocked), json.dumps(COMMANDS)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_subcommand_runs_without_scipy_and_gives_the_same_bytes():
    ordinary, blocked = run_all(False), run_all(True)
    assert ordinary["imported"] == [] and blocked["imported"] == []
    assert [code for code, _ in ordinary["results"]] == [0, 0, 0, 0, 0, 0, 0, 0, 1, 0]
    for argv, plain, without in zip(COMMANDS, ordinary["results"], blocked["results"]):
        assert without == plain, argv
        assert json.loads(plain[1])  # a payload was written
