"""Tests of the benchmark itself: the tracer must not change any answer and
must leave the package as it found it.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import load_package, payload_digest, run_job  # noqa: E402
from tracer import SPANS, Tracer, layer_metrics  # noqa: E402

cli, corpus = load_package()

# small jobs that reach every traced layer
JOBS = [
    ["sbi", "dual-numbers", "-N", "6"],
    ["hodge", "dual-numbers", "-N", "3", "--pages"],
    ["conjugate", "dual-numbers", "-N", "2"],
    ["edgewise-check", "upper-tri-2", "-N", "2"],
    ["hh", "dual-numbers", "-N", "4", "-p", "2147483647"],
]


def _bindings() -> dict:
    """Every attribute of every nchodge module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "nchodge" or name.startswith("nchodge."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_traced_pass_gives_the_untraced_digests():
    plain = [run_job(cli, argv) for argv in JOBS]
    with Tracer() as rec:
        traced = [run_job(cli, argv) for argv in JOBS]
    assert [(code, payload_digest(text)) for code, text in traced] == \
        [(code, payload_digest(text)) for code, text in plain]
    metrics = layer_metrics(rec.self_s, rec.counts, 1.0)
    for name in ("modring.rank_s", "modring.kernel_s", "modring.matmul_s",
                 "modring.modulus_s", "hochcyc.levels_s", "hochcyc.diff_s",
                 "hochcyc.norm_B_s", "cartier.sd_ops_s", "cartier.zp_s",
                 "cartier.coinv_s", "complexes.total_s", "complexes.filtration_s",
                 "specseq.pages_s", "algebra.build_s", "algebra.validate_s",
                 "check.d2_s", "check.squares_s", "check.fixed_s",
                 "modring.construct_calls", "specseq.entries"):
        assert metrics[name] > 0, name


def test_every_patch_is_undone():
    before = _bindings()
    with Tracer():
        patched = _bindings()
        run_job(cli, ["hh", "dual-numbers", "-N", "3"])
    after = _bindings()
    changed = [k for k in before if patched.get(k) is not before[k]]
    # every binding site of an imported-by-name function is patched
    assert ("nchodge.complexes", "_hdim") in changed
    assert ("nchodge.specseq", "rank_fp") in changed
    assert ("nchodge.cartier", "solve_fp") in changed
    assert ("nchodge.modring", "ModMatrix", "__matmul__") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_account_for_the_jobs():
    t0 = time.perf_counter()
    with Tracer() as rec:
        for argv in JOBS[:3]:
            rec.run("cli.job", run_job, cli, argv)
    wall = time.perf_counter() - t0
    assert set(rec.self_s) <= set(SPANS)
    assert min(rec.self_s.values()) >= 0
    assert 0.9 * wall < sum(rec.self_s.values()) <= wall


def test_a_missing_target_fails_and_leaves_nothing_patched(monkeypatch):
    before = _bindings()
    monkeypatch.delattr(sys.modules["nchodge.modring"], "split_modulus")
    with pytest.raises(LookupError, match="split_modulus"):
        with Tracer():
            pass
    monkeypatch.undo()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_a_dense_restart_is_counted():
    from nchodge import modring

    # sparse, but three full rows make the column reduction fill in
    rng = np.random.default_rng(0)
    a = (rng.random((100, 100)) < 0.1) * rng.integers(1, 7, (100, 100))
    a[-3:, :] = rng.integers(1, 7, (3, 100))
    mat = modring.ModMatrix.from_dense(a, 7)
    assert mat.density < modring.FILL_THRESHOLD
    with Tracer() as rec:
        rank = modring.rank_fp(mat)  # looked up while patched
    assert rank == 100
    metrics = layer_metrics(rec.self_s, rec.counts, 1.0)
    assert metrics["modring.rank_restarts"] == 1
    assert metrics["modring.rank_sparse_calls"] == metrics["modring.rank_dense_calls"] == 0
    assert 0 < metrics["modring.restart_waste_s"] <= metrics["modring.rank_s"]


def test_the_subdivided_norm_is_timed():
    from nchodge.cartier import PCyclicLevels

    with Tracer() as rec:
        PCyclicLevels(corpus.build("dual-numbers", 3), 2).norm(1)
    assert layer_metrics(rec.self_s, rec.counts, 1.0)["cartier.sd_norm_s"] > 0


def test_a_known_defect_is_known_only_with_its_recorded_answer(monkeypatch):
    import child

    key = "hodge upper-tri-2 -N 5 --pages -p 2147483647"
    monkeypatch.setitem(child.KNOWN_DEFECTS, key,
                        {"exit": 0, "sha256": payload_digest("wrong\n")})
    expected = {key: {"exit": 0, "sha256": payload_digest("right\n"), "drop": [],
                      "reference": None}}
    argv = key.split()
    assert child.check(expected, argv, 0, "right\n") is None
    assert child.check(expected, argv, 0, "wrong\n")["known"]
    assert not child.check(expected, argv, 0, "other\n")["known"]
    assert not child.check(expected, argv, 1, "wrong\n")["known"]
