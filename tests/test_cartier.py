"""Subdivision, Z/p homology, and the comparison maps.

Group homology dimensions are pinned against the brute-force orbit
oracle; the subdivided pipelines are pinned against the unsubdivided
ones, which share no code with the face composites being tested.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge.cartier import (
    Cartier0Report,
    PCyclicLevels,
    ZpModuleAction,
    block_rotation,
    cartier0,
    conjugate_ledger,
    conjugate_ss,
    edgewise_hh_check,
    edgewise_subdivision,
    hc_via_lambda_p,
    iota_iso,
    iota_matrix,
    is_tight,
    lambda_p_bicomplex,
    vdagger,
    zp_coinvariants,
    zp_homology_dims,
    zp_invariants,
)
from nchodge.corpus import build, corpus_names
from nchodge.errors import (
    ModulusError,
    OrderError,
    ParityError,
    ResourceError,
    ShapeError,
    WindowError,
)
from nchodge.hochcyc import build_cyclic_object, hh_dims
from nchodge.modring import ModMatrix, rank_fp, solve_fp
from .oracles import ref_zp_homology_dims


def rotation_action(dim: int, p: int, n: int = 0) -> ZpModuleAction:
    return ZpModuleAction(block_rotation(dim, p * (n + 1), n + 1, p), p)


def conjugated_action(dim: int, p: int, seed: int = 0) -> ZpModuleAction:
    act = rotation_action(dim, p)
    rng = np.random.default_rng(seed)
    size = act.dim
    g = np.eye(size, dtype=np.int64)
    g[np.tril_indices(size, -1)] = rng.integers(0, p, size * (size - 1) // 2)
    gm = ModMatrix.from_dense(g, p)
    ginv = solve_fp(gm, ModMatrix.identity(size, p))
    return ZpModuleAction(gm @ act.sigma @ ginv, p)


# ---------------- group homology against the orbit oracle ----------------

def test_homology_matches_orbit_oracle():
    for dim, p in ((2, 3), (3, 3), (4, 3), (2, 5), (3, 5)):
        got = zp_homology_dims(rotation_action(dim, p), 3)
        want = ref_zp_homology_dims(dim, p, 1, p)
        assert got[0] == want[0], (dim, p)
        for l in (1, 2, 3):
            assert got[l] == want["positive"], (dim, p, l)


def test_homology_block_level_one():
    got = zp_homology_dims(rotation_action(2, 3, n=1), 2)
    want = ref_zp_homology_dims(2, 6, 2, 3)
    assert got[0] == want[0] and got[1] == got[2] == want["positive"]


def test_homology_frozen_d3_p3():
    assert zp_homology_dims(rotation_action(3, 3), 4) == {0: 11, 1: 3, 2: 3, 3: 3, 4: 3}


def test_generic_path_agrees_with_orbit_path():
    fast = rotation_action(3, 3)
    slow = conjugated_action(3, 3)
    assert fast.perm is not None and slow.perm is None
    assert zp_homology_dims(fast, 3) == zp_homology_dims(slow, 3)
    a, b = vdagger(fast), vdagger(slow)
    assert (a.h0, a.h1, a.rank_t, a.tight) == (b.h0, b.h1, b.rank_t, b.tight)
    assert a.fast_path and not b.fast_path


def test_action_guards():
    with pytest.raises(OrderError):
        ZpModuleAction(ModMatrix.identity(2, 3), 4)
    with pytest.raises(OrderError):
        ZpModuleAction(ModMatrix.from_dense([[2, 0], [0, 1]], 3), 3)
    with pytest.raises(ModulusError):
        ZpModuleAction(ModMatrix.identity(2, 5), 3)
    with pytest.raises(ShapeError):
        ZpModuleAction(ModMatrix.zeros(2, 3, 3), 3)


def test_invariants_and_coinvariants_are_consistent():
    for act in (rotation_action(3, 3), conjugated_action(3, 3, seed=5)):
        inc = zp_invariants(act)
        assert (act.one_minus() @ inc).is_zero()
        assert rank_fp(inc) == inc.shape[1]
        proj, sec = zp_coinvariants(act)
        assert proj @ sec == ModMatrix.identity(proj.shape[0], act.p)
        assert (proj @ act.one_minus()).is_zero()
        assert (act.one_minus() @ act.norm()).is_zero()


def order_p_permutation(n: int, p: int, seed: int) -> np.ndarray:
    """A random permutation of n points made of disjoint p-cycles, with at
    least p fixed points left over."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)
    perm = np.arange(n, dtype=np.int64)
    for c in range(n // p - 1):
        cycle = idx[c * p:(c + 1) * p]
        perm[cycle] = np.roll(cycle, -1)
    return perm


def test_index_arithmetic_operators_match_matmul_sums():
    acts = [rotation_action(dim, p, n) for dim, p, n in ((2, 3, 0), (3, 3, 1), (2, 5, 1))]
    acts += [ZpModuleAction.from_permutation(order_p_permutation(40, p, seed), p)
             for p, seed in ((3, 0), (5, 1), (7, 2))]
    for act in acts:
        assert act.perm is not None and act.n_fixed() > 0
        one = ModMatrix.identity(act.dim, act.p)
        norm, cur = one, one
        for _ in range(act.p - 1):
            cur = act.sigma @ cur
            norm = norm + cur
        assert act.norm() == norm
        assert act.one_minus() == one - act.sigma
        assert act.norm() is act.norm() and act.one_minus() is act.one_minus()


def test_permutation_test_rejects_a_repeated_index():
    sigma = ModMatrix.from_index_map(np.array([1, 1, 2]), 3, 3)
    assert ZpModuleAction(sigma, 3, check=False).perm is None
    sigma = ModMatrix.from_index_map(np.array([1, 2, 0]), 3, 3)
    assert ZpModuleAction(sigma, 3).perm.tolist() == [1, 2, 0]


def test_vdagger_frozen_and_tight():
    rep = vdagger(rotation_action(3, 3))
    assert (rep.h0, rep.h1, rep.rank_t, rep.phi_rank) == (3, 3, 8, 3)
    assert rep.tight and rep.fast_path
    assert is_tight(conjugated_action(2, 3))


@settings(max_examples=8, deadline=None)
@given(case=st.sampled_from([(2, 3), (3, 3), (4, 3), (2, 5)]), seed=st.integers(0, 5))
def test_conjugation_invariance_property(case, seed):
    dim, p = case
    fast = rotation_action(dim, p)
    slow = conjugated_action(dim, p, seed=seed)
    assert zp_homology_dims(fast, 2) == zp_homology_dims(slow, 2)
    assert vdagger(slow).tight


# ---------------- repeated-word map ----------------

def test_iota_matrix_spot_values():
    m = iota_matrix(2, 0, 3, 3)
    assert m.shape == (8, 2)
    col = m.to_dense()[:, 1]
    assert col[7] == 1 and col.sum() == 1  # digits (1, 1, 1)


def test_iota_report_frozen():
    rep = iota_iso(3, 3, samples=100)
    assert rep.homology == {0: 11, 1: 3, 2: 3, 3: 3, 4: 3}
    assert rep.bijective and rep.natural and rep.additive


def test_iota_level_one_and_p5():
    assert iota_iso(4, 3, n=1, samples=40).bijective
    assert iota_iso(2, 5, samples=40).bijective


# ---------------- the subdivided object ----------------

def test_subdivision_identities_hold():
    assert edgewise_subdivision(build("dual-numbers", 3), 2).verify_identities() == []
    assert edgewise_subdivision(build("group-z3", 3), 2).verify_identities(upto=1) == []
    assert edgewise_subdivision(build("dual-numbers", 5), 1).verify_identities() == []


def test_subdivision_levels_and_laziness():
    pcyc = edgewise_subdivision(build("dual-numbers", 3), 2)
    assert [pcyc.dim(n) for n in range(3)] == [8, 64, 512]
    assert pcyc.dim(3) == 0
    with pytest.raises(WindowError):
        pcyc.face(3, 0)
    assert pcyc.sigma(1) == pcyc.rho(1).matpow(2)


def test_parity_guard():
    with pytest.raises(ParityError):
        edgewise_subdivision(build("dual-numbers", 2), 1)
    pcyc = edgewise_subdivision(build("dual-numbers", 2), 1, allow_p2=True)
    assert pcyc.dim(1) == 16


def test_resource_guard_reports_estimate():
    with pytest.raises(ResourceError) as exc:
        edgewise_subdivision(build("upper-tri-2", 3), 3)
    assert exc.value.estimate > exc.value.cap


def test_tight_at_every_level():
    for name in ("dual-numbers", "upper-tri-2", "group-z3"):
        pcyc = edgewise_subdivision(build(name, 3), 2)
        for n in range(3):
            assert is_tight(pcyc.action(n)), (name, n)


# ---------------- homology through the subdivision ----------------

def test_edgewise_homology_matches():
    rep = edgewise_hh_check(build("dual-numbers", 3), 3)
    assert rep.equal and rep.sd_dims == {0: 2, 1: 1, 2: 1}
    rep = edgewise_hh_check(build("m2", 3), 2)
    assert rep.equal and rep.sd_dims == {0: 1, 1: 0}


def test_lambda_route_matches_cyclic():
    rep = hc_via_lambda_p(build("dual-numbers", 3), 3, 4)
    assert rep.dims == {0: 2, 1: 0, 2: 2}
    rep = hc_via_lambda_p(build("ground-field", 3), 3, 4)
    assert rep.dims == {0: 1, 1: 0, 2: 1}


def test_lambda_bicomplex_squares():
    pcyc = edgewise_subdivision(build("dual-numbers", 3), 2)
    lambda_p_bicomplex(pcyc, 3).check_squares()


def test_lambda_window_guard():
    with pytest.raises(WindowError):
        hc_via_lambda_p(build("ground-field", 3), 1, 0)


def test_conjugate_ss_dual_numbers():
    rep = conjugate_ss(build("dual-numbers", 3), 2)
    assert rep.matches_hh and rep.e2_positive == {0: 2, 1: 1}
    assert rep.e1[(0, 0)] == 4 and rep.e1[(0, 1)] == 24
    assert rep.e1[(1, 0)] == 2 and rep.e1[(1, 1)] == 4 and rep.e1[(2, 1)] == 4
    assert rep.abutment == {0: 2, 1: 2} and rep.window == (0, 1)


def test_conjugate_ss_matches_hochschild():
    for name in ("upper-tri-2", "ground-field", "group-z3"):
        rep = conjugate_ss(build(name, 3), 2)
        assert rep.matches_hh, name


def test_fixed_reduction_is_plain_boundary():
    a = build("dual-numbers", 3)
    pcyc = edgewise_subdivision(a, 2)
    cyc = build_cyclic_object(a, 2)
    for n in (1, 2):
        squeezed = pcyc.fixed_inclusion(n - 1).T @ pcyc.b(n) @ pcyc.fixed_inclusion(n)
        assert squeezed == cyc.b(n)


# ---------------- degree zero power map ----------------

def test_cartier0_truncated_polynomials():
    rep = cartier0(build("trunc-poly-4", 3), samples=200)
    assert rep.dim_quotient == 4
    want = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]]
    assert rep.matrix.to_dense().tolist() == want


def test_cartier0_matrix_algebra():
    rep = cartier0(build("m2", 3), samples=200)
    assert rep.dim_quotient == 1
    assert rep.matrix.to_dense().tolist() == [[1]]
    assert rep.additive_ok and rep.representative_ok


def test_cartier0_group_algebra():
    rep = cartier0(build("group-z3", 3), samples=200)
    assert rep.dim_quotient == 3
    got = rep.matrix.to_dense()
    assert got[:, 0].tolist() == got[:, 1].tolist() == got[:, 2].tolist()


# ---------------- ledger ----------------

def test_ledger_frozen_rows():
    led = conjugate_ledger(build("upper-tri-2", 3), 5)
    assert [(r.degree, r.hc, r.hodge_sum) for r in led.rows] == \
        [(0, 2, 2), (1, 0, 0), (2, 2, 2), (3, 0, 0)]
    assert led.degenerate
    led = conjugate_ledger(build("dual-numbers", 3), 5)
    assert [(r.degree, r.hc, r.hodge_sum) for r in led.rows] == \
        [(0, 2, 2), (1, 0, 1), (2, 2, 3), (3, 1, 2)]
    assert not led.degenerate


def test_ledger_never_reverses():
    for name in corpus_names():
        a = build(name, 3)
        if a.dim > 4:
            continue
        led = conjugate_ledger(a, 4)
        assert all(r.hc <= r.hodge_sum for r in led.rows), name
