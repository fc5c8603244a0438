"""Top-level acceptance runs, one criterion per test.

Each test prints a single PASS line when its criterion holds; a failed
assertion is the corresponding FAIL. Budgets from the requirements are
asserted where stated.
"""

import time

import pytest

from nchodge.algebra import check_lift, commutator_quotient, literal_lift
from nchodge.cartier import (
    block_rotation,
    cartier0,
    conjugate_ss,
    iota_iso,
    zp_homology_dims,
    PCyclicLevels,
    ZpModuleAction,
)
from nchodge.corpus import build, corpus_names
from nchodge.errors import NotAComplexError
from nchodge.hochcyc import (
    CyclicLevelMaps,
    hc_dims,
    hh_dims,
    hodge_ss,
    sbi_check,
    sbi_ranks,
)
from nchodge.modring import ModMatrix
from nchodge.witt import verify_w2_ring
from .sweeps import bB_bicomplex, cyclic_identity_failures, lambda_p_hc, matpow, sigma_matrix
from .test_cartier import assert_tight
from .test_hochcyc import FlippedB

BIG_CAP = 1 << 26
# the top level of the subdivided windows of c04, by the dimension of the
# algebra; dimension 4 and up takes level 1
SD_TOP = {1: 3, 2: 3, 3: 2}


def test_c01_operator_identities_full_corpus():
    t0 = time.time()
    for p in (3, 5, 7):
        for name in corpus_names():
            a = build(name, p)
            cyc = CyclicLevelMaps(a, 5)
            failures = cyclic_identity_failures(cyc)
            assert not failures, (name, p, failures)
            bB_bicomplex(cyc).check_squares()
            # order-p block rotation on the degree-zero subdivided chains
            perm0 = block_rotation(a.dim, p, 1, p)
            sigma0 = ModMatrix.from_index_map(perm0, perm0.shape[0], p)
            assert matpow(sigma0, p) == ModMatrix.identity(perm0.shape[0], p), (name, p)
            if p == 3 or a.dim <= 2:   # at p = 5, 7 level 1 has d^(2p) words
                pcyc = PCyclicLevels(a, 1, allow_p2=True)
                for n in (0, 1):
                    sig = sigma_matrix(pcyc.action(n))
                    assert matpow(sig, p) == ModMatrix.identity(
                        sig.shape[0], p), (name, p, n)
    elapsed = time.time() - t0
    assert elapsed <= 120, f"identity sweep took {elapsed:.1f}s"
    print(f"PASS: operator identities, corpus x p in (3,5,7), {elapsed:.1f}s")


def test_c02_hc0_equals_commutator_quotient():
    for name in corpus_names():
        a = build(name, 3)
        dim_q, _ = commutator_quotient(a)
        assert hc_dims(a, 2)[0] == dim_q, name
    print("PASS: HC_0 equals dim A/[A,A] on the corpus")


def test_c03_tensor_power_homology_and_repeated_words():
    t0 = time.time()
    for p, max_dim in ((3, 4), (5, 3)):
        for dim in range(1, max_dim + 1):
            act = ZpModuleAction(block_rotation(dim, p, 1, p), p)
            hom = zp_homology_dims(act, l_max=4)
            for l in range(1, 5):
                assert hom[l] == dim, (p, dim, l)
            iota_iso(dim, p, l_max=4, samples=200, seed=1)  # raises unless certified
    elapsed = time.time() - t0
    assert elapsed <= 60, f"tensor power sweep took {elapsed:.1f}s"
    print(f"PASS: H_l(Z/p, V^(x p)) = dim V and repeated words present it, "
          f"{elapsed:.1f}s")


def test_c04_tightness_at_every_subdivided_level():
    checked = 0
    for name in corpus_names():
        a = build(name, 3)
        N = SD_TOP.get(a.dim, 1)
        pcyc = PCyclicLevels(a, N)
        for n in range(N + 1):
            assert_tight(pcyc.action(n))
            checked += 1
    assert checked >= 2 * len(corpus_names())
    print(f"PASS: norm complex tight at all {checked} subdivided levels, "
          f"against the oracle ranks")


def test_c05_degree_zero_power_map_certificates():
    noncomm = {"m2", "upper-tri-2", "kronecker"}
    for name in corpus_names():
        rep = cartier0(build(name, 3), samples=1000, seed=2)  # raises unless certified
        assert rep.samples >= 1000
        noncomm.discard(name)
    assert not noncomm
    print("PASS: power map on A/[A,A] certified, 1000 samples per algebra")


def test_c06_two_column_route_matches_cyclic_homology():
    t0 = time.time()
    for name, N, cap in (("ground-field", 4, None), ("dual-numbers", 3, None),
                         ("upper-tri-2", 3, BIG_CAP)):
        a = build(name, 3)
        dims, hc = lambda_p_hc(a, N, cap=cap)
        common = sorted(set(dims) & set(hc))
        assert len(common) >= 3, (name, common)
        for n in common:
            assert dims[n] == hc[n], (name, n)
    elapsed = time.time() - t0
    assert elapsed <= 300, f"two-column route took {elapsed:.1f}s"
    print(f"PASS: two-column route equals cyclic homology tables, "
          f"{elapsed:.1f}s")


def test_c07_conjugate_second_page_equals_hh():
    t0 = time.time()
    for name, N, cap in (("dual-numbers", 3, None), ("upper-tri-2", 3, BIG_CAP)):
        a = build(name, 3)
        rep = conjugate_ss(a, N, cap=cap)
        assert rep.matches_hh, name
        hh = hh_dims(a, N)
        lo, hi = rep.window
        for n in range(lo, hi + 1):
            assert rep.e2_positive[n] == hh[n], (name, n)
    elapsed = time.time() - t0
    assert elapsed <= 600, f"conjugate page took {elapsed:.1f}s"
    print(f"PASS: conjugate E_2 rows equal Hochschild dimensions, "
          f"{elapsed:.1f}s")


def test_c08_degeneration_for_lifted_algebras():
    t0 = time.time()
    lifted = ("ground-field", "m2", "upper-tri-2", "a2-path", "kronecker")
    for p in (3, 5):
        for name in lifted:
            a = build(name, p)
            rep = check_lift(literal_lift(a))
            assert rep.valid, (name, p, rep.failures)
            assert hodge_ss(a, 5, pages_budget=0).degenerate, (name, p)
    for name in corpus_names():
        rep = hodge_ss(build(name, 3), 5, pages_budget=0)
        for n, total in rep.hodge_sums.items():
            assert rep.abutment[n] <= total, (name, n)
    elapsed = time.time() - t0
    assert elapsed <= 600, f"degeneration sweep took {elapsed:.1f}s"
    print(f"PASS: lifted algebras degenerate, ledger never reverses, "
          f"{elapsed:.1f}s")


def test_c09_connes_triangle_dim_exact_and_controls():
    for name in corpus_names():
        rep = sbi_check(build(name, 3), 6, cap=BIG_CAP)
        assert rep.exact, name
    # the control negates B at level 1 of the unnormalized carrier
    for name in ("dual-numbers", "trunc-poly-3"):
        cyc = CyclicLevelMaps(build(name, 3), 6, cap=BIG_CAP)
        with pytest.raises(NotAComplexError):
            sbi_ranks(FlippedB(cyc, 1))
    print("PASS: inclusion/shift/connecting triangle dim-exact, "
          "flipped-sign control detected")


def test_c10_w2_ring_axioms_exhaustive():
    for p in (2, 3, 5, 7):
        failures = verify_w2_ring(p)
        assert not failures, (p, failures)
    print("PASS: length-two Witt ring axioms and Z/p^2 isomorphism, "
          "p in (2,3,5,7)")
