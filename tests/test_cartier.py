"""Subdivision, Z/p homology, and the comparison maps.

Group homology dimensions are pinned against the brute-force orbit
oracle, and the whole Z/p toolkit against dense row reduction of the
matrix of the action, built here from its index array; the subdivided
pipelines are pinned against the unsubdivided ones, which share no code
with the Kronecker-power faces being tested.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge.cartier import (
    PCyclicLevels,
    _coinvariant_complex,
    _fixed_reduced_complex,
    ZpModuleAction,
    block_rotation,
    cartier0,
    conjugate_ss,
    edgewise_hh_check,
    iota_iso,
    iota_matrix,
    zp_coinvariants,
    zp_homology_dims,
    zp_invariants,
)
from nchodge.corpus import build, corpus_names
from nchodge.errors import (
    CartierError,
    InternalCheckError,
    OrderError,
    ParityError,
    ResourceError,
    ShapeError,
    WindowError,
)
from nchodge.hochcyc import CyclicLevelMaps, face_matrix, hodge_ss, rotation_matrix
from nchodge.modring import ModMatrix, kron_power
from .oracles import (ref_permutation_ranks, ref_rank, ref_zp_action_ranks,
                      ref_zp_homology_dims)
from .sweeps import (composite_degeneracy, composite_face, lambda_p_hc, matpow, sigma_matrix,
                     subdivision_identity_failures, two_column_bicomplex)


def rotation_action(dim: int, p: int, n: int = 0) -> ZpModuleAction:
    return ZpModuleAction(block_rotation(dim, p * (n + 1), n + 1, p), p)


def order_p_permutation(n: int, p: int, seed: int, cycles: int | None = None) -> np.ndarray:
    """A random permutation of n points made of `cycles` disjoint p-cycles
    (default n // p - 1, which leaves at least p fixed points)."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(n)
    perm = np.arange(n, dtype=np.int64)
    for c in range(n // p - 1 if cycles is None else cycles):
        cycle = idx[c * p:(c + 1) * p]
        perm[cycle] = np.roll(cycle, -1)
    return perm


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


# ---------------- the Z/p toolkit against dense row reduction ----------------

def check_against_dense_oracle(act: ZpModuleAction) -> None:
    """Homology, the orbit counts, invariants and coinvariants of act
    against pure-python ranks of its dense matrix."""
    ref = ref_zp_action_ranks(sigma_matrix(act).to_dense().tolist(), act.p)
    n, r1, rn = ref["n"], ref["rank_one_minus"], ref["rank_norm"]
    h = n - r1 - rn
    assert zp_homology_dims(act, 3) == {0: n - r1, 1: h, 2: h, 3: h}
    # rank(1 - sigma) = n - #orbits, rank N = #free orbits
    assert (n - act.n_orbits(), act.n_orbits() - act.n_fixed()) == (r1, rn)
    assert h == ref["phi_rank"] == act.n_fixed()
    inc = zp_invariants(act)
    assert (act.one_minus() @ inc).is_zero()
    assert inc.shape[1] == ref_rank(inc.to_dense().T.tolist(), act.p) == n - r1
    proj, sec = zp_coinvariants(act)
    assert proj.shape[0] == n - r1
    assert proj @ sec == ModMatrix.identity(proj.shape[0], act.p)
    assert (proj @ act.one_minus()).is_zero()


def test_zp_toolkit_matches_dense_oracle_on_block_rotations():
    for dim, p, n in ((2, 3, 0), (3, 3, 0), (2, 5, 0), (2, 3, 1)):
        check_against_dense_oracle(rotation_action(dim, p, n))


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), n=st.integers(1, 36),
       cycles=st.integers(0, 12), seed=st.integers(0, 1000))
def test_zp_toolkit_matches_dense_oracle_on_random_permutations(p, n, cycles, seed):
    cycles = min(cycles, n // p)
    if cycles * p == n and cycles:
        cycles -= 1  # keep a fixed point
    check_against_dense_oracle(ZpModuleAction(order_p_permutation(n, p, seed, cycles), p))


def test_orbit_numbering_equals_sorted_unique_representatives():
    acts = [rotation_action(dim, p, n) for dim, p, n in ((2, 3, 0), (3, 3, 1), (2, 5, 0), (2, 7, 0))]
    acts += [ZpModuleAction(order_p_permutation(n, p, seed, cycles), p)
             for p in (3, 5, 7) for n, cycles, seed in ((40, None, 0), (p, 1, 1), (30, 0, 2))]
    for act in acts:
        uniq, inverse, fixed = act.orbit_data()
        # the smallest index on each orbit, walked one step at a time
        reps = cur = np.arange(act.dim)
        for _ in range(act.p - 1):
            cur = act.perm[cur]
            reps = np.minimum(reps, cur)
        want_uniq, want_inverse = np.unique(reps, return_inverse=True)
        assert np.array_equal(uniq, want_uniq) and np.array_equal(inverse, want_inverse)
        assert np.array_equal(fixed, act.perm == np.arange(act.dim))


def test_action_guards():
    with pytest.raises(OrderError):
        ZpModuleAction(np.arange(2), 4)
    with pytest.raises(ShapeError, match="1-D index array"):
        ZpModuleAction(np.arange(4).reshape(2, 2), 3)
    with pytest.raises(ShapeError, match="1-D index array"):
        ZpModuleAction(np.array([1.0, 2.0, 0.0]), 3)
    for out_of_range in ([1, 3, 0], [-1, 2, 0]):
        with pytest.raises(ShapeError, match="outside"):
            ZpModuleAction(np.array(out_of_range), 3)
    with pytest.raises(OrderError):
        ZpModuleAction(np.array([1, 2, 0]), 5)
    with pytest.raises(OrderError):
        ZpModuleAction(np.array([1, 0, 2]), 3)


def test_invariants_and_coinvariants_are_consistent():
    for act in (rotation_action(3, 3), ZpModuleAction(order_p_permutation(20, 3, 5), 3)):
        inc = zp_invariants(act)
        assert (act.one_minus() @ inc).is_zero()
        assert ref_rank(inc.to_dense().T.tolist(), act.p) == inc.shape[1]
        proj, sec = zp_coinvariants(act)
        assert proj @ sec == ModMatrix.identity(proj.shape[0], act.p)
        assert (proj @ act.one_minus()).is_zero()
        assert (act.one_minus() @ act.norm()).is_zero()


def test_index_arithmetic_operators_match_matmul_sums():
    acts = [rotation_action(dim, p, n) for dim, p, n in ((2, 3, 0), (3, 3, 1), (2, 5, 1))]
    acts += [ZpModuleAction(order_p_permutation(40, p, seed), p)
             for p, seed in ((3, 0), (5, 1), (7, 2))]
    for act in acts:
        assert act.n_fixed() > 0
        one, sigma = ModMatrix.identity(act.dim, act.p), sigma_matrix(act)
        norm, cur = one, one
        for _ in range(act.p - 1):
            cur = sigma @ cur
            norm = norm + cur
        assert act.norm() == norm
        assert act.one_minus() == one - sigma
        assert act.norm() is act.norm() and act.one_minus() is act.one_minus()


def test_permutation_test_rejects_a_repeated_index():
    # sigma^p = 1 fails first; counting the images tells a repeat from a wrong order
    for repeated in ([1, 1, 2], [0, 0, 0], [2, 0, 0, 3]):
        for dtype in (np.int32, np.int64):
            with pytest.raises(ShapeError, match="repeats an index"):
                ZpModuleAction(np.array(repeated, dtype=dtype), 3)
    assert ZpModuleAction(np.array([1, 2, 0]), 3).perm.tolist() == [1, 2, 0]


def test_an_int32_permutation_gives_the_operators_of_its_int64_copy():
    # a zero-dimensional algebra has no words at any level
    cases = [(block_rotation(3, 6, 2, 3), 3), (block_rotation(2, 10, 2, 5), 5),
             (order_p_permutation(60, 7, 3), 7), (block_rotation(0, 3, 1, 3), 3)]
    assert cases[0][0].dtype == cases[1][0].dtype == np.int32
    assert cases[3][0].shape == (0,)
    for perm, p in cases:
        narrow = ZpModuleAction(perm.astype(np.int32), p)
        wide = ZpModuleAction(perm.astype(np.int64), p)
        assert narrow.perm.dtype == narrow.orbit_data()[1].dtype == np.int32
        assert wide.perm.dtype == wide.orbit_data()[1].dtype == np.int64
        for x, y in zip(narrow.orbit_data(), wide.orbit_data()):
            assert np.array_equal(x, y)
        assert narrow.one_minus() == wide.one_minus() and narrow.norm() == wide.norm()


def assert_tight(act: ZpModuleAction) -> None:
    """H_1 = H_2 = rank phi = #fixed words and rank N = #free orbits, with
    the ranks of 1 - sigma, N and (1 - sigma)^2 taken by the independent
    oracle."""
    ref = ref_permutation_ranks(act.perm.tolist(), act.p)
    h = ref["n"] - ref["rank_one_minus"] - ref["rank_norm"]
    hom = zp_homology_dims(act, 2)
    assert hom[1] == hom[2] == h == ref["phi_rank"] == act.n_fixed()
    assert act.n_orbits() - act.n_fixed() == ref["rank_norm"]


def test_orbit_counts_frozen_and_tight():
    act = rotation_action(3, 3)
    assert (act.n_orbits(), act.n_fixed()) == (11, 3)
    assert_tight(act)
    assert_tight(ZpModuleAction(order_p_permutation(12, 3, 1), 3))


# ---------------- repeated-word map ----------------

def test_iota_matrix_spot_values():
    m = iota_matrix(2, 0, 3, 3)
    assert m.shape == (8, 2)
    col = m.to_dense()[:, 1]
    assert col[7] == 1 and col.sum() == 1  # digits (1, 1, 1)


def test_iota_certifies_without_a_report():
    # a failed check raises; H_l itself is zp_homology_dims (pinned above)
    assert iota_iso(3, 3, samples=100) is None


def test_iota_level_one_and_p5():
    iota_iso(4, 3, n=1, samples=40)
    iota_iso(2, 5, samples=40)


def test_a_broken_repeated_word_map_is_refused(monkeypatch):
    import nchodge.cartier as cartier

    real = cartier.iota_matrix

    def shifted(dim, n, p, modulus):
        # the first word goes to the second repeated word instead of its own
        rows = cartier.repeated_words(dim, n, p)
        rows[0] = rows[1]
        return ModMatrix.from_index_map(rows, real(dim, n, p, modulus).shape[0], modulus)

    monkeypatch.setattr(cartier, "iota_matrix", shifted)
    with pytest.raises(CartierError, match="basis"):
        iota_iso(3, 3, samples=10)


# ---------------- the subdivided object ----------------

def test_subdivision_identities_hold():
    assert subdivision_identity_failures(PCyclicLevels(build("dual-numbers", 3), 2)) == []
    assert subdivision_identity_failures(PCyclicLevels(build("group-z3", 3), 2), upto=1) == []
    assert subdivision_identity_failures(PCyclicLevels(build("dual-numbers", 5), 1)) == []


def test_subdivision_sweep_names_the_level_of_a_wrong_operator():
    # tamper controls: the sweep must report, not just return []
    a = build("dual-numbers", 3)
    for n in (1, 2):
        for i in range(n):
            pcyc = PCyclicLevels(a, 2)
            low, high = pcyc.face(n, i), pcyc.face(n, i + 1)
            pcyc._faces[(n, i)], pcyc._faces[(n, i + 1)] = high, low
            assert any(f"level {n}" in f for f in subdivision_identity_failures(pcyc)), (n, i)
        pcyc = PCyclicLevels(a, 2)
        plain_rho = pcyc.rho
        pcyc.rho = lambda m, n=n: (ModMatrix.identity(pcyc.dim(m), 3) if m == n
                                   else plain_rho(m))
        assert any(f"level {n}" in f for f in subdivision_identity_failures(pcyc)), n


# every level of at most this many words is checked against the composites;
# at p = 7 that is level 1 of the two-dimensional algebras
KRONECKER_WORD_BUDGET = 300_000


@pytest.mark.parametrize("p", [3, 5, 7])
def test_kronecker_operators_match_the_composites(p):
    # the reference multiplies out p ordinary operators, one per block
    checked = 0
    for name in corpus_names():
        a = build(name, p)
        fits = [n for n in range(1, 8) if a.dim ** (p * (n + 1)) <= KRONECKER_WORD_BUDGET]
        if not fits:
            continue
        pcyc = PCyclicLevels(a, max(fits), cap=1 << 62)
        for n in fits:
            for i in range(n + 1):
                assert pcyc.face(n, i) == composite_face(pcyc, n, i), (name, n, i)
            for i in range(n):
                assert pcyc.degeneracy(n - 1, i) == composite_degeneracy(pcyc, n - 1, i), \
                    (name, n - 1, i)
        checked += 1
    assert checked == {3: 13, 5: 7, 7: 3}[p]


def test_intertwines_matches_the_matrix_products():
    rng = np.random.default_rng(6)
    for p, lo, hi in ((3, 12, 15), (5, 10, 10), (7, 14, 21)):
        src = ZpModuleAction(order_p_permutation(hi, p, 1), p)
        dst = ZpModuleAction(order_p_permutation(lo, p, 2), p)
        for density in (0.0, 0.1, 0.5):
            dense_mat = rng.integers(1, p, (lo, hi)) * (rng.random((lo, hi)) < density)
            mat = ModMatrix.from_dense(dense_mat, p)
            # the orbit average of a matrix commutes with the actions
            avg = ModMatrix.zeros(lo, hi, p)
            s_lo, s_hi = ModMatrix.identity(lo, p), ModMatrix.identity(hi, p)
            for _ in range(p):
                avg = avg + s_lo @ mat @ s_hi.T
                s_lo, s_hi = sigma_matrix(dst) @ s_lo, sigma_matrix(src) @ s_hi
            for m in (mat, avg):
                want = sigma_matrix(dst) @ m == m @ sigma_matrix(src)
                assert dst.intertwines(m, src) == want
            assert dst.intertwines(avg, src)
    with pytest.raises(ShapeError):
        dst.intertwines(ModMatrix.zeros(lo + 1, hi, p), src)


def test_subdivision_levels_and_laziness():
    pcyc = PCyclicLevels(build("dual-numbers", 3), 2)
    assert [pcyc.dim(n) for n in range(3)] == [8, 64, 512]
    assert pcyc.dim(3) == 0
    with pytest.raises(WindowError):
        pcyc.face(3, 0)
    assert sigma_matrix(pcyc.action(1)) == matpow(pcyc.rho(1), 2)


def test_parity_guard():
    with pytest.raises(ParityError):
        PCyclicLevels(build("dual-numbers", 2), 1)
    pcyc = PCyclicLevels(build("dual-numbers", 2), 1, allow_p2=True)
    assert pcyc.dim(1) == 16


def test_resource_guard_reports_estimate():
    # through level 6 of dual-numbers, b and one entry per word fit; seven
    # copies of b and the Z/p operators of the conjugate bicomplex do not
    a = build("dual-numbers", 3)
    PCyclicLevels(a, 6)
    with pytest.raises(ResourceError) as exc:
        PCyclicLevels(a, 6, L=6)
    assert exc.value.count > exc.value.cap and exc.value.level == 6
    assert "conjugate bicomplex through level 6" in str(exc.value)
    with pytest.raises(ResourceError) as exc:
        PCyclicLevels(a, 7)
    assert "subdivided b through level 7" in str(exc.value)


def test_tight_at_every_level():
    for name in ("dual-numbers", "upper-tri-2", "group-z3"):
        pcyc = PCyclicLevels(build(name, 3), 2)
        for n in range(3):
            assert_tight(pcyc.action(n))


# ---------------- homology through the subdivision ----------------

def test_edgewise_homology_matches():
    rep = edgewise_hh_check(build("dual-numbers", 3), 3)
    assert rep.sd_dims == rep.hh == {0: 2, 1: 1, 2: 1}
    rep = edgewise_hh_check(build("m2", 3), 2)
    assert rep.sd_dims == rep.hh == {0: 1, 1: 0}


def test_lambda_route_matches_cyclic():
    dims, hc = lambda_p_hc(build("dual-numbers", 3), 3, 4)
    assert dims == hc == {0: 2, 1: 0, 2: 2}
    dims, hc = lambda_p_hc(build("ground-field", 3), 3, 4)
    assert dims == hc == {0: 1, 1: 0, 2: 1}


def test_lambda_bicomplex_squares():
    pcyc = PCyclicLevels(build("dual-numbers", 3), 2)
    two_column_bicomplex(pcyc, 3).check_squares()


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
    pcyc = PCyclicLevels(a, 2)
    cyc = CyclicLevelMaps(a, 2)
    for n in (1, 2):
        squeezed = iota_matrix(2, n - 1, 3, 3).T @ pcyc.b(n) @ iota_matrix(2, n, 3, 3)
        assert squeezed == cyc.b(n)


# the top level assembled both ways, by p and the dimension of the algebra:
# level 1 for the rest of the corpus at p = 3; at p = 5 only the algebras of
# dimension at most 2
ASSEMBLED_TOP = {(3, 1): 7, (3, 2): 4, (3, 3): 2, (5, 1): 7, (5, 2): 2}


def assembled_levels(p: int):
    """(name, subdivision, levels to assemble) over the corpus at p = 3 and
    the algebras of dimension at most 2 at p = 5."""
    for name in corpus_names():
        a = build(name, p)
        if p == 5 and a.dim > 2:
            continue
        top = ASSEMBLED_TOP.get((p, a.dim), 1)
        yield name, PCyclicLevels(a, top), list(range(1, top + 1))


@pytest.mark.parametrize("p", [3, 5])
def test_one_pass_boundary_is_the_alternating_sum_of_the_faces(p):
    # the reference builds each face on its own: the Kronecker power of the
    # ordinary face, and the wrap face as face 0 gathered through the rotation
    checked = 0
    for name, pcyc, fits in assembled_levels(p):
        a = pcyc.algebra
        for n in fits:
            faces = [kron_power(face_matrix(a, n, i), p) for i in range(n)]
            rot = rotation_matrix(a.dim, p * (n + 1) - 1, a.modulus)
            faces.append(faces[0].restrict(cols=rot.csc().indices))
            want = faces[0]
            for i in range(1, n + 1):
                want = want - faces[i] if i % 2 else want + faces[i]
            assert pcyc.b(n) == want, (name, n)
        checked += 1
    assert checked == {3: 13, 5: 3}[p]


@pytest.mark.parametrize("p", [3, 5])
def test_comparison_complexes_are_the_matrix_products(p):
    # the oracles are the products with the comparison maps that the gathers
    # replace: p_fix^T b e_fix and proj b sec
    checked = 0
    for name, pcyc, fits in assembled_levels(p):
        fixed, coinv = _fixed_reduced_complex(pcyc), _coinvariant_complex(pcyc)
        d = pcyc.algebra.dim
        for n in fits:
            e_low, e_high = iota_matrix(d, n - 1, p, p), iota_matrix(d, n, p, p)
            assert fixed.d(n) == e_low.T @ pcyc.b(n) @ e_high, (name, n)
            proj = zp_coinvariants(pcyc.action(n - 1))[0]
            sec = zp_coinvariants(pcyc.action(n))[1]
            assert coinv.d(n) == proj @ pcyc.b(n) @ sec, (name, n)
        checked += 1
    assert checked == {3: 13, 5: 3}[p]


def test_a_wrong_entry_on_repeated_words_fails_the_fixed_comparison():
    a = build("upper-tri-2", 3)
    for n in (1, 2):
        pcyc = PCyclicLevels(a, 2)
        row, col = (iota_matrix(a.dim, m, 3, 3).csc().indices[-1] for m in (n - 1, n))
        bump = ModMatrix.from_arrays(pcyc.b(n).shape, 3, [row], [col], [1])
        _fixed_reduced_complex(pcyc)
        pcyc._b[n] = pcyc.b(n) + bump
        with pytest.raises(InternalCheckError, match=f"level {n}"):
            _fixed_reduced_complex(pcyc)


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


@pytest.mark.parametrize("wrong, certificate", [
    # x^p + 1: the constant term is counted twice in x^p + y^p
    (lambda x, power: (power + 1) % 3, "not additive"),
    # e00 <-> e01 instead of powering: linear, but it moves the commutator
    # e01 onto the trace, which A/[A, A] sees
    (lambda x, power: x[..., [1, 0, 2, 3]], "depends on the representative"),
])
def test_cartier0_refuses_a_wrong_power_map(monkeypatch, capsys, wrong, certificate):
    from nchodge import corpus
    from nchodge.cli import main

    a = build("m2", 3)
    real = type(a).power_of
    monkeypatch.setattr(type(a), "power_of",
                        lambda self, x, k: wrong(np.asarray(x) % 3, real(self, x, k)))
    with pytest.raises(InternalCheckError, match=certificate):
        cartier0(a, samples=50)
    monkeypatch.setattr(corpus, "build", lambda name, p: a)
    assert main(["cartier0", "m2", "--samples", "50", "--quiet"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and certificate in err


def test_cartier0_group_algebra():
    rep = cartier0(build("group-z3", 3), samples=200)
    assert rep.dim_quotient == 3
    got = rep.matrix.to_dense()
    assert got[:, 0].tolist() == got[:, 1].tolist() == got[:, 2].tolist()


# ---------------- degeneration verdict per degree ----------------

def test_ledger_frozen_rows():
    rep = hodge_ss(build("upper-tri-2", 3), 5, pages_budget=0)
    assert (rep.abutment, rep.hodge_sums) == ({0: 2, 1: 0, 2: 2, 3: 0}, {0: 2, 1: 0, 2: 2, 3: 0})
    assert rep.degenerate
    rep = hodge_ss(build("dual-numbers", 3), 5, pages_budget=0)
    assert (rep.abutment, rep.hodge_sums) == ({0: 2, 1: 0, 2: 2, 3: 1}, {0: 2, 1: 1, 2: 3, 3: 2})
    assert not rep.degenerate


def test_ledger_never_reverses():
    for name in corpus_names():
        a = build(name, 3)
        if a.dim > 4:
            continue
        rep = hodge_ss(a, 4, pages_budget=0)
        assert all(rep.abutment[n] <= rep.hodge_sums[n] for n in rep.hodge_sums), name
