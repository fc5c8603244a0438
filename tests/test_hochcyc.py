"""Cyclic object, mixed bicomplex, and the homology pipelines built on them.

Expected dimensions were computed two independent ways before being frozen
here: once through the package and once by hand or through the dense
per-monomial oracles in oracles.py.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from nchodge.algebra import StructureConstantsAlgebra, normalize_basis, truncated_poly
from nchodge.cartier import PCyclicLevels
from nchodge.corpus import build, corpus_names
from nchodge.errors import InternalCheckError, NotAComplexError, ResourceError, WindowError
from nchodge.hochcyc import (
    CyclicLevelMaps,
    NormalizedMixedComplex,
    b_complex,
    degeneracy_matrix,
    DEFAULT_ENTRY_CAP,
    estimate_entries,
    face_matrix,
    hc_dims,
    hh_dims,
    hodge_ss,
    level_counts,
    rotation_matrix,
    sbi_check,
    sbi_ranks,
)
from nchodge import hochcyc, modring
from nchodge.complexes import ChainComplexWindow, filtration_by_columns
from nchodge.modring import ModMatrix
from .oracles import ref_degeneracy_dense, ref_face_dense, ref_rotation_dense
from .sweeps import bB_bicomplex, cyclic_identity_failures, hc_of, over_k, two_column_bicomplex


# ---------------- operators against the dense per-monomial oracle ----------------

def test_faces_match_dense_oracle():
    cases = [(build("dual-numbers", 3), 3), (build("m2", 3), 2),
             (build("upper-tri-2", 5), 2), (build("group-z3", 2), 2)]
    for a, top in cases:
        for m in range(1, top + 1):
            for i in range(m + 1):
                got = face_matrix(a, m, i).to_dense()
                assert np.array_equal(got, ref_face_dense(a, m, i)), (a.label, m, i)


def test_degeneracies_match_dense_oracle():
    for name in ("dual-numbers", "m2", "upper-tri-2"):
        a = build(name, 3)
        for m in range(0, 2):
            for i in range(m + 1):
                got = degeneracy_matrix(a, m, i).to_dense()
                assert np.array_equal(got, ref_degeneracy_dense(a, m, i)), (name, m, i)


def test_rotation_matches_dense_oracle():
    for dim in (2, 3, 4):
        for m in range(0, 4):
            got = rotation_matrix(dim, m, 5).to_dense()
            assert np.array_equal(got, ref_rotation_dense(dim, m))


def test_identities_hold_across_small_corpus():
    for name in corpus_names():
        a = build(name, 3)
        if a.dim > 4:
            continue
        cyc = CyclicLevelMaps(a, 3)
        assert cyclic_identity_failures(cyc) == [], name


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(["ground-field", "dual-numbers", "upper-tri-2", "group-z3"]),
       p=st.sampled_from([2, 3, 5]))
def test_identities_hold_property(name, p):
    cyc = CyclicLevelMaps(build(name, p), 3)
    assert cyclic_identity_failures(cyc) == []


def test_identity_sweep_names_the_level_of_a_wrong_operator():
    # tamper controls: the sweep must report, not just return []
    a = build("upper-tri-2", 3)
    for n in (1, 2, 3):
        for i in range(n):
            cyc = CyclicLevelMaps(a, 3)
            faces = cyc._faces
            faces[(n, i)], faces[(n, i + 1)] = faces[(n, i + 1)], faces[(n, i)]
            assert any(f"n={n}" in f for f in cyclic_identity_failures(cyc)), (n, i)
        cyc = CyclicLevelMaps(a, 3)
        cyc._rots[n] = ModMatrix.identity(cyc.dim(n), 3)
        assert any(f"n={n}" in f for f in cyclic_identity_failures(cyc)), n


def test_level_dimensions_double_for_dual_numbers():
    cyc = CyclicLevelMaps(build("dual-numbers", 3), 5)
    assert [cyc.dim(n) for n in range(6)] == [2, 4, 8, 16, 32, 64]
    # the faces write (n + 1) 2^(n - 1) 3 entries at level n
    assert estimate_entries(build("dual-numbers", 3), 5) == 480


def test_connes_b_at_level_zero():
    # B_0(a) = 1 (x) a + a (x) 1 in coordinates; frozen for dual numbers
    a = build("dual-numbers", 3)
    cyc = CyclicLevelMaps(a, 2)
    col = cyc.B(0).to_dense()[:, 1]  # image of the nilpotent x
    want = np.zeros(4, dtype=np.int64)
    want[1] = 1  # x (x) 1  -> digits (1, 0)
    want[2] = 1  # 1 (x) x  -> digits (0, 1)
    assert np.array_equal(col, want)


# ---------------- homology dimensions, frozen ----------------

def test_hh_ground_field():
    assert hh_dims(build("ground-field", 3), 6) == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}


def test_hh_dual_numbers_f3():
    assert hh_dims(build("dual-numbers", 3), 5) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_hh_trunc_square_f5():
    assert hh_dims(truncated_poly(5, 2), 5) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_hh_matrix_algebra_is_morita_trivial():
    assert hh_dims(build("m2", 3), 4) == hh_dims(build("ground-field", 3), 4)


def test_hh_product_adds():
    hh = hh_dims(build("product-ground-m2", 3), 4)
    k = hh_dims(build("ground-field", 3), 4)
    assert hh == {n: 2 * k[n] for n in k}


def test_bprime_complex_is_acyclic():
    for name in ("dual-numbers", "upper-tri-2"):
        cyc = CyclicLevelMaps(build(name, 3), 4)
        c = ChainComplexWindow(4, {n: cyc.dim(n) for n in range(5)},
                               {n: cyc.bprime(n) for n in range(1, 5)}, 3, vhi=3)
        c.check_differentials()
        assert c.homology_dims() == {n: 0 for n in range(4)}


def test_hc_ground_field():
    assert hc_dims(build("ground-field", 3), 6) == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def test_hc_dual_numbers_f3():
    assert hc_dims(build("dual-numbers", 3), 6) == {0: 2, 1: 0, 2: 2, 3: 1, 4: 3}


def test_hc_zero_needs_two_levels():
    with pytest.raises(WindowError):
        hc_dims(build("ground-field", 3), 1)


def test_bicomplex_squares_and_window():
    cyc = CyclicLevelMaps(build("dual-numbers", 3), 4)
    bicx = bB_bicomplex(cyc)
    bicx.check_squares()
    tot, blocks = bicx.total_complex()
    assert tot.vhi == 3
    assert tot.dim(2) == cyc.dim(2) + cyc.dim(0)
    assert {(x, y) for x, y, _, d in blocks[2] if d} == {(0, 2), (1, 1)}


def test_periodic_two_column_complex_matches_hc():
    for name in ("ground-field", "dual-numbers"):
        a = build(name, 3)
        hc = hc_dims(a, 6)
        bicx = two_column_bicomplex(CyclicLevelMaps(a, 6), 8)
        bicx.check_squares()
        c = bicx.total_complex()[0]
        got = {n: c.homology_dim(n) for n in range(5)}
        assert got == hc, name


# ---------------- normalized chains ----------------

class ProjectionOracle:
    """pr o op o sec on the unnormalized cyclic object, by Kronecker products.

    pr: A -> Abar kills the unit along its first coordinate that is a unit
    mod p, sec picks the representatives e_j of the other coordinates; slot
    0 keeps A, so the identity sits innermost (slot 0 is the fastest digit).
    """

    def __init__(self, a, N):
        self.cyc = CyclicLevelMaps(a, N)
        mod, d = a.modulus, a.dim
        k0 = int(np.nonzero(a.unit % a.p)[0][0])
        others = [j for j in range(d) if j != k0]
        inv = pow(int(a.unit[k0]), -1, mod)
        pr = np.zeros((d - 1, d), dtype=np.int64)
        sec = np.zeros((d, d - 1), dtype=np.int64)
        for row, j in enumerate(others):
            pr[row, j] = 1
            pr[row, k0] = (-int(a.unit[j]) * inv) % mod
            sec[j, row] = 1
        self.mod, self.d, self.pr, self.sec = mod, d, pr, sec

    def _power(self, m, n):
        out = sp.identity(self.d, dtype=np.int64, format="csc")
        for _ in range(n):
            out = sp.kron(sp.csc_matrix(m), out, format="csc")
        return ModMatrix(out.shape, self.mod, out)

    def b(self, n):
        return self._power(self.pr, n - 1) @ self.cyc.b(n) @ self._power(self.sec, n)

    def B(self, n):
        return self._power(self.pr, n + 1) @ self.cyc.B(n) @ self._power(self.sec, n)


def test_normalized_operators_match_projection_oracle():
    for p in (3, 5, 7):
        for name in corpus_names():
            a = build(name, p)
            N = 4 if a.dim <= 4 else 3
            oracle = ProjectionOracle(a, N)
            nc = NormalizedMixedComplex(over_k(a), N)
            for n in range(1, N + 1):
                assert nc.b(n) == oracle.b(n), (name, p, n)
            for n in range(N):
                assert nc.B(n) == oracle.B(n), (name, p, n)


def test_normalized_matches_full_hh():
    for name in ("dual-numbers", "m2", "upper-tri-2", "group-z3", "trunc-poly-3"):
        a = build(name, 3)
        assert hh_dims(a, 4) == b_complex(CyclicLevelMaps(a, 4)).homology_dims(), name


def test_normalized_and_plain_routes_agree_on_corpus():
    for p in (3, 5, 7):
        for name in corpus_names():
            a = build(name, p)
            N = 5 if a.dim <= 3 else 4
            plain, normal = CyclicLevelMaps(a, N), NormalizedMixedComplex(a, N)
            assert hh_dims(a, N, carrier=plain) == hh_dims(a, N, carrier=normal), (name, p)
            assert hc_of(plain) == hc_of(normal), (name, p)
            got, want = sbi_ranks(normal), sbi_ranks(plain)
            assert got.exact, (name, p)
            assert (got.hh, got.hc, got.ranks, got.spots) == \
                (want.hh, want.hc, want.ranks, want.spots), (name, p)


def test_normalized_dims_shrink():
    a = build("dual-numbers", 3)
    c = NormalizedMixedComplex(a, 5)
    assert [c.dim(n) for n in range(6)] == [2, 2, 2, 2, 2, 2]
    empty = NormalizedMixedComplex(build("ground-field", 3), 3)
    assert empty.dims == [1, 0, 0, 0]
    assert empty.B(0).shape == (0, 1) and empty.b(1).shape == (1, 0)


def coo_lengths(op, levels) -> list[int]:
    """The entries op(n) hands to `modring._from_keys`, the one entry point
    of every construction from entries, before duplicates are summed: its
    last construction is the operator itself."""
    seen = []
    real = modring._from_keys

    def record(shape, m, key, vals=None):
        seen.append(key.shape[0])
        return real(shape, m, key, vals)

    out = []
    with mock.patch.object(modring, "_from_keys", record):
        for n in levels:
            op(n)
            out.append(seen[-1])
    return out


# a window is compared while its count stays under this many entries
COUNTED_BUDGET = 200_000


def test_normalized_count_is_the_entries_built():
    compared = 0
    for p in (3, 5, 7):
        for name in corpus_names():
            given = build(name, p)
            for a in {id(x): x for x in (given, normalize_basis(given))}.values():
                counts = list(level_counts(a, 40))
                running = np.cumsum([b + B for _, b, B in counts])
                N = max(1, int(np.searchsorted(running, COUNTED_BUDGET, side="right")) - 1)
                nc = NormalizedMixedComplex(a, N)
                assert nc.dims == [w for w, _, _ in counts[:N + 1]], (name, p)
                assert coo_lengths(nc.b, range(1, N + 1)) == \
                    [b for _, b, _ in counts[1:N + 1]], (name, p)
                assert coo_lengths(nc.B, range(N)) == [B for _, _, B in counts[:N]], (name, p)
                sd = list(level_counts(a, 6, p=p))
                fits = [n for n in range(1, 7) if sd[n][0] <= COUNTED_BUDGET
                        and sum(b for _, b, _ in sd[:n + 1]) <= COUNTED_BUDGET]
                if fits:
                    pcyc = PCyclicLevels(a, max(fits))
                    assert coo_lengths(pcyc.b, fits) == [sd[n][1] for n in fits], (name, p)
                    compared += 1
    assert compared >= 25
    # the unnormalized level 10 of group-z4 has 4^11 coordinates, the
    # normalized one relative to k 4 * 3^10
    a = build("group-z4", 3)
    assert sum(b + B for _, b, B in level_counts(over_k(a), 10)) \
        < DEFAULT_ENTRY_CAP < estimate_entries(a, 10)


def test_each_operator_is_a_fixed_number_of_gathers():
    # all faces of b(n) in one gather, all rotations of B(n) in one
    nc = NormalizedMixedComplex(build("m2", 3), 201)
    calls = []
    for n in (20, 200):
        with mock.patch.object(hochcyc, "_gather", side_effect=hochcyc._gather) as spy:
            nc.b(n)
            nc.B(n)
        calls.append(spy.call_count)
    assert calls[0] == calls[1], calls


def test_reading_the_top_total_degree_first_needs_no_recursion():
    # d_N is built upward from the lowest degree of its parity, not by
    # reading d_(N-2) through the lazy mapping
    N = 3000
    nc = NormalizedMixedComplex(build("m2", 3), N)
    tot = filtration_by_columns(nc).carrier
    top = tot.d(N)
    assert top.shape == (tot.dim(N - 1), tot.dim(N))
    # below its first block row and column d_N is d_(N-2)
    assert top.restrict(rows=np.arange(nc.dim(N - 1), tot.dim(N - 1)),
                        cols=np.arange(nc.dim(N), tot.dim(N))) == tot.d(N - 2)


def test_words_past_int64_keep_their_digits():
    # relative to S the word indices of level 70 of product-ground-m2 reach
    # d e^70 = 5 * 2^70 > 2^63, where they used to become Python ints;
    # k x M_2 has the HH and HC of two points
    a = build("product-ground-m2", 3)
    assert hh_dims(a, 70) == {n: 2 if n == 0 else 0 for n in range(70)}
    assert hc_dims(a, 70) == {n: 0 if n % 2 else 2 for n in range(69)}


# ---------------- relative to the basis idempotents ----------------

IDEMPOTENT = ("a2-path", "kronecker", "m2", "product-dual-upper",
              "product-ground-m2", "upper-tri-2")


def test_detected_idempotents_and_relative_levels():
    r = {name: build(name, 3).idempotents.r for name in corpus_names()}
    assert {name for name in r if r[name] > 1} == set(IDEMPOTENT)
    assert (r["m2"], r["kronecker"], r["product-dual-upper"]) == (2, 2, 3)
    levels = {name: NormalizedMixedComplex(build(name, 3), 9).dims for name in corpus_names()}
    assert levels["m2"] == [2] * 10
    for name in ("kronecker", "upper-tri-2", "a2-path"):
        assert levels[name] == [2] + [0] * 9, name
    assert levels["product-dual-upper"] == [4] + [2] * 9
    assert levels["product-ground-m2"] == [3] + [2] * 9
    for name in set(corpus_names()) - set(IDEMPOTENT):
        d = build(name, 3).dim
        assert levels[name] == [d * (d - 1) ** n for n in range(10)], name
    assert sum(b + B for _, b, B in level_counts(build("m2", 3), 30)) < 10_000


def quotient(a, n):
    """The quotient from level n relative to k onto level n relative to the
    basis idempotents, by brute force: a word whose bar letters avoid the
    idempotents and compose cyclically goes to its rank among such words
    (little-endian, slot 0 fastest), every other word to 0."""
    d, c = a.dim, a.constants
    S = [i for i in range(d) if a.unit[i]]
    left = [next(s for s in S if c[s, x, x] == 1) for x in range(d)] if len(S) > 1 else [0] * d
    right = [next(s for s in S if c[x, s, x] == 1) for x in range(d)] if len(S) > 1 else [0] * d
    others = [j for j in range(d) if j != S[0]]          # the basis of A / k1
    bar = [j for j in range(d) if j not in S] if len(S) > 1 else others
    kept = []
    for idx in range(d * len(others) ** n):
        word, rest = [idx % d], idx // d
        for _ in range(n):
            word.append(others[rest % len(others)])
            rest //= len(others)
        if all(x in bar for x in word[1:]) and all(
                right[word[i]] == left[word[(i + 1) % len(word)]] for i in range(len(word))):
            key = word[0] + d * sum(bar.index(x) * len(bar) ** i for i, x in enumerate(word[1:]))
            kept.append((key, idx))
    kept.sort()
    return ModMatrix.from_arrays((len(kept), d * len(others) ** n), a.modulus,
                                 np.arange(len(kept)), np.array([i for _, i in kept], dtype=np.int64),
                                 np.ones(len(kept), dtype=np.int64))


def test_relative_operators_are_the_quotient_of_the_operators_over_k():
    for p in (3, 5, 7):
        for name in corpus_names():
            a = build(name, p)
            N = 4 if a.dim <= 4 else 3
            rel = NormalizedMixedComplex(a, N)
            ground = NormalizedMixedComplex(over_k(a), N)
            q = [quotient(a, n) for n in range(N + 1)]
            assert [m.shape[0] for m in q] == rel.dims, (name, p)
            if a.idempotents.r == 1:
                assert rel.dims == ground.dims, (name, p)
            for n in range(1, N + 1):
                assert rel.b(n) @ q[n] == q[n - 1] @ ground.b(n), (name, p, n)
            for n in range(N):
                assert rel.B(n) @ q[n] == q[n + 1] @ ground.B(n), (name, p, n)


def homology_summary(carrier):
    rep = sbi_ranks(carrier)
    return rep.hh, rep.hc, rep.ranks, rep.spots, rep.exact


def test_relative_and_ground_carriers_agree():
    # every N to the default cap of the carrier over k: scripts/relative_check.py
    for p in (3, 5, 7):
        for name in IDEMPOTENT:
            a = build(name, p)
            for N in (3, 6):
                ground = NormalizedMixedComplex(over_k(a), N)
                assert homology_summary(NormalizedMixedComplex(a, N)) == \
                    homology_summary(ground), (name, p, N)
            hh = hh_dims(a, 6, carrier=ground)
            hc = hc_of(ground)
            rep = hodge_ss(a, 6, pages_budget=0)
            assert rep.abutment == hc, (name, p)
            assert rep.hodge_sums == {n: sum(hh[n - 2 * l] for l in range(n // 2 + 1))
                                      for n in range(5)}, (name, p)


def rebased(a, perm, scale):
    """a in the basis f_i = scale[i] e_perm[i]."""
    d, m = a.dim, a.modulus
    inv = [pow(int(s), -1, m) for s in scale]
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                c[i, j, k] = (scale[i] * scale[j] * inv[k]
                              * int(a.constants[perm[i], perm[j], perm[k]])) % m
    unit = [int(a.unit[perm[i]]) * inv[i] % m for i in range(d)]
    return StructureConstantsAlgebra(m, [a.basis[i] for i in perm], unit, c)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(IDEMPOTENT), p=st.sampled_from([3, 5, 7]), data=st.data())
def test_detection_and_homology_survive_a_change_of_basis(name, p, data):
    a = build(name, p)
    perm = data.draw(st.permutations(range(a.dim)))
    scale = [1 if a.unit[x] else data.draw(st.integers(1, p - 1)) for x in perm]
    b = rebased(a, perm, scale)
    assert b.idempotents.r == a.idempotents.r
    assert homology_summary(NormalizedMixedComplex(b, 6)) == \
        homology_summary(NormalizedMixedComplex(a, 6))


def test_non_homogeneous_basis_falls_back_to_the_ground_field():
    # E11, E22, E12 + E21, E12 - E21: idempotents summing to 1, but the last
    # two lie in no single e_i A e_j
    mats = [np.array(m) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]],
                                  [[0, 1], [1, 0]], [[0, 1], [-1, 0]])]
    for p in (3, 5, 7):
        half = pow(2, -1, p)

        def coords(m):
            return [m[0, 0], m[1, 1], (m[0, 1] + m[1, 0]) * half, (m[0, 1] - m[1, 0]) * half]

        c = np.array([[coords(x @ y) for y in mats] for x in mats]) % p
        a = StructureConstantsAlgebra(p, ["E11", "E22", "E12+E21", "E12-E21"],
                                      [1, 1, 0, 0], c)
        assert a.idempotents.r == 1
        assert NormalizedMixedComplex(a, 5).dims == [4 * 3 ** n for n in range(6)]
        assert homology_summary(NormalizedMixedComplex(a, 5)) == \
            homology_summary(NormalizedMixedComplex(build("m2", p), 5)), p


def test_dropping_a_composable_word_fails_the_agreement():
    # tamper control: with any one word of levels 0..N-2 taken out of the
    # mask, a certificate raises or the homology moves
    N = 6
    for name in IDEMPOTENT:
        a = build(name, 3)
        want = homology_summary(NormalizedMixedComplex(over_k(a), N))
        assert homology_summary(NormalizedMixedComplex(a, N)) == want
        for n in range(N - 1):
            for w in range(NormalizedMixedComplex(a, N).dim(n)):
                nc = NormalizedMixedComplex(a, N)
                nc._words[n] = np.delete(nc._words[n], w, axis=0)
                nc.dims[n] -= 1
                try:
                    got = homology_summary(nc)
                except InternalCheckError:
                    continue
                assert got != want, (name, n, w)


# ---------------- the inclusion / shift / connecting triangle ----------------

def test_sbi_exact_for_dual_numbers():
    rep = sbi_check(build("dual-numbers", 3), 6)
    assert rep.exact
    assert rep.degrees == [2, 3, 4, 5]
    assert all(all(v for v in rep.spots[n].values()) for n in rep.degrees)


def test_sbi_exact_for_matrix_algebra():
    rep = sbi_check(build("m2", 3), 6)
    assert rep.exact


class FlippedB:
    """A carrier whose Connes operator is negated at one level."""

    def __init__(self, cyc, level):
        self.cyc, self.level = cyc, level
        self.N, self.algebra = cyc.N, cyc.algebra

    def dim(self, n):
        return self.cyc.dim(n)

    def b(self, n):
        return self.cyc.b(n)

    def B(self, n):
        return -self.cyc.B(n) if n == self.level else self.cyc.B(n)


def test_sbi_detects_flipped_connecting_map():
    # on the unnormalized carrier: negating the normalized B at level 1
    # leaves a valid, exact triangle for the dual numbers
    with pytest.raises(NotAComplexError):
        sbi_ranks(FlippedB(CyclicLevelMaps(build("dual-numbers", 3), 6), 1))


def test_sbi_needs_room():
    with pytest.raises(WindowError):
        sbi_check(build("dual-numbers", 3), 4)


# ---------------- Hodge filtration verdicts ----------------

def test_hodge_degenerates_for_separable_and_hereditary():
    for name in ("m2", "upper-tri-2", "ground-field"):
        assert hodge_ss(build(name, 3), 5, pages_budget=0).degenerate, name


def test_hodge_fails_for_dual_numbers():
    rep = hodge_ss(build("dual-numbers", 3), 6, pages_budget=0)
    assert not rep.degenerate
    assert rep.hodge_sums == {0: 2, 1: 1, 2: 3, 3: 2, 4: 4}
    assert rep.abutment == {0: 2, 1: 0, 2: 2, 3: 1, 4: 3}
    # the abutment can only ever be smaller
    assert all(rep.abutment[n] <= rep.hodge_sums[n] for n in rep.hodge_sums)


def test_hodge_e1_table_upper_tri():
    rep = hodge_ss(build("upper-tri-2", 3), 5, pages_budget=0)
    assert rep.degenerate
    assert rep.e1[(0, 0)] == 2 and rep.e1[(1, 2)] == 2
    assert rep.e1[(0, 1)] == 0 and rep.e1[(0, 2)] == 0


# ---------------- guard rails ----------------

def test_resource_cap_reports_estimate():
    a = build("m2", 3)
    with pytest.raises(ResourceError) as exc:
        CyclicLevelMaps(a, 9, cap=10_000)
    assert exc.value.count > exc.value.cap == 10_000


def test_connes_b_needs_headroom():
    cyc = CyclicLevelMaps(build("dual-numbers", 3), 3)
    with pytest.raises(WindowError):
        cyc.B(3)


def test_homology_outside_window_rejected():
    c = b_complex(CyclicLevelMaps(build("dual-numbers", 3), 3))
    with pytest.raises(WindowError):
        c.homology_dim(3)


def test_a_dense_predecessor_clears_the_next_rank(monkeypatch):
    from nchodge import modring

    # the normalized b_3 of group-z4 is 36 x 108, reduced transposed (108
    # rows, one column per kept row of b_3); its reduction is made to
    # restart, so the dense path ranks it, and the lows of its row space
    # still clear b_4 (108 x 324), which the sparse reduction takes
    c = b_complex(NormalizedMixedComplex(build("group-z4", 3), 7))
    d3, d4 = c.d(3), c.d(4)
    assert d3.shape == (36, 108)
    real, real_reduce = modring.rank_fp, modring._column_reduce
    cleared, restarted = {}, []

    def recording(mat, clear=None):
        cleared[mat.shape] = None if clear is None else clear.size
        return real(mat, clear)

    def restarting_b3(csc, p, shape, *args):
        if shape[0] == 108:
            restarted.append(shape)
            raise modring._DenseRestart
        return real_reduce(csc, p, shape, *args)

    monkeypatch.setattr(modring, "rank_fp", recording)
    monkeypatch.setattr(modring, "_column_reduce", restarting_b3)
    assert c.homology_dims() == {0: 4, **{n: 0 for n in range(1, 7)}}
    assert len(restarted) == 1
    assert cleared[(108, 324)] == d3.rank() > 0
    assert d4.rank() == real(ModMatrix(d4.shape, 3, d4.csc()))


def test_clearing_hands_the_top_reduction_of_group_z4_only_its_homology(monkeypatch):
    from nchodge import modring

    # b_7: C_7 -> C_6 is 2,916 x 8,748 and is reduced transposed; b_6 has
    # rank 732, so clearing leaves 2,916 - 732 = 2,184 columns, and all of
    # them are pivots since HH_6 = 0 (without clearing, 732 reduce to zero)
    seen = []
    real = modring._column_reduce

    def recording(cols, p, shape, *args, **kwargs):
        seen.append(shape)
        return real(cols, p, shape, *args, **kwargs)

    monkeypatch.setattr(modring, "_column_reduce", recording)
    assert hh_dims(build("group-z4", 3), 7) == {0: 4, **{n: 0 for n in range(1, 7)}}
    assert seen[-1] == (8748, 2184)
