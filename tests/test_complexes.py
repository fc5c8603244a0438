"""Windowed complexes and bicomplexes on hand-checkable examples."""

from __future__ import annotations

import tracemalloc
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from nchodge.algebra import normalize_basis
from nchodge.cartier import (
    PCyclicLevels,
    _coinvariant_complex,
    _fixed_reduced_complex,
    certify_conjugate_squares,
    conjugate_bicomplex,
    conjugate_ss,
)
from nchodge.complexes import (
    BicomplexWindow,
    ChainComplexWindow,
    IncreasingFiltration,
    LazyDiffs,
    filtration_by_columns,
)
from nchodge.corpus import build, corpus_names
from nchodge.errors import NotAComplexError, ShapeError, WindowError
from nchodge.hochcyc import (CyclicLevelMaps, NormalizedMixedComplex, b_complex, hc_dims,
                             level_counts)
from nchodge.modring import ModMatrix, homology_dim
from .sweeps import (bB_bicomplex, bB_filtration, forced_restart, total_square_failures,
                     two_column_bicomplex)


def three_term(p=5):
    # 0 -> F --(0,1)^T--> F^2 --(1,0)--> F -> 0 : exact in the middle
    d1 = ModMatrix.from_dense([[1, 0]], p)
    d2 = ModMatrix.from_dense([[0], [1]], p)
    c = ChainComplexWindow(2, {0: 1, 1: 2, 2: 1}, {1: d1, 2: d2}, p, vhi=2)
    c.check_differentials()
    return c


def test_chain_window_homology():
    c = three_term()
    assert c.homology_dims() == {0: 0, 1: 0, 2: 0}
    assert c.dim(5) == 0


def test_chain_window_guards():
    p = 3
    with pytest.raises(NotAComplexError):
        ChainComplexWindow(2, {0: 1, 1: 1, 2: 1},
                           {1: ModMatrix.identity(1, p), 2: ModMatrix.identity(1, p)},
                           p).check_differentials()
    with pytest.raises(ShapeError):
        ChainComplexWindow(1, {0: 2, 1: 1}, {1: ModMatrix.identity(1, p)},
                           p).check_differentials()
    c = three_term()
    with pytest.raises(WindowError):
        c.homology_dim(3)


def test_homology_is_certified_once_per_degree(monkeypatch):
    # the HC read and the abutment check of `hodge --pages` read the same
    # window: the second read of a degree multiplies nothing
    tot = filtration_by_columns(NormalizedMixedComplex(build("group-z3", 3), 5)).carrier
    calls = Counter()
    real = ModMatrix.__matmul__

    def counted(self, other):
        calls["matmul"] += 1
        return real(self, other)

    monkeypatch.setattr(ModMatrix, "__matmul__", counted)
    first = tot.homology_dims()
    assert calls["matmul"] > 0
    calls.clear()
    assert tot.homology_dims() == first
    assert calls["matmul"] == 0


def test_default_window_excludes_top():
    p = 3
    c = ChainComplexWindow(2, {0: 1, 1: 1, 2: 1},
                           {1: ModMatrix.zeros(1, 1, p), 2: ModMatrix.zeros(1, 1, p)}, p)
    c.check_differentials()
    assert c.vhi == 1
    with pytest.raises(WindowError):
        c.homology_dim(2)


def square_bicomplex(p=3):
    # Koszul square for two commuting ids with a sign: anticommutes; the
    # empty cells beyond x, y = 1 make the window complete through degree 2
    one = ModMatrix.identity(1, p)
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d_v = {(0, 1): one, (1, 1): -one}
    d_h = {(1, 0): one, (1, 1): one}
    bicx = BicomplexWindow(3, 3, dims, d_v, d_h, p)
    bicx.check_squares()
    return bicx


def test_bicomplex_total_homology():
    bicx = square_bicomplex()
    tot, blocks = bicx.total_complex()
    assert [tot.dim(n) for n in range(0, 3)] == [1, 2, 1]
    assert tot.homology_dims() == {0: 0, 1: 0, 2: 0}
    assert blocks[1] == [(0, 1, 0, 1), (1, 0, 1, 1)]


def test_bicomplex_rejects_commuting_square():
    p = 3
    one = ModMatrix.identity(1, p)
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    d_v = {(0, 1): one, (1, 1): one}
    d_h = {(1, 0): one, (1, 1): one}
    with pytest.raises(NotAComplexError):
        BicomplexWindow(1, 1, dims, d_v, d_h, p).check_squares()


def test_bicomplex_trusted_window_shrinks_without_completeness():
    bicx = square_bicomplex()
    open_bicx = BicomplexWindow(1, 1, bicx.dims, bicx.d_v, bicx.d_h, 3)
    open_bicx.check_squares()
    tot, _ = open_bicx.total_complex()
    with pytest.raises(WindowError):
        tot.homology_dim(1)


class ToyMixed:
    """A mixed complex through level N from dims and dicts of b and B, with
    zero maps elsewhere; records every level whose b or B is read."""

    def __init__(self, dims, b, B, p=3):
        self.N, self.dims, self._b, self._B = len(dims) - 1, dims, b, B
        self.algebra = SimpleNamespace(modulus=p)
        self.read = []

    def dim(self, m):
        return self.dims[m]

    def b(self, m):
        self.read.append(("b", m))
        return self._b.get(m, ModMatrix.zeros(self.dims[m - 1], self.dims[m],
                                              self.algebra.modulus))

    def B(self, m):
        self.read.append(("B", m))
        return self._B.get(m, ModMatrix.zeros(self.dims[m + 1], self.dims[m],
                                              self.algebra.modulus))


def test_column_filtration_levels_and_subcomplex():
    # C = (1, 1, 1, 0) with b = 0 and B_0 = 1: degree n holds C_n, C_(n-2),
    # ... in columns 0, 1, ..., and d_2 sends column 1 (C_0) onto C_1 by B_0
    p = 3
    toy = ToyMixed([1, 1, 1, 0], {}, {0: ModMatrix.identity(1, p)}, p)
    filt = filtration_by_columns(toy)
    filt.check()
    tot = filt.carrier
    assert filt.levels == (0, 3)
    assert (tot.hi, tot.vhi) == (3, 2)
    # each coordinate sits at its column: level 0 keeps only C_n itself
    assert [filt.at(n).tolist() for n in range(4)] == [[0], [0], [0, 1], [1]]
    assert filt.at(-1).size == filt.at(5).size == 0
    assert tot.d(2).to_dense().tolist() == [[0, 1]]
    assert tot.homology_dims() == {0: 1, 1: 0, 2: 1}


def test_an_empty_level_builds_neither_b_nor_B():
    # levels 1 and 4 are empty: no column that holds them reads its b or B
    p = 3
    toy = ToyMixed([2, 0, 1, 1, 0, 1, 1], {}, {}, p)
    tot = filtration_by_columns(toy).carrier
    for n in range(1, toy.N + 1):
        tot.d(n)
    assert sorted(set(toy.read)) == sorted(
        {("b", m) for m in (2, 3, 5, 6)} | {("B", m) for m in (0, 2, 3)})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_column_filtration_equals_the_bicomplex_route(p):
    # dims, every d_n and the levels against the totalization of the N x N
    # (b, B) bicomplex and its block tables, on both chain models
    for name in corpus_names():
        a = build(name, p)
        for N in range(2, 7):
            for mixed in (NormalizedMixedComplex(a, N), CyclicLevelMaps(a, N)):
                got, want = filtration_by_columns(mixed), bB_filtration(mixed)
                key = (name, N, type(mixed).__name__)
                assert got.levels == want.levels and got.carrier.vhi == want.carrier.vhi, key
                for n in range(N + 1):
                    assert got.carrier.dim(n) == want.carrier.dim(n), (key, n)
                    assert np.array_equal(got.at(n), want.at(n)), (key, n)
                for n in range(1, N + 1):
                    assert got.carrier.d(n) == want.carrier.d(n), (key, n)


def test_hc_of_a_long_window_of_empty_levels_stays_small():
    # relative to its two idempotents every level of kronecker from 1 on is
    # empty; the totalization keeps no table per cell of the N x N window
    a = normalize_basis(build("kronecker", 3))
    tracemalloc.start()
    try:
        hc_dims(a, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_filtration_rejects_non_subcomplex():
    p = 3
    d1 = ModMatrix.identity(2, p)
    c = ChainComplexWindow(1, {0: 2, 1: 2}, {1: d1}, p)
    c.check_differentials()
    # d_1 maps the level-0 vector of degree 1 onto the level-1 vector of degree 0
    with pytest.raises(NotAComplexError, match="leaves level 0 at degree 1"):
        IncreasingFiltration(c, {0: [0, 1], 1: [1, 0]}, (0, 1)).check()
    IncreasingFiltration(c, {0: [0, 1], 1: [0, 1]}, (0, 1)).check()


def test_filtration_rejects_levels_outside_its_range_or_basis():
    p = 3
    c = ChainComplexWindow(1, {0: 2, 1: 2}, {1: ModMatrix.identity(2, p)}, p)
    with pytest.raises(ShapeError, match="outside"):
        IncreasingFiltration(c, {0: [0, 2], 1: [0, 2]}, (0, 1)).check()
    with pytest.raises(ShapeError, match="degree 1"):
        IncreasingFiltration(c, {0: [0, 1], 1: [0]}, (0, 1)).check()


# ---------------- totalization on demand ----------------

def eager_total_diffs(bicx: BicomplexWindow) -> dict[int, ModMatrix]:
    """Every total differential, built up front by the original loop."""
    top = bicx.X + bicx.Y
    blocks = {}
    tot_dims = {}
    for n in range(top + 1):
        table = []
        offset = 0
        for x in range(max(0, n - bicx.Y), min(bicx.X, n) + 1):
            y = n - x
            d = bicx.dim(x, y)
            table.append((x, y, offset, d))
            offset += d
        blocks[n] = table
        tot_dims[n] = offset
    diffs = {}
    for n in range(1, top + 1):
        target_offsets = {(x, y): off for x, y, off, _ in blocks[n - 1]}
        rows_list, cols_list, vals_list = [], [], []
        for x, y, off, d in blocks[n]:
            if d == 0:
                continue
            for mat, tgt in ((bicx.dv(x, y), (x, y - 1)), (bicx.dh(x, y), (x - 1, y))):
                if tgt not in target_offsets or mat.nnz == 0:
                    continue
                rows, cols, vals = mat.coo()
                rows_list.append(rows + target_offsets[tgt])
                cols_list.append(cols + off)
                vals_list.append(vals)
        if rows_list:
            rows = np.concatenate(rows_list)
            cols = np.concatenate(cols_list)
            vals = np.concatenate(vals_list)
        else:
            rows = cols = vals = np.zeros(0, dtype=np.int64)
        diffs[n] = ModMatrix.from_arrays(
            (tot_dims[n - 1], tot_dims[n]), bicx.modulus, rows, cols, vals)
    return diffs


# the top level of the subdivision window, by p and the largest dimension
# that takes it; larger algebras take none
SUBDIVISION_TOP = {3: [(3, 2), (5, 1)], 5: [(2, 2), (3, 1)], 7: [(1, 2), (2, 1)]}


def subdivision_window(a) -> PCyclicLevels | None:
    """The subdivision through level 2, or else 1, by the dimension of a."""
    for dim, N in SUBDIVISION_TOP[a.p]:
        if a.dim <= dim:
            return PCyclicLevels(a, N)
    return None


@pytest.mark.parametrize("p", [3, 5])
def test_on_demand_totalization_matches_eager(p):
    subdivided = 0
    for name in corpus_names():
        a = build(name, p)
        bicxs = [bB_bicomplex(NormalizedMixedComplex(a, 3))]
        pcyc = subdivision_window(a)
        if pcyc is not None:
            bicxs += [conjugate_bicomplex(pcyc, 3), two_column_bicomplex(pcyc, 3)]
            subdivided += 1
        for bicx in bicxs:
            want = eager_total_diffs(bicx)
            tot, _ = bicx.total_complex()
            assert list(tot.diffs) == sorted(want), name
            for n in want:
                assert tot.d(n) == want[n], (name, n)
    assert subdivided >= (len(corpus_names()) if p == 3 else 6)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stitched_conjugate_totals_equal_the_sorted_construction(p):
    # every L the CLI's default 2p and the small windows reach; the
    # certified window reads its homology with no product, and d^2 = 0 is
    # checked on the assembled totalization here instead
    compared = 0
    for name in corpus_names():
        pcyc = subdivision_window(build(name, p))
        if pcyc is None:
            continue
        for L in sorted({0, 1, 2, 3, 2 * p}):
            certify_conjugate_squares(pcyc, L)
            bicx = conjugate_bicomplex(pcyc, L)
            want = eager_total_diffs(bicx)
            tot, _ = bicx.total_complex()
            for n in want:
                assert tot.d(n) == want[n], (name, L, n)
            assert total_square_failures(tot) == [], (name, L)
            with mock.patch.object(ModMatrix, "__matmul__", side_effect=AssertionError):
                dims = tot.homology_dims()
            assert dims == {n: homology_dim(tot.d(n + 1), tot.d(n)) for n in dims}, (name, L)
            compared += 1
    assert compared >= 5 * (len(corpus_names()) if p == 3 else 2)


def allocated(build) -> tuple[object, int]:
    """build() and the tracemalloc peak of its allocations."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conjugate_constructions_allocate_little_per_entry():
    # b_3 of upper-tri-2 from packed face keys: 119 B per COO entry when the
    # faces were concatenated as int64 rows, columns and values, 53 B now;
    # the total d_3 with its cell operators built: 97 B per entry through a
    # sorted key, 27 B stitched from the cells with a cursor per column, 19 B
    # with one only for the columns that two blocks share
    a = build("upper-tri-2", 3)
    pcyc = PCyclicLevels(a, 3)
    b3, peak = allocated(lambda: pcyc.b(3))
    coo = list(level_counts(a, 3, p=3))[3][1]
    assert peak <= 80 * coo, peak / coo
    bicx = conjugate_bicomplex(pcyc, 6)
    tot, blocks = bicx.total_complex()
    for x, y, _, _ in blocks[3]:
        bicx.dv(x, y), bicx.dh(x, y)
    d3, peak = allocated(lambda: tot.d(3))
    assert d3.shape == (20439, 551880) and d3.nnz > b3.nnz
    assert peak <= 24 * d3.nnz, peak / d3.nnz


def recorded_totalizations(monkeypatch) -> list:
    """Patch `BicomplexWindow.total_complex` to record each call as
    (bicomplex, select, window); returns the record."""
    real = BicomplexWindow.total_complex
    calls = []

    def recording(self, select=None):
        out = real(self, select)
        calls.append((self, select, out[0]))
        return out

    monkeypatch.setattr(BicomplexWindow, "total_complex", recording)
    return calls


@pytest.mark.parametrize("p", [3, 5, 7])
def test_orbit_restricted_abutment_equals_the_full_one(p, monkeypatch):
    # conjugate_ss ranks its top total differential on the orbit
    # representatives of the cells (x, y) with x even, y >= 1 and x + 1 <= L;
    # the unrestricted totalization of the same bicomplex is the reference
    full_totalization = BicomplexWindow.total_complex
    calls = recorded_totalizations(monkeypatch)
    compared = restricted = 0
    for name in corpus_names():
        a = build(name, p)
        pcyc = subdivision_window(a)
        if pcyc is None:
            continue
        for L in sorted({0, 1, 2, 3, 2 * p}):
            abutment = conjugate_ss(a, pcyc.N, L).abutment
            bicx, select, tot = calls.pop()
            full, _ = full_totalization(bicx)
            assert abutment == full.homology_dims(), (name, L)
            top = min(L, pcyc.N)
            assert tot.hi == top and tot.vhi == full.vhi
            assert tot.d(top).shape[0] == full.d(top).shape[0], (name, L)
            restricted += tot.d(top).shape[1] < full.d(top).shape[1]
            compared += 1
    assert compared >= 5 * (len(corpus_names()) if p == 3 else 2)
    assert restricted >= compared // 2


def test_conjugate_abutment_reads_a_third_of_the_top_columns(monkeypatch):
    # conjugate upper-tri-2 -N 3: unrestricted, the top d_3 is 20,439 x
    # 551,880 with 223,084 entries, and the abutment read peaks at 17.2 MiB
    # under tracemalloc; on the representatives, 8.0 MiB
    calls = recorded_totalizations(monkeypatch)
    peaks = []
    read = ChainComplexWindow.homology_dims

    def measured(self):
        dims, peak = allocated(lambda: read(self))
        peaks.append(peak)
        return dims

    monkeypatch.setattr(ChainComplexWindow, "homology_dims", measured)
    conjugate_ss(build("upper-tri-2", 3), 3)
    (_, _, tot), = calls
    assert tot.d(3).shape == (20439, 197160) and tot.d(3).nnz == 103948
    assert peaks[-1] <= 12 << 20, peaks[-1]


def cleared_complexes(a) -> list[tuple[str, ChainComplexWindow]]:
    """The complexes whose homology the CLI reads degree by degree: b and
    the bB totalization of the normalized mixed complex and, when a
    subdivision fits, the conjugate totalization and the coinvariant and
    fixed complexes."""
    nc = NormalizedMixedComplex(a, 5)
    out = [("hh", b_complex(nc)), ("hc", filtration_by_columns(nc).carrier)]
    pcyc = subdivision_window(a)
    if pcyc is not None:
        out += [("conjugate", conjugate_bicomplex(pcyc, 3).total_complex()[0]),
                ("coinvariant", _coinvariant_complex(pcyc)),
                ("fixed", _fixed_reduced_complex(pcyc))]
    return out


@pytest.mark.parametrize("sparse_only", [False, True])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_cleared_ranks_equal_uncleared_ranks(p, sparse_only, monkeypatch):
    from nchodge import modring

    real = modring.rank_fp
    cleared = Counter()

    def counting(mat, clear=None):
        if clear is not None and clear.size:
            cleared[kind] += 1
        return real(mat, clear)

    monkeypatch.setattr(modring, "rank_fp", counting)
    if not sparse_only:
        # every rank restarts densely, and its lows clear the next
        monkeypatch.setattr(modring, "_column_reduce", forced_restart)
    for name in corpus_names():
        for kind, c in cleared_complexes(build(name, p)):
            c.homology_dims()  # increasing degrees: each rank clears the next
            for n in range(c.vhi + 2):
                d = c.d(n)
                assert d.rank() == real(d), (name, kind, n)
    assert {"hh", "hc"} <= set(cleared)
    if p < 7:
        assert "conjugate" in cleared
    if p == 3 and sparse_only:
        assert set(cleared) == {"hh", "hc", "conjugate", "coinvariant", "fixed"}


@pytest.mark.parametrize("p", [3, 5])
def test_conjugate_square_certificate_agrees_with_check_squares(p):
    checked = 0
    for name in corpus_names():
        pcyc = subdivision_window(build(name, p))
        if pcyc is None:
            continue
        certify_conjugate_squares(pcyc, 3)  # b squared and sigma-equivariance
        conjugate_bicomplex(pcyc, 3).check_squares()
        checked += 1
    assert checked >= (len(corpus_names()) if p == 3 else 6)


def both_certificates_raise(pcyc: PCyclicLevels, level: int) -> None:
    with pytest.raises(NotAComplexError, match=f"level {level}"):
        certify_conjugate_squares(pcyc, 3)
    with pytest.raises(NotAComplexError):
        conjugate_bicomplex(pcyc, 3).check_squares()


@pytest.mark.parametrize("name", ["dual-numbers", "upper-tri-2", "group-z3"])
def test_conjugate_square_certificate_catches_a_wrong_boundary(name):
    a = build(name, 3)
    N = 2
    # the top boundary with two columns swapped, a fixed word and a moved one:
    # b squared still vanishes, so only the equivariance check can object
    pcyc = PCyclicLevels(a, N)
    b, act = pcyc.b(N), pcyc.action(N)
    fixed = np.flatnonzero(act.orbit_data()[2])
    moved = next(v for v in np.flatnonzero(~act.orbit_data()[2])
                 if b.restrict(cols=[v]) != b.restrict(cols=[act.perm[v]]))
    perm = np.arange(pcyc.dim(N))
    perm[[fixed[0], moved]] = perm[[moved, fixed[0]]]
    pcyc._b[N] = b @ ModMatrix.from_index_map(perm, pcyc.dim(N), 3)
    assert (pcyc.b(N - 1) @ pcyc.b(N)).is_zero()
    both_certificates_raise(pcyc, N)
    # an inner boundary with the columns of one sigma-orbit doubled: it still
    # commutes with sigma, so only b squared can object. (Doubling the whole
    # boundary gives an isomorphic complex, which no certificate may reject.)
    pcyc = PCyclicLevels(a, N)
    b, above, act = pcyc.b(1), pcyc.b(2), pcyc.action(1)
    orbits = (np.flatnonzero(act.orbit_data()[1] == k) for k in range(act.n_orbits()))
    hit = next(o for o in orbits if not (b.restrict(cols=o) @ above.restrict(rows=o)).is_zero())
    scale = np.ones(pcyc.dim(1), dtype=np.int64)
    scale[hit] = 2
    pcyc._b[1] = b @ ModMatrix.from_index_map(np.arange(pcyc.dim(1)), pcyc.dim(1), 3, vals=scale)
    assert pcyc.action(0).intertwines(pcyc.b(1), pcyc.action(1))
    both_certificates_raise(pcyc, 2)


@pytest.mark.parametrize("L", [0, 1, 3])
def test_conjugate_ss_certifies_the_premises_before_a_restricted_rank(L, monkeypatch):
    # b_2 of dual-numbers with one entry added in the column of a word w
    # that is no orbit representative: b_1 b_2 fails in that column only,
    # and b_2 no longer commutes with sigma. With L >= 1 the equivariance
    # check objects first, so the square check may read the representative
    # columns alone, and no totalization starts; with L = 0 the full product
    # objects, and no cell would have been restricted
    a, N = build("dual-numbers", 3), 2
    pcyc = PCyclicLevels(a, N)
    b, act = pcyc.b(N), pcyc.action(N)
    reps, _, fixed = act.orbit_data()
    w = np.setdiff1d(np.flatnonzero(~fixed), reps)[0]
    low = pcyc.b(N - 1)
    i = np.flatnonzero(np.diff(low.csc().indptr))[0]
    planted = b + ModMatrix.from_arrays(b.shape, 3, [i], [w], [1])
    assert not (low @ planted).is_zero()
    assert (low @ planted.restrict(cols=reps)).is_zero()
    real = PCyclicLevels.b
    monkeypatch.setattr(PCyclicLevels, "b", lambda self, n: planted if n == N else real(self, n))
    calls = recorded_totalizations(monkeypatch)
    with pytest.raises(NotAComplexError, match="commute" if L else "b_1 b_2 is not zero"):
        conjugate_ss(a, N, L)
    assert calls == []
    if L == 0:
        monkeypatch.setattr(PCyclicLevels, "b", real)
        conjugate_ss(a, N, L)
        (_, select, tot), = calls
        assert select == {} and tot.hi == 0 and tot.homology_dims() == {}


def test_square_check_covers_the_last_column():
    # columns share their operator objects, so the check computes each
    # distinct square once; a distinct wrong matrix in the last column is
    # a new square and must still be caught
    pcyc = PCyclicLevels(build("dual-numbers", 3), 2)
    L = 4
    certify_conjugate_squares(pcyc, L)
    good = conjugate_bicomplex(pcyc, L)

    def rebuilt(d_v, d_h):
        BicomplexWindow(L, pcyc.N, good.dims, d_v, d_h, 3).check_squares()

    rebuilt(good.d_v, {k: m + ModMatrix.zeros(*m.shape, 3) for k, m in good.d_h.items()})
    for y in range(pcyc.N + 1):
        d_h = dict(good.d_h)
        d_h[(L, y)] = good.d_h[(L, y)] + ModMatrix.identity(pcyc.dim(y), 3)
        with pytest.raises(NotAComplexError):
            rebuilt(good.d_v, d_h)
    d_v = dict(good.d_v)
    d_v[(L, 1)] = good.d_v[(L, 1)].scale(2)
    with pytest.raises(NotAComplexError):
        rebuilt(d_v, good.d_h)


def test_lazy_diffs_build_once_and_never_read_a_failure_as_zero():
    built = []

    def make(n):
        built.append(n)
        if n == 2:
            raise KeyError("lost block")
        return ModMatrix.identity(1, 3)

    diffs = LazyDiffs([1, 2], make)
    assert list(diffs) == [1, 2] and len(diffs) == 2
    assert 1 in diffs and 3 not in diffs
    assert built == []
    c = ChainComplexWindow(2, {0: 1, 1: 1, 2: 1}, diffs, 3)
    assert c.diffs is diffs
    assert c.d(1) is c.d(1) and built == [1]
    assert c.d(3).shape == (1, 0) and built == [1]
    with pytest.raises(KeyError):
        c.d(2)
    with pytest.raises(KeyError):
        diffs[3]
    assert built == [1, 2]


def test_a_failing_cell_build_propagates_from_the_totalization():
    # a KeyError raised while a cell operator is built is a failure, not a
    # missing cell to be read as a zero block
    p = 3
    one = ModMatrix.identity(1, p)
    dims = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

    def lost(cell):
        raise KeyError(f"lost block {cell}")

    bicx = BicomplexWindow(1, 1, dims, {(0, 1): one, (1, 1): -one},
                           LazyDiffs([(1, 0), (1, 1)], lost), p)
    tot, _ = bicx.total_complex()
    with pytest.raises(KeyError, match="lost block"):
        tot.d(1)


def test_conjugate_totalization_builds_no_unread_norm():
    # with N = 2 and L = 6 the trusted window is [0, 1]: level 2 enters the
    # read degrees only through its boundary, never through 1 - sigma or N
    pcyc = PCyclicLevels(build("dual-numbers", 3), 2)
    tot, _ = conjugate_bicomplex(pcyc, 6).total_complex()
    assert tot.vhi == 1
    tot.homology_dims()
    act = pcyc.action(2)
    assert act._norm is None and act._one_minus is None


def test_hc_builds_only_the_B_its_degrees_read():
    # HC_0..HC_4 read total degrees up to 5, whose cells reach B_3 at most
    a = build("dual-numbers", 3)
    nc = NormalizedMixedComplex(a, 6)
    hc_dims(a, 6, tot=filtration_by_columns(nc).carrier)
    assert max(nc._B) == 3
