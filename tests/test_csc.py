"""The CSC arrays of ModMatrix against scipy.sparse as the reference.

Every operation must give the canonical arrays that scipy gives for the
same matrix after summing duplicates, reducing mod m, dropping zeros and
sorting the rows of each column. Shapes include 2**16 rows or columns, so
that a key times the modulus passes 2**63 and the construction sorts the
keys alone. The moduli include the primes at the edges of the value
dtypes: 251 and 257 on either side of uint8, 65521 and 65537 of uint16,
and the largest prime within split_modulus's bound, which fills 32 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sp

from nchodge import modring
from nchodge.errors import ShapeError
from nchodge.modring import CSC, ModMatrix, hstack, kron_power, rank_fp

from .oracles import ref_rank

MODULI = (3, 5, 7, 251, 257, 65521, 65537, 2 ** 31 - 1, 3037000493)
DIMS = (0, 1, 2, 3, 5, 1 << 16)


def canonical(ref, m: int) -> sp.csc_matrix:
    """scipy's canonical CSC of ref mod m."""
    out = sp.csc_matrix(ref, dtype=np.int64, copy=True)
    out.sum_duplicates()
    out.data %= m
    out.eliminate_zeros()
    out.sort_indices()
    return out


def assert_matches(ours: ModMatrix, ref, m: int) -> None:
    ref = canonical(ref, m)
    assert ours.shape == ref.shape and ours.modulus == m
    csc = ours.csc()
    for got, want in zip(csc, (ref.indptr, ref.indices, ref.data)):
        assert got.tolist() == want.tolist()
    # values in the narrowest unsigned dtype that holds m - 1
    assert csc.data.dtype == next(t for t in (np.uint8, np.uint16, np.uint32)
                                  if m - 1 <= np.iinfo(t).max)
    # every shape here fits int32 indices, as the canonical form keeps them
    assert csc.indptr.dtype == csc.indices.dtype == np.int32


def ref_product(left: sp.csc_matrix, right: sp.csc_matrix, m: int) -> sp.csc_matrix:
    """left @ right mod m in int64 scipy arithmetic: the residues of the left
    factor are cut into two 16-bit limbs, so every limb product is below
    2**48 and a sum of fewer than 2**14 of them fits in int64."""
    lo, hi = left.copy(), left.copy()
    lo.data, hi.data = left.data & 0xFFFF, left.data >> 16
    low, high = canonical(lo @ right, m), canonical(hi @ right, m)
    return low + canonical(high * (1 << 16), m)


@st.composite
def coordinates(draw, m: int, shape: tuple[int, int]):
    """Unsorted COO arrays with repeated positions and values in [-2m, 2m]."""
    n_rows, n_cols = shape
    if not (n_rows and n_cols):
        return (np.zeros(0, dtype=np.int64),) * 3
    # positions drawn from a few rows and columns, so that they repeat
    row_pool = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=4))
    col_pool = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=4))
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.sampled_from(row_pool), min_size=n, max_size=n))
    cols = draw(st.lists(st.sampled_from(col_pool), min_size=n, max_size=n))
    vals = draw(st.lists(st.one_of(st.integers(-2 * m, 2 * m), st.sampled_from([0, m, -m])),
                         min_size=n, max_size=n))
    return tuple(np.array(x, dtype=np.int64) for x in (rows, cols, vals))


@st.composite
def matrix(draw, m: int | None = None, shape: tuple[int, int] | None = None):
    """(ours, scipy reference, m)."""
    if m is None:
        m = draw(st.sampled_from(MODULI))
    if shape is None:
        shape = (draw(st.sampled_from(DIMS)), draw(st.sampled_from(DIMS)))
    rows, cols, vals = draw(coordinates(m, shape))
    ref = sp.coo_matrix((vals, (rows, cols)), shape=shape)
    return ModMatrix.from_arrays(shape, m, rows, cols, vals), ref, m


@st.composite
def operands(draw):
    """(a, b, c) over one modulus: a @ b is defined, c has the shape of a."""
    m = draw(st.sampled_from(MODULI))
    r, k, c = (draw(st.sampled_from(DIMS)) for _ in range(3))
    return draw(matrix(m, (r, k))), draw(matrix(m, (k, c))), draw(matrix(m, (r, k)))


@given(matrix(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_construction_sums_reduces_and_sorts_as_scipy(mrm, rnd):
    ours, ref, m = mrm
    assert_matches(ours, ref, m)
    # the constructor reads CSC arrays with the rows of a column in any
    # order, repeated, or with values outside [1, m) as the same matrix
    order = list(range(ref.nnz))
    rnd.shuffle(order)
    order = np.array(sorted(order, key=lambda t: ref.col[t]), dtype=np.int64)
    indptr = np.zeros(ours.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(ref.col, minlength=ours.shape[1]), out=indptr[1:])
    messy = ModMatrix(ours.shape, m, CSC(indptr, ref.row[order], ref.data[order]))
    assert messy == ours
    assert_matches(messy, ref, m)
    if ours.shape[0] * ours.shape[1] <= 64:
        assert ours.to_dense().tolist() == canonical(ref, m).toarray().tolist()
        assert ModMatrix.from_dense(ours.to_dense(), m) == ours


@given(operands(), st.integers(-10, 10))
@settings(max_examples=200, deadline=None)
def test_products_sums_scales_and_transposes_match_scipy(ops, k):
    (a, ra, m), (b, rb, _), (c, rc, _) = ops
    ra, rb, rc = (canonical(ref, m) for ref in (ra, rb, rc))
    assert_matches(a @ b, ref_product(ra, rb, m), m)
    with pytest.MonkeyPatch.context() as mp:  # a block of columns per product or two
        mp.setattr(modring, "MATMUL_BLOCK", 2)
        assert_matches(a @ b, ref_product(ra, rb, m), m)
    assert_matches(a.T, ra.T, m)
    assert_matches(a.scale(k), ra * k, m)
    assert_matches(-a, -ra, m)
    assert_matches(a + c, ra + rc, m)
    assert_matches(a - c, ra - rc, m)
    assert (a - a).is_zero() and a + a.scale(-1) == ModMatrix.zeros(*a.shape, m)


@st.composite
def selection(draw, n: int):
    """An index array (distinct or not, in any order) or a boolean mask into n items."""
    if n > 64:  # a few indices of a long axis
        return np.array(draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True)),
                        dtype=np.int64)
    how = draw(st.sampled_from(["permuted", "repeated", "mask"]))
    if how == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    unique = how == "permuted"
    if unique:
        picked = draw(st.permutations(range(n)))
        picked = picked[:draw(st.integers(0, n))]
    else:
        picked = draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
    return np.array(picked, dtype=np.int64)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_restrict_matches_scipy_indexing(data):
    ours, ref, m = data.draw(matrix())
    rows = data.draw(selection(ours.shape[0]))
    cols = data.draw(selection(ours.shape[1]))
    ref = canonical(ref, m)
    assert_matches(ours.restrict(cols=cols), ref[:, cols], m)
    assert_matches(ours.restrict(rows=rows), ref[rows, :], m)
    assert_matches(ours.restrict(rows, cols), ref[:, cols][rows, :], m)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_hstack_and_equality_match_scipy(data):
    m = data.draw(st.sampled_from(MODULI))
    n_rows = data.draw(st.sampled_from(DIMS))
    parts = [data.draw(matrix(m, (n_rows, data.draw(st.sampled_from(DIMS[:-1])))))
             for _ in range(data.draw(st.integers(1, 3)))]
    stacked = hstack([ours for ours, _, _ in parts])
    assert_matches(stacked, sp.hstack([canonical(ref, m) for _, ref, _ in parts]), m)
    first, ref, _ = parts[0]
    # == compares the canonical arrays: equal iff scipy sees no difference
    for other, ref_other, _ in parts:
        if other.shape == first.shape:
            same = canonical(canonical(ref, m) - canonical(ref_other, m), m).nnz == 0
            assert (first == other) is same
    assert first != ModMatrix.zeros(first.shape[0], first.shape[1] + 1, m)


def test_a_position_past_the_shape_is_refused():
    with pytest.raises(ShapeError):
        ModMatrix.from_arrays((2, 2), 3, np.array([2]), np.array([0]), np.array([1]))
    with pytest.raises(ShapeError):
        ModMatrix((2, 2), 3, CSC(np.array([0, 1, 1]), np.array([5]), np.array([1])))
    with pytest.raises(ShapeError):
        ModMatrix((2, 2), 3, CSC(np.array([0, 1]), np.array([0]), np.array([1])))
    with pytest.raises(ShapeError):
        ModMatrix.identity(3, 5).restrict(cols=np.array([3]))


def test_construction_past_the_packed_key_bound_matches_scipy():
    # rows * cols * m >= 2**63: the keys are sorted without their values
    rng = np.random.default_rng(11)
    for m, shape in ((3037000493, (1 << 16, 1 << 16)), (3037000493, (1 << 20, 1 << 12)),
                     (2 ** 31 - 1, (1 << 17, 1 << 16))):
        assert shape[0] * shape[1] * m >= 1 << 63
        rows = rng.choice(rng.integers(0, shape[0], 40), 300)
        cols = rng.choice(rng.integers(0, shape[1], 20), 300)
        vals = rng.integers(-m, m, 300)
        ours = ModMatrix.from_arrays(shape, m, rows, cols, vals)
        assert_matches(ours, sp.coo_matrix((vals, (rows, cols)), shape=shape), m)
        assert_matches(ours.T, canonical(sp.coo_matrix((vals, (rows, cols)), shape=shape), m).T, m)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kron_and_rank_match_scipy_and_the_oracle(data):
    ours, ref, m = data.draw(matrix(shape=(data.draw(st.sampled_from(DIMS[:-1])),
                                           data.draw(st.sampled_from(DIMS[:-1])))))
    ref = canonical(ref, m)
    assert_matches(kron_power(ours, 2), sp.kron(ref, ref, format="csc"), m)
    assert rank_fp(ours) == ref_rank(ref.toarray().tolist(), m)


def test_residues_beside_the_keys_give_the_same_matrices(monkeypatch):
    # past 63 bits of position and residue the keys hold positions alone and
    # an argsort orders them; every construction must give the same arrays
    from nchodge import cartier
    from nchodge.corpus import build

    rng = np.random.default_rng(4)
    m = 5
    a = ModMatrix.from_arrays((300, 200), m, *rng.integers(0, 200, (2, 2000)) % [[300], [200]],
                              rng.integers(0, m, 2000))
    c = ModMatrix.from_arrays((200, 150), m, *rng.integers(0, 150, (2, 1500)),
                              rng.integers(0, m, 1500))
    pcyc = cartier.PCyclicLevels(build("upper-tri-2", 3), 2)
    packed = [a @ c, a.T, a.restrict(rows=[5, 3, 3, 250]), pcyc.b(2), pcyc.face(2, 2)]
    # both reductions run in rounds: their pivots and sources must agree
    reduced = [modring._column_reduce(x.csc(), m, x.shape, False) for x in (a, a @ c)]

    def apart(shape, m):
        return modring._row_bits(shape), 0

    monkeypatch.setattr(modring, "_key_bits", apart)
    pcyc = cartier.PCyclicLevels(build("upper-tri-2", 3), 2)
    assert [a @ c, a.T, a.restrict(rows=[5, 3, 3, 250]), pcyc.b(2), pcyc.face(2, 2)] == packed
    assert [modring._column_reduce(x.csc(), m, x.shape, False) for x in (a, a @ c)] == reduced
