"""Linear algebra engine against an independent naive oracle."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nchodge.errors import ModulusError, NotAComplexError, ResourceError, ShapeError
from nchodge.modring import (
    CSC,
    TO_DENSE_LIMIT,
    ModMatrix,
    homology_dim,
    hstack,
    is_prime,
    kernel_basis_fp,
    kron_power,
    matmul_mod,
    rank_fp,
    solve_fp,
    split_modulus,
)

from .oracles import ref_rank
from .sweeps import forced_restart, reference_column_reduce


# the largest prime with (p - 1)^2 < 2^63, the bound of split_modulus: its
# residues fill 32 bits, so a lead times a residue fills a uint64
TOP_PRIME = 3037000493


def dense(mat):
    return mat.to_dense().tolist()


def test_split_modulus():
    assert split_modulus(3) == (3, 1)
    assert split_modulus(49) == (7, 2)
    with pytest.raises(ModulusError):
        split_modulus(12)
    with pytest.raises(ModulusError):
        split_modulus(8)
    # the largest prime and the largest prime square within the bound
    assert split_modulus(TOP_PRIME) == (TOP_PRIME, 1)
    assert split_modulus(55103 ** 2) == (55103, 2)
    # the smallest prime past the bound, a prime square past it, a square
    # past 2^32 (it used to hang in trial division) and 2^32
    for past in (3037000507, 65521 ** 2, 3037000453 ** 2, 1 << 32):
        with pytest.raises(ModulusError, match=r"\(m - 1\)\^2 < 2\^63"):
            split_modulus(past)


def test_every_constructor_refuses_a_modulus_that_is_not_a_supported_prime():
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    # a prime square, and a prime square and a prime past the bound
    for m in (9, 65521 ** 2, 4294967291):
        for build in (lambda: ModMatrix((1, 1), m, CSC(np.array([0, 1]), zero, one)),
                      lambda: ModMatrix.zeros(1, 1, m),
                      lambda: ModMatrix.identity(1, m),
                      lambda: ModMatrix.from_arrays((1, 1), m, zero, zero, one),
                      lambda: ModMatrix.from_dense([[1]], m),
                      lambda: ModMatrix.from_index_map(zero, 1, m)):
            with pytest.raises(ModulusError):
                build()


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(561) and not is_prime(3215031751)
    assert is_prime(2 ** 31 - 1) and is_prime(4294967291) and is_prime(2 ** 61 - 1)


def test_matmul_is_exact_past_the_int64_product_bound():
    m = TOP_PRIME  # a sum of two products of residues passes 2^63
    row = ModMatrix.from_dense([[m - 1, m - 1]], m)
    col = ModMatrix.from_dense([[m - 1], [m - 1]], m)
    assert 2 * (m - 1) ** 2 >= 1 << 63
    assert dense(row @ col) == [[2]]
    assert dense(row.scale(-1)) == [[1, 1]]
    assert matmul_mod(row.to_dense(), col.to_dense(), m).tolist() == [[2]]
    rng = np.random.default_rng(3)
    # the dense product also serves the algebras' prime squares
    for mod in (2 ** 31 - 1, m, 55103 ** 2):
        a = rng.integers(0, mod, (7, 9))
        b = rng.integers(0, mod, (9, 5))
        want = [[sum(int(x) * int(y) for x, y in zip(r, c)) % mod for c in b.T] for r in a]
        if split_modulus(mod)[1] == 1:
            assert dense(ModMatrix.from_dense(a, mod) @ ModMatrix.from_dense(b, mod)) == want
        assert matmul_mod(a, b, mod).tolist() == want


def test_matmul_of_a_zero_one_factor_at_a_wide_prime():
    # k (m - 1)^2 passes 2^63 but k max(left) max(right) does not: one
    # integer matmul, as for the 0/1 structure constants of an algebra
    m = 2 ** 31 - 1
    rng = np.random.default_rng(5)
    a = rng.integers(0, m, (6, 9))
    b = rng.integers(0, 2, (9, 4))
    assert 9 * (m - 1) ** 2 >= 1 << 63
    want = [[sum(int(x) * int(y) for x, y in zip(r, c)) % m for c in b.T] for r in a]
    assert matmul_mod(a, b, m).tolist() == want
    assert matmul_mod(b.T.copy(), a.T.copy(), m).tolist() == np.array(want).T.tolist()
    assert matmul_mod(a[:, :0], b[:0], m).tolist() == [[0] * 4] * 6


def test_a_product_frees_each_block_of_products():
    # 16 products at each of the 2^16 positions, in 32 blocks of
    # MATMUL_BLOCK products, every sum 16 = 1 mod 5: a block's summed keys
    # must be a compact copy, or each block's whole expansion (8 B a
    # product, 8 MiB in all) stays alive until the blocks are joined
    k, n = 16, 256
    ones = ModMatrix.from_dense(np.ones((n, k), dtype=np.int64), 5)
    tracemalloc.start()
    try:
        prod = ones @ ones.T
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prod == ModMatrix.from_dense(np.ones((n, n), dtype=np.int64), 5)
    assert peak <= 4 << 20, peak


def test_kron_power_matches_repeated_numpy_kron():
    rng = np.random.default_rng(8)
    for mod, k in ((3, 3), (5, 2), (7, 4), (2 ** 31 - 1, 3), (TOP_PRIME, 2), (TOP_PRIME, 3)):
        a = rng.integers(0, mod, (2, 3)) * (rng.random((2, 3)) < 0.7)
        a[0, 0] = mod - 1
        want = np.array(a, dtype=object)
        for _ in range(k - 1):
            want = np.kron(np.array(a, dtype=object), want) % mod
        got = kron_power(ModMatrix.from_dense(a, mod), k)
        assert got.shape == (2 ** k, 3 ** k)
        assert dense(got) == want.tolist(), mod
    assert kron_power(ModMatrix.identity(2, 3), 1) == ModMatrix.identity(2, 3)


def test_from_arrays_sums_repeated_coordinates():
    for mod in (5, TOP_PRIME):
        got = ModMatrix.from_arrays((2, 2), mod, np.array([0, 1, 0, 0]), np.array([1, 0, 1, 1]),
                                    np.array([mod - 1, 3, mod - 1, 2]))
        assert dense(got) == [[0, (2 * (mod - 1) + 2) % mod], [3, 0]]


def test_index_map_matches_coordinate_construction():
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 6, 9)
    vals = rng.integers(-7, 7, 9)
    assert np.any(vals % 5 == 0)
    kept = rows.copy(), vals.copy()
    for v in (None, vals):
        got = ModMatrix.from_index_map(rows, 6, 5, vals=v)
        # reduction drops the zero entries in place; the inputs stay intact
        assert np.array_equal(rows, kept[0]) and np.array_equal(vals, kept[1])
        want = ModMatrix.from_arrays((6, 9), 5, rows, np.arange(9),
                                     np.ones(9, dtype=np.int64) if v is None else v)
        assert got == want and got.nnz == want.nnz
    assert ModMatrix.from_index_map(np.zeros(0, dtype=np.int64), 3, 5).shape == (3, 0)
    for bad in ([0, 3], [-1, 0]):
        with pytest.raises(ShapeError):
            ModMatrix.from_index_map(np.array(bad), 3, 5)


def test_rank_is_computed_once_per_matrix(monkeypatch):
    from nchodge import modring

    calls = []
    real = modring.rank_fp
    monkeypatch.setattr(modring, "rank_fp",
                        lambda mat, *args: calls.append(mat) or real(mat, *args))
    d_in = ModMatrix.from_dense([[1], [0]], 5)
    d_out = ModMatrix.from_dense([[0, 1]], 5)
    assert homology_dim(d_in, d_out) == homology_dim(d_in, d_out) == 0
    assert len(calls) == 2


def test_rank_small_frozen():
    p = 5
    ident = ModMatrix.identity(4, p)
    assert rank_fp(ident) == 4
    # second row proportional to the first
    m = ModMatrix.from_dense([[1, 2], [2, 4]], p)
    assert rank_fp(m) == 1
    # invertible 2x2 mod 7
    m = ModMatrix.from_dense([[1, 2], [3, 4]], 7)
    assert rank_fp(m) == 2
    assert rank_fp(ModMatrix.zeros(3, 5, p)) == 0
    assert rank_fp(ModMatrix.zeros(0, 5, p)) == 0


def test_rank_mod_p_differs_from_rational_rank():
    # determinant 10, so invertible over Q but singular mod 5 and mod 2
    m5 = ModMatrix.from_dense([[1, 2], [3, 16]], 5)
    assert rank_fp(m5) == 1
    m7 = ModMatrix.from_dense([[1, 2], [3, 16]], 7)
    assert rank_fp(m7) == 2


def test_kernel_basis_verifies():
    p = 3
    m = ModMatrix.from_dense([[1, 1, 1], [0, 1, 2]], p)
    ker = kernel_basis_fp(m)
    assert ker.shape == (3, 1)
    assert (m @ ker).is_zero()
    # kernel columns plus rank span everything
    assert rank_fp(ker) + rank_fp(m) == 3


def test_solve_consistent_and_inconsistent():
    p = 7
    a = ModMatrix.from_dense([[1, 2], [3, 4]], p)
    b = ModMatrix.from_dense([[5], [6]], p)
    x = solve_fp(a, b)
    assert x is not None and a @ x == b
    singular = ModMatrix.from_dense([[1, 2], [2, 4]], p)
    target = ModMatrix.from_dense([[1], [0]], p)
    assert solve_fp(singular, target) is None


def test_kernel_and_solve_refuse_past_the_dense_limit():
    n = 1 << 12  # n x (n + 1) entries pass the limit; one entry keeps it sparse
    assert n * n <= TO_DENSE_LIMIT < n * (n + 1)
    wide = ModMatrix.from_arrays((n, n + 1), 3, np.array([0]), np.array([0]), np.array([1]))
    square = wide.restrict(cols=np.arange(n))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            kernel_basis_fp(wide)
        with pytest.raises(ResourceError):
            solve_fp(square, ModMatrix.zeros(n, 1, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 16  # a dense copy takes 8 bytes an entry


def test_homology_dim_basics():
    p = 5
    # 0 -> F^2 --0--> F^2 -> 0 style: both maps zero, homology is everything
    z = ModMatrix.zeros(2, 2, p)
    assert homology_dim(z, z) == 2
    # exact pair: d_out projection, d_in inclusion of its kernel
    d_out = ModMatrix.from_dense([[1, 0]], p)
    d_in = ModMatrix.from_dense([[0], [1]], p)
    assert homology_dim(d_in, d_out) == 0
    with pytest.raises(NotAComplexError):
        homology_dim(ModMatrix.identity(2, p), ModMatrix.identity(2, p))
    with pytest.raises(ShapeError):
        homology_dim(ModMatrix.zeros(3, 2, p), ModMatrix.zeros(2, 2, p))


def test_homology_dim_two_periodic_dual_numbers():
    # F_5[x]/x^2 has a two-periodic free resolution; in the middle degrees
    # the maps alternate between 0 and multiplication by 2x.
    p = 5
    u = ModMatrix.zeros(2, 2, p)                      # a -> x*a - a*x
    v = ModMatrix.from_dense([[0, 0], [2, 0]], p)     # a -> x*a + a*x
    assert homology_dim(u, v) == 1
    assert homology_dim(v, u) == 1


def test_requires_prime_modulus_for_rank():
    # a matrix mod 9 is refused where it would be built, before any rank
    with pytest.raises(ModulusError):
        rank_fp(ModMatrix.from_dense([[3]], 9))


def test_stack_and_block():
    p = 3
    a = ModMatrix.identity(2, p)
    b = ModMatrix.zeros(2, 1, p)
    h = hstack([a, b])
    assert h.shape == (2, 3)


def test_transpose_and_matmul_reduce():
    p = 3
    m = ModMatrix.from_dense([[2, 2], [2, 2]], p)
    sq = m @ m
    assert dense(sq) == [[2, 2], [2, 2]]  # 8 mod 3
    assert dense(m.T) == dense(m)


small_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def random_matrix(draw, p=None):
    if p is None:
        p = draw(small_primes)
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    data = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=p - 1),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return p, data


@given(random_matrix())
@settings(max_examples=150, deadline=None)
def test_rank_matches_oracle(pm):
    p, data = pm
    m = ModMatrix.from_dense(data, p)
    assert rank_fp(m) == ref_rank(data, p)


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_rank_equals_transpose_rank(pm):
    p, data = pm
    m = ModMatrix.from_dense(data, p)
    assert rank_fp(m) == rank_fp(m.T)


@given(random_matrix())
@settings(max_examples=100, deadline=None)
def test_kernel_product_vanishes_and_dims_add(pm):
    p, data = pm
    m = ModMatrix.from_dense(data, p)
    ker = kernel_basis_fp(m)
    assert (m @ ker).is_zero()
    assert ker.shape[1] == m.shape[1] - rank_fp(m)
    if ker.shape[1]:
        assert rank_fp(ker) == ker.shape[1]


@given(random_matrix(), st.randoms(use_true_random=False))
@settings(max_examples=75, deadline=None)
def test_rank_invariant_under_permutation(pm, rng):
    p, data = pm
    m = ModMatrix.from_dense(data, p)
    rows = list(range(len(data)))
    rng.shuffle(rows)
    shuffled = [data[i] for i in rows]
    assert rank_fp(ModMatrix.from_dense(shuffled, p)) == rank_fp(m)


def test_sparse_path_agrees_with_dense_on_structured_input():
    # big enough to leave the always-dense regime, checked both orientations
    rng = np.random.default_rng(7)
    p = 3
    rows, cols = 90, 140
    k = 260
    data = np.zeros((rows, cols), dtype=np.int64)
    data[rng.integers(0, rows, k), rng.integers(0, cols, k)] = rng.integers(1, p, k)
    m = ModMatrix.from_dense(data, p)
    assert rank_fp(m) == ref_rank(data.tolist(), p)
    assert rank_fp(m.T) == rank_fp(m)


# ---------------- clearing ----------------

def unit_triangular_pair(rng, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """A random invertible n x n matrix mod p, P = L U with L and U unit
    triangular, and its inverse U^-1 L^-1 by substitution."""
    low = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    up = np.triu(rng.integers(0, p, (n, n)), 1) + np.eye(n, dtype=np.int64)

    def unit_lower_inverse(t):
        inv = np.eye(n, dtype=np.int64)
        for i in range(n):
            for j in range(i):
                inv[i] = (inv[i] - t[i, j] * inv[j]) % p
        return inv

    return low @ up % p, unit_lower_inverse(up.T).T @ unit_lower_inverse(low) % p


@st.composite
def elementary_complex(draw):
    """(p, ranks, betti, seed): C_n splits as boundaries B_n (rank of d_{n+1}),
    homology H_n and a complement X_n that d_n sends onto B_{n-1} by the
    identity; the Betti numbers are the sizes of the H_n."""
    p = draw(small_primes)
    top = draw(st.integers(min_value=1, max_value=5))
    ranks = [0] + [draw(st.integers(min_value=0, max_value=9)) for _ in range(top)] + [0]
    betti = [draw(st.integers(min_value=0, max_value=4)) for _ in range(top + 1)]
    return p, ranks, betti, draw(st.integers(min_value=0, max_value=2**32 - 1))


@given(elementary_complex(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_cleared_homology_of_a_conjugated_elementary_complex(cx, sparse_only):
    from nchodge import modring

    p, ranks, betti, seed = cx
    top = len(betti) - 1
    rng = np.random.default_rng(seed)
    dims = [ranks[n + 1] + betti[n] + ranks[n] for n in range(top + 1)]
    basis = [unit_triangular_pair(rng, dims[n], p) for n in range(top + 1)]
    diffs = {}
    for n in range(1, top + 1):
        # X_n sits last in C_n, B_{n-1} first in C_(n-1)
        d = np.zeros((dims[n - 1], dims[n]), dtype=np.int64)
        d[np.arange(ranks[n]), dims[n] - ranks[n] + np.arange(ranks[n])] = 1
        diffs[n] = ModMatrix.from_dense(basis[n - 1][0] @ d % p @ basis[n][1], p)
    with pytest.MonkeyPatch.context() as mp:
        if not sparse_only:
            # every rank restarts densely, and its lows clear the next
            mp.setattr(modring, "_column_reduce", forced_restart)
        got = [homology_dim(diffs[n + 1], diffs[n]) if n else
               homology_dim(diffs[1], ModMatrix.zeros(0, dims[0], p)) for n in range(top)]
    assert got == betti[:top]
    assert [diffs[n].rank() for n in diffs] == ranks[1:top + 1]


def test_clearing_leaves_out_the_pivot_rows_of_the_outgoing_differential(monkeypatch):
    from nchodge import modring

    # d_out: F^6 -> F^2 is wide, so it is reduced transposed and its pivot
    # rows (columns 5 and 3 of d_out, the largest row of each reduced
    # column of d_out^T) clear rows 5 and 3 of d_in
    p = 5
    d_out = ModMatrix.from_dense([[1, 0, 0, 2, 0, 0], [0, 1, 0, 0, 0, 1]], p)
    d_in = ModMatrix.from_dense([[3, 0, 0], [0, 4, 0], [0, 0, 1], [1, 0, 0],
                                 [0, 0, 0], [0, 1, 0]], p)
    assert (d_out @ d_in).is_zero()
    seen = []
    real = modring.rank_fp
    monkeypatch.setattr(modring, "rank_fp", lambda mat, clear=None: seen.append(
        None if clear is None else sorted(clear.tolist())) or real(mat, clear))
    assert homology_dim(d_in, d_out) == 6 - 2 - 3
    assert seen == [None, [3, 5]]
    assert d_in.rank() == rank_fp(d_in) == 3


def test_a_non_complex_is_refused_before_any_cleared_rank(monkeypatch):
    from nchodge import modring

    # d_out is ranked first, so its pivot rows are on hand; clearing them in
    # a d_in with d_out d_in != 0 would drop row 1, the only row of d_in that
    # is not zero, and report rank 0
    p = 3
    d_out = ModMatrix.from_dense([[1, 1, 0, 0, 0, 0, 0, 0, 0]], p)
    good = ModMatrix.from_dense([[1], [2], [0], [0], [0], [0], [0], [0], [0]], p)
    assert homology_dim(good, d_out) == 9 - 1 - 1
    bad = ModMatrix.from_dense([[0], [1], [0], [0], [0], [0], [0], [0], [0]], p)
    calls = []
    real = modring.rank_fp
    monkeypatch.setattr(modring, "rank_fp",
                        lambda mat, *args: calls.append(mat) or real(mat, *args))
    with pytest.raises(NotAComplexError):
        homology_dim(bad, d_out)
    assert calls == []
    assert bad.rank(clear=np.array([1])) == 0  # what clearing would have said


# ---------------- the column reduction kernel ----------------

WIDE_PRIME = 2 ** 31 - 1


def suffix_lows(data: list[list[int]], p: int) -> set[int]:
    """Lows of the column space of data: the rows i where the rank of rows
    i.. exceeds that of rows i+1.. (a reduced column ending at i lies in the
    span of e_0 .. e_i and not below), that is, the rows independent of the
    rows below them, found by inserting the rows from the bottom up."""
    basis: dict[int, dict[int, int]] = {}  # leading column -> row with 1 there
    lows = set()
    for i in reversed(range(len(data))):
        row = {c: v % p for c, v in enumerate(data[i]) if v % p}
        while row:
            lead = min(row)
            piv = basis.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                basis[lead] = {c: v * inv % p for c, v in row.items()}
                lows.add(i)
                break
            f = row[lead]
            for c, v in piv.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return lows


def column_data(data: list[list[int]], cols: list[int]) -> list[list[int]]:
    return [[row[j] for j in cols] for row in data] if cols else [[] for _ in data]


@st.composite
def sparse_matrix(draw):
    """(p, rows of residues): mostly zeros, with empty columns, columns that
    repeat another one's low up to a scalar, chains of such columns each on
    the one before it, and leads other than 1. Up to 8 x 8, or up to
    40 x 40, where rounds of the column reduction run and displace owners."""
    p = draw(st.sampled_from([2, 3, 5, 7, WIDE_PRIME, TOP_PRIME]))
    most = draw(st.sampled_from([8, 40]))
    n_rows = draw(st.integers(min_value=1, max_value=most))
    n_cols = draw(st.integers(min_value=1, max_value=most))
    entry = st.one_of(st.just(0), st.just(0), st.just(1), st.integers(1, p - 1))
    cols = [draw(st.lists(entry, min_size=n_rows, max_size=n_rows)) for _ in range(n_cols)]
    for j in range(1, n_cols):
        how = draw(st.sampled_from(["keep", "empty", "multiple", "chain"]))
        if how == "empty":
            cols[j] = [0] * n_rows
        elif how in ("multiple", "chain"):  # the low of an earlier column, another lead
            src = j - 1 if how == "chain" else draw(st.integers(0, j - 1))
            k = draw(st.integers(1, p - 1))
            low = max((i for i, v in enumerate(cols[src]) if v), default=-1)
            cols[j] = [(k * cols[src][i] + (cols[j][i] if i < low else 0)) % p
                       for i in range(n_rows)]
    return p, [[cols[j][i] for j in range(n_cols)] for i in range(n_rows)]


def shuffled_csc(data: list[list[int]], p: int, rng) -> CSC:
    """The CSC arrays of data with the row indices of each column in random
    order and its first entry v split into 1 and v - 1 (mod p, maybe 0), the
    second one last."""
    csc = ModMatrix.from_dense(data, p).csc()
    rows, vals, ptr = [], [], [0]
    for j in range(len(data[0])):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        perm = rng.permutation(hi - lo)
        r, v = csc.indices[lo:hi][perm].tolist(), csc.data[lo:hi][perm].tolist()
        if r:
            r.append(r[0])
            v.append((v[0] - 1) % p)
            v[0] = 1
        rows += r
        vals += v
        ptr.append(len(rows))
    return CSC(np.array(ptr), np.array(rows, dtype=np.int64), np.array(vals, dtype=np.int64))


# in the order by size (columns 0, 1, 4, 5, 2, 3), column 2 reaches row 3,
# owned by column 1, in its first round, and row 2, owned by column 3,
# only in its second: it takes row 2 over, and column 3 is reduced by it in
# a third round. Columns 4 and 5 reduce to zero in rounds 1 and 2, so that
# round 2 leaves no more than half of its columns and the rounds go on.
DISPLACED_IN_ROUND_2 = [[0, 0, 0, 1, 0, 0],
                        [0, 0, 0, 1, 0, 0],
                        [0, 0, 1, 1, 0, 0],
                        [0, 1, 1, 0, 0, 1],
                        [1, 0, 1, 0, 2, 1]]
# how the column reduction runs: as it is; with the rounds' numpy state
# and no round, so the dict step starts from the owners; in rounds of
# every size, cut into blocks of about 16 entries
KERNELS = {"as is": {}, "no round": {"DICT_COLUMNS": 0},
           "rounds": {"DICT_COLUMNS": 0, "ROUND_MIN": 1, "ROUND_BLOCK": 16}}


# a matrix of more than DICT_COLUMNS columns; an order of a few of them
# makes the dict step gather those columns alone
_rng = np.random.default_rng(2)
WIDER_THAN_DICT_COLUMNS = ((_rng.random((60, 300)) < 0.1)
                           * _rng.integers(1, 5, (60, 300))).tolist()
# the order of the columns: by size (None), all of them shuffled, or up to
# 16 of them shuffled
ORDERS = ["by size", "shuffled", "short"]


@given(sparse_matrix(), st.sampled_from(ORDERS), st.randoms(use_true_random=False),
       st.sampled_from(list(KERNELS)))
@example((3, DISPLACED_IN_ROUND_2), "by size", random.Random(0), "rounds")
@example((3, DISPLACED_IN_ROUND_2), "by size", random.Random(0), "no round")
@example((5, WIDER_THAN_DICT_COLUMNS), "short", random.Random(0), "as is")
@settings(max_examples=200, deadline=None)
def test_column_reduce_finds_the_rank_the_lows_and_their_sources(pm, ordered, rnd, kernel):
    from nchodge import modring

    p, data = pm
    n_rows, n_cols = len(data), len(data[0])
    csc = ModMatrix.from_dense(data, p).csc()
    order = None
    if ordered != "by size":
        order = list(range(n_cols))
        rnd.shuffle(order)
        if ordered == "short":
            order = order[:rnd.randint(0, 16)]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in KERNELS[kernel].items():
            mp.setattr(modring, name, value)
        rank, pivots = modring._column_reduce(csc, p, (n_rows, n_cols), False, order)
        # the constructor reads unsorted row indices and a split entry as
        # the same matrix
        messy = ModMatrix((n_rows, n_cols), p,
                          shuffled_csc(data, p, np.random.default_rng(rnd.randrange(2 ** 32))))
        assert messy == ModMatrix.from_dense(data, p)
        assert modring._column_reduce(messy.csc(), p, (n_rows, n_cols), False,
                                      order) == (rank, pivots)
    assert rank == len(pivots)
    assert (rank, pivots) == reference_column_reduce(csc, p, (n_rows, n_cols), False, order)
    # each source made its pivot: the row is a low of the columns taken up
    # to the source and not of those taken before it (on the small
    # matrices; the reference kernel stands for this on the large ones)
    if order is None:
        order = sorted(range(n_cols), key=lambda j: (sum(1 for row in data if row[j]), j))
    taken = column_data(data, order)
    assert set(pivots) == suffix_lows(taken, p)
    sources = list(pivots.values())
    assert len(set(sources)) == len(sources)
    assert sorted(sources, key=order.index) == sources  # in the order of the sources
    if len(order) > 8:
        return
    assert rank == ref_rank(taken, p)
    for r, j in pivots.items():
        k = order.index(j)
        made = suffix_lows(column_data(data, order[:k + 1]), p)
        assert r in made - suffix_lows(column_data(data, order[:k]), p)


def test_column_reduce_restarts_densely_past_the_fill_threshold():
    from nchodge import modring

    p = 5
    sparse_enough = ModMatrix.identity(8, p).csc()  # fill 8 of 64 entries
    assert 8 <= modring.FILL_THRESHOLD * 64
    # every column of the triangle is free: fill 36, its own entry count,
    # past a quarter of its area but not past its input
    triangle = np.triu(np.full((8, 8), 3))
    # every column ends at row 7; the reduced columns stay dense, but the
    # pivots hold 8 + 7 + ... + 1 = 36 of the 64 entries of the input
    dense = np.random.default_rng(1).integers(1, p, size=(8, 8))
    assert ref_rank(dense.tolist(), p) == 8
    # sparse (1,304 of 10,000 entries), but three full rows make the
    # reduction fill in past a quarter of the area
    rng = np.random.default_rng(0)
    grows = (rng.random((100, 100)) < 0.1) * rng.integers(1, 7, (100, 100))
    grows[-3:, :] = rng.integers(1, 7, (3, 100))
    grows = ModMatrix.from_dense(grows, 7)
    assert grows.nnz < modring.FILL_THRESHOLD * 100 * 100
    for names in KERNELS.values():
        with pytest.MonkeyPatch.context() as mp:
            for name, value in names.items():
                mp.setattr(modring, name, value)
            assert modring._column_reduce(sparse_enough, p, (8, 8))[0] == 8
            for data in (triangle, dense):
                full = ModMatrix.from_dense(data, p).csc()
                rank, pivots = modring._column_reduce(full, p, (8, 8))
                assert rank == 8
                assert (rank, pivots) == reference_column_reduce(full, p, (8, 8))
            with pytest.raises(modring._DenseRestart):
                modring._column_reduce(grows.csc(), 7, grows.shape)
            assert modring._column_reduce(grows.csc(), 7, grows.shape, False)[0] == 100
    with pytest.raises(modring._DenseRestart):
        reference_column_reduce(grows.csc(), 7, grows.shape)
    assert rank_fp(grows) == 100


@given(sparse_matrix(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_rank_records_the_lows_of_the_row_space_on_either_path(pm, sparse_only):
    from nchodge import modring

    p, data = pm
    wide = [list(col) for col in zip(*data)]  # fewer rows than columns unless square
    with pytest.MonkeyPatch.context() as mp:
        if not sparse_only:
            mp.setattr(modring, "_column_reduce", forced_restart)
        mat = ModMatrix.from_dense(wide, p)
        assert rank_fp(mat) == ref_rank(data, p)
    if len(wide) < len(data) and mat.nnz:  # a zero matrix returns at once
        assert set(mat._pivot_rows.tolist()) == suffix_lows(data, p)


def test_column_reduce_matches_the_reference_on_the_commands(monkeypatch):
    """(rank, pivots) of `_column_reduce` against the column-by-column
    reference on every matrix the commands reduce: `conjugate -N 1`,
    `hodge -N 4 --pages` and `sbi -N 6` over the corpus at p = 3, 5, 7,
    `conjugate trunc-poly-3 -N 3` (its 551,880 x 19,711 top reduction runs
    rounds, compaction and the dict step), and `conjugate_ss` of group-z3
    at N = 2 in the group basis, whose chains of collisions are deep; each
    matrix is reduced as the kernel is and in the ways of KERNELS."""
    import contextlib
    import io

    from nchodge import cli, modring, specseq
    from nchodge.cartier import conjugate_ss
    from nchodge.corpus import build, corpus_names

    real = modring._column_reduce
    seen = []

    def recording(csc, p, shape, fill_guard=True, order=None):
        seen.append((csc, p, shape, None if order is None else list(order)))
        return real(csc, p, shape, fill_guard, order)

    monkeypatch.setattr(modring, "_column_reduce", recording)
    monkeypatch.setattr(specseq, "_column_reduce", recording)
    runs = [[command, name, "-N", n, "-p", str(p)]
            for p in (3, 5, 7) for name in corpus_names()
            for command, n in (("conjugate", "1"), ("hodge", "4"), ("sbi", "6"))]
    runs.append(["conjugate", "trunc-poly-3", "-N", "3"])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv + (["--pages"] if argv[0] == "hodge" else []) + ["--quiet"])
    conjugate_ss(build("group-z3", 3), 2)
    assert (551880, 19711) in {shape for _, _, shape, _ in seen}
    for csc, p, shape, order in seen:
        want = reference_column_reduce(csc, p, shape, False, order)
        for kernel, names in KERNELS.items():
            with pytest.MonkeyPatch.context() as mp:
                for name, value in names.items():
                    mp.setattr(modring, name, value)
                assert real(csc, p, shape, False, order) == want, (shape, p, kernel)
