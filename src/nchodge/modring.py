"""Exact linear algebra over F_p.

Matrices carry their prime and store their entries as three numpy
arrays in compressed sparse column format (`CSC`), kept canonical, the
residues in the narrowest unsigned dtype that holds p - 1. Constructions
sort one packed int64 key per entry, (col << r | row) << s | residue
(`_key_bits`); the producers that compute their values (`kron_sum`, the
reduction rounds) pack each entry as they produce it, the others when
their entries need the sort. Values widen only where `_mulmod`
multiplies or duplicates are summed. Block matrices are stitched from
their blocks' arrays (`stitch`). Ranks and homology dimensions are
computed by exact Gaussian elimination: every rank starts in a sparse
column reduction (columns processed by increasing support, pivot rows
chosen deterministically), and restarts in dense numpy elimination only
when its fill-in passes a limit (`_column_reduce`). Kernels and solutions
are dense only, and refuse matrices past TO_DENSE_LIMIT entries. No
floating point is used anywhere.

The column reduction works on the CSC arrays (PHAT's column
representation; Bauer, Kerber, Reininghaus and Wagner, J. Symbolic
Comput. 78, 2017). It runs in rounds, as in the chunked reduction of
Bauer, Kerber and Reininghaus ("Clear and Compress", 2014): each round
finds the owner of every column's low, the earliest column that ends
there, and reduces every other column at that low by its owner at once,
with one gather and one sort over numpy arrays. Once few columns collide,
or a round leaves more than half of its columns colliding, the rest is
reduced one column at a time: a free column becomes a pivot as it stands,
only a colliding column gets a working dict, and each pivot is scaled to
lead 1 once, when it is first used.

Homology dimensions use clearing (Chen-Kerber, "Persistent homology
computation with a twist", 2011): a wide differential d_out is reduced
transposed, and the rows where its reduced columns end (its pivot rows,
the lows of its row space, which a dense restart reads off an rref with
the columns reversed) are kept on the matrix as an int64 array. Once
d_out d_in = 0 is certified, `homology_dim` ranks d_in with those rows
left out. This is exact: a reduced column v of d_out^T whose largest row
is i satisfies d_in^T v = 0, so row i of d_in is a combination of rows
k < i, and by induction on i every cleared row lies in the span of the
kept ones. The kept rows that reduce to zero then number dim H, not
dim ker d_out.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from math import isqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ModulusError, NotAComplexError, ResourceError, ShapeError

# a column reduction may restart densely up to this entry count
DENSE_ENTRY_LIMIT = 1 << 21
# a column reduction restarts densely once its fill passes nnz and this share of the area
FILL_THRESHOLD = 0.25
# refuse accidental huge densification
TO_DENSE_LIMIT = 1 << 24
# products a sparse matmul expands at once, about
MATMUL_BLOCK = 1 << 15
# a column reduction of fewer columns than this runs the dict step alone:
# the benchmark's reductions of 32-66 columns take 1.5-2.2 times as long
# with the rounds' numpy state, those of 155-241 columns about as long,
# and those of 520-732 columns 1.1-3 times longer without it
DICT_COLUMNS = 128
# a column reduction runs rounds while at least this many columns collide
ROUND_MIN = 32
# entries a reduction round gathers at once, about
ROUND_BLOCK = 1 << 20


# Miller-Rabin with these bases is deterministic for n < 3.3 * 10**24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3 * 10**24)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the largest modulus m with (m - 1)**2 < 2**63
MAX_MODULUS = isqrt((1 << 63) - 1) + 1


@lru_cache(maxsize=None)
def split_modulus(m: int) -> tuple[int, int]:
    """Return (p, k) with m = p**k, k in {1, 2} and p prime.

    This is the one bound on a modulus: (m - 1)**2 < 2**63, that is
    m <= MAX_MODULUS. Then two residues multiply exactly in int64, as dense
    elimination and the structure-constant tables do; and m < 2**32, so a
    product of two residues fits in uint64 and a sum of fewer than 2**31
    residues fits in int64, as ModMatrix.__matmul__ needs. A ModMatrix
    takes k = 1 only; algebras keep k = 2 for their lifts.
    """
    if not 2 <= m <= MAX_MODULUS:
        raise ModulusError(f"modulus {m} is outside [2, {MAX_MODULUS}]: exact int64 "
                           "arithmetic needs (m - 1)^2 < 2^63")
    if is_prime(m):
        return m, 1
    r = isqrt(m)
    if r * r == m and is_prime(r):
        return r, 2
    raise ModulusError(f"modulus {m} is not a prime or a prime square")


def _prime(modulus: int) -> int:
    """modulus, when `split_modulus` finds it prime."""
    if split_modulus(modulus)[1] != 1:
        raise ModulusError(f"a ModMatrix lives over F_p; {modulus} is a prime square")
    return int(modulus)


class CSC(NamedTuple):
    """Compressed sparse columns: column j holds the rows
    indices[indptr[j]:indptr[j + 1]] with the values at the same positions
    of data. A ModMatrix keeps its CSC canonical: rows strictly increasing
    within each column, values in [1, modulus) as uint8, uint16 or uint32
    (`_value_dtype`), indptr and indices int32 while the shape and nnz fit."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _index_dtype(shape: tuple[int, int], nnz: int):
    return np.int32 if max(shape[0], shape[1], nnz) < 1 << 31 else np.int64


def _value_dtype(m: int):
    """The narrowest unsigned dtype that holds the residues mod m; m < 2**32."""
    return np.uint8 if m <= 1 << 8 else np.uint16 if m <= 1 << 16 else np.uint32


def _col_of_entries(indptr: np.ndarray) -> np.ndarray:
    """The column of each stored entry: the number of columns, after the
    first, that start at or before it."""
    nnz = int(indptr[-1])
    return np.cumsum(np.bincount(indptr[1:-1], minlength=nnz + 1)[:nnz])


def _segments(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, at): at lists the positions starts[t] .. starts[t] + counts[t] - 1
    for every t in turn, from at[ptr[t]] on."""
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    at = np.repeat(starts - ptr[:-1], counts)
    at += np.arange(at.size)
    return ptr, at


def _row_bits(shape: tuple[int, int]) -> int:
    """r such that key = column << r | row orders positions by (column, row)
    within int64; ResourceError when the shape leaves no such r."""
    r = max(shape[0] - 1, 0).bit_length()
    if max(shape[1] - 1, 0).bit_length() + r > 63:
        raise ResourceError(f"a {shape} matrix has more positions than an int64 key holds",
                            count=shape[0] * shape[1], cap=1 << 63)
    return r


def _key_bits(shape: tuple[int, int], m: int) -> tuple[int, int]:
    """(r, s) of the packed key (col << r | row) << s | residue; s = 0 when
    that passes 63 bits, and the residues travel beside the positions."""
    r, s = _row_bits(shape), (m - 1).bit_length()
    return r, (s if max(shape[1] - 1, 0).bit_length() + r + s <= 63 else 0)


def _packed(key: np.ndarray, vals, s: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(key, vals) for `_summed`: the residues vals packed into the
    positions key in place, and None; unchanged when s = 0."""
    if not s:
        return key, vals
    key <<= s
    key |= vals
    return key, None


def _from_coo(shape: tuple[int, int], m: int, rows, cols, vals) -> CSC:
    """The canonical CSC of the entries (rows[t], cols[t], vals[t]), for
    integer values of any sign and size below 2**63."""
    vals = np.asarray(vals)
    if vals.size and (vals.min() < 0 or vals.max() >= m):
        vals = vals.astype(np.int64) % m
    key = np.asarray(cols, dtype=np.int64) << _row_bits(shape)
    key |= rows
    return _from_keys(shape, m, key, vals)


def _from_keys(shape: tuple[int, int], m: int, key: np.ndarray,
               vals: np.ndarray | None = None) -> CSC:
    """The canonical CSC of the entries key, vals as `_summed` takes them:
    every construction from entries comes here. key is overwritten."""
    return _csc_of_sorted(shape, *_summed(shape, m, key, vals))


def _summed(shape: tuple[int, int], m: int, key: np.ndarray, vals: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray]:
    """(positions, vals): every position once, increasing, with the sum mod m
    of its residues in the value dtype; zero sums dropped. key holds packed
    entries (vals None), or positions with the residues in vals, packed
    here only when they need the sort; past 63 bits (`_key_bits`) the
    positions are argsorted. key is overwritten. Sums are taken in int64."""
    if key.size and not (key[1:] >= key[:-1]).all():
        if vals is not None:
            key, vals = _packed(key, vals, _key_bits(shape, m)[1])
        if vals is None:
            key.sort()
        else:
            order = np.argsort(key)
            key, vals = key[order], vals[order]
            del order
    if vals is None:
        s = (m - 1).bit_length()
        vals = (key & ((1 << s) - 1)).astype(_value_dtype(m))
        key >>= s
    if key.size:
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        if not new.all():
            starts = np.flatnonzero(new)
            del new
            vals = np.add.reduceat(vals, starts, dtype=np.int64) % m
            key = key[starts]
        nz = vals != 0
        if not nz.all():
            key, vals = key[nz], vals[nz]
    return key, vals.astype(_value_dtype(m), copy=False)


def _csc_of_sorted(shape: tuple[int, int], key: np.ndarray, vals: np.ndarray) -> CSC:
    """The CSC of the residues vals at the positions key, strictly
    increasing. key is overwritten."""
    r = _row_bits(shape)
    idx = _index_dtype(shape, key.size)
    indptr = np.zeros(shape[1] + 1, dtype=idx)
    rows = (key & ((1 << r) - 1)).astype(idx)
    if not key.size:
        return CSC(indptr, rows, vals)
    key >>= r  # now the column of each entry
    # a column ends where the next entry's column differs; an empty column
    # ends where the one before it does
    end = np.flatnonzero(key[1:] != key[:-1])
    indptr[1:][key[end]] = end + 1
    indptr[key[-1] + 1] = key.size
    np.maximum.accumulate(indptr, out=indptr)
    return CSC(indptr, rows, vals)


def _canonical_csc(shape: tuple[int, int], m: int, csc) -> CSC:
    """The arrays of csc, checked against shape, in the index dtype; through
    `_from_coo` unless the rows strictly increase within each column and
    the values lie in [1, m)."""
    indptr, indices, data = (np.asarray(a) for a in (csc.indptr, csc.indices, csc.data))
    rows, cols = shape
    if (indptr.shape != (cols + 1,) or indptr[0] != 0 or indptr[-1] != indices.size
            or data.shape != indices.shape or (np.diff(indptr) < 0).any()
            or (indices.size and (indices.min() < 0 or indices.max() >= rows))):
        raise ShapeError(f"CSC arrays do not describe a {shape} matrix")
    if data.size:
        # up[t]: entry t lies below entry t - 1 or starts a column
        up = np.ones(data.size + 1, dtype=bool)
        np.greater(indices[1:], indices[:-1], out=up[1:-1])
        up[indptr[:-1]] = True
        if data.min() < 1 or data.max() >= m or not up.all():
            return _from_coo(shape, m, indices, _col_of_entries(indptr), data)
    idx = _index_dtype(shape, data.size)
    return CSC(indptr.astype(idx, copy=False), indices.astype(idx, copy=False),
               data.astype(_value_dtype(m), copy=False))


def _selector(sel, n: int) -> np.ndarray:
    """Index array of a boolean selector or an index array into n items."""
    sel = np.asarray(sel)
    if sel.dtype == bool:
        if sel.shape != (n,):
            raise ShapeError(f"boolean selector of shape {sel.shape} for {n} indices")
        return np.flatnonzero(sel)
    sel = sel.astype(np.int64, copy=False)
    if sel.size and (sel.min() < 0 or sel.max() >= n):
        raise ShapeError(f"selector leaves the range [0, {n})")
    return sel


class ModMatrix:
    """A matrix over F_p: residues mod a prime within `split_modulus`'s bound."""

    __slots__ = ("shape", "modulus", "_csc", "_rank", "_pivot_rows")

    def __init__(self, shape: tuple[int, int], modulus: int, csc):
        """csc is any object with CSC arrays indptr, indices and data; they
        are read, never written, and made canonical when they are not."""
        self.modulus = _prime(modulus)
        rows, cols = shape
        if rows < 0 or cols < 0:
            raise ShapeError(f"bad shape {shape}")
        self.shape = (int(rows), int(cols))
        self._csc = _canonical_csc(self.shape, self.modulus, csc)
        self._rank: int | None = None
        # rows where the reduced columns of the transpose end (the lows of
        # the row space), when rank_fp reduced this matrix transposed; None
        # otherwise
        self._pivot_rows: np.ndarray | None = None

    @classmethod
    def _of(cls, shape: tuple[int, int], modulus: int, csc: CSC) -> "ModMatrix":
        """The matrix of a canonical CSC that this module built, without
        the passes over every entry with which __init__ checks its input."""
        mat = cls.__new__(cls)
        mat.shape, mat.modulus, mat._csc = shape, modulus, csc
        mat._rank = mat._pivot_rows = None
        return mat

    # ---------------- constructors ----------------

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int) -> "ModMatrix":
        empty = np.zeros(0, dtype=np.int64)
        return cls((rows, cols), modulus, CSC(np.zeros(cols + 1, dtype=np.int64), empty, empty))

    @classmethod
    def identity(cls, n: int, modulus: int) -> "ModMatrix":
        return cls((n, n), modulus, CSC(np.arange(n + 1), np.arange(n),
                                        np.ones(n, dtype=np.int64)))

    @classmethod
    def from_arrays(cls, shape: tuple[int, int], modulus: int,
                    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "ModMatrix":
        """The matrix with entries vals at (rows, cols), in any order;
        repeated positions are summed."""
        modulus = _prime(modulus)
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                          or cols.min() < 0 or cols.max() >= shape[1]):
            raise ShapeError(f"an entry lies outside the {shape} matrix")
        return cls._of(shape, modulus, _from_coo(shape, modulus, rows, cols, vals))

    @classmethod
    def from_dense(cls, arr, modulus: int) -> "ModMatrix":
        a = np.asarray(arr, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeError("dense input must be 2-dimensional")
        a = a % modulus
        cols, rows = np.nonzero(a.T)  # column by column, rows increasing
        return cls.from_arrays(a.shape, modulus, rows, cols, a[rows, cols])

    @classmethod
    def from_index_map(cls, rows_for_col: np.ndarray, n_rows: int, modulus: int,
                       vals: np.ndarray | None = None) -> "ModMatrix":
        """Column j carries a single entry at row rows_for_col[j], 1 unless
        vals gives it."""
        n_cols = len(rows_for_col)
        return cls((n_rows, n_cols), modulus, CSC(
            np.arange(n_cols + 1), rows_for_col,
            np.ones(n_cols, dtype=np.int64) if vals is None else vals))

    # ---------------- basic queries ----------------

    @property
    def nnz(self) -> int:
        return int(self._csc.data.size)

    @property
    def density(self) -> float:
        area = self.shape[0] * self.shape[1]
        return self.nnz / area if area else 0.0

    def csc(self) -> CSC:
        return self._csc

    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, vals) of the entries, column by column; rows, cols int64."""
        csc = self._csc
        return csc.indices.astype(np.int64), _col_of_entries(csc.indptr), csc.data

    def to_dense(self) -> np.ndarray:
        if self.shape[0] * self.shape[1] > TO_DENSE_LIMIT:
            raise ResourceError(
                f"refusing to densify a {self.shape} matrix",
                count=self.shape[0] * self.shape[1], cap=TO_DENSE_LIMIT)
        out = np.zeros(self.shape, dtype=np.int64)
        out[self._csc.indices, _col_of_entries(self._csc.indptr)] = self._csc.data
        return out

    def is_zero(self) -> bool:
        return self.nnz == 0

    def rank(self, clear: np.ndarray | None = None) -> int:
        """Rank over F_p, computed by rank_fp once per matrix; clear names
        rows that lie in the span of the others (see rank_fp)."""
        if self._rank is None:
            self._rank = rank_fp(self, clear)
        return self._rank

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModMatrix):
            return NotImplemented
        if self.shape != other.shape or self.modulus != other.modulus:
            return False
        # both sides are canonical
        return all(np.array_equal(x, y) for x, y in zip(self._csc, other._csc))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ModMatrix(shape={self.shape}, mod {self.modulus}, nnz={self.nnz})"

    # ---------------- arithmetic ----------------

    def _join(self, other: "ModMatrix") -> None:
        if not isinstance(other, ModMatrix):
            raise TypeError(f"expected ModMatrix, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise ModulusError(f"moduli differ: {self.modulus} vs {other.modulus}")

    def __matmul__(self, other: "ModMatrix") -> "ModMatrix":
        """Each entry (k, j, v) of the right factor is expanded over column k
        of the left one; every product is reduced mod m (exact in uint64 for
        m < 2**32) and the products at one position are summed. The columns
        of the right factor are taken in blocks of about MATMUL_BLOCK
        products, so the expansion never holds many more at once; each
        block is sorted and summed alone, and since the blocks follow the
        columns in order, their positions concatenate into the product's CSC."""
        self._join(other)
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        m, left, right = self.modulus, self._csc, other._csc
        shape = (self.shape[0], other.shape[1])
        r = _row_bits(shape)
        count = np.diff(left.indptr)[right.indices]  # products of each right entry
        end = np.cumsum(count)
        # a block starts at the column of every MATMUL_BLOCK-th product
        entry = np.searchsorted(end, np.arange(MATMUL_BLOCK, end[-1] if end.size else 0,
                                               MATMUL_BLOCK), side="right")
        inner = np.searchsorted(right.indptr, entry, side="right") - 1
        cuts = [0, *sorted(set(inner.tolist()) - {0}), shape[1]]
        keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=_value_dtype(m))]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            first, last = int(right.indptr[lo]), int(right.indptr[hi])
            c = count[first:last]
            # the left entries that meet each right entry, in turn
            _, at = _segments(left.indptr[right.indices[first:last]].astype(np.int64), c)
            col = _col_of_entries(right.indptr[lo:hi + 1] - first) + lo
            key = np.repeat(col << r, c)
            key |= left.indices[at]
            key, v = _summed(shape, m, key,
                             _mulmod(left.data[at], np.repeat(right.data[first:last], c), m))
            keys.append(key)
            vals.append(v)
        return ModMatrix._of(shape, m, _csc_of_sorted(shape, np.concatenate(keys),
                                                      np.concatenate(vals)))

    def _plus(self, other: "ModMatrix", sign: int) -> "ModMatrix":
        self._join(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot combine {self.shape} and {other.shape}")
        (r0, c0, v0), (r1, c1, v1) = self.coo(), other.coo()
        return ModMatrix._of(self.shape, self.modulus, _from_coo(
            self.shape, self.modulus, np.concatenate([r0, r1]), np.concatenate([c0, c1]),
            np.concatenate([v0, v1 if sign > 0 else self.modulus - v1])))

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "ModMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "ModMatrix":
        m = self.modulus
        csc = self._csc
        return ModMatrix(self.shape, m, csc._replace(data=_mulmod(csc.data, int(k) % m, m)))

    def transpose(self) -> "ModMatrix":
        indptr, indices, data = self._csc
        shape = (self.shape[1], self.shape[0])
        key = indices.astype(np.int64)
        key <<= _row_bits(shape)
        key |= _col_of_entries(indptr)
        return ModMatrix._of(shape, self.modulus, _from_keys(shape, self.modulus, key, data))

    @property
    def T(self) -> "ModMatrix":
        return self.transpose()

    def restrict(self, rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None) -> "ModMatrix":
        """Submatrix on the given index arrays (or boolean selectors); an
        index array may repeat an index."""
        indptr, indices, data = self._csc
        n_rows, n_cols = self.shape
        # columns first: a column gather of CSC is a slice per column
        if cols is not None:
            cols = _selector(cols, n_cols)
            ptr, at = _segments(indptr[cols].astype(np.int64), np.diff(indptr)[cols])
            n_cols = cols.size
            idx = _index_dtype((n_rows, n_cols), at.size)
            indptr, indices, data = ptr.astype(idx), indices[at].astype(idx, copy=False), data[at]
        if rows is not None:
            rows = _selector(rows, n_rows)
            # row i of self is row t of the result for every t in
            # order[first[i]:first[i] + count[i]]
            order = np.argsort(rows, kind="stable")
            count = np.bincount(rows, minlength=n_rows)
            first = np.cumsum(count) - count
            c = count[indices]
            _, at = _segments(first[indices], c)
            n_rows = rows.size
            key = np.repeat(_col_of_entries(indptr) << _row_bits((n_rows, n_cols)), c)
            key |= order[at]
            indptr, indices, data = _from_keys((n_rows, n_cols), self.modulus, key,
                                               np.repeat(data, c))
        return ModMatrix._of((n_rows, n_cols), self.modulus, CSC(indptr, indices, data))


def _mulmod(x, y, m: int) -> np.ndarray:
    """x * y mod m as int64, for residues of any dtype; exact, as m < 2**32."""
    # residues are not negative, so they read as uint64 unchanged; numpy
    # divides by a scalar faster than it takes %
    prod = np.multiply(x, y, dtype=np.uint64, casting="unsafe")
    prod -= prod // np.uint64(m) * np.uint64(m)
    return prod.view(np.int64)


def kron_sum(shape: tuple[int, int], m: int, terms) -> ModMatrix:
    """The sum of the terms (factors, negate): the Kronecker product of the
    factors (rows, cols, vals, (R, C)), negated where asked. The entry
    picking (r_t, c_t, v_t) of each factor t carries the product of the v_t
    at row (r_1 R_2 + r_2) R_3 + ... + r_k, and at the column read likewise
    with C; with (R, C) each factor's shape this is the Kronecker product,
    the first factor on the most significant digits, and a factor may give
    other cols and C to relabel its columns. Each term broadcasts the
    product of its first k - 1 factors against its last straight into the
    packed keys of its slice of one key array: no int64 rows, columns or
    values are concatenated, no negated copy is made, and one sort sums
    the terms."""
    r, s = _key_bits(shape, m)
    ends = np.cumsum([0] + [np.prod([f[0].size for f in fs]) for fs, _ in terms]).tolist()
    key = np.empty(ends[-1], dtype=np.int64)
    vals = None if s else np.empty(ends[-1], dtype=_value_dtype(m))
    for (factors, negate), lo, hi in zip(terms, ends, ends[1:]):
        rows, cols, v = np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1, np.int64)
        for r0, c0, v0, (R, C) in factors[:-1]:
            rows = (rows[:, None] * R + r0).ravel()
            cols = (cols[:, None] * C + c0).ravel()
            v = _mulmod(v[:, None], v0, m).ravel()
        r0, c0, v0, (R, C) = factors[-1]
        out = key[lo:hi].reshape(rows.size, r0.size)
        np.add(((cols * C << r) + rows * R)[:, None], (c0 << r) + r0, out=out)
        # v0 lies in [1, m), so m - v0 wraps no unsigned value
        _, v = _packed(out, _mulmod(v[:, None], m - v0 if negate else v0, m), s)
        if v is not None:
            vals[lo:hi] = v.ravel()
    return ModMatrix._of(shape, m, _from_keys(shape, m, key, vals))


def kron_power(mat: ModMatrix, k: int) -> ModMatrix:
    """mat (x) ... (x) mat with k >= 1 factors, one `kron_sum`."""
    shape = (mat.shape[0] ** k, mat.shape[1] ** k)
    return kron_sum(shape, mat.modulus, [([(*mat.coo(), mat.shape)] * k, False)])


def _limb_bits(k: int, m: int) -> int:
    """The largest s with max(k, 2) * (m - 1) * (2**s - 1) < 2**63."""
    return ((((1 << 63) - 1) // (max(k, 2) * (m - 1))) + 1).bit_length() - 1


def matmul_mod(left: np.ndarray, right: np.ndarray, m: int) -> np.ndarray:
    """left @ right mod m for dense int64 residue arrays, exact for every m
    that `split_modulus` accepts, prime squares included.

    Below the int64 accumulation bound k * max(left) * max(right) < 2**63,
    k the inner dimension, this is one integer matmul (for 0/1 structure
    constants at every modulus); above it the right factor is cut into
    s-bit limbs with max(k, 2) * (m - 1) * (2**s - 1) < 2**63, so every limb
    product is exact in int64, and the reduced limb products are recombined
    by Horner's rule mod m; max(k, 2) also keeps (m - 1) * 2**s + m below
    2**63. The entries are read only when the residue bound
    k * (m - 1)**2 does not already settle it.
    """
    k = left.shape[-1]
    if (k * (m - 1) ** 2 < 1 << 63
            or k * int(left.max(initial=0)) * int(right.max(initial=0)) < 1 << 63):
        return left @ right % m
    s = _limb_bits(k, m)
    out = np.zeros((left.shape[0], right.shape[-1]), dtype=np.int64)
    for shift in reversed(range(0, (m - 1).bit_length(), s)):
        part = left @ ((right >> shift) & ((1 << s) - 1)) % m
        out = (out * (1 << s) + part) % m
    return out


def stitch(shape: tuple[int, int], modulus: int,
           blocks: Sequence[tuple[int, int, ModMatrix]]) -> ModMatrix:
    """The shape matrix with each block mat at offsets (row, col), from the
    blocks' CSC arrays with no key and no sort. Blocks sharing a column come
    in increasing row, each wholly above the next; a block alone in its
    columns is copied with offsets, the others scattered after the ones
    before them."""
    for row, col, mat in blocks:
        if mat.modulus != modulus:
            raise ModulusError(f"moduli differ: {modulus} vs {mat.modulus}")
        if row + mat.shape[0] > shape[0] or col + mat.shape[1] > shape[1]:
            raise ShapeError(f"a {mat.shape} block at {(row, col)} leaves the {shape} matrix")
    nnz = sum(mat.nnz for _, _, mat in blocks)
    idx = _index_dtype(shape, nnz)
    indptr = np.zeros(shape[1] + 1, dtype=idx)
    for row, col, mat in blocks:
        indptr[col + 1:col + 1 + mat.shape[1]] += np.diff(mat._csc.indptr)
    np.cumsum(indptr, out=indptr)
    nxt = indptr[:-1].copy()  # where the next entry of each column goes
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz, dtype=_value_dtype(modulus))
    for row, col, mat in blocks:
        ptr, rows, vals = mat._csc
        lo, hi = int(indptr[col]), int(indptr[col + mat.shape[1]])
        if hi - lo == rows.size:  # the block fills its columns
            np.add(rows, row, out=indices[lo:hi], dtype=idx)
            data[lo:hi] = vals
            continue
        count, start = np.diff(ptr), nxt[col:col + mat.shape[1]]
        at = np.repeat((start - ptr[:-1]).astype(idx, copy=False), count)
        at += np.arange(at.size, dtype=idx)
        indices[at] = np.add(rows, row, dtype=idx)
        data[at] = vals
        start += count
    return ModMatrix._of(shape, modulus, CSC(indptr, indices, data))


def hstack(mats: Sequence[ModMatrix]) -> ModMatrix:
    if not mats or any(mm.shape[0] != mats[0].shape[0] for mm in mats):
        raise ShapeError("hstack of nothing, or with mixed row counts")
    offsets = np.cumsum([0] + [mm.shape[1] for mm in mats]).tolist()
    return stitch((mats[0].shape[0], offsets[-1]), mats[0].modulus,
                  [(0, off, mm) for off, mm in zip(offsets, mats)])


# ---------------- dense elimination ----------------

def _dense_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p. Returns (rref, pivot column list)."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        nzcol = np.nonzero(col)[0]
        if nzcol.size:
            a[nzcol] = (a[nzcol] - np.outer(col[nzcol], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _dense_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Column basis of the right kernel mod p, one column per free variable."""
    rref, pivots = _dense_rref(a, p)
    n = a.shape[1]
    free = [j for j in range(n) if j not in set(pivots)]
    out = np.zeros((n, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        out[j, k] = 1
        for r, c in enumerate(pivots):
            out[c, k] = (-int(rref[r, j])) % p
    return out


# ---------------- sparse elimination ----------------

class _DenseRestart(Exception):
    pass


def _column_reduce(csc: CSC, p: int, shape: tuple[int, int],
                   fill_guard: bool = True, order: Sequence[int] | None = None
                   ) -> tuple[int, dict[int, int]]:
    """Persistence-style column reduction mod p of the columns of csc, the
    canonical CSC of a ModMatrix.

    Columns are processed in the given order, by default by increasing
    support size, ties by index (a cheap stand-in for Markowitz pivoting);
    the order may name a subset of the columns, and the others are left
    out. A column's pivot row is its largest row once no column before it
    in the order ends there, which makes the reduction deterministic.
    Returns (rank, pivots): pivots maps each pivot row to the index of the
    column that made it, in the order of those columns.

    Only earlier columns are ever added to later ones, so the pairs are
    those of the column-by-column reduction however the work is batched: a
    reduced R = D V with V upper triangular has the same lows and sources
    for every such V. While at least ROUND_MIN columns collide, the
    reduction runs in rounds over numpy arrays (`_Columns.round`); the rest
    is left to `_dict_step`, one column at a time. The rounds stop when a
    round, after the second, leaves more than half of its columns
    colliding: then the chains of collisions are deep, and the dict step
    walks them faster. With fill_guard, a matrix of 0 < area <=
    DENSE_ENTRY_LIMIT entries raises _DenseRestart once its pivots, free
    ones included, hold more than max(FILL_THRESHOLD * area, nnz) entries:
    free pivots never hold more than nnz, so only fill-in restarts.
    """
    area = shape[0] * shape[1]
    limit = (max(FILL_THRESHOLD * area, csc.data.size)
             if fill_guard and 0 < area <= DENSE_ENTRY_LIMIT else None)
    if not csc.data.size:
        return 0, {}
    cols = _by_size(csc.indptr) if order is None else np.asarray(order, dtype=np.int64)
    if cols.size < DICT_COLUMNS:
        # the dict step takes every column as it stands, from lists of
        # those columns' entries alone
        beg = csc.indptr[cols].astype(np.int64)
        ptr, at = _segments(beg, csc.indptr[cols + 1] - beg)
        spans = list(zip(ptr[:-1].tolist(), ptr[1:].tolist()))
        pivots = _dict_step(p, csc.indices[at].tolist(), csc.data[at].tolist(),
                            range(cols.size), spans.__getitem__, None, 0, limit)
        cols = cols.tolist()
        # with every column queued in order, none is displaced, so the
        # pivots were found in the order of their sources
        return len(pivots), {r: cols[k] for r, (_, _, k) in pivots.items()}
    red = _Columns(csc, p, shape, cols)
    rounds = 0
    while True:
        if limit is not None and red.fill > limit:
            raise _DenseRestart
        left = red.active.size
        if left < ROUND_MIN or (rounds >= 2 and 2 * left > red.taken):
            break
        red.round()
        rounds += 1
    rows: list[int] = []
    vals: list[int] = []
    pivots = _dict_step(p, rows, vals, red.active.tolist(), red.spans(rows, vals),
                        red.owner, red.fill, limit)
    own = red.own
    own[np.fromiter(pivots, dtype=np.int64, count=len(pivots))] = [
        k for _, _, k in pivots.values()]
    # the pivots, by the position of their source
    row_at = np.full(cols.size, -1, dtype=np.int64)
    held = np.flatnonzero(own < cols.size)
    row_at[own[held]] = held
    pos = np.flatnonzero(row_at >= 0)
    return pos.size, dict(zip(row_at[pos].tolist(), cols[pos].tolist()))


def _by_size(indptr: np.ndarray) -> np.ndarray:
    """The columns by increasing size, ties by index: one sort of
    size << b | column."""
    n = indptr.size - 1
    b = max(n - 1, 0).bit_length()
    key = np.diff(indptr).astype(np.int64) << b
    key |= np.arange(n)
    key.sort()
    return key & ((1 << b) - 1)


def _dict_step(p: int, rows: list[int], vals: list[int], queue, span,
               owner, fill: int, limit: float | None) -> dict[int, tuple[int, int, int]]:
    """Column reduction one column at a time, on two flat lists: the
    positions of queue, increasing, are reduced in order, and each pivot is
    a (lo, hi) slice of rows and vals with its pivot row last.

    span(k) is the slice that holds position k's entries, appended first
    if need be; owner(r), when given, is the position that owned row r
    before the step, or None, and span(owner(r), True) appends its entries
    scaled to lead 1. A column whose largest row no earlier position owns
    is free: it becomes a pivot as it stands, with no copy and no scaling.
    Only a column that collides gets a {row: value} dict to eliminate in. A
    pivot built from such a dict, and a free pivot the first time a
    collision uses it, is scaled to carry 1 at its row and appended to the
    lists, so each pivot is scaled at most once. A column
    that reaches a row a later position owns takes it over, and the later
    one is queued again: it waits on a heap that is merged into the queue,
    so every position before the one in hand is final. A working column
    keeps its rows on a heap as well, so that finding its largest row is
    not a scan of the column. Returns the pivots made or used here, as
    {row: (lo, hi, position)}."""
    pivots: dict[int, tuple[int, int, int]] = {}

    def held(r):  # the pivot at r that owner names, brought into the lists
        o = owner(r)
        if o is not None:
            pivots[r] = (*span(o, True), o)
            return pivots[r]
        return None

    base = len(rows)  # what the lists held before the step
    later: list[int] = []  # displaced positions, a heap
    for j in _merged(queue, later):
        lo, hi = span(j)
        if lo == hi:
            continue
        r = rows[hi - 1]
        hit = pivots.get(r)
        if hit is None and owner is not None:
            hit = held(r)
        if hit is None or hit[2] > j:  # a free column
            if hit is not None:
                heappush(later, hit[2])
            pivots[r] = (lo, hi, j)
            fill += hi - lo
            if limit is not None and fill > limit:
                raise _DenseRestart
            continue
        c = dict(zip(rows[lo:hi], vals[lo:hi]))
        tops = [-rr for rr in reversed(rows[lo:hi])]  # c's rows negated: sorted, so a heap
        if lo >= base and hi == len(rows):  # appended only to be read here
            del rows[lo:], vals[lo:]
        while True:
            lo, hi, src = hit
            lead = vals[hi - 1]
            if lead != 1:  # a free pivot's first use: scale it once
                inv = pow(lead, p - 2, p)
                vals.extend([v * inv % p for v in vals[lo:hi]])
                rows.extend(rows[lo:hi])
                lo, hi = len(rows) - (hi - lo), len(rows)
                pivots[r] = (lo, hi, src)
            f = c.pop(r)
            for rr, vv in zip(rows[lo:hi - 1], vals[lo:hi - 1]):
                x = c.get(rr)
                if x is None:
                    c[rr] = -f * vv % p
                    heappush(tops, -rr)
                else:
                    nv = (x - f * vv) % p
                    if nv:
                        c[rr] = nv
                    else:
                        del c[rr]
            if not c:
                break
            # every row of c is on the heap, pushed again when it comes back,
            # so -tops[0] is max(c) once the rows not in c are popped
            while -tops[0] not in c:
                heappop(tops)
            r = -tops[0]
            hit = pivots.get(r)
            if hit is None and owner is not None:
                hit = held(r)
            if hit is None or hit[2] > j:
                if hit is not None:
                    heappush(later, hit[2])
                inv = pow(c.pop(r), p - 2, p)
                lo = len(rows)
                rows.extend(c)
                rows.append(r)
                vals.extend([v * inv % p for v in c.values()] if inv != 1 else c.values())
                vals.append(1)
                pivots[r] = (lo, len(rows), j)
                fill += len(rows) - lo
                if limit is not None and fill > limit:
                    raise _DenseRestart
                break
    return pivots


def _merged(queue, later: list[int]):
    """The positions of queue, increasing, and those pushed on the heap
    later meanwhile, in increasing order."""
    for j in queue:
        while later and later[0] < j:
            yield heappop(later)
        yield j
    while later:
        yield heappop(later)


class _Columns:
    """The state of a column reduction in rounds. Position k stands for
    column cols[k], the k-th in the order. Its current entries are the
    slice beg[k]:end[k] of the CSC arrays, or of the pool once a round
    rewrote them; low[k] and lead[k] are its largest row and the value
    there. own[r] is the position that holds row r as its pivot, the
    earliest one ending at r, and n where none does, int32 while n fits.
    active lists, increasing, the positions that end at a row an earlier
    one owns. The pool keeps values in the value dtype."""

    def __init__(self, csc: CSC, p: int, shape: tuple[int, int], cols: np.ndarray):
        n = cols.size
        self.p, self.shape, self.n = p, shape, n
        self.rows, self.vals = csc.indices, csc.data
        self.beg = csc.indptr[cols].astype(np.int64)
        self.end = csc.indptr[cols + 1].astype(np.int64)
        self.pooled = np.zeros(n, dtype=bool)
        self.pool_rows, self.pool_vals = csc.indices[:0], csc.data[:0]
        self.dead = 0  # pool entries no position reads any more
        live = np.flatnonzero(self.end > self.beg)
        self.low = np.full(n, -1, dtype=np.int64)
        self.low[live] = csc.indices[self.end[live] - 1]
        self.lead = np.zeros(n, dtype=np.int64)
        self.lead[live] = csc.data[self.end[live] - 1]
        self.own = np.full(shape[0], n, dtype=np.int32 if n < 1 << 31 else np.int64)
        self.fill = 0
        self.taken = 0  # the positions the last round took
        self.active = self._claim(live)

    def _claim(self, ks: np.ndarray) -> np.ndarray:
        """Let each position of ks, increasing and none of them an owner,
        own its low unless an earlier position does; an owner that a
        position of ks precedes is displaced. Returns the positions left
        colliding, increasing."""
        # by low, each low's positions increasing: one sort of low << b | k
        b = max(self.n - 1, 0).bit_length()
        key = self.low[ks] << b
        key |= ks
        key.sort()
        ks, low = key & ((1 << b) - 1), key >> b
        first = np.ones(ks.size, dtype=bool)
        np.not_equal(low[1:], low[:-1], out=first[1:])
        head, at = ks[first], low[first]
        held = self.own[at]
        win = head < held
        out = held[win]
        out = out[out < self.n]
        won = head[win]
        self.own[at[win]] = won
        self.fill += int((self.end[won] - self.beg[won]).sum()
                         - (self.end[out] - self.beg[out]).sum())
        return np.sort(np.concatenate([ks[~first], head[~win], out]))

    def _entries(self, ks: np.ndarray, tag: np.ndarray, coef: np.ndarray, r: int, s: int
                 ) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
        """Packed keys (tag[t] << r | row) << s | coef[t] * v mod p of the
        entries (row, v) of each position ks[t], one part per source; with
        s = 0, keys tag[t] << r | row and the values beside them."""
        keys, vals = [], []
        pooled = self.pooled[ks]
        for rows, data, sel in ((self.rows, self.vals, ~pooled),
                                (self.pool_rows, self.pool_vals, pooled)):
            if not sel.any():
                continue
            k = ks[sel]
            count = self.end[k] - self.beg[k]
            _, at = _segments(self.beg[k], count)
            key = np.repeat(tag[sel] << r, count)
            key |= rows[at]
            key, v = _packed(key, _mulmod(data[at], np.repeat(coef[sel], count), self.p), s)
            keys.append(key)
            vals.append(v)
        return keys, vals

    def round(self) -> None:
        """Reduce every active position c by the owner o of its low at once:
        c <- lead(o) c - lead(c) o, which clears that row with no inverse.
        The positions are taken in blocks of about ROUND_BLOCK entries, and
        each block is summed by one sort; the new entries go to the pool."""
        ks, p = self.active, self.p
        self.taken = ks.size
        own = self.own[self.low[ks]]
        size = self.end - self.beg
        # blocks cut at every ROUND_BLOCK-th entry that the gathers read
        end = np.cumsum(size[ks] + size[own])
        cuts = np.searchsorted(end, np.arange(ROUND_BLOCK, end[-1], ROUND_BLOCK), side="right")
        cuts = [0, *sorted(set(cuts.tolist()) - {0, ks.size}), ks.size]
        rows_out, vals_out, count = [], [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            c, o = ks[lo:hi], own[lo:hi]
            shape = (self.shape[0], hi - lo)
            r, s = _key_bits(shape, p)
            tag = np.arange(hi - lo, dtype=np.int64)
            kc, vc = self._entries(c, tag, self.lead[o], r, s)
            ko, vo = self._entries(o, tag, p - self.lead[c], r, s)
            key, val = _summed(shape, p, np.concatenate(kc + ko),
                               None if s else np.concatenate(vc + vo))
            count.append(np.bincount(key >> r, minlength=hi - lo))
            key &= (1 << r) - 1
            rows_out.append(key.astype(self.rows.dtype))
            vals_out.append(val)
        count = np.concatenate(count)
        # the entries ks held in the pool are dead; the pool is compacted
        # once the dead outnumber the live
        self.dead += int(size[ks[self.pooled[ks]]].sum())
        self.pooled[ks] = False
        if 2 * self.dead > self.pool_vals.size:
            self._compact()
        base = self.pool_vals.size
        self.pool_rows = np.concatenate([self.pool_rows, *rows_out])
        self.pool_vals = np.concatenate([self.pool_vals, *vals_out])
        self.end[ks] = base + np.cumsum(count)
        self.beg[ks] = self.end[ks] - count
        self.pooled[ks] = True
        left = ks[count > 0]
        self.low[left] = self.pool_rows[self.end[left] - 1]
        self.lead[left] = self.pool_vals[self.end[left] - 1]
        self.active = self._claim(left)

    def _compact(self) -> None:
        ks = np.flatnonzero(self.pooled)
        ptr, at = _segments(self.beg[ks], self.end[ks] - self.beg[ks])
        self.pool_rows, self.pool_vals = self.pool_rows[at], self.pool_vals[at]
        self.beg[ks], self.end[ks] = ptr[:-1], ptr[1:]
        self.dead = 0

    def owner(self, r: int) -> int | None:
        o = int(self.own[r])
        return o if o < self.n else None

    def spans(self, rows: list[int], vals: list[int]):
        """span(k, unit) for `_dict_step`: appends position k's entries to
        the lists, scaled to lead 1 if unit, and returns where they went."""
        def span(k: int, unit: bool = False) -> tuple[int, int]:
            lo, hi = int(self.beg[k]), int(self.end[k])
            src_rows, src_vals = ((self.pool_rows, self.pool_vals) if self.pooled[k]
                                  else (self.rows, self.vals))
            rows.extend(src_rows[lo:hi].tolist())
            v = src_vals[lo:hi]
            if unit and v[-1] != 1:
                v = _mulmod(v, pow(int(v[-1]), self.p - 2, self.p), self.p)
            vals.extend(v.tolist())
            return len(rows) - (hi - lo), len(rows)
        return span


def rank_fp(mat: ModMatrix, clear: np.ndarray | None = None) -> int:
    """Rank over F_p, exact.

    clear, if given, is an int64 array of rows of mat that lie in the span
    of the rows it keeps; those rows are left out. The reduction walks the
    smaller list of vectors: when mat keeps fewer rows than it has columns,
    it reduces mat^T, and records on mat the rows where its reduced columns
    end (column indices of mat), for `homology_dim` to clear the next
    differential with. They are the lows of the row space of mat, whatever
    the path: a dense restart reads them off an rref of the kept rows with
    the columns reversed.
    """
    p = mat.modulus
    rows, cols = mat.shape
    if rows == 0 or cols == 0 or mat.nnz == 0:
        return 0
    keep = None
    if clear is not None and clear.size:
        keep = np.delete(np.arange(rows), clear)
        rows = keep.size
    # orient so that the reduction walks the smaller list of vectors
    transposed = cols > rows
    work = mat.T if transposed else mat
    if keep is not None:
        work = work.restrict(cols=keep) if transposed else work.restrict(rows=keep)
    try:
        rank, pivots = _column_reduce(work.csc(), p, work.shape)
    except _DenseRestart:
        dense = work.to_dense()
    else:
        if transposed:
            mat._pivot_rows = np.fromiter(pivots, dtype=np.int64, count=len(pivots))
        return rank
    if not transposed:
        return len(_dense_rref(dense, p)[1])
    # dense holds the kept rows of mat as its columns; with the columns of
    # mat reversed a row's last entry comes first, so every pivot column of
    # the rref is a low of the row space
    lows = _dense_rref(dense.T[:, ::-1], p)[1]
    mat._pivot_rows = cols - 1 - np.array(lows, dtype=np.int64)
    return len(lows)


def kernel_basis_fp(mat: ModMatrix) -> ModMatrix:
    """Matrix whose columns are a basis of the right kernel over F_p, by
    dense elimination (ResourceError past TO_DENSE_LIMIT entries)."""
    p = mat.modulus
    rows, cols = mat.shape
    if cols == 0:
        return ModMatrix.zeros(0, 0, p)
    if rows == 0 or mat.nnz == 0:
        return ModMatrix.identity(cols, p)
    return ModMatrix.from_dense(_dense_kernel(mat.to_dense(), p), p)


def solve_fp(a: ModMatrix, b: ModMatrix) -> ModMatrix | None:
    """A particular solution X of a @ X = b over F_p, or None if inconsistent,
    by dense elimination of [a | b] (ResourceError past TO_DENSE_LIMIT entries)."""
    p = a.modulus
    a._join(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"solve with mismatched row counts {a.shape} vs {b.shape}")
    n, k = a.shape[1], b.shape[1]
    rref, pivots = _dense_rref(hstack([a, b]).to_dense(), p)
    if any(c >= n for c in pivots):
        return None
    x = np.zeros((n, k), dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = rref[r, n:]
    return ModMatrix.from_dense(x, p)


def homology_dim(d_in: ModMatrix, d_out: ModMatrix, certified: bool = False) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    d_out maps the middle degree down, d_in maps into the middle degree.
    Raises NotAComplexError unless d_out @ d_in = 0, a product skipped when
    the caller certified it. Then d_in is ranked with d_out's pivot rows
    cleared (module docstring): a reduced column v of d_out^T ending at row
    i gives d_in^T v = 0, so row i of d_in is a combination of rows k < i,
    and by induction every cleared row lies in the span of the kept ones.
    Reading degrees in increasing order lets each differential clear the next.
    """
    if d_in.modulus != d_out.modulus:
        raise ModulusError("differentials with different moduli")
    if d_out.shape[1] != d_in.shape[0]:
        raise ShapeError(
            f"middle dimension mismatch: d_out has {d_out.shape[1]} columns, "
            f"d_in has {d_in.shape[0]} rows")
    if not certified and not (d_out @ d_in).is_zero():
        raise NotAComplexError("d_out @ d_in is not zero")
    rank_out = d_out.rank()
    dim = d_out.shape[1] - rank_out - d_in.rank(clear=d_out._pivot_rows)
    if dim < 0:
        raise NotAComplexError("negative homology dimension; ranks inconsistent")
    return dim
