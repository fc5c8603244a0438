"""Exact linear algebra mod p and mod p**2.

Matrices carry their modulus and store entries as int64 in scipy sparse
column format. Ranks and homology dimensions are computed by exact
Gaussian elimination: a sparse column-reduction pass (columns processed by
increasing support, pivot rows chosen deterministically) with a dense
numpy elimination path for small matrices and as a fallback when fill-in
passes a density threshold. Kernels and solutions are dense only, and
refuse matrices past TO_DENSE_LIMIT entries. No floating point is used
anywhere.

The column reduction works on the flat CSC arrays (PHAT's column
representation; Bauer, Kerber, Reininghaus and Wagner, J. Symbolic
Comput. 78, 2017): a free column becomes a pivot as it stands, only a
colliding column gets a working dict, and each pivot is scaled to lead 1
once, when it is first used.

Homology dimensions use clearing (Chen-Kerber, "Persistent homology
computation with a twist", 2011): a wide differential d_out is reduced
transposed, and the rows where its reduced columns end (its pivot rows,
the lows of its row space, which the dense path reads off an rref with
the columns reversed) are kept on the matrix as an int64 array. Once
d_out d_in = 0 is certified, `homology_dim` ranks d_in with those rows
left out. This is exact: a reduced column v of d_out^T whose largest row
is i satisfies d_in^T v = 0, so row i of d_in is a combination of rows
k < i, and by induction on i every cleared row lies in the span of the
kept ones. The kept rows that reduce to zero then number dim H, not
dim ker d_out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Sequence

import numpy as np
from scipy import sparse as sp

from .errors import ModulusError, NotAComplexError, ResourceError, ShapeError

# dense elimination is used outright below this entry count
DENSE_SMALL = 1 << 12
# dense elimination is allowed as a path or fallback up to this entry count
DENSE_ENTRY_LIMIT = 1 << 21
# fill fraction beyond which sparse elimination restarts densely
FILL_THRESHOLD = 0.25
# refuse accidental huge densification
TO_DENSE_LIMIT = 1 << 24


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


@lru_cache(maxsize=None)
def split_modulus(m: int) -> tuple[int, int]:
    """Return (p, k) with m = p**k, k in {1, 2} and p prime.

    Moduli must lie below 2**32: then a residue times a limb of at least one
    bit, summed over fewer than 2**31 terms, fits in int64, which is what
    ModMatrix.__matmul__ needs to stay exact.
    """
    if not 2 <= m < 1 << 32:
        raise ModulusError(f"modulus {m} is outside [2, 2^32)")
    if is_prime(m):
        return m, 1
    r = isqrt(m)
    if r * r == m and is_prime(r):
        return r, 2
    raise ModulusError(f"modulus {m} is not a prime or a prime square")


@dataclass(frozen=True)
class ResidueScalar:
    """An integer residue carrying its modulus (a prime or a prime square)."""

    value: int
    modulus: int

    def __post_init__(self):
        split_modulus(self.modulus)
        object.__setattr__(self, "value", self.value % self.modulus)

    def _join(self, other: "ResidueScalar | int") -> int:
        if isinstance(other, ResidueScalar):
            if other.modulus != self.modulus:
                raise ModulusError(f"moduli differ: {self.modulus} vs {other.modulus}")
            return other.value
        return int(other) % self.modulus

    def __add__(self, other):
        return ResidueScalar((self.value + self._join(other)) % self.modulus, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        return ResidueScalar((self.value - self._join(other)) % self.modulus, self.modulus)

    def __mul__(self, other):
        return ResidueScalar((self.value * self._join(other)) % self.modulus, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return ResidueScalar((-self.value) % self.modulus, self.modulus)


def _reduced(mat: sp.csc_matrix, modulus: int) -> sp.csc_matrix:
    mat = mat.tocsc()
    if mat.dtype != np.int64:
        mat = mat.astype(np.int64)
    mat.data %= modulus
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


class ModMatrix:
    """A matrix of residues mod a prime or prime square."""

    __slots__ = ("shape", "modulus", "_csc", "_rank", "_pivot_rows")

    def __init__(self, shape: tuple[int, int], modulus: int, csc: sp.csc_matrix):
        split_modulus(modulus)
        rows, cols = shape
        if rows < 0 or cols < 0:
            raise ShapeError(f"bad shape {shape}")
        if csc.shape != (rows, cols):
            raise ShapeError(f"data shape {csc.shape} does not match {shape}")
        self.shape = (int(rows), int(cols))
        self.modulus = int(modulus)
        self._csc = _reduced(csc, modulus)
        self._rank: int | None = None
        # rows where the reduced columns of the transpose end (the lows of
        # the row space), when rank_fp reduced this matrix transposed; None
        # otherwise
        self._pivot_rows: np.ndarray | None = None

    # ---------------- constructors ----------------

    @classmethod
    def zeros(cls, rows: int, cols: int, modulus: int) -> "ModMatrix":
        return cls((rows, cols), modulus, sp.csc_matrix((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int, modulus: int) -> "ModMatrix":
        return cls((n, n), modulus, sp.identity(n, dtype=np.int64, format="csc"))

    @classmethod
    def from_arrays(cls, shape: tuple[int, int], modulus: int,
                    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> "ModMatrix":
        coo = sp.coo_matrix((np.asarray(vals, dtype=np.int64),
                             (np.asarray(rows), np.asarray(cols))), shape=shape)
        return cls(shape, modulus, coo.tocsc())  # tocsc sums duplicates

    @classmethod
    def from_dense(cls, arr, modulus: int) -> "ModMatrix":
        a = np.asarray(arr, dtype=np.int64)
        if a.ndim != 2:
            raise ShapeError("dense input must be 2-dimensional")
        return cls(a.shape, modulus, sp.csc_matrix(a % modulus))

    @classmethod
    def from_index_map(cls, rows_for_col: np.ndarray, n_rows: int, modulus: int,
                       vals: np.ndarray | None = None) -> "ModMatrix":
        """Column j carries a single entry at row rows_for_col[j].

        The CSC arrays are written directly (one entry per column needs no
        sorting); they are copies, since reduction works in place.
        """
        rows_for_col = np.array(rows_for_col, dtype=np.int64)
        n_cols = rows_for_col.shape[0]
        vals = np.ones(n_cols, dtype=np.int64) if vals is None else np.array(vals, dtype=np.int64)
        if n_cols and not (0 <= rows_for_col.min() and rows_for_col.max() < n_rows):
            raise ShapeError(f"index map leaves the {n_rows} rows")
        indptr = np.arange(n_cols + 1, dtype=np.int64)
        csc = sp.csc_matrix((vals, rows_for_col, indptr), shape=(n_rows, n_cols))
        return cls((n_rows, n_cols), modulus, csc)

    # ---------------- basic queries ----------------

    @property
    def nnz(self) -> int:
        return int(self._csc.nnz)

    @property
    def density(self) -> float:
        area = self.shape[0] * self.shape[1]
        return self.nnz / area if area else 0.0

    def csc(self) -> sp.csc_matrix:
        return self._csc

    def to_dense(self) -> np.ndarray:
        if self.shape[0] * self.shape[1] > TO_DENSE_LIMIT:
            raise ResourceError(
                f"refusing to densify a {self.shape} matrix",
                count=self.shape[0] * self.shape[1], cap=TO_DENSE_LIMIT)
        return np.asarray(self._csc.todense(), dtype=np.int64)

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
        return (self._csc - other._csc).nnz == 0

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
        self._join(other)
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        m, right = self.modulus, other._csc
        # an output entry sums at most k products of two residues, k the
        # largest column count of the right factor; its row count bounds k
        # without a pass over the columns
        k = right.shape[0]
        if k * (m - 1) ** 2 >= 1 << 63:
            k = int(np.diff(right.indptr).max(initial=0))
        if k * (m - 1) ** 2 < 1 << 63:
            prod = self._csc @ right
        else:
            prod = _limb_product(self._csc, right, m, k)
        return ModMatrix((self.shape[0], other.shape[1]), m, prod.tocsc())

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        self._join(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot add {self.shape} and {other.shape}")
        return ModMatrix(self.shape, self.modulus, (self._csc + other._csc).tocsc())

    def __sub__(self, other: "ModMatrix") -> "ModMatrix":
        self._join(other)
        if self.shape != other.shape:
            raise ShapeError(f"cannot subtract {self.shape} and {other.shape}")
        return ModMatrix(self.shape, self.modulus, (self._csc - other._csc).tocsc())

    def __neg__(self) -> "ModMatrix":
        return self.scale(-1)

    def scale(self, k: int) -> "ModMatrix":
        m = self.modulus
        k = int(k) % m
        out = self._csc.copy()
        out.data = _mulmod(out.data, k, m)
        return ModMatrix(self.shape, m, out)

    def transpose(self) -> "ModMatrix":
        return ModMatrix((self.shape[1], self.shape[0]), self.modulus,
                         self._csc.transpose().tocsc())

    @property
    def T(self) -> "ModMatrix":
        return self.transpose()

    def restrict(self, rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None) -> "ModMatrix":
        """Submatrix on the given index arrays (or boolean selectors)."""
        mat = self._csc
        # columns first: a column gather of CSC is a slice per column
        if cols is not None:
            cols = np.asarray(cols)
            if cols.dtype == bool:
                cols = np.nonzero(cols)[0]
            mat = mat[:, cols]
        if rows is not None:
            rows = np.asarray(rows)
            if rows.dtype == bool:
                rows = np.nonzero(rows)[0]
            mat = mat[rows, :]
        return ModMatrix(mat.shape, self.modulus, mat.tocsc())


def _mulmod(x, y, m: int) -> np.ndarray:
    """x * y mod m for residue arrays, exact for m < 2**32 (products fit uint64)."""
    return (np.asarray(x, dtype=np.uint64) * np.asarray(y, dtype=np.uint64)
            % np.uint64(m)).astype(np.int64)


def kron_power_arrays(mat: ModMatrix, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO arrays (rows, cols, vals) of mat (x) ... (x) mat with k factors,
    by digit arithmetic on the entries of mat: the entry picking entries
    e_1 .. e_k of mat sits at row sum_t row(e_t) R^(k-t), column
    sum_t col(e_t) C^(k-t), for mat of shape (R, C), and carries the
    product of their values. As in `scipy.sparse.kron`, the first factor
    acts on the most significant digits. No position repeats.
    """
    coo = mat.csc().tocoo()
    r0, c0, v0 = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    rows, cols, vals = r0, c0, v0
    for _ in range(k - 1):
        rows = (rows[:, None] * mat.shape[0] + r0).ravel()
        cols = (cols[:, None] * mat.shape[1] + c0).ravel()
        vals = _mulmod(vals[:, None], v0[None, :], mat.modulus).ravel()
    return rows, cols, vals


def kron_power(mat: ModMatrix, k: int) -> ModMatrix:
    """mat (x) ... (x) mat with k factors, one construction from the arrays
    of `kron_power_arrays`."""
    shape = (mat.shape[0] ** k, mat.shape[1] ** k)
    return ModMatrix.from_arrays(shape, mat.modulus, *kron_power_arrays(mat, k))


def _limb_product(left: sp.csc_matrix, right: sp.csc_matrix, m: int,
                  k: int) -> sp.csc_matrix:
    """left @ right mod m, exactly, when k * (m - 1)**2 would overflow int64.

    The right factor is cut into s-bit limbs with
    max(k, 2) * (m - 1) * (2**s - 1) < 2**63, so every limb product is exact
    in int64, and the reduced limb products are recombined by Horner's rule
    mod m; max(k, 2) also keeps (m - 1) * 2**s + m below 2**63.
    """
    s = _limb_bits(k, m)
    out = None
    for shift in reversed(range(0, (m - 1).bit_length(), s)):
        limb = right.copy()
        limb.data = (right.data >> shift) & ((1 << s) - 1)
        part = _reduced(left @ limb, m)
        out = part if out is None else _reduced(out * (1 << s) + part, m)
    return out


def _limb_bits(k: int, m: int) -> int:
    """The largest s with max(k, 2) * (m - 1) * (2**s - 1) < 2**63."""
    return ((((1 << 63) - 1) // (max(k, 2) * (m - 1))) + 1).bit_length() - 1


def matmul_mod(left: np.ndarray, right: np.ndarray, m: int) -> np.ndarray:
    """left @ right mod m for dense int64 residue arrays, exact for m < 2**32.

    Below the int64 accumulation bound k * max(left) * max(right) < 2**63,
    k the inner dimension, this is one integer matmul (for 0/1 structure
    constants at every modulus); above it the right factor is cut into
    limbs as in `_limb_product`. The entries are read only when the
    residue bound k * (m - 1)**2 does not already settle it.
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


def hstack(mats: Sequence[ModMatrix]) -> ModMatrix:
    if not mats:
        raise ShapeError("hstack of nothing")
    m = mats[0].modulus
    for mm in mats:
        if mm.modulus != m:
            raise ModulusError("hstack with mixed moduli")
    out = sp.hstack([mm.csc() for mm in mats], format="csc")
    return ModMatrix(out.shape, m, out)


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


def _canonical(csc: sp.csc_matrix, p: int) -> sp.csc_matrix:
    """csc itself when its row indices are sorted and distinct within each
    column and its entries lie in [1, p), else a reduced, sorted copy: the
    column reduction reads a column's last index as its largest row."""
    if csc.has_canonical_format and (csc.nnz == 0 or (csc.data.min() > 0
                                                      and csc.data.max() < p)):
        return csc
    out = csc.astype(np.int64)  # a copy, with its format flags recomputed
    out.sum_duplicates()
    out.data %= p
    out.eliminate_zeros()
    return out


def _column_reduce(csc: sp.csc_matrix, p: int, shape: tuple[int, int],
                   fill_guard: bool = True, order: Sequence[int] | None = None
                   ) -> tuple[int, dict[int, int]]:
    """Persistence-style column reduction mod p of the columns of csc.

    Columns are processed in the given order, by default by increasing
    support size, ties by index (a cheap stand-in for Markowitz pivoting);
    within a column the pivot row is the largest remaining row index, which
    makes the reduction deterministic. Returns (rank, pivots): pivots maps
    each pivot row to the index of the column that made it, in the order
    the pivots were found.

    The CSC arrays become three flat lists once, and a pivot is a (lo, hi)
    slice of them with its pivot row last. A column whose largest row holds
    no pivot yet is free: it becomes a pivot as it stands, with no copy and
    no scaling. Only a column that collides gets a {row: value} dict to
    eliminate in. A pivot built from such a dict, and a free pivot the
    first time a collision uses it, is scaled to carry 1 at its row and
    appended to the flat lists, so each pivot is scaled at most once.
    The fill counted against FILL_THRESHOLD is the size of every pivot,
    free ones included.
    """
    csc = _canonical(csc, p)
    area = shape[0] * shape[1]
    limit = FILL_THRESHOLD * area if fill_guard and 0 < area <= DENSE_ENTRY_LIMIT else None
    if order is None:
        order = np.argsort(np.diff(csc.indptr), kind="stable").tolist()
    ptr = csc.indptr.tolist()
    rows = csc.indices.tolist()
    vals = csc.data.tolist()
    pivots: dict[int, tuple[int, int, int]] = {}  # pivot row -> (lo, hi, source)
    fill = 0
    for j in order:
        lo, hi = ptr[j], ptr[j + 1]
        if lo == hi:
            continue
        r = rows[hi - 1]
        hit = pivots.get(r)
        if hit is None:  # a free column
            pivots[r] = (lo, hi, j)
            fill += hi - lo
            if limit is not None and fill > limit:
                raise _DenseRestart
            continue
        c = dict(zip(rows[lo:hi], vals[lo:hi]))
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
                nv = (c.get(rr, 0) - f * vv) % p
                if nv:
                    c[rr] = nv
                else:
                    c.pop(rr, None)
            if not c:
                break
            r = max(c)
            hit = pivots.get(r)
            if hit is None:
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
    return len(pivots), {r: src for r, (_, _, src) in pivots.items()}


def _prime_of(mat: ModMatrix) -> int:
    p, k = split_modulus(mat.modulus)
    if k != 1:
        raise ModulusError("this operation requires a prime modulus")
    return p


def rank_fp(mat: ModMatrix, clear: np.ndarray | None = None) -> int:
    """Rank over F_p, exact.

    clear, if given, is an int64 array of rows of mat that lie in the span
    of the rows it keeps; those rows are left out. The reduction walks the
    smaller list of vectors: when mat keeps fewer rows than it has columns,
    it reduces mat^T, and records on mat the rows where its reduced columns
    end (column indices of mat), for `homology_dim` to clear the next
    differential with. They are the lows of the row space of mat, whatever
    the path: the dense path reads them off an rref of the kept rows with
    the columns reversed.
    """
    p = _prime_of(mat)
    rows, cols = mat.shape
    if rows == 0 or cols == 0 or mat.nnz == 0:
        return 0
    csc = mat.csc()
    keep = None
    if clear is not None and clear.size:
        keep = np.delete(np.arange(rows), clear)
        rows = keep.size
    # orient so that the reduction walks the smaller list of vectors
    transposed = cols > rows
    if transposed:
        csc = csc.transpose().tocsc()
        if keep is not None:
            csc = csc[:, keep]
    elif keep is not None:
        csc = csc[keep]
    area = rows * cols
    # the density of the whole matrix stands in for that of its kept rows
    if area <= DENSE_SMALL or (area <= DENSE_ENTRY_LIMIT and mat.density >= FILL_THRESHOLD):
        dense = np.asarray(csc.todense())
    else:
        try:
            rank, pivots = _column_reduce(csc, p, csc.shape)
        except _DenseRestart:
            dense = np.asarray(csc.todense())
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
    p = _prime_of(mat)
    rows, cols = mat.shape
    if cols == 0:
        return ModMatrix.zeros(0, 0, mat.modulus)
    if rows == 0 or mat.nnz == 0:
        return ModMatrix.identity(cols, mat.modulus)
    return ModMatrix.from_dense(_dense_kernel(mat.to_dense(), p), p)


def solve_fp(a: ModMatrix, b: ModMatrix) -> ModMatrix | None:
    """A particular solution X of a @ X = b over F_p, or None if inconsistent,
    by dense elimination of [a | b] (ResourceError past TO_DENSE_LIMIT entries)."""
    p = _prime_of(a)
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


def homology_dim(d_in: ModMatrix, d_out: ModMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for consecutive differentials.

    d_out maps the middle degree down, d_in maps into the middle degree.
    Raises NotAComplexError unless d_out @ d_in = 0. Once that is
    certified, d_in is ranked with d_out's pivot rows cleared (module
    docstring): a reduced column v of d_out^T ending at row i gives
    d_in^T v = 0, so row i of d_in is a combination of rows k < i, and by
    induction every cleared row lies in the span of the kept ones. Reading
    degrees in increasing order lets each differential clear the next.
    """
    if d_in.modulus != d_out.modulus:
        raise ModulusError("differentials with different moduli")
    _prime_of(d_out)
    if d_out.shape[1] != d_in.shape[0]:
        raise ShapeError(
            f"middle dimension mismatch: d_out has {d_out.shape[1]} columns, "
            f"d_in has {d_in.shape[0]} rows")
    if not (d_out @ d_in).is_zero():
        raise NotAComplexError("d_out @ d_in is not zero")
    rank_out = d_out.rank()
    dim = d_out.shape[1] - rank_out - d_in.rank(clear=d_out._pivot_rows)
    if dim < 0:
        raise NotAComplexError("negative homology dimension; ranks inconsistent")
    return dim
