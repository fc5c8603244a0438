"""Hochschild and cyclic homology of a structure constant algebra.

Two chain models of the same mixed complex live here, both assembled as
sparse matrices by direct index arithmetic on digit strings.

The normalized mixed complex (`NormalizedMixedComplex`) is taken relative
to the subalgebra S spanned by the basis idempotents of A (S = k1 when
there are none, `algebra.BasisIdempotents`): level n is A (x)_S^e
(A/S)^(x)_S n, with the normalized b and Connes B. Its words are the
cyclically composable a0 | a1 .. an with a1..an outside S, kept as rows of
digits; each of b and B is one gather over a level's rows, whatever n.
Middle products are projected onto A/S, and B inserts the one idempotent
that survives (x)_S. With S = k1 every word is composable and the complex
is A (x) Abar^n. S is separable, so the complex computes HH and HC (Loday,
Cyclic Homology, 1.2 and 2.2). It carries the HH and HC numbers: `hh_dims`
and `hc_dims` (the `hh` and `hc` commands), `sbi_check` (`sbi`), the
degeneration verdict and the page tables of `hodge_ss` (`hodge`, and
`ledger`, its per-degree view), and the HH/HC references of the
subdivision routes in `cartier` (`edgewise-check`, `conjugate`). Its
levels have at most (d - 1)^n / d^n times the coordinates of the
unnormalized ones, and trace(T0 T^n) in general: 2 per level for the 2 x 2
matrices, where the complex relative to k has 4 * 3^n.

The `--cap` guard charges the entries the operators write, counted from
those transfer matrices (`level_counts`), and one per face and rotation,
which bounds the work of a level that writes nothing: `hh` pays for b;
`hc`, `sbi`, `hodge` and `ledger` for b and B.

The unnormalized cyclic object (`CyclicLevelMaps`) has level n equal to
the (n+1)-fold tensor power of A on the monomial basis, with faces
multiplying adjacent factors (the last face wraps around), the unit
inserted in front by the extra degeneracy, and the signed rotation as
cyclic operator. No command builds it: its faces are the reference of the
p-fold subdivision in `cartier`, and `hodge --pages` reports its page E_0
in closed form from HH (`_cyclic_page_zero`), since the later pages do not
depend on the chain model.

From these come the b complex and the column filtration of the
totalization Tot_n = C_n + C_{n-2} + .. with d = b + B
(`complexes.filtration_by_columns`), which computes cyclic homology. One
persistence pairing of that filtration (`specseq.pair_gaps`) gives both
the Hodge pages and the SBI triangle HH_n -I-> HC_n -S-> HC_{n-2} -D->
HH_{n-1}, the long exact sequence of its first step F_0, the b complex
(`sbi_ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra import BasisIdempotents, StructureConstantsAlgebra
from .complexes import ChainComplexWindow, filtration_by_columns
from .conventions import cyclic_sign, face_sum
from .errors import (InternalCheckError, ModulusError, ResourceError, ShapeError,
                     WindowError)
from .modring import ModMatrix
from .specseq import UNPAIRED, SSPage, page_entries, pages, pair_gaps

DEFAULT_ENTRY_CAP = 1 << 24


# ---------------- raw operator matrices ----------------

def face_matrix(a: StructureConstantsAlgebra, m: int, i: int) -> ModMatrix:
    """Face i at simplicial level m: A tensor (m+1) -> A tensor m."""
    d = a.dim
    if not (1 <= m and 0 <= i <= m):
        raise ShapeError(f"face ({m}, {i}) out of range")
    size_in = d ** (m + 1)
    size_out = d ** m
    rows_l, cols_l, vals_l = [], [], []
    if i < m:
        lo = d ** i
        hi = d ** (m - 1 - i)
        lo_idx = np.arange(lo, dtype=np.int64)
        hi_idx = np.arange(hi, dtype=np.int64) if hi else np.zeros(0, dtype=np.int64)
        base_row = (lo_idx[:, None] + hi_idx[None, :] * (lo * d)).ravel()
        base_col = (lo_idx[:, None] + hi_idx[None, :] * (lo * d * d)).ravel()
        for (x, y), terms in _product_terms(a):
            for k, v in terms:
                rows_l.append(base_row + k * lo)
                cols_l.append(base_col + x * lo + y * (lo * d))
                vals_l.append(np.full(base_row.shape[0], v, dtype=np.int64))
    else:
        mid = np.arange(d ** (m - 1), dtype=np.int64)
        for (x, y), terms in _product_terms(a):
            for k, v in terms:
                rows_l.append(k + mid * d)
                cols_l.append(y + mid * d + x * d ** m)
                vals_l.append(np.full(mid.shape[0], v, dtype=np.int64))
    if rows_l:
        rows = np.concatenate(rows_l)
        cols = np.concatenate(cols_l)
        vals = np.concatenate(vals_l)
    else:
        rows = cols = vals = np.zeros(0, dtype=np.int64)
    return ModMatrix.from_arrays((size_out, size_in), a.modulus, rows, cols, vals)


def _product_terms(a: StructureConstantsAlgebra):
    nz = np.argwhere(a.constants != 0)
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j, k in nz:
        table.setdefault((int(i), int(j)), []).append(
            (int(k), int(a.constants[i, j, k])))
    return table.items()


def degeneracy_matrix(a: StructureConstantsAlgebra, m: int, i: int) -> ModMatrix:
    """Degeneracy i at level m: insert the unit after slot i."""
    d = a.dim
    if not (0 <= i <= m):
        raise ShapeError(f"degeneracy ({m}, {i}) out of range")
    size_in = d ** (m + 1)
    size_out = d ** (m + 2)
    lo = d ** (i + 1)
    hi = d ** (m - i)
    lo_idx = np.arange(lo, dtype=np.int64)
    hi_idx = np.arange(hi, dtype=np.int64)
    base_col = (lo_idx[:, None] + hi_idx[None, :] * lo).ravel()
    base_row = (lo_idx[:, None] + hi_idx[None, :] * (lo * d)).ravel()
    rows_l, cols_l, vals_l = [], [], []
    for k in np.nonzero(a.unit)[0]:
        rows_l.append(base_row + int(k) * lo)
        cols_l.append(base_col)
        vals_l.append(np.full(base_col.shape[0], int(a.unit[k]), dtype=np.int64))
    rows = np.concatenate(rows_l)
    cols = np.concatenate(cols_l)
    vals = np.concatenate(vals_l)
    return ModMatrix.from_arrays((size_out, size_in), a.modulus, rows, cols, vals)


def extra_degeneracy_matrix(a: StructureConstantsAlgebra, m: int) -> ModMatrix:
    """x -> 1 (x) x at level m."""
    d = a.dim
    size_in = d ** (m + 1)
    cols = np.arange(size_in, dtype=np.int64)
    rows_l, cols_l, vals_l = [], [], []
    for k in np.nonzero(a.unit)[0]:
        rows_l.append(int(k) + cols * d)
        cols_l.append(cols)
        vals_l.append(np.full(size_in, int(a.unit[k]), dtype=np.int64))
    return ModMatrix.from_arrays((size_in * d, size_in), a.modulus,
                                 np.concatenate(rows_l), np.concatenate(cols_l),
                                 np.concatenate(vals_l))


def rotation_matrix(dim: int, m: int, modulus: int) -> ModMatrix:
    """Unsigned rotation at level m: last factor moves to the front."""
    size = dim ** (m + 1)
    cols = np.arange(size, dtype=np.int64)
    stride = dim ** m
    rows = cols // stride + (cols % stride) * dim
    return ModMatrix.from_index_map(rows, size, modulus)


# ---------------- the entry cap ----------------

def _check_levels(a: StructureConstantsAlgebra, N: int, what: str, charges,
                  cap: int | None) -> None:
    """Refuse a chain model through level N of fewer than two levels, over
    Z/p^2, or whose entries, charges(cap) level by level, pass cap."""
    if N < 1:
        raise WindowError("need at least levels 0 and 1")
    if a.power != 1:
        raise ModulusError(f"{what} runs over F_p")
    cap, total = DEFAULT_ENTRY_CAP if cap is None else cap, 0
    for n, entries in enumerate(charges(cap)):
        total += entries
        if total > cap:
            raise ResourceError(f"{what} through level {N} passes the cap at level {n}",
                                count=total, cap=cap, level=n)


def level_counts(a: StructureConstantsAlgebra, N: int, p: int | None = None):
    """(words, entries of b(n), entries of B(n)) for n = 0..N, lazily: the
    COO entries written before duplicates are summed, no word enumerated.

    With p, the p-fold edgewise subdivision of the cyclic object (p = 1:
    the cyclic object), no B: each of the n + 1 faces of level n is the
    p-th Kronecker power of one with d^(n-1) nnz(c) entries. Otherwise the
    normalized mixed complex relative to S, the basis idempotents:
    trace(T0 T^n) words at level n, closed walks in the quiver of the
    blocks e_i A e_j (T0, T: basis and bar vectors by block).
    A factor weighted by the terms of the product a face gathers counts
    that face: W for face 0 (a0 a1) and the wrap face (an a0), Wm for the
    middle ones (pr(ai ai+1)); each of the n + 1 rotations of B writes the
    terms of pr(a0) (P0) times the u terms of a row of S. O(N r^3).
    """
    d, c = a.dim, a.constants
    if p is not None:
        yield d ** p, 0, 0
        for n in range(1, N + 1):
            yield d ** (p * (n + 1)), (n + 1) * (d ** (n - 1) * int(np.count_nonzero(c))) ** p, 0
        return
    S = a.idempotents
    pr, bar = _bar_projection(a, S)
    left, right = np.eye(S.r, dtype=np.int64)[:, S.left], np.eye(S.r, dtype=np.int64)[:, S.right]

    def flow(x, y, weights):
        """r x r: the weights of the composable letter pairs in x, y, by block."""
        return left[:, x] @ (weights * (right[:, x].T @ left[:, y])) @ right[:, y].T

    every, r, u = np.arange(d), S.r, int(np.count_nonzero(S.span[0]))
    T0, T = left @ right.T, left[:, bar] @ right[:, bar].T
    P0 = (left * (pr != 0).sum(axis=0)) @ right.T
    W = flow(every, bar, (c[:, bar] != 0).sum(2)) + flow(bar, every, (c[bar, :] != 0).sum(2))
    Wm = flow(bar, bar, (_middle_products(a, pr, bar) != 0).sum(2))
    # M^k = [[T^k, sum of T^i Wm T^(k-1-i) over i < k], [0, T^k]]; read times
    # its right column holds b, the words and B of level k + 1 on the diagonal
    M = np.block([[T, Wm], [0 * T, T]]).astype(object)
    read = np.block([[T0, W], [0 * T, T @ T0], [0 * T, T @ P0]]).astype(object)
    power = np.identity(2 * r, dtype=object)    # M^(n-1) at level n
    yield int(T0.trace()), 0, u * int(P0.trace())
    for n in range(1, N + 1):
        b, words, B = np.trace((read @ power[:, r:]).reshape(3, r, r), axis1=1, axis2=2)
        power = power @ M
        yield int(words), int(b), u * (n + 1) * int(B)


# ---------------- the cyclic object ----------------

def estimate_entries(a: StructureConstantsAlgebra, N: int) -> int:
    """The entries of the faces of the cyclic object through level N."""
    return sum(b for _, b, _ in level_counts(a, N, p=1))


class CyclicLevelMaps:
    """Faces, rotations and extra degeneracies through level N, and the
    b, b', norm and Connes operators built from them."""

    def __init__(self, a: StructureConstantsAlgebra, N: int,
                 cap: int | None = None):
        _check_levels(a, N, "the cyclic object",
                      lambda cap: (w + b for w, b, _ in level_counts(a, N, p=1)), cap)
        self.algebra = a
        self.N = N
        self.dims = [a.dim ** (n + 1) for n in range(N + 1)]
        self._faces = {(n, i): face_matrix(a, n, i)
                       for n in range(1, N + 1) for i in range(n + 1)}
        self._rots = {n: rotation_matrix(a.dim, n, a.modulus) for n in range(N + 1)}
        self._extra = {n: extra_degeneracy_matrix(a, n) for n in range(N)}
        self._b: dict[int, ModMatrix] = {}
        self._bprime: dict[int, ModMatrix] = {}
        self._B: dict[int, ModMatrix] = {}
        self._norm: dict[int, ModMatrix] = {}

    def dim(self, n: int) -> int:
        return self.dims[n]

    def face(self, n: int, i: int) -> ModMatrix:
        return self._faces[(n, i)]

    def t(self, n: int) -> ModMatrix:
        """The signed cyclic operator (-1)^n times the rotation."""
        return self._rots[n].scale(cyclic_sign(n))

    def b(self, n: int) -> ModMatrix:
        if n == 0:
            return ModMatrix.zeros(0, self.dims[0], self.algebra.modulus)
        if n not in self._b:
            self._b[n] = face_sum(self.face(n, i) for i in range(n + 1))
        return self._b[n]

    def bprime(self, n: int) -> ModMatrix:
        if n == 0:
            return ModMatrix.zeros(0, self.dims[0], self.algebra.modulus)
        if n not in self._bprime:
            self._bprime[n] = face_sum(self.face(n, i) for i in range(n))
        return self._bprime[n]

    def norm(self, n: int) -> ModMatrix:
        """1 + t + ... + t**n on level n, with the signed operator."""
        if n not in self._norm:
            t = self.t(n)
            out = ModMatrix.identity(self.dims[n], self.algebra.modulus)
            acc = ModMatrix.identity(self.dims[n], self.algebra.modulus)
            for _ in range(n):
                acc = t @ acc
                out = out + acc
            self._norm[n] = out
        return self._norm[n]

    def B(self, n: int) -> ModMatrix:
        """Connes operator: (1 - t) after the extra degeneracy after the norm."""
        if n >= self.N:
            raise WindowError(f"B at level {n} needs level {n + 1} (window tops at {self.N})")
        if n not in self._B:
            one_minus_t = (ModMatrix.identity(self.dims[n + 1], self.algebra.modulus)
                           - self.t(n + 1))
            self._B[n] = one_minus_t @ self._extra[n] @ self.norm(n)
        return self._B[n]


# ---------------- the normalized mixed complex ----------------

def _bar_projection(a: StructureConstantsAlgebra,
                    S: BasisIdempotents) -> tuple[np.ndarray, np.ndarray]:
    """(pr, bar): A / S gets the basis e_j, j in bar, i.e. every j except
    one pivot per row s of S (its first coordinate that is a unit mod p),
    and pr is the |bar| x d matrix of A -> A/S in it: e_pivot goes to
    -sum_j s_j / s_pivot e_j. The rows of S have disjoint supports, so each
    is killed on its own; for basis idempotents pr just drops them."""
    pivots = []
    for s in S.span:
        nz = np.nonzero(s % a.p)[0]
        if nz.size == 0:
            raise ShapeError("unit vector is zero")
        pivots.append(int(nz[0]))
    bar = np.array([j for j in range(a.dim) if j not in pivots], dtype=np.int64)
    pr = np.zeros((bar.size, a.dim), dtype=np.int64)
    pr[np.arange(bar.size), bar] = 1
    for s, k in zip(S.span, pivots):
        inv = pow(int(s[k]), -1, a.modulus)
        pr[:, k] = [(-int(s[j]) * inv) % a.modulus for j in bar]
    return pr, bar


def _middle_products(a: StructureConstantsAlgebra, pr: np.ndarray, bar: np.ndarray):
    """[x, y, k]: the coordinates of pr(bar_x bar_y)."""
    mid = a.constants[np.ix_(bar, bar)].astype(object) @ pr.T.astype(object)
    return (mid % a.modulus).astype(np.int64)


def _composable_words(S: BasisIdempotents, bar: np.ndarray, N: int) -> list[np.ndarray]:
    """Level n = 0..N: the words a0 | a1 .. an with right(a_i) = left(a_i+1)
    and right(an) = left(a0), as rows of n + 1 digits (a0 a basis letter,
    a1..an indices into bar), sorted with slot n most significant."""
    d = S.left.size
    words = np.arange(d, dtype=np.min_scalar_type(d - 1))[:, None]   # open words a0 | .. | ak
    first, last = S.left, S.right
    out = [words[last == first]]
    for _ in range(N):
        # y-major, so the rows stay sorted under their new most significant slot
        y, w = np.nonzero(S.left[bar][:, None] == last)
        words = np.concatenate([words[w], y[:, None].astype(words.dtype)], axis=1)
        first, last = first[w], S.right[bar][y]
        out.append(words[last == first])
    return out


def _rows_by_key(table: np.ndarray, digit: np.dtype):
    """A table [key.., k] as CSR rows over the flattened leading axes, with
    the columns k as digits."""
    flat = table.reshape(int(np.prod(table.shape[:-1])), table.shape[-1])
    q, k = np.nonzero(flat)
    ptr = np.zeros(flat.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(q, minlength=flat.shape[0]), out=ptr[1:])
    return ptr, k.astype(digit), flat[q, k]


def _gather(keys: np.ndarray, rows):
    """(j, k, v) for every j and every term (k, v) of row keys[j]."""
    ptr, k, v = rows
    count = np.diff(ptr).astype(np.min_scalar_type(k.size))[keys]
    j = np.flatnonzero(count)           # the keys with terms
    count = count[j]
    # the first term of each key, less the rank of that term among all
    at = np.repeat(ptr[keys[j]] + count - np.cumsum(count, dtype=np.int64), count)
    at += np.arange(at.size)
    return np.repeat(j, count), k[at], v[at]


def _sort_keys(words: np.ndarray) -> np.ndarray:
    """One byte string per word that sorts as the words: slot n first, big-endian."""
    big = np.ascontiguousarray(words[:, ::-1], dtype=words.dtype.newbyteorder(">"))
    return big.view(np.dtype((np.void, big.itemsize * big.shape[1]))).ravel()


class NormalizedMixedComplex:
    """The normalized mixed complex relative to S, (A (x)_S^e (A/S)^(x)_S n,
    b, B), through level N.

    S is the separable subalgebra spanned by the basis idempotents of the
    algebra (`BasisIdempotents`; k1 when there are none). The quotient from
    the complex relative to k is a map of mixed complexes and an isomorphism
    on HH, hence on HC (SBI and the five lemma).

    Level n is spanned by the cyclically composable words a0 | a1 .. an:
    a0 a basis vector of A, a1..an bar vectors (the basis of A/S from
    `_bar_projection`), with right(a_i) = left(a_i+1) and right(an) =
    left(a0). Level n is a (count, n + 1) array of digits, a0 and the
    indices of a1..an into bar, sorted with slot n most significant; a
    word's coordinate is its row, with r = 1 its index a0 + d (a1 + e (a2
    + ..)), e = |bar|. b and B are each one gather on these rows, from
    projected structure-constant tables: products into slot 0 (face 0 and
    the wrap face) keep the full product, middle products are projected
    onto A/S, and

        B(a0 (x) .. (x) an) = sum_i (-1)^(n i) e (x) a_i .. a_n (x) pr(a0) .. a_(i-1),

    with e the row of S that survives (x)_S in front of a_i: the unit when
    r = 1, the idempotent e_left(a_i) otherwise. Every row built is
    certified to land on a composable word. The cap is charged for b, and
    for B unless charge_B is False (`hh_dims` reads b alone).
    """

    def __init__(self, a: StructureConstantsAlgebra, N: int, cap: int | None = None,
                 charge_B: bool = True):
        S = a.idempotents
        words = []      # per level, as the guard reads them

        def charges(cap):
            # a face or a rotation is charged one entry even when it writes
            # nothing, which bounds the work of an empty level
            for n, (w, b, B) in enumerate(level_counts(a, N)):
                words.append(w)
                yield b + n + 1 + (B + n + 1 if charge_B and n < N else 0)

        _check_levels(a, N, f"{'b and B' if charge_B else 'b'} of the normalized mixed complex",
                      charges, cap)
        self.algebra = a
        self.N = N
        pr, bar = _bar_projection(a, S)
        self._bar = bar
        self._words = _composable_words(S, bar, N)
        self.dims = [w.shape[0] for w in self._words]
        if self.dims != words:
            raise InternalCheckError(
                f"composable words {self.dims} disagree with the transfer-matrix count")
        c, d, e, digit = a.constants, a.dim, bar.size, self._words[0].dtype
        # [face 0, middle or wrap face, slot i, slot i + 1]: a0 a1, pr(ai ai+1), an a0
        products = np.zeros((3, d, d, d), dtype=np.int64)
        products[0, :, :e] = c[:, bar]
        products[1, :e, :e, :e] = _middle_products(a, pr, bar)
        products[2, :e] = c[bar]
        self._faces = _rows_by_key(products, digit)
        self._prT = _rows_by_key(pr.T, digit)         # a0 -> pr(a0)
        self._unit = _rows_by_key(S.span, digit)      # block -> its row of S
        self._block = S.left[bar].astype(digit)       # the block a bar vector starts in
        self._b: dict[int, ModMatrix] = {}
        self._B: dict[int, ModMatrix] = {}

    def dim(self, n: int) -> int:
        return self.dims[n]

    def _position(self, n: int, words: np.ndarray) -> np.ndarray:
        """The coordinate of each word, a row of digits, at level n."""
        have = self._words[n]
        d, e = self.algebra.dim, self._bar.size
        if have.shape[0] == d * e ** n:
            # every word is composable: the index a0 + d (a1 + e (a2 + ..))
            weights = np.cumprod([1, d] + [e] * (n - 1))[:n + 1]
            return np.einsum("ij,j->i", words, weights, dtype=np.int64)
        have, words = _sort_keys(have), _sort_keys(words)
        pos = np.searchsorted(have, words)
        if words.size and (have.size == 0 or np.any(have[np.minimum(pos, have.size - 1)] != words)):
            raise InternalCheckError(
                f"an operator into level {n} leaves the composable words")
        return pos

    def b(self, n: int) -> ModMatrix:
        mod = self.algebra.modulus
        if n == 0:
            return ModMatrix.zeros(0, self.dims[0], mod)
        if n not in self._b:
            d, words = self.algebra.dim, self._words[n]
            # face i multiplies slot i by slot i + 1 mod n + 1, writes the
            # product into the lower of the two slots and drops the higher
            slot = np.arange(n + 1, dtype=np.min_scalar_type(n))
            low, high = np.minimum(slot, np.roll(slot, -1)), np.maximum(slot, np.roll(slot, -1))
            keys = words.astype(np.int32) * d + np.roll(words, -1, axis=1)
            keys[:, 1:] += d * d        # the middle faces, then the wrap face n
            keys[:, n] += d * d
            col, k, v = _gather(keys.reshape(-1), self._faces)
            del keys
            col, i = np.divmod(col, n + 1)
            i = i.astype(slot.dtype)
            rows = words[col][slot != high[i][:, None]].reshape(-1, n)
            rows.reshape(-1)[np.arange(0, rows.size, n) + low[i]] = k
            rows = self._position(n - 1, rows)
            np.subtract(mod, v, out=v, where=i % 2 == 1)    # face_sign(i), as residues
            self._b[n] = ModMatrix.from_arrays((self.dims[n - 1], self.dims[n]), mod, rows, col, v)
        return self._b[n]

    def B(self, n: int) -> ModMatrix:
        if n >= self.N:
            raise WindowError(f"B at level {n} needs level {n + 1} (window tops at {self.N})")
        if n not in self._B:
            mod, words = self.algebra.modulus, self._words[n]
            col, j, coef = _gather(words[:, 0], self._prT)
            bar_words = words[col]                      # pr(a0), a1, .., an on bar
            bar_words[:, 0] = j
            # the row of S in front of a_i, then rotation i: the window at i
            # of the row written twice
            t, u, s = _gather(self._block[bar_words].reshape(-1), self._unit)
            t, i = np.divmod(t, n + 1)
            rows = np.concatenate([u[:, None], np.lib.stride_tricks.sliding_window_view(
                np.concatenate([bar_words, bar_words], axis=1), n + 1, axis=1)[t, i]], axis=1)
            rows = self._position(n + 1, rows)
            s = s * coef[t] % mod
            np.subtract(mod, s, out=s, where=(i % 2 == 1) & (n % 2 == 1))
            self._B[n] = ModMatrix.from_arrays(
                (self.dims[n + 1], self.dims[n]), mod, rows, col[t], s)
        return self._B[n]


# ---------------- complexes and dimensions ----------------

def b_complex(cyc) -> ChainComplexWindow:
    """The b complex of a carrier, normalized or not."""
    dims = {n: cyc.dim(n) for n in range(cyc.N + 1)}
    diffs = {n: cyc.b(n) for n in range(1, cyc.N + 1)}
    return ChainComplexWindow(cyc.N, dims, diffs, cyc.algebra.modulus)


def hh_dims(a: StructureConstantsAlgebra, N: int, cap: int | None = None,
            carrier: NormalizedMixedComplex | None = None) -> dict[int, int]:
    """Hochschild homology dimensions on the window [0, N-1]."""
    if carrier is None:
        carrier = NormalizedMixedComplex(a, N, cap=cap, charge_B=False)
    return b_complex(carrier).homology_dims()


def hc_dims(a: StructureConstantsAlgebra, N: int, cap: int | None = None,
            tot: ChainComplexWindow | None = None) -> dict[int, int]:
    """Cyclic homology dimensions, reported on the window [0, N-2], read on
    tot, the totalization of a mixed complex through level N, when given."""
    if N < 2:
        raise WindowError("cyclic homology needs N >= 2")
    if tot is None:
        tot = filtration_by_columns(NormalizedMixedComplex(a, N, cap=cap)).carrier
    return {n: tot.homology_dim(n) for n in range(0, N - 1)}


# ---------------- SBI ----------------

@dataclass
class SBIReport:
    N: int
    degrees: list[int]
    hh: dict[int, int]
    hc: dict[int, int]
    ranks: dict[int, dict[str, int]] = field(default_factory=dict)
    spots: dict[int, dict[str, bool]] = field(default_factory=dict)
    exact: bool = False


def sbi_check(a: StructureConstantsAlgebra, N: int, cap: int | None = None) -> SBIReport:
    """Dimension-level exactness of the inclusion/projection/connecting
    triangle relating Hochschild and cyclic homology, on the normalized
    mixed complex (see `sbi_ranks`)."""
    if N < 6:
        raise WindowError("the triangle check needs at least 4 usable degrees, so N >= 6")
    return sbi_ranks(NormalizedMixedComplex(a, N, cap=cap))


def sbi_ranks(cyc) -> SBIReport:
    """The SBI triangle on a mixed complex carrier: any object with `N`,
    `algebra`, `dim(n)`, `b(n)` and `B(n)` through level N.

    The triangle is the long exact sequence of F_0 in Tot, the first step
    of the column filtration of Tot (`filtration_by_columns`): F_0 is the b complex,
    Tot computes HC, and Tot/F_0 is Tot shifted up by two,

        HH_n --I--> HC_n --S--> HC_{n-2} --D--> HH_{n-1}.

    The ranks are read off the persistence pairing of that filtration
    (`specseq.pair_gaps`, the one `hodge --pages` reads). A pair kills, at
    its column's level, the class born at its row's level; an unpaired
    vector is a class that lives in Tot. So in degree n
      rank I_n = unpaired vectors at level 0 (born in F_0, alive in Tot),
      rank S_n = unpaired vectors at level >= 1 (ker S = im I),
      rank D_n = pairs of d_n with the row at level 0 and the column at
                 level >= 1 (classes of F_0 that die in Tot: im D = ker I).
    For each degree n in [2, N-1] three spots check these counts against
    other computations:
      at_hc        dim HC_n     = rank I_n + rank S_n, HC from the cleared
                   ranks of Tot, another elimination;
      at_hc_shift  dim HC_{n-2} = rank S_n + rank D_n, the periodicity
                   Tot/F_0 = Tot[2];
      at_hh        dim HH_{n-1} = rank D_n + rank I_{n-1}, HH from the
                   b complex.
    A totalization that fails d^2 = 0 raises NotAComplexError.
    """
    N = cyc.N
    filt = filtration_by_columns(cyc)
    hh = b_complex(cyc).homology_dims()
    hc = {n: filt.carrier.homology_dim(n) for n in range(0, N)}
    level, gap, head = pair_gaps(filt)
    rank_I = {n: int(np.count_nonzero((gap[n] == UNPAIRED) & (level[n] == 0)))
              for n in range(1, N)}
    degrees = list(range(2, N))
    ranks: dict[int, dict[str, int]] = {}
    spots: dict[int, dict[str, bool]] = {}
    for n in degrees:
        lifted = level[n] >= 1
        rS = int(np.count_nonzero((gap[n] == UNPAIRED) & lifted))
        # a pair's row sits at its column's level minus the gap, here 0
        rD = int(np.count_nonzero((head[n] == level[n]) & lifted))
        ranks[n] = {"I": rank_I[n], "S": rS, "D": rD, "I_prev": rank_I[n - 1]}
        spots[n] = {
            "at_hc": hc[n] == rank_I[n] + rS,
            "at_hc_shift": hc[n - 2] == rS + rD,
            "at_hh": hh[n - 1] == rD + rank_I[n - 1],
        }
    exact = all(all(checks.values()) for checks in spots.values())
    return SBIReport(N=N, degrees=degrees, hh=hh, hc=hc, ranks=ranks,
                     spots=spots, exact=exact)


# ---------------- Hodge filtration ----------------

@dataclass
class HodgeSSReport:
    N: int
    window: tuple[int, int]
    e1: dict[tuple[int, int], int]
    abutment: dict[int, int]
    hodge_sums: dict[int, int]
    degenerate: bool
    page_tables: list | None


def _cyclic_page_zero(page: SSPage, d: int, hh: dict[int, int]) -> SSPage:
    """Page 0 of the cyclic object's column filtration, on the keys of page 0
    of another chain model of the same mixed complex.

    Column l in total degree n holds the chains of degree n - 2l, so
    E_0(l, n) = d^(n - 2l + 1), or 0 when n < 2l. d_0 is b, so the rank out
    of (l, n) is rank b_(n - 2l), from rank b_0 = 0 and
    rank b_(m+1) = d^(m+1) - rank b_m - dim HH_m. Raises InternalCheckError
    if a derived rank is negative or exceeds d^(m+1), the smaller dimension
    b_(m+1) maps between.
    """
    ranks = [0]
    for m in range(max(n - 2 * l for l, n in page.d_ranks)):
        rank = d ** (m + 1) - ranks[m] - hh[m]
        if not 0 <= rank <= d ** (m + 1):
            raise InternalCheckError(f"derived rank b_{m + 1} = {rank} is outside "
                                     f"[0, {d ** (m + 1)}]")
        ranks.append(rank)
    return replace(
        page, table={(l, n): d ** (n - 2 * l + 1) if n >= 2 * l else 0 for l, n in page.table},
        d_ranks={(l, n): ranks[n - 2 * l] if n >= 2 * l else 0 for l, n in page.d_ranks})


def hodge_ss(a: StructureConstantsAlgebra, N: int, cap: int | None = None,
             pages_budget: int = 3000, r_max: int = 3) -> HodgeSSReport:
    """The column filtration of the mixed bicomplex, on one chain model: the
    normalized mixed complex and its one totalization.

    The first page in filtration degree l and total degree n is
    HH_{n - 2l}; the abutment is cyclic homology. The verdict compares
    dim HC_n with the sum of the first page along each antidiagonal. The
    abutment can never exceed that sum; if it does the pipeline is broken
    and this raises. Page tables from the generic spectral sequence engine
    are attached when pages_budget covers the sum of d^(m+1), the
    coordinates of the cyclic object's levels; their entries are charged
    against cap before they are built. Projecting onto the
    normalized complex is a filtered quasi-isomorphism on b, so every E_r
    with r >= 1 is that of the cyclic object (Loday, Cyclic Homology, 2.1);
    the chain-level E_0 is reported for the cyclic object, in closed form
    (`_cyclic_page_zero`).
    """
    if N < 2:
        raise WindowError("need N >= 2")
    carrier = NormalizedMixedComplex(a, N, cap=cap)
    filt = filtration_by_columns(carrier)
    with_pages = sum(a.dim ** (m + 1) for m in range(N + 1)) <= pages_budget
    if with_pages:
        entries, limit = page_entries(filt, r_max), DEFAULT_ENTRY_CAP if cap is None else cap
        if entries > limit:
            raise ResourceError(f"the pages E_0 .. E_{r_max} pass the cap",
                                count=entries, cap=limit)
    hh = hh_dims(a, N, carrier=carrier)
    hc = hc_dims(a, N, tot=filt.carrier)
    e1 = {(l, n): hh[n - 2 * l] for n in range(N - 1) for l in range(n // 2 + 1)}
    sums = {n: sum(hh[n - 2 * l] for l in range(n // 2 + 1)) for n in range(N - 1)}
    for n, total in sums.items():
        if hc[n] > total:
            raise InternalCheckError(
                f"cyclic homology exceeds the Hodge stack in degree {n}: {hc[n]} > {total}")
    degenerate = all(hc[n] == sums[n] for n in sums)
    page_tables = None
    if with_pages:
        page_tables = pages(filt, r_max=r_max)
        page_tables[0] = _cyclic_page_zero(page_tables[0], a.dim, hh)
    return HodgeSSReport(
        N=N, window=(0, N - 2), e1=e1, abutment=hc, hodge_sums=sums, degenerate=degenerate,
        page_tables=page_tables)
