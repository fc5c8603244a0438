"""Windowed chain complexes, bicomplexes and filtrations.

Every window starts in degree 0. A chain window holds dimensions and
differentials for degrees 0..hi, plus the top degree vhi whose homology
can be trusted (degrees whose neighbours are fully inside the window).
A mixed complex (C, b, B) totalizes straight from its levels, filtered by
columns (`filtration_by_columns`). The periodic bicomplex of the conjugate
route is a first-quadrant window with every sign applied, totalized
through a block table; both stitch each d_n from its blocks. Operators
passed as `LazyDiffs` are built only when a degree is read. Nothing is
checked on construction: `homology_dim` certifies d^2 = 0 on every degree
it reads, unless the window is certified, and keeps its answer; the
`check_*` methods and `IncreasingFiltration.check` certify a whole window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

import numpy as np

from .errors import NotAComplexError, ShapeError, WindowError
from .modring import ModMatrix, homology_dim as _hdim, stitch


class LazyDiffs(Mapping):
    """Operators keyed by degree or by bicomplex cell, each built by
    build(key) the first time it is read and kept from then on.

    The keys are fixed up front, so iterating, counting and membership never
    build anything; reading a key that is not there raises KeyError before
    any build starts.
    """

    def __init__(self, keys: Iterable, build: Callable[..., ModMatrix]):
        self._keys = tuple(keys)
        self._key_set = frozenset(self._keys)
        self._build = build
        self._built: dict = {}

    def __getitem__(self, n) -> ModMatrix:
        got = self._built.get(n)
        if got is None:
            if n not in self._key_set:
                raise KeyError(n)
            got = self._built[n] = self._build(n)
        return got

    def __contains__(self, n) -> bool:
        return n in self._key_set

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


class ChainComplexWindow:
    """Degrees 0..hi with d_n: C_n -> C_{n-1} for 0 < n <= hi; homology is
    trusted on [0, vhi], by default [0, hi - 1]; certified: d^2 = 0 is
    proved, and homology reads skip the d_n d_(n+1) products."""

    def __init__(self, hi: int, dims: dict[int, int],
                 diffs: Mapping[int, ModMatrix], modulus: int,
                 vhi: int | None = None, certified: bool = False):
        if hi < 0:
            raise ShapeError(f"empty degree range [0, {hi}]")
        self.hi = hi
        self.modulus = modulus
        self.dims = {n: int(dims.get(n, 0)) for n in range(hi + 1)}
        self.diffs = diffs
        self.vhi = hi - 1 if vhi is None else vhi
        self.certified = certified
        self._homology: dict[int, int] = {}

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def d(self, n: int) -> ModMatrix:
        """The differential out of degree n; zero maps at the edges."""
        if n in self.diffs:
            return self.diffs[n]
        return ModMatrix.zeros(self.dim(n - 1), self.dim(n), self.modulus)

    def check_differentials(self) -> None:
        for n in range(1, self.hi + 1):
            dn = self.d(n)
            if dn.shape != (self.dim(n - 1), self.dim(n)):
                raise ShapeError(
                    f"d_{n} has shape {dn.shape}, expected {(self.dim(n - 1), self.dim(n))}")
        for n in range(1, self.hi):
            if not (self.d(n) @ self.d(n + 1)).is_zero():
                raise NotAComplexError(f"d_{n} d_{n + 1} is not zero")

    def homology_dim(self, n: int) -> int:
        """dim H_n, certified and computed on the first read and kept."""
        if not 0 <= n <= self.vhi:
            raise WindowError(f"degree {n} outside the trusted window [0, {self.vhi}]")
        if n not in self._homology:
            self._homology[n] = _hdim(self.d(n + 1), self.d(n), certified=self.certified)
        return self._homology[n]

    def homology_dims(self) -> dict[int, int]:
        return {n: self.homology_dim(n) for n in range(self.vhi + 1)}


class BicomplexWindow:
    """First-quadrant bicomplex on x in [0, X], y in [0, Y].

    d_v[(x, y)] maps (x, y) -> (x, y - 1) and d_h[(x, y)] maps
    (x, y) -> (x - 1, y); both are stored with every sign already applied,
    so `check_squares` checks rows, columns and the anticommutation of each
    square literally. The totalization trusts the degrees below min(X, Y).
    """

    def __init__(self, X: int, Y: int, dims: dict[tuple[int, int], int],
                 d_v: Mapping[tuple[int, int], ModMatrix],
                 d_h: Mapping[tuple[int, int], ModMatrix],
                 modulus: int):
        self.X = X
        self.Y = Y
        self.modulus = modulus
        self.dims = {(x, y): int(dims.get((x, y), 0))
                     for x in range(X + 1) for y in range(Y + 1)}
        self.d_v = d_v
        self.d_h = d_h

    def dim(self, x: int, y: int) -> int:
        return self.dims.get((x, y), 0)

    def dv(self, x: int, y: int) -> ModMatrix:
        if (x, y) in self.d_v:
            return self.d_v[(x, y)]
        return ModMatrix.zeros(self.dim(x, y - 1), self.dim(x, y), self.modulus)

    def dh(self, x: int, y: int) -> ModMatrix:
        if (x, y) in self.d_h:
            return self.d_h[(x, y)]
        return ModMatrix.zeros(self.dim(x - 1, y), self.dim(x, y), self.modulus)

    def check_squares(self) -> None:
        for (x, y), mat in self.d_v.items():
            want = (self.dim(x, y - 1), self.dim(x, y))
            if mat.shape != want:
                raise ShapeError(f"d_v at {(x, y)} has shape {mat.shape}, expected {want}")
        for (x, y), mat in self.d_h.items():
            want = (self.dim(x - 1, y), self.dim(x, y))
            if mat.shape != want:
                raise ShapeError(f"d_h at {(x, y)} has shape {mat.shape}, expected {want}")
        # Periodic bicomplexes repeat the same operator objects column after
        # column, so each distinct square is computed once, keyed by the
        # identities of its operands. Matrices are never mutated, and `seen`
        # keeps every keyed operand alive so that no id is reused meanwhile.
        seen: dict[tuple[int, ...], tuple[ModMatrix, ...]] = {}

        def vanishes(*ops: ModMatrix) -> bool:
            """ops[0] @ ops[1] (+ ops[2] @ ops[3]) is zero."""
            key = tuple(id(op) for op in ops)
            if key in seen:
                return True
            total = ops[0] @ ops[1]
            if len(ops) == 4:
                total = total + ops[2] @ ops[3]
            if not total.is_zero():
                return False
            seen[key] = ops
            return True

        for x in range(self.X + 1):
            for y in range(self.Y + 1):
                if y >= 2 and not vanishes(self.dv(x, y - 1), self.dv(x, y)):
                    raise NotAComplexError(f"vertical square fails at {(x, y)}")
                if x >= 2 and not vanishes(self.dh(x - 1, y), self.dh(x, y)):
                    raise NotAComplexError(f"horizontal square fails at {(x, y)}")
                if x >= 1 and y >= 1 and not vanishes(
                        self.dv(x - 1, y), self.dh(x, y), self.dh(x, y - 1), self.dv(x, y)):
                    raise NotAComplexError(f"square at {(x, y)} does not anticommute")

    def total_complex(self) -> tuple[ChainComplexWindow, dict[int, list[tuple[int, int, int, int]]]]:
        """Totalize; returns the chain window plus per-degree block tables.

        blocks[n] lists (x, y, offset, dim) for the cells on the
        antidiagonal x + y = n, in increasing x. The total differentials
        are built on demand: d_n is stitched from the cell operators the
        first time the window reads it (through `d`, `diffs` or a homology
        call) and is kept on the window, so degrees nobody reads cost
        nothing, and neither do the cell operators that only they read. In
        a column of cell (x, y) the rows of the horizontal target (x - 1, y)
        precede those of the vertical one (x, y - 1). The window is
        certified: the caller proves every square zero first
        (`check_squares`, or `cartier.certify_conjugate_squares`), so
        homology reads skip the d_n d_(n+1) products.
        """
        top = self.X + self.Y
        blocks: dict[int, list[tuple[int, int, int, int]]] = {}
        tot_dims: dict[int, int] = {}
        for n in range(top + 1):
            table = []
            offset = 0
            for x in range(max(0, n - self.Y), min(self.X, n) + 1):
                y = n - x
                d = self.dim(x, y)
                table.append((x, y, offset, d))
                offset += d
            blocks[n] = table
            tot_dims[n] = offset

        def build(n: int) -> ModMatrix:
            target_offsets = {(x, y): off for x, y, off, _ in blocks[n - 1]}
            parts = []
            for x, y, off, d in blocks[n]:
                if d == 0:
                    continue
                for op, tgt in ((self.dh, (x - 1, y)), (self.dv, (x, y - 1))):
                    if tgt in target_offsets and (mat := op(x, y)).nnz:
                        parts.append((target_offsets[tgt], off, mat))
            return stitch((tot_dims[n - 1], tot_dims[n]), self.modulus, parts)

        diffs = LazyDiffs(range(1, top + 1), build)
        tot = ChainComplexWindow(top, tot_dims, diffs, self.modulus,
                                 vhi=min(self.X, self.Y) - 1, certified=True)
        return tot, blocks


class IncreasingFiltration:
    """Filtration of a chain window by the level of each coordinate.

    level[n][i] is the level at which basis vector i of C_n enters, so
    F_l C_n is spanned by the vectors of level <= l; the levels nest by
    construction. They lie in levels = (lo, hi): below lo the filtration is
    empty, from hi on it is everything. `check` verifies the range and the
    subcomplex property.
    """

    def __init__(self, carrier: ChainComplexWindow, level: Mapping[int, np.ndarray],
                 levels: tuple[int, int]):
        self.carrier = carrier
        self.level = {n: np.asarray(lev, dtype=np.int64) for n, lev in level.items()}
        self.levels = levels

    def at(self, n: int) -> np.ndarray:
        """The levels of the degree-n basis; empty outside the carrier."""
        return self.level.get(n, np.zeros(0, dtype=np.int64))

    def check(self) -> None:
        c = self.carrier
        lo, hi = self.levels
        for n in range(c.hi + 1):
            lev = self.at(n)
            if lev.shape != (c.dim(n),):
                raise ShapeError(f"degree {n} has {lev.size} levels for {c.dim(n)} coordinates")
            if lev.size and (lev.min() < lo or lev.max() > hi):
                raise ShapeError(f"a level in degree {n} lies outside [{lo}, {hi}]")
        # F_l is a subcomplex for every l iff no entry of d_n maps a
        # coordinate of level l into one of a higher level
        for n in range(1, c.hi + 1):
            rows, cols, _ = c.d(n).coo()
            src = self.at(n)[cols]
            up = np.flatnonzero(self.at(n - 1)[rows] > src)
            if up.size:
                raise NotAComplexError(
                    f"differential leaves level {src[up[0]]} at degree {n}")


def filtration_by_columns(mixed) -> IncreasingFiltration:
    """The column filtration of the totalization of a mixed complex: any
    object with `N`, `algebra`, `dim(m)`, `b(m)` and `B(m)` through level N.

    Degree n in [0, N] holds C_{n-2l} in column l, l = 0..n//2, and a
    coordinate's level is its column. d_n is b inside a column plus B into
    the column before; bB + Bb = 0, so no sign is needed. So d_n =
    [[b_n, B_{n-2} 0], [0, d_{n-2}]]: below its first block row and column,
    d_n is d_{n-2}. Each level is a subcomplex, whose graded piece l is the
    b complex shifted by 2l. d_n is stitched on its first read from the CSC
    arrays of b_n, B_{n-2} and d_{n-2}, upward from the highest degree of
    its parity already built, never by recursion; an empty level builds
    neither b nor B. Homology is trusted on [0, N - 1].
    """
    N, mod = mixed.N, mixed.algebra.modulus
    dims = [mixed.dim(m) for m in range(N + 1)]
    level = {n: np.repeat(np.arange(n // 2 + 1), dims[n::-2]) for n in range(N + 1)}
    size = [lev.size for lev in level.values()]
    # every d_n built, read or not, from the zero maps out of degrees -1 and 0
    built = {-1: ModMatrix.zeros(0, 0, mod), 0: ModMatrix.zeros(0, size[0], mod)}

    def build(n: int) -> ModMatrix:
        low = n
        while low - 2 not in built:
            low -= 2
        for m in range(low, n + 1, 2):
            parts = [(0, 0, mixed.b(m))] if dims[m] else []
            if m >= 2 and dims[m - 2]:  # above d_{m-2}, in the columns they share
                parts.append((0, dims[m], mixed.B(m - 2)))
            parts.append((dims[m - 1], dims[m], built[m - 2]))
            built[m] = stitch((size[m - 1], size[m]), mod, parts)
        return built[n]

    tot = ChainComplexWindow(N, dict(enumerate(size)), LazyDiffs(range(1, N + 1), build), mod)
    return IncreasingFiltration(tot, level, (0, N))
