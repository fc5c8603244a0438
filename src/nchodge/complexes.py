"""Windowed chain complexes, bicomplexes and filtrations.

A window holds dimensions and differentials for a contiguous range of
degrees, plus the validity range where homology can be trusted (degrees
whose neighbours are fully inside the window). Bicomplex windows live in
the first quadrant, store their differentials with all signs already
applied, and totalize to a chain window with a block index table. Windows
keep the operator mappings they are given, so cell operators and total
differentials passed as `LazyDiffs` are built only when a degree is read.
Nothing is checked on construction: `homology_dim` certifies d^2 = 0 on
every degree it reads, and `check_differentials`, `check_squares` and
`IncreasingFiltration.check` certify a whole window on request.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

import numpy as np

from .errors import NotAComplexError, ShapeError, WindowError
from .modring import ModMatrix, homology_dim as _hdim


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
    """Degrees lo..hi with d_n: C_n -> C_{n-1} for lo < n <= hi."""

    def __init__(self, lo: int, hi: int, dims: dict[int, int],
                 diffs: Mapping[int, ModMatrix], modulus: int,
                 vlo: int | None = None, vhi: int | None = None):
        if lo > hi:
            raise ShapeError(f"empty degree range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.modulus = modulus
        self.dims = {n: int(dims.get(n, 0)) for n in range(lo, hi + 1)}
        self.diffs = diffs
        self.vlo = lo if vlo is None else vlo
        self.vhi = hi - 1 if vhi is None else vhi

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def d(self, n: int) -> ModMatrix:
        """The differential out of degree n; zero maps at the edges."""
        if n in self.diffs:
            return self.diffs[n]
        return ModMatrix.zeros(self.dim(n - 1), self.dim(n), self.modulus)

    def check_differentials(self) -> None:
        for n in range(self.lo + 1, self.hi + 1):
            dn = self.d(n)
            if dn.shape != (self.dim(n - 1), self.dim(n)):
                raise ShapeError(
                    f"d_{n} has shape {dn.shape}, expected {(self.dim(n - 1), self.dim(n))}")
        for n in range(self.lo + 1, self.hi):
            if not (self.d(n) @ self.d(n + 1)).is_zero():
                raise NotAComplexError(f"d_{n} d_{n + 1} is not zero")

    def homology_dim(self, n: int) -> int:
        if not (self.vlo <= n <= self.vhi):
            raise WindowError(
                f"degree {n} outside the trusted window [{self.vlo}, {self.vhi}]")
        return _hdim(self.d(n + 1), self.d(n))

    def homology_dims(self, degrees=None) -> dict[int, int]:
        if degrees is None:
            degrees = range(self.vlo, self.vhi + 1)
        return {n: self.homology_dim(n) for n in degrees}


class BicomplexWindow:
    """First-quadrant bicomplex on x in [0, X], y in [0, Y].

    d_v[(x, y)] maps (x, y) -> (x, y - 1) and d_h[(x, y)] maps
    (x, y) -> (x - 1, y); both are stored with every sign already applied,
    so `check_squares` checks rows, columns and the anticommutation of each
    square literally. sign_tag records which convention produced the signs.
    complete_x / complete_y assert that the true object vanishes beyond the
    window in that direction, which widens the trusted degree range of the
    totalization.
    """

    def __init__(self, X: int, Y: int, dims: dict[tuple[int, int], int],
                 d_v: Mapping[tuple[int, int], ModMatrix],
                 d_h: Mapping[tuple[int, int], ModMatrix],
                 modulus: int, sign_tag: str,
                 complete_x: bool = False, complete_y: bool = False):
        self.X = X
        self.Y = Y
        self.modulus = modulus
        self.sign_tag = sign_tag
        self.complete_x = complete_x
        self.complete_y = complete_y
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

    def trusted_upper(self) -> int:
        top = self.X + self.Y
        limit_x = top if self.complete_x else self.X - 1
        limit_y = top if self.complete_y else self.Y - 1
        return min(limit_x, limit_y, top)

    def total_complex(self) -> tuple[ChainComplexWindow, dict[int, list[tuple[int, int, int, int]]]]:
        """Totalize; returns the chain window plus per-degree block tables.

        blocks[n] lists (x, y, offset, dim) for the cells on the
        antidiagonal x + y = n, in increasing x. The total differentials
        are built on demand: d_n is assembled the first time the window
        reads it (through `d`, `diffs` or a homology call) and is kept on
        the window, so degrees nobody reads cost nothing, and neither do the
        cell operators that only they read.
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
            rows_list, cols_list, vals_list = [], [], []
            for x, y, off, d in blocks[n]:
                if d == 0:
                    continue
                for mat, tgt in ((self.dv(x, y), (x, y - 1)), (self.dh(x, y), (x - 1, y))):
                    if tgt not in target_offsets or mat.nnz == 0:
                        continue
                    coo = mat.csc().tocoo()
                    rows_list.append(coo.row + target_offsets[tgt])
                    cols_list.append(coo.col + off)
                    vals_list.append(coo.data)
            if rows_list:
                rows = np.concatenate(rows_list)
                cols = np.concatenate(cols_list)
                vals = np.concatenate(vals_list)
            else:
                rows = cols = vals = np.zeros(0, dtype=np.int64)
            return ModMatrix.from_arrays(
                (tot_dims[n - 1], tot_dims[n]), self.modulus, rows, cols, vals)

        diffs = LazyDiffs(range(1, top + 1), build)
        tot = ChainComplexWindow(0, top, tot_dims, diffs, self.modulus,
                                 vlo=0, vhi=self.trusted_upper())
        return tot, blocks


class IncreasingFiltration:
    """Coordinate-mask filtration of a chain window.

    masks[l][n] is a boolean array over the degree-n basis. Levels form a
    contiguous range; below the bottom the filtration is empty, from the
    top on it is everything. `check` verifies nesting and the subcomplex
    property.
    """

    def __init__(self, carrier: ChainComplexWindow,
                 masks: dict[int, dict[int, np.ndarray]]):
        if not masks:
            raise ShapeError("filtration needs at least one level")
        self.carrier = carrier
        self.levels = sorted(masks)
        self.masks = {
            l: {n: np.asarray(masks[l].get(n, np.zeros(carrier.dim(n), dtype=bool)),
                              dtype=bool)
                for n in range(carrier.lo, carrier.hi + 1)}
            for l in self.levels
        }

    def mask(self, l: int, n: int) -> np.ndarray:
        if n < self.carrier.lo or n > self.carrier.hi:
            return np.zeros(0, dtype=bool)
        if l < self.levels[0]:
            return np.zeros(self.carrier.dim(n), dtype=bool)
        if l > self.levels[-1]:
            return np.ones(self.carrier.dim(n), dtype=bool)
        return self.masks[l][n]

    def check(self) -> None:
        c = self.carrier
        for n in range(c.lo, c.hi + 1):
            for l in self.levels:
                if self.masks[l][n].shape != (c.dim(n),):
                    raise ShapeError(f"mask at level {l}, degree {n} has the wrong length")
            for l in self.levels[:-1]:
                if np.any(self.masks[l][n] & ~self.masks[l + 1][n]):
                    raise ShapeError(f"filtration not nested at level {l}, degree {n}")
            if not np.all(self.masks[self.levels[-1]][n]):
                raise ShapeError(f"top level is not everything in degree {n}")
        for n in range(c.lo + 1, c.hi + 1):
            dmat = c.d(n)
            for l in self.levels:
                sub = dmat.restrict(rows=~self.mask(l, n - 1), cols=self.mask(l, n))
                if not sub.is_zero():
                    raise NotAComplexError(
                        f"differential leaves level {l} at degree {n}")


def filtration_by_columns(bicx: BicomplexWindow) -> tuple[ChainComplexWindow,
                                                          dict[int, list[tuple[int, int, int, int]]],
                                                          IncreasingFiltration]:
    """Totalize and filter by horizontal position: level l keeps cells x <= l.

    Both differentials only lower or preserve x, so each level is a
    subcomplex; the associated graded of level l is column l.
    """
    tot, blocks = bicx.total_complex()
    masks: dict[int, dict[int, np.ndarray]] = {}
    for l in range(bicx.X + 1):
        level = {}
        for n in range(tot.lo, tot.hi + 1):
            m = np.zeros(tot.dim(n), dtype=bool)
            for x, y, off, d in blocks[n]:
                if x <= l:
                    m[off:off + d] = True
            level[n] = m
        masks[l] = level
    filt = IncreasingFiltration(tot, masks)
    return tot, blocks, filt
