"""Test-side references for the cyclic objects: the identity sweeps of the
unsubdivided and the p-fold subdivided level maps, the subdivided faces and
degeneracies composed of p ordinary ones by matmul, the periodic
two-column bicomplex whose totalization recomputes cyclic homology, and
the (b, B) bicomplex of a mixed complex, whose totalization and block
tables are the reference of `complexes.filtration_by_columns`, the
algebra seen relative to the ground field (`over_k`), and the
column-by-column reduction that `modring._column_reduce` replaced
(`reference_column_reduce`), a stand-in for it whose fill guard always
fires (`forced_restart`), and the d^2 = 0 check of an assembled
totalization (`total_square_failures`), which the conjugate abutment's
homology reads skip once `certify_conjugate_squares` has passed.

The package builds its operators by index arithmetic and certifies the
algebra (associativity, unit) when it is loaded. These sweeps multiply the
operator matrices out and check the simplicial, cyclic and mixed
identities literally; each returns its failures as strings naming the
level, and an empty list when every identity holds.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from nchodge.algebra import BasisIdempotents

from nchodge.cartier import PCyclicLevels, ZpModuleAction
from nchodge.complexes import (BicomplexWindow, IncreasingFiltration, LazyDiffs,
                               filtration_by_columns)
from nchodge.conventions import cyclic_sign
from nchodge.hochcyc import (CyclicLevelMaps, degeneracy_matrix, face_matrix, hc_dims,
                             rotation_matrix)
from nchodge.modring import (CSC, DENSE_ENTRY_LIMIT, FILL_THRESHOLD, ModMatrix,
                             _column_reduce, _DenseRestart)


def matpow(mat: ModMatrix, k: int) -> ModMatrix:
    """mat**k for a square matrix, by square-and-multiply."""
    out = ModMatrix.identity(mat.shape[0], mat.modulus)
    base = mat
    while k:
        if k & 1:
            out = out @ base
        base = base @ base if k > 1 else base
        k >>= 1
    return out


def composite_face(pcyc: PCyclicLevels, n: int, i: int) -> ModMatrix:
    """Subdivided face (n, i) as p ordinary faces composed by matmul, one per
    block from the most significant down: the reference for the Kronecker
    powers of `PCyclicLevels.face`."""
    a, p = pcyc.algebra, pcyc.p
    mat = None
    for j in range(1, p + 1):
        step = face_matrix(a, p * (n + 1) - j, i + (p - j) * (n + 1))
        mat = step if mat is None else step @ mat
    return mat


def composite_degeneracy(pcyc: PCyclicLevels, n: int, i: int) -> ModMatrix:
    """Subdivided degeneracy (n, i) as p ordinary ones composed by matmul."""
    a, p = pcyc.algebra, pcyc.p
    mat = None
    for j in range(1, p + 1):
        step = degeneracy_matrix(a, p * (n + 1) - 2 + j, i + (p - j) * (n + 1))
        mat = step if mat is None else step @ mat
    return mat


def cyclic_identity_failures(cyc: CyclicLevelMaps, through: int | None = None) -> list[str]:
    """Simplicial, cyclic and differential identities of the cyclic object
    through level `through` (default: its top level N).

    Faces, t, b, b', the norm and B are read off `cyc`; degeneracies and
    rotations are built here from the algebra.
    """
    a = cyc.algebra
    mod = a.modulus
    top = cyc.N if through is None else min(through, cyc.N)
    degens = {(n, i): degeneracy_matrix(a, n, i) for n in range(top) for i in range(n + 1)}
    rots = {n: rotation_matrix(a.dim, n, mod) for n in range(top + 1)}
    bad: list[str] = []
    for n in range(2, top + 1):
        for j in range(1, n + 1):
            for i in range(j):
                lhs = cyc.face(n - 1, i) @ cyc.face(n, j)
                rhs = cyc.face(n - 1, j - 1) @ cyc.face(n, i)
                if lhs != rhs:
                    bad.append(f"face relation fails at n={n}, i={i}, j={j}")
    for n in range(top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = degens[(n + 1, i)] @ degens[(n, j)]
                rhs = degens[(n + 1, j + 1)] @ degens[(n, i)]
                if lhs != rhs:
                    bad.append(f"degeneracy relation fails at n={n}, i={i}, j={j}")
    for n in range(1, top):
        ident = ModMatrix.identity(cyc.dim(n), mod)
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = cyc.face(n + 1, i) @ degens[(n, j)]
                if i == j or i == j + 1:
                    rhs = ident
                elif i < j:
                    rhs = degens[(n - 1, j - 1)] @ cyc.face(n, i)
                else:
                    rhs = degens[(n - 1, j)] @ cyc.face(n, i - 1)
                if lhs != rhs:
                    bad.append(f"mixed relation fails at n={n}, i={i}, j={j}")
    for n in range(top + 1):
        if matpow(rots[n], n + 1) != ModMatrix.identity(cyc.dim(n), mod):
            bad.append(f"rotation at level {n} does not have order {n + 1}")
        if cyc.t(n) != rots[n].scale(cyclic_sign(n)):
            bad.append(f"cyclic operator is not the signed rotation at n={n}")
    for n in range(1, top + 1):
        rho, rho_prev = rots[n], rots[n - 1]
        for i in range(1, n + 1):
            if cyc.face(n, i) @ rho != rho_prev @ cyc.face(n, i - 1):
                bad.append(f"rotation face relation fails at n={n}, i={i}")
        if cyc.face(n, 0) @ rho != cyc.face(n, n):
            bad.append(f"wraparound rotation relation fails at n={n}")
    for n in range(2, top + 1):
        if not (cyc.b(n - 1) @ cyc.b(n)).is_zero():
            bad.append(f"b squared fails at n={n}")
        if not (cyc.bprime(n - 1) @ cyc.bprime(n)).is_zero():
            bad.append(f"b' squared fails at n={n}")
    for n in range(1, top + 1):
        ident = ModMatrix.identity(cyc.dim(n), mod)
        lhs = cyc.b(n) @ (ident - cyc.t(n))
        prev = ModMatrix.identity(cyc.dim(n - 1), mod)
        rhs = (prev - cyc.t(n - 1)) @ cyc.bprime(n)
        if lhs != rhs:
            bad.append(f"b (1 - t) exchange fails at n={n}")
        if cyc.norm(n - 1) @ cyc.b(n) != cyc.bprime(n) @ cyc.norm(n):
            bad.append(f"norm exchange fails at n={n}")
    for n in range(top - 1):
        if not (cyc.B(n + 1) @ cyc.B(n)).is_zero():
            bad.append(f"B squared fails at n={n}")
    for n in range(1, top):
        anti = cyc.b(n + 1) @ cyc.B(n) + cyc.B(n - 1) @ cyc.b(n)
        if not anti.is_zero():
            bad.append(f"b B + B b fails at n={n}")
    return bad


def sigma_matrix(act: ZpModuleAction) -> ModMatrix:
    """The permutation matrix of an action: column i holds a 1 at row act.perm[i]."""
    return ModMatrix.from_index_map(act.perm, act.dim, act.p)


def subdivision_identity_failures(pcyc: PCyclicLevels, upto: int | None = None) -> list[str]:
    """Simplicial, rotation and mixed identities of the p-fold subdivision
    on levels up to `upto` (default: its top level N)."""
    top = pcyc.N if upto is None else min(upto, pcyc.N)
    mod = pcyc.algebra.modulus
    bad = []
    p = pcyc.p
    for n in range(1, top + 1):
        for i in range(n):
            for j in range(i + 1, n + 1):
                if n >= 2 and pcyc.face(n - 1, i) @ pcyc.face(n, j) != \
                        pcyc.face(n - 1, j - 1) @ pcyc.face(n, i):
                    bad.append(f"faces ({i},{j}) at level {n}")
        rho = pcyc.rho(n)
        cur = rho
        for _ in range(p * (n + 1) - 1):
            cur = rho @ cur
        if cur != ModMatrix.identity(pcyc.dim(n), mod):
            bad.append(f"rotation order at level {n}")
        sig = sigma_matrix(pcyc.action(n))
        if sig != matpow(rho, n + 1):
            bad.append(f"block rotation is not the (n+1)-st power at level {n}")
        for i in range(1, n + 1):
            if pcyc.face(n, i) @ rho != pcyc.rho(n - 1) @ pcyc.face(n, i - 1):
                bad.append(f"rotation past face {i} at level {n}")
        if pcyc.face(n, 0) @ rho != pcyc.face(n, n):
            bad.append(f"rotation into the wrap face at level {n}")
        sig_low = sigma_matrix(pcyc.action(n - 1))
        for i in range(n + 1):
            if pcyc.face(n, i) @ sig != sig_low @ pcyc.face(n, i):
                bad.append(f"block rotation past face {i} at level {n}")
        if n >= 2 and pcyc.b(n - 1) @ pcyc.b(n) != \
                ModMatrix.zeros(pcyc.dim(n - 2), pcyc.dim(n), mod):
            bad.append(f"b squared at level {n}")
        if n >= 2 and pcyc.bprime(n - 1) @ pcyc.bprime(n) != \
                ModMatrix.zeros(pcyc.dim(n - 2), pcyc.dim(n), mod):
            bad.append(f"b-prime squared at level {n}")
        one = ModMatrix.identity(pcyc.dim(n), mod)
        one_low = ModMatrix.identity(pcyc.dim(n - 1), mod)
        if pcyc.b(n) @ (one - pcyc.t(n)) != (one_low - pcyc.t(n - 1)) @ pcyc.bprime(n):
            bad.append(f"boundary exchange at level {n}")
        if pcyc.norm(n - 1) @ pcyc.b(n) != pcyc.bprime(n) @ pcyc.norm(n):
            bad.append(f"norm exchange at level {n}")
    for n in range(0, top):
        for i in range(n + 1):
            sd = pcyc.degeneracy(n, i)
            if pcyc.face(n + 1, i) @ sd != ModMatrix.identity(pcyc.dim(n), mod):
                bad.append(f"degeneracy section ({n},{i})")
            if i + 1 <= n + 1 and pcyc.face(n + 1, i + 1) @ sd != \
                    ModMatrix.identity(pcyc.dim(n), mod):
                bad.append(f"degeneracy section above ({n},{i})")
    return bad


def two_column_bicomplex(cyc, L: int) -> BicomplexWindow:
    """Periodic two-column bicomplex of a cyclic object, subdivided or not:
    even columns carry b, odd columns -b'; the horizontals alternate between
    1 - t (into even columns) and the cyclic norm (into odd columns). Its
    squares are checked before it is returned."""
    N = cyc.N
    mod = cyc.algebra.modulus
    dims = {}
    d_v = {}
    d_h = {}
    neg_bprime = {y: -cyc.bprime(y) for y in range(1, N + 1)}
    one_minus_t = {y: ModMatrix.identity(cyc.dim(y), mod) - cyc.t(y) for y in range(N + 1)}
    for x in range(L + 1):
        for y in range(N + 1):
            dims[(x, y)] = cyc.dim(y)
            if y >= 1:
                d_v[(x, y)] = cyc.b(y) if x % 2 == 0 else neg_bprime[y]
            if x >= 1:
                d_h[(x, y)] = one_minus_t[y] if x % 2 == 1 else cyc.norm(y)
    bicx = BicomplexWindow(L, N, dims, d_v, d_h, mod)
    bicx.check_squares()
    return bicx


def lambda_p_hc(a, N: int, L: int | None = None, cap: int | None = None
                ) -> tuple[dict[int, int], dict[int, int]]:
    """Cyclic homology through the p-fold subdivision (the Lambda_p route):
    the homology of the two-column bicomplex of `PCyclicLevels` on degrees
    0..min(L, N) - 1, and `hc_dims` on the same degrees."""
    L = N if L is None else L
    pcyc = PCyclicLevels(a, N, cap=cap)
    bicx = two_column_bicomplex(pcyc, L)
    bicx.check_squares()  # the totalization's homology takes d^2 = 0 as proved
    tot, _ = bicx.total_complex()
    top = min(L, N) - 1
    dims = {n: tot.homology_dim(n) for n in range(top + 1)}
    hc = hc_dims(a, top + 2, cap=cap)
    return dims, {n: hc[n] for n in dims if n in hc}


def bB_bicomplex(cyc) -> BicomplexWindow:
    """The mixed bicomplex of a mixed complex, normalized or not: cell
    (x, y) holds chains of degree y - x, verticals are b, horizontals are
    B; total degree n sums the chain degrees n, n-2, n-4, ...; each cell's
    b or B is built when a total degree that holds the cell is read."""
    N = cyc.N
    dims = {(x, y): cyc.dim(y - x) for x in range(N + 1) for y in range(x, N + 1)}
    d_v = LazyDiffs([(x, y) for x, y in dims if y > x], lambda c: cyc.b(c[1] - c[0]))
    d_h = LazyDiffs([(x, y) for x, y in dims if x >= 1 and y - x < N],
                    lambda c: cyc.B(c[1] - c[0]))
    return BicomplexWindow(N, N, dims, d_v, d_h, cyc.algebra.modulus)


def bB_filtration(cyc) -> IncreasingFiltration:
    """The column filtration of `bB_bicomplex`: each coordinate of the
    totalization sits at the x of its cell, read off the block tables."""
    bicx = bB_bicomplex(cyc)
    tot, blocks = bicx.total_complex()
    level = {n: np.repeat(np.array([x for x, _, _, _ in table], dtype=np.int64),
                          [d for _, _, _, d in table])
             for n, table in blocks.items()}
    return IncreasingFiltration(tot, level, (0, bicx.X))


def hc_of(cyc) -> dict[int, int]:
    """`hc_dims` read on a given mixed complex, normalized or not."""
    return hc_dims(cyc.algebra, cyc.N, tot=filtration_by_columns(cyc).carrier)


def total_square_failures(tot) -> list[str]:
    """The degrees n of a totalization, over its trusted window, whose
    d_n d_(n+1) is not zero."""
    return [f"d_{n} d_{n + 1} is not zero" for n in range(1, tot.vhi + 2)
            if not (tot.d(n) @ tot.d(n + 1)).is_zero()]


def over_k(a):
    """A copy of a whose basis idempotents are S = k1: its normalized mixed
    complex is the one relative to the ground field."""
    out = copy.copy(a)
    out.idempotents = BasisIdempotents.ground(a)
    return out


def forced_restart(csc: CSC, p: int, shape: tuple[int, int],
                   fill_guard: bool = True, order: Sequence[int] | None = None
                   ) -> tuple[int, dict[int, int]]:
    """Stands in for `modring._column_reduce` with a fill guard that fires
    at once wherever it applies, so every rank of a matrix of
    0 < area <= DENSE_ENTRY_LIMIT entries takes the dense restart, which
    reads the lows of the row space off a reversed rref."""
    if fill_guard and 0 < shape[0] * shape[1] <= DENSE_ENTRY_LIMIT:
        raise _DenseRestart
    return _column_reduce(csc, p, shape, fill_guard, order)


def reference_column_reduce(csc: CSC, p: int, shape: tuple[int, int],
                            fill_guard: bool = True, order: Sequence[int] | None = None
                            ) -> tuple[int, dict[int, int]]:
    """The column-by-column reduction that `modring._column_reduce` replaced,
    kept as its reference: the same arguments, the same (rank, pivots).

    Persistence-style column reduction mod p of the columns of csc, the
    canonical CSC of a ModMatrix.

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
    With fill_guard, a matrix of 0 < area <= DENSE_ENTRY_LIMIT entries
    raises _DenseRestart once its pivots, free ones included, hold more
    than max(FILL_THRESHOLD * area, nnz) entries.
    """
    area = shape[0] * shape[1]
    limit = (max(FILL_THRESHOLD * area, csc.data.size)
             if fill_guard and 0 < area <= DENSE_ENTRY_LIMIT else None)
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
