"""Finite-dimensional associative algebras given by structure constants.

An algebra lives over Z/m with m a prime p or p**2, stores its basis
labels, unit vector and the full constants tensor c[i][j][k] (so that
e_i * e_j = sum_k c[i][j][k] e_k), and is validated on construction:
associativity on all triples and the two unit laws. Constructors for the
standard small examples (matrix, truncated polynomial, cyclic group, path
algebras) and the direct product are provided, along with JSON loading
and mod p**2 lift checking. Each algebra also records its basis idempotents
(`BasisIdempotents`), the subalgebra S that the normalized mixed complex
in `hochcyc` works relative to.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import prod
from typing import Sequence

import numpy as np

from .errors import (ConstructionError, InternalCheckError, ModulusError,
                     ReductionMismatchError)
from .modring import (TO_DENSE_LIMIT, ModMatrix, _dense_kernel, _dense_rref, is_prime,
                      matmul_mod, split_modulus)

MAX_VALIDATION_REPORTS = 20
# entries of the associativity products validate_algebra holds at once, about
VALIDATION_BLOCK = 1 << 16


class StructureConstantsAlgebra:
    """An associative unital algebra over Z/p or Z/p**2."""

    def __init__(self, modulus: int, basis: Sequence[str], unit, constants,
                 name: str | None = None, check: bool = True):
        p, power = split_modulus(modulus)
        self.modulus = int(modulus)
        self.p = p
        self.power = power
        self.basis = tuple(str(b) for b in basis)
        self.dim = len(self.basis)
        self.unit = np.asarray(unit, dtype=np.int64) % modulus
        self.constants = np.asarray(constants, dtype=np.int64) % modulus
        self.name = name
        if self.unit.shape != (self.dim,):
            raise ConstructionError(
                f"unit has shape {self.unit.shape}, expected ({self.dim},)")
        if self.constants.shape != (self.dim,) * 3:
            raise ConstructionError(
                f"constants have shape {self.constants.shape}, expected {(self.dim,) * 3}")
        self._table = self.constants.reshape(self.dim * self.dim, self.dim)
        if check:
            failures = validate_algebra(self)
            if failures:
                raise ConstructionError(
                    "algebra axioms fail: " + "; ".join(failures[:MAX_VALIDATION_REPORTS]))
        self.idempotents = basis_idempotents(self)

    # ---------------- basic operations ----------------

    def multiply(self, x, y) -> np.ndarray:
        """x * y; for stacks of elements (rows), the row-wise products."""
        m = self.modulus
        return self._product(np.asarray(x, dtype=np.int64) % m,
                             np.asarray(y, dtype=np.int64) % m)

    def _product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """multiply, for residue arrays."""
        m, d = self.modulus, self.dim
        xy = x[..., :, None] * y[..., None, :] % m
        lead = xy.shape[:-2]
        xy = xy.reshape(prod(lead), d * d)
        return matmul_mod(xy, self._table, m).reshape(lead + (d,))

    def power_of(self, x, k: int) -> np.ndarray:
        """x**k, k >= 1; for a stack of elements (rows), the power of each.
        Square-and-multiply with both products of a step in one call."""
        if k < 1:
            raise ValueError(f"power_of needs k >= 1, got {k}")
        base = np.asarray(x, dtype=np.int64) % self.modulus
        one = np.broadcast_to(self.unit, base.shape)
        acc = np.stack([one, base, one])                # power so far, base, 1
        while k > 1:
            acc[:2] = self._product(acc[:2], acc[[1 if k & 1 else 2, 1]])
            k >>= 1
        return self._product(acc[0], acc[1])

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.modulus, self.dim, dtype=np.int64)

    def label(self) -> str:
        return self.name or f"algebra(dim={self.dim}, mod {self.modulus})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureConstantsAlgebra):
            return NotImplemented
        return (self.modulus == other.modulus and self.basis == other.basis
                and np.array_equal(self.unit, other.unit)
                and np.array_equal(self.constants, other.constants))

    __hash__ = None

    def __repr__(self) -> str:
        return f"StructureConstantsAlgebra({self.label()!r}, dim={self.dim}, mod {self.modulus})"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x, length: int) -> bool:
    return isinstance(x, list) and len(x) == length and all(_is_int(v) for v in x)


def from_json_dict(data: dict, check: bool = True) -> StructureConstantsAlgebra:
    """Build an algebra from its JSON description.

    Every field is type and range checked before anything is allocated, so
    a malformed description raises ConstructionError (or ModulusError for a
    bad modulus) and never a bare Python error.
    """
    if not isinstance(data, dict):
        raise ConstructionError("algebra description must be a JSON object")
    missing = [key for key in ("p", "dim", "unit", "constants") if key not in data]
    if missing:
        raise ConstructionError(f"malformed algebra description: missing {missing}")
    p, power, dim = data["p"], data.get("power", 1), data["dim"]
    for key, value in (("p", p), ("power", power), ("dim", dim)):
        if not _is_int(value):
            raise ConstructionError(f"{key} must be an integer, got {value!r}")
    if not is_prime(p):
        raise ModulusError(f"p must be a prime, got {p}")
    if power not in (1, 2):
        raise ModulusError(f"power must be 1 or 2, got {power}")
    modulus = p ** power
    split_modulus(modulus)  # the modulus bound, before any table is allocated
    if not 0 <= dim ** 3 <= TO_DENSE_LIMIT:
        raise ConstructionError(f"dim must be >= 0 with dim^3 <= {TO_DENSE_LIMIT}, the "
                                f"entries of the dense constants table, got {dim}")
    unit = data["unit"]
    if not _int_list(unit, dim):
        raise ConstructionError(f"unit must be a list of {dim} integers, got {unit!r}")
    basis = data.get("basis")
    if basis is None:
        basis = [f"e{i}" for i in range(dim)]
    elif not (isinstance(basis, list) and len(basis) == dim
              and all(isinstance(b, str) for b in basis)):
        raise ConstructionError(f"basis must be a list of {dim} strings, got {basis!r}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ConstructionError(f"name must be a string, got {name!r}")
    entries = data["constants"]
    if not isinstance(entries, list):
        raise ConstructionError(f"constants must be a list of [i, j, k, value], got {entries!r}")
    for entry in entries:
        if not _int_list(entry, 4):
            raise ConstructionError(f"constants entry {entry!r} is not [i, j, k, value]")
        if not all(0 <= x < dim for x in entry[:3]):
            raise ConstructionError(f"constants entry {entry!r} out of range for dim {dim}")
    constants = np.zeros((dim, dim, dim), dtype=np.int64)
    for i, j, k, v in entries:
        constants[i, j, k] = v % modulus
    return StructureConstantsAlgebra(modulus, basis, [u % modulus for u in unit],
                                     constants, name=name, check=check)


def load_algebra(path: str, check: bool = True) -> StructureConstantsAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return from_json_dict(data, check=check)


# ---------------- basis idempotents ----------------

@dataclass(frozen=True, eq=False)
class BasisIdempotents:
    """A separable subalgebra S = k^r of an algebra, spanned by the rows of
    `span`.

    With r > 1 the rows are basis vectors e_1, ..., e_r: idempotent,
    pairwise orthogonal, summing to the unit, and every basis vector x lies
    in e_left[x] A e_right[x]. With r = 1 the single row is the unit, S is
    k1 and left = right = 0.
    """

    span: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def r(self) -> int:
        return self.span.shape[0]

    @classmethod
    def ground(cls, a: "StructureConstantsAlgebra") -> "BasisIdempotents":
        """S = k1."""
        zero = np.zeros(a.dim, dtype=np.int64)
        return cls(a.unit.reshape(1, a.dim), zero, zero)


def basis_idempotents(a: StructureConstantsAlgebra) -> BasisIdempotents:
    """The basis vectors in the support of the unit, when they are
    idempotent, pairwise orthogonal, of coefficient 1 in the unit, and every
    basis vector is homogeneous for them; S = k1 otherwise. O(r d^2)."""
    d, c = a.dim, a.constants
    S = np.nonzero(a.unit)[0]
    r = S.size
    if r < 2 or np.any(a.unit[S] != 1):
        return BasisIdempotents.ground(a)
    eye = np.eye(d, dtype=np.int64)
    want = np.zeros((r, r, d), dtype=np.int64)
    want[np.arange(r), np.arange(r), S] = 1       # e_s e_t = [s = t] e_s
    if not np.array_equal(c[np.ix_(S, S)], want):
        return BasisIdempotents.ground(a)
    sides = []
    for prod in (c[S], c[:, S].transpose(1, 0, 2)):   # [s, x] = e_s x, x e_s
        keeps = np.all(prod == eye, axis=2)
        kills = ~np.any(prod, axis=2)
        if not np.all(keeps | kills) or np.any(keeps.sum(axis=0) != 1):
            return BasisIdempotents.ground(a)
        sides.append(np.argmax(keeps, axis=0))
    return BasisIdempotents(eye[S], *sides)


# ---------------- basis normalization ----------------

def _rowspace(rows: np.ndarray, p: int) -> np.ndarray:
    """A basis (rows) of the row space mod p."""
    rref, pivots = _dense_rref(rows, p)
    return rref[:len(pivots)]


def _fresh(base: np.ndarray, cands: np.ndarray, p: int) -> np.ndarray:
    """The rows of cands independent of the (independent) rows of base and
    of the rows of cands before them."""
    _, pivots = _dense_rref(np.vstack([base, cands]).T, p)
    return cands[[j - len(base) for j in pivots if j >= len(base)]]


def _pairwise(a: StructureConstantsAlgebra, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Every product x y, x-major."""
    return a.multiply(np.repeat(xs, len(ys), axis=0), np.tile(ys, (len(xs), 1)))


def _local_basis(a: StructureConstantsAlgebra, e: np.ndarray, ex: np.ndarray,
                 J: np.ndarray) -> np.ndarray:
    """A basis of the commutative local block eA (rows ex) with radical J:
    e, a lift of the residue field, then J/J^2, J^2/J^3, ..., each layer
    past the first taken from products with the first."""
    p = a.p
    powers = [J]                                        # J, J^2, ..., 0
    while len(powers[-1]):
        powers.append(_rowspace(_pairwise(a, J, powers[-1]), p))
    out, layer = [_fresh(J, np.vstack([e, ex]), p)], J
    for k in range(1, len(powers)):
        layer = _fresh(powers[k], J if k == 1 else _pairwise(a, out[1], layer), p)
        out.append(layer)
    return np.vstack(out)


def normalize_basis(a: StructureConstantsAlgebra) -> StructureConstantsAlgebra:
    """An isomorphic copy of a in a basis adapted to its blocks, or a itself.

    Over F_p the centre Z is commutative, so Frobenius F(z) = z^p is linear
    on it, and B = ker(F - 1) is spanned by the primitive central
    idempotents, B = F_p^r (Berlekamp's subalgebra). Seeded random elements
    of B split it (Cantor-Zassenhaus: c = b^((p-1)/2) is 0 or +-1 on each
    block, so c^2 and (c^2 + c)/2 are idempotents; at p = 2 b itself is).
    The new basis is the union of the blocks e_i A. A commutative block is
    local and gets `_local_basis`, with radical J = ker F^m, p^m >= dim;
    a non-commutative one keeps the given basis vectors when they span it,
    else e_i and a complement. The copy keeps the name and replaces a only
    if `basis_idempotents` finds more idempotents on it, or as many with
    fewer nonzero structure constants; only then is it validated. Mod p^2,
    a is kept.
    """
    p, d, c = a.p, a.dim, a.constants
    if a.power != 1 or d < 2:
        return a
    comm = (c - c.transpose(1, 0, 2)) % p               # [x, y]: xy - yx
    Z = _dense_kernel(comm.transpose(1, 2, 0).reshape(d * d, d), p).T
    if len(Z) == 1:
        return a                                        # one non-commutative block
    FZ = a.power_of(Z, p)
    B = matmul_mod(_dense_kernel((FZ - Z).T % p, p).T, Z, p)
    m = 1
    while p ** m < d:
        m += 1
    FmZ = FZ if m == 1 else a.power_of(Z, p ** m)
    nil = matmul_mod(_dense_kernel(FmZ.T, p).T, Z, p)
    rng = random.Random(0)
    pieces = a.unit[None]
    for _ in range(64):
        if len(pieces) == len(B):
            break
        draws = matmul_mod(np.array([[rng.randrange(p) for _ in B] for _ in range(8)]), B, p)
        if p > 2:
            ch = a.power_of(draws, (p - 1) // 2)
            sq = a.multiply(ch, ch)
            draws = np.vstack([(sq + ch) * ((p + 1) // 2) % p, sq])
        for f in draws:
            ef = a.multiply(pieces, f)
            pieces = np.vstack([ef, (pieces - ef) % p])
            pieces = pieces[pieces.any(axis=1)]
            if len(pieces) == len(B):
                break
    else:
        raise InternalCheckError(f"{len(pieces)} blocks split off, {len(B)} expected")
    eye = np.eye(d, dtype=np.int64)
    rows, labels = [], []
    for i, e in enumerate(pieces):
        ex = a.multiply(e, eye)                         # row x: e x
        own = np.all(ex == eye, axis=1)                 # the basis vectors in eA
        if len(Z) == d or not a.multiply(e, comm.reshape(d * d, d)).any():
            J = _rowspace(a.multiply(e, nil), p) if len(nil) else nil
            rows.append(_local_basis(a, e, ex, J))
        elif not ex[:, ~own].any():
            rows.append(eye[own])
        else:
            rows.append(np.vstack([e, _fresh(e[None], ex, p)]))
        labels += [f"e{i}.{k}" for k in range(len(rows[-1]))]
    P = np.vstack(rows)
    if np.array_equal(P, eye):
        return a                                        # the given basis is adapted
    rref, pivots = _dense_rref(np.hstack([P, eye]), p)
    if pivots != list(range(d)):
        raise InternalCheckError(f"the blocks of {a.label()} do not make a basis")
    inv = rref[:, d:]
    b = StructureConstantsAlgebra(p, labels, matmul_mod(a.unit[None], inv, p)[0],
                                  matmul_mod(_pairwise(a, P, P), inv, p).reshape(d, d, d),
                                  name=a.name, check=False)
    if (a.idempotents.r, -np.count_nonzero(c)) >= (b.idempotents.r,
                                                   -np.count_nonzero(b.constants)):
        return a
    failures = validate_algebra(b)                      # a copy the routes will read
    if failures:
        raise InternalCheckError(f"the normalized {a.label()} fails: {failures[0]}")
    return b


# ---------------- validation ----------------

def validate_algebra(a: StructureConstantsAlgebra) -> list[str]:
    """All associativity and unit failures, as readable strings. The
    products are taken in blocks of the first index i, about
    VALIDATION_BLOCK entries each, so the working set is O(d^3), not d^4."""
    failures: list[str] = []
    c, m, d = a.constants, a.modulus, a.dim
    # (e_i e_j) e_k and e_i (e_j e_k) as exact mod-m matrix products
    flat = c.reshape(d * d, d)
    swapped = c.transpose(1, 0, 2)  # [j, i, k] = c[i, j, k]
    step = max(1, VALIDATION_BLOCK // max(d, 1) ** 3)
    for lo in range(0, d, step):
        hi = min(d, lo + step)
        left = matmul_mod(flat[lo * d:hi * d], c.reshape(d, d * d), m)
        right = matmul_mod(flat, swapped[:, lo:hi].reshape(d, -1), m)
        right = right.reshape(d, d, hi - lo, d).transpose(2, 0, 1, 3)
        bad = ((left.reshape(hi - lo, d, d, d) - right) % m != 0).any(axis=3)
        for i, j, k in np.argwhere(bad):
            failures.append(f"associativity fails at "
                            f"({a.basis[lo + i]}, {a.basis[j]}, {a.basis[k]})")
            if len(failures) >= MAX_VALIDATION_REPORTS:
                failures.append("... further failures suppressed")
                return failures
    lu = matmul_mod(a.unit.reshape(1, d), c.reshape(d, d * d), m).reshape(d, d)
    ru = matmul_mod(a.unit.reshape(1, d), swapped.reshape(d, d * d), m).reshape(d, d)
    eye = np.eye(a.dim, dtype=np.int64)
    for j in np.nonzero(np.any((lu - eye) % m != 0, axis=1))[0]:
        failures.append(f"left unit law fails at {a.basis[j]}")
    for i in np.nonzero(np.any((ru - eye) % m != 0, axis=1))[0]:
        failures.append(f"right unit law fails at {a.basis[i]}")
    return failures


# ---------------- constructors ----------------

def matrix_algebra(n: int, modulus: int, name: str | None = None) -> StructureConstantsAlgebra:
    """Full n-by-n matrix algebra; basis e(r,s) with e(r,s)e(t,u) = [s=t] e(r,u)."""
    dim = n * n
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    for r in range(n):
        for s in range(n):
            for u in range(n):
                c[r * n + s, s * n + u, r * n + u] = 1
    unit = np.zeros(dim, dtype=np.int64)
    for r in range(n):
        unit[r * n + r] = 1
    basis = [f"e{r}{s}" for r in range(n) for s in range(n)]
    return StructureConstantsAlgebra(modulus, basis, unit, c,
                                     name=name or f"matrix_algebra({n})")


def truncated_poly(modulus: int, n: int, name: str | None = None) -> StructureConstantsAlgebra:
    """k[x]/x**n with basis 1, x, ..., x**(n-1)."""
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                c[i, j, i + j] = 1
    unit = np.zeros(n, dtype=np.int64)
    unit[0] = 1
    basis = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return StructureConstantsAlgebra(modulus, basis, unit, c,
                                     name=name or f"truncated_poly({n})")


def dual_numbers(modulus: int) -> StructureConstantsAlgebra:
    return truncated_poly(modulus, 2, name="dual_numbers")


def group_algebra_cyclic(modulus: int, m: int, name: str | None = None) -> StructureConstantsAlgebra:
    """Group algebra of Z/m; basis g**0, ..., g**(m-1)."""
    c = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            c[i, j, (i + j) % m] = 1
    unit = np.zeros(m, dtype=np.int64)
    unit[0] = 1
    basis = [f"g^{i}" if i else "1" for i in range(m)]
    return StructureConstantsAlgebra(modulus, basis, unit, c,
                                     name=name or f"group_algebra_cyclic({m})")


def upper_triangular(n: int, modulus: int, name: str | None = None) -> StructureConstantsAlgebra:
    """Upper triangular n-by-n matrices."""
    pairs = [(r, s) for r in range(n) for s in range(r, n)]
    index = {rs: i for i, rs in enumerate(pairs)}
    dim = len(pairs)
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    for (r, s), i in index.items():
        for (t, u), j in index.items():
            if s == t:
                c[i, j, index[(r, u)]] = 1
    unit = np.zeros(dim, dtype=np.int64)
    for r in range(n):
        unit[index[(r, r)]] = 1
    basis = [f"e{r}{s}" for r, s in pairs]
    return StructureConstantsAlgebra(modulus, basis, unit, c,
                                     name=name or f"upper_triangular({n})")


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: vertex names plus arrows (name, source, target)."""

    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ConstructionError("duplicate vertex names")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ConstructionError("duplicate arrow names")
        for name, src, tgt in self.arrows:
            if src not in vs or tgt not in vs:
                raise ConstructionError(f"arrow {name} references unknown vertices")

    def has_cycle(self) -> bool:
        out: dict = {v: [] for v in self.vertices}
        for _, src, tgt in self.arrows:
            out[src].append(tgt)
        state: dict = {}

        def visit(v) -> bool:
            state[v] = 1
            for w in out[v]:
                s = state.get(w)
                if s == 1:
                    return True
                if s is None and visit(w):
                    return True
            state[v] = 2
            return False

        return any(state.get(v) is None and visit(v) for v in self.vertices)


def path_algebra(quiver: Quiver, modulus: int, cap: int | None = None,
                 name: str | None = None) -> StructureConstantsAlgebra:
    """Path algebra of a quiver, truncated past `cap` arrows per path.

    Paths compose left to right: the product p*q walks p and then q, and is
    zero unless p ends where q starts or the composite exceeds the cap. A
    cyclic quiver needs an explicit cap, otherwise the algebra is infinite
    dimensional.
    """
    if cap is None:
        if quiver.has_cycle():
            raise ConstructionError("cyclic quiver needs an explicit length cap")
        cap = max(1, len(quiver.vertices))
    # trivial paths are ("v", vertex); longer paths are tuples of arrow indices
    arrows_from: dict = {}
    for idx, (_, src, _) in enumerate(quiver.arrows):
        arrows_from.setdefault(src, []).append(idx)

    def end_of(path):
        return path[1] if path[0] == "v" else quiver.arrows[path[-1]][2]

    def start_of(path):
        return path[1] if path[0] == "v" else quiver.arrows[path[0]][1]

    paths: list[tuple] = [("v", v) for v in quiver.vertices]
    frontier = list(paths)
    for _ in range(cap):
        nxt = []
        for path in frontier:
            for aidx in arrows_from.get(end_of(path), []):
                nxt.append((aidx,) if path[0] == "v" else path + (aidx,))
        frontier = nxt
        paths.extend(frontier)
        if not frontier:
            break
    index = {pth: i for i, pth in enumerate(paths)}
    dim = len(paths)

    c = np.zeros((dim, dim, dim), dtype=np.int64)
    for pth, i in index.items():
        for qth, j in index.items():
            if end_of(pth) != start_of(qth):
                continue
            if pth[0] == "v":
                c[i, j, j] = 1
            elif qth[0] == "v":
                c[i, j, i] = 1
            else:
                joined = pth + qth
                if len(joined) <= cap:
                    c[i, j, index[joined]] = 1
    unit = np.zeros(dim, dtype=np.int64)
    for v in quiver.vertices:
        unit[index[("v", v)]] = 1

    def label_of(path):
        if path[0] == "v":
            return f"e({path[1]})"
        return "*".join(quiver.arrows[a][0] for a in path)

    basis = [label_of(pth) for pth in paths]
    return StructureConstantsAlgebra(modulus, basis, unit, c,
                                     name=name or "path_algebra")


def direct_product(a: StructureConstantsAlgebra,
                   b: StructureConstantsAlgebra) -> StructureConstantsAlgebra:
    if a.modulus != b.modulus:
        raise ModulusError("direct product needs matching moduli")
    dim = a.dim + b.dim
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    c[:a.dim, :a.dim, :a.dim] = a.constants
    c[a.dim:, a.dim:, a.dim:] = b.constants
    unit = np.concatenate([a.unit, b.unit])
    basis = [f"L.{lab}" for lab in a.basis] + [f"R.{lab}" for lab in b.basis]
    return StructureConstantsAlgebra(a.modulus, basis, unit, c,
                                     name=f"product({a.label()}, {b.label()})", check=False)


# ---------------- commutator quotient ----------------

def commutator_quotient(a: StructureConstantsAlgebra) -> tuple[int, ModMatrix]:
    """(dim, projection) for A / [A, A] as a vector space.

    The projection matrix maps coordinates on A onto coordinates in a basis
    of the quotient (the non-pivot coordinates after row reducing the span
    of all basis commutators).
    """
    if a.power != 1:
        raise ModulusError("commutator quotient is computed over F_p")
    p = a.p
    comms = (a.constants - a.constants.transpose(1, 0, 2)).reshape(a.dim * a.dim, a.dim) % p
    # the rows of proj are a basis of the functionals that vanish on every
    # commutator, i.e. of the kernel of the commutator rows
    proj = _dense_kernel(comms, p).T
    return proj.shape[0], ModMatrix.from_dense(proj, p)


# ---------------- lifts mod p**2 ----------------

@dataclass
class AlgebraLift:
    """A mod p**2 algebra claimed to reduce to a given mod p algebra."""

    base: StructureConstantsAlgebra
    lifted: StructureConstantsAlgebra

    def __post_init__(self):
        if self.base.power != 1:
            raise ModulusError("lift base must live over a prime")
        if self.lifted.power != 2 or self.lifted.p != self.base.p:
            raise ModulusError("lifted algebra must live over p**2 for the base prime")


@dataclass
class LiftReport:
    valid: bool
    failures: list[str] = field(default_factory=list)


def check_lift(lift: AlgebraLift) -> LiftReport:
    """Verify a mod p**2 lift: reduction agrees, axioms hold upstairs.

    A reduction mismatch raises ReductionMismatchError since the input is
    not even a candidate; axiom failures upstairs are reported as findings.
    """
    base, lifted = lift.base, lift.lifted
    p = base.p
    if lifted.dim != base.dim:
        raise ReductionMismatchError(
            f"dimension mismatch: lift has {lifted.dim}, base has {base.dim}")
    if np.any((lifted.constants - base.constants) % p != 0):
        raise ReductionMismatchError("lifted constants do not reduce to the base constants")
    if np.any((lifted.unit - base.unit) % p != 0):
        raise ReductionMismatchError("lifted unit does not reduce to the base unit")
    failures = validate_algebra(lifted)
    return LiftReport(valid=not failures, failures=failures)


def literal_lift(a: StructureConstantsAlgebra) -> AlgebraLift:
    """Reinterpret the structure constants mod p**2, unchanged.

    For constants built from 0 and 1 entries (all the bundled examples)
    associativity holds integrally, so this is a genuine lift.
    """
    lifted = StructureConstantsAlgebra(
        a.p ** 2, a.basis, a.unit, a.constants,
        name=f"lift({a.label()})", check=False)
    return AlgebraLift(base=a, lifted=lifted)
