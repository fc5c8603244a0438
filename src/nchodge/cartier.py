"""Edgewise subdivision, Z/p module homology, and the mod-p comparison maps.

The p-fold edgewise subdivision of the cyclic object of an algebra has
level n equal to tensor words of length p(n + 1). Its faces and
degeneracies are p-th Kronecker powers of ordinary ones, one factor per
block, the one-step rotation generates a cyclic group of order p(n + 1),
and its (n + 1)-st power is the block rotation, an action of Z/p
commuting with the whole simplicial structure.

Every Z/p action here is such a block rotation, a permutation of the
monomial basis, so the Z/p toolkit (`ZpModuleAction` and the homology,
invariants, coinvariants and norm complex built on it) takes the
permutation itself, an index array, and no matrix of sigma is ever built:
the orbits, the order certificate sigma^p = 1, 1 - sigma, the norm and
the check that b commutes with sigma are all index arithmetic on it.

Fixed monomials of the block rotation are exactly the p-fold repeated
words, so the span of fixed monomials at level n is a copy of the level-n
chain group of the algebra itself. Restricting the subdivided boundary to
those coordinates recovers the ordinary boundary on the nose (Fermat
collapses the p-th powers of coefficients), which is the computational
face of the mod-p comparison isomorphism this module certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureConstantsAlgebra, commutator_quotient
from .complexes import BicomplexWindow, ChainComplexWindow, LazyDiffs
from .conventions import cyclic_sign, face_sum
from .errors import (
    CartierError,
    InternalCheckError,
    ModulusError,
    NotAComplexError,
    OrderError,
    ParityError,
    ShapeError,
    SubdivisionMismatchError,
    WindowError,
)
from .hochcyc import (
    _check_levels,
    b_complex,
    degeneracy_matrix,
    face_matrix,
    hh_dims,
    level_counts,
    rotation_matrix,
)
from .modring import (CSC, ModMatrix, hstack, is_prime, kron_power, kron_sum,
                      matmul_mod, rank_fp, solve_fp)


# ---------------- Z/p actions ----------------

class ZpModuleAction:
    """A permutation sigma of order p of F_p coordinates, given by its index
    array: sigma sends basis vector i to basis vector perm[i].

    One pass over the p - 1 powers of perm gives the orbit partition and
    sigma^p, which must be the identity, so it certifies the order and that
    perm is a bijection. Ranks, invariants and coinvariants read off the
    orbits; 1 - sigma and the norm are written straight from perm, once.
    ShapeError: not a 1-D array of indices into itself, or one that repeats
    an index. OrderError: sigma^p is not the identity.
    """

    def __init__(self, perm: np.ndarray, p: int):
        if not is_prime(p):
            raise OrderError(f"group order {p} is not prime")
        perm = np.asarray(perm)
        if perm.ndim != 1 or perm.dtype.kind not in "iu":
            raise ShapeError(f"action must be a 1-D index array, got {perm.dtype} "
                             f"of shape {perm.shape}")
        if perm.dtype != np.int32:
            perm = perm.astype(np.int64, copy=False)
        n = perm.shape[0]
        if n and (perm.min() < 0 or perm.max() >= n):
            raise ShapeError(f"action on {n} coordinates sends one outside [0, {n})")
        self.perm, self.p, self.dim = perm, p, n
        # reps[i] ends as the smallest index in the orbit of i, cur as sigma^p
        idx = np.arange(n, dtype=perm.dtype)
        reps, cur = idx.copy(), perm
        for _ in range(p - 1):
            np.minimum(reps, cur, out=reps)
            cur = np.take(perm, cur)
        if not np.array_equal(cur, idx):
            if np.count_nonzero(np.bincount(perm, minlength=n)) != n:
                raise ShapeError(f"action on {n} coordinates repeats an index")
            raise OrderError(f"action does not have order {p}")
        # the representatives are the i with reps[i] == i; a running count
        # over them numbers the orbits in increasing order
        is_rep = reps == idx
        number = np.cumsum(is_rep, dtype=perm.dtype)
        number -= 1
        self._orbit = (idx[is_rep], number[reps], perm == idx)
        self._one_minus: ModMatrix | None = None
        self._norm: ModMatrix | None = None

    def orbit_data(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(reps, number, fixed): the smallest index of each orbit in
        increasing order, the orbit number of each index, and the mask of
        the fixed indices."""
        return self._orbit

    def n_orbits(self) -> int:
        return self._orbit[0].shape[0]

    def n_fixed(self) -> int:
        return int(np.count_nonzero(self._orbit[2]))

    def one_minus(self) -> ModMatrix:
        """1 - sigma, written straight into CSC: the column of a moved word
        i holds 1 at row i and -1 at row perm[i]; that of a fixed word is
        empty."""
        if self._one_minus is None:
            moved = np.flatnonzero(~self._orbit[2])
            image = self.perm[moved]
            first = np.where(image < moved, self.p - 1, 1)
            rows = np.stack([np.minimum(moved, image), np.maximum(moved, image)], axis=1)
            self._one_minus = self._on_moved(rows, np.stack([first, self.p - first], axis=1))
        return self._one_minus

    def norm(self) -> ModMatrix:
        """1 + sigma + ... + sigma^(p-1), written straight into CSC.

        The column of a moved word holds its p distinct images, and on a
        fixed word the p terms sum to p = 0, so its column is empty.
        """
        if self._norm is None:
            images = [np.flatnonzero(~self._orbit[2])]
            for _ in range(self.p - 1):
                images.append(self.perm[images[-1]])
            rows = np.stack(images, axis=1)
            rows.sort(axis=1)
            self._norm = self._on_moved(rows, np.ones(rows.shape, dtype=np.int64))
        return self._norm

    def _on_moved(self, rows: np.ndarray, vals: np.ndarray) -> ModMatrix:
        """The dim x dim matrix whose column of the k-th moved word holds
        vals[k] at the rows rows[k], increasing; fixed words' columns are
        empty."""
        indptr = np.zeros(self.dim + 1, dtype=np.int64)
        np.cumsum(~self._orbit[2] * rows.shape[1], out=indptr[1:])
        return ModMatrix((self.dim, self.dim), self.p, CSC(indptr, rows.ravel(), vals.ravel()))

    def intertwines(self, mat: ModMatrix, source: "ZpModuleAction") -> bool:
        """Whether sigma mat = mat tau for the source's permutation tau, in
        O(nnz): sigma mat tau^-1 carries the entry of mat at (r, c) to
        (perm[r], tau[c]), so the relabeled entries, sorted once, must be mat."""
        if mat.shape != (self.dim, source.dim):
            raise ShapeError(f"{mat.shape} does not map {source.dim} to {self.dim} coordinates")
        csc = mat.csc()
        moved = ModMatrix.from_arrays(mat.shape, mat.modulus, self.perm[csc.indices],
                                      np.repeat(source.perm, np.diff(csc.indptr)), csc.data)
        return moved == mat


def zp_invariants(act: ZpModuleAction) -> ModMatrix:
    """Columns: a basis of the sigma-fixed subspace, one orbit sum each."""
    uniq, inverse, _ = act.orbit_data()
    rows = np.arange(act.dim, dtype=np.int64)
    return ModMatrix.from_arrays(
        (act.dim, uniq.shape[0]), act.p, rows, inverse,
        np.ones(act.dim, dtype=np.int64))


def zp_coinvariants(act: ZpModuleAction) -> tuple[ModMatrix, ModMatrix]:
    """(projection, section) for the coinvariant quotient, one orbit each."""
    uniq, inverse, _ = act.orbit_data()
    return (ModMatrix.from_index_map(inverse, uniq.shape[0], act.p),
            ModMatrix.from_index_map(uniq, act.dim, act.p))


def zp_homology_dims(act: ZpModuleAction, l_max: int = 4) -> dict[int, int]:
    """dim H_l(Z/p, V) for 0 <= l <= l_max: the number of orbits in degree
    zero and the number of fixed words in every positive degree.

    H_0 is the coinvariants, one class per orbit. In positive degrees the
    periodic resolution gives ker N / im(1 - sigma) (even) and
    ker(1 - sigma) / im N (odd): the kernel and the cokernel of the norm
    from the coinvariants to the invariants. Proof that both count the
    fixed words: each side has one coordinate per orbit (the orbit class,
    the orbit sum); the norm sends a free orbit's class to its sum and a
    fixed word's class to p times itself, which is 0, so its rank is the
    number of free orbits. The comparison map, including the invariants and
    projecting to the coinvariants, sends a free orbit's sum to p times its
    class, 0, and a fixed word to itself, so it identifies the kernel with
    the cokernel.
    """
    out = {0: act.n_orbits()}
    for l in range(1, l_max + 1):
        out[l] = act.n_fixed()
    return out


# ---------------- repeated-word comparison map ----------------

def repeated_words(dim: int, n: int, p: int) -> np.ndarray:
    """The index of the p-fold repetition of each level-n word, in order."""
    D = dim ** (n + 1)
    spread = (D ** p - 1) // (D - 1) if D > 1 else p
    return np.arange(D, dtype=np.int64) * spread


def iota_matrix(dim: int, n: int, p: int, modulus: int) -> ModMatrix:
    """Monomial map sending a level-n word to its p-fold repetition."""
    return ModMatrix.from_index_map(repeated_words(dim, n, p), dim ** (p * (n + 1)), modulus)


def _tensor_power_vec(x: np.ndarray, p: int, modulus: int) -> np.ndarray:
    out = np.asarray(x, dtype=np.int64) % modulus
    cur = out
    for _ in range(p - 1):
        cur = np.kron(out, cur) % modulus
    return cur


def _digit_permutation_power(g: np.ndarray, length: int, modulus: int) -> ModMatrix:
    """g acting separately on every digit of a word, for a basis permutation g."""
    d = g.shape[0]
    cols = np.arange(d ** length, dtype=np.int64)
    rows = np.zeros_like(cols)
    rest = cols.copy()
    stride = 1
    for _ in range(length):
        rows += g[rest % d] * stride
        rest //= d
        stride *= d
    return ModMatrix.from_index_map(rows, d ** length, modulus)


def iota_iso(dim: int, p: int, n: int = 0, l_max: int = 4,
             samples: int = 200, seed: int = 0) -> None:
    """Certify that repeated words present every positive Z/p homology
    group of the p-th tensor power of an F_p space of the given dim.

    Checks, all by explicit linear algebra: the image is fixed, the
    classes are a basis of H_l for 1 <= l <= l_max (`zp_homology_dims`),
    the map commutes with digitwise basis permutations and the one-step
    rotation, and p-fold powering of sampled vectors is additive modulo
    im(1 - sigma). Any failure raises CartierError.
    """
    length = p * (n + 1)
    act = ZpModuleAction(block_rotation(dim, length, n + 1, p), p)
    iota = iota_matrix(dim, n, p, p)
    D = iota.shape[1]
    one_minus, norm = act.one_minus(), act.norm()
    failures = []

    if not (one_minus @ iota).is_zero():
        failures.append("image is not fixed")
    if not (norm @ iota).is_zero():
        failures.append("image does not lie in the kernel of the norm")

    hom = zp_homology_dims(act, l_max=l_max)
    rk_odd = rank_fp(hstack([iota, norm])) - rank_fp(norm)
    rk_even = rank_fp(hstack([iota, one_minus])) - rank_fp(one_minus)
    for l in range(1, l_max + 1):
        if not ((rk_odd if l % 2 == 1 else rk_even) == D == hom[l]):
            failures.append(f"classes do not form a basis in degree {l}")
            break

    rng = np.random.default_rng(seed)
    if rotation_matrix(dim, length - 1, p) @ iota != iota @ rotation_matrix(dim, n, p):
        failures.append("does not intertwine the one-step rotations")
    for _ in range(3):
        g = rng.permutation(dim).astype(np.int64)
        g_small = _digit_permutation_power(g, n + 1, p)
        g_big = _digit_permutation_power(g, length, p)
        if g_big @ iota != iota @ g_small:
            failures.append("does not commute with a digitwise permutation")
            break

    deltas = np.zeros((dim ** length, samples), dtype=np.int64)
    for s in range(samples):
        x = rng.integers(0, p, dim ** (n + 1), dtype=np.int64)
        y = rng.integers(0, p, dim ** (n + 1), dtype=np.int64)
        both = _tensor_power_vec((x + y) % p, p, p)
        deltas[:, s] = (both - _tensor_power_vec(x, p, p)
                        - _tensor_power_vec(y, p, p)) % p
    stacked = hstack([one_minus, ModMatrix.from_dense(deltas, p)])
    if rank_fp(stacked) != rank_fp(one_minus):
        failures.append("powering is not additive modulo the moved subspace")

    if failures:
        raise CartierError("; ".join(failures))


def block_rotation(dim: int, length: int, blocksize: int, p: int) -> np.ndarray:
    """Rotation by one block as an index array, int32 while the dim^length
    words fit: a word goes to the word with its leading block of blocksize
    digits moved to the end, so lead * S + rest goes to rest * B + lead for
    B = dim^blocksize and S = dim^length / B. That is the S x B table of
    the words, read down its columns."""
    if length != blocksize * p:
        raise ShapeError("word length must be blocksize * p")
    size = dim ** length
    words = np.arange(size, dtype=np.int32 if size < 1 << 31 else np.int64)
    return words.reshape(dim ** (length - blocksize), dim ** blocksize).T.ravel()


# ---------------- the subdivided cyclic object ----------------

def estimate_sd_entries(a: StructureConstantsAlgebra, N: int) -> int:
    """The entries of the subdivided b through level N (`level_counts`)."""
    return sum(b for _, b, _ in level_counts(a, N, p=a.p))


class PCyclicLevels:
    """Faces, degeneracies and rotations of the p-fold subdivision.

    Matrices are built lazily; level n words have p(n + 1) digits, so the
    constructor only guards the entries. Face i < n and each degeneracy is
    the p-th Kronecker power of the ordinary one at level n, its entries
    written by digit arithmetic; the wrap face is face 0 after the one-step
    rotation, its columns relabelled. b(n) is one construction from the
    packed keys of its signed faces, each written as it is produced, and
    keeps no face; `face` builds and caches one face for `bprime`. The conjugate
    route reads b, the block rotation as a Z/p action and the repeated
    words; `edgewise-check` reads b alone. The cap charges b (`level_counts`)
    and a column per word; with L, the conjugate bicomplex: b in each of its
    L + 1 columns, and p + 3 entries per word for the index array of sigma,
    1 - sigma and N.
    """

    def __init__(self, a: StructureConstantsAlgebra, N: int, cap: int | None = None,
                 allow_p2: bool = False, L: int | None = None):
        if a.p == 2 and not allow_p2:
            raise ParityError(
                "at p = 2 the sign conventions for the subdivision degenerate; "
                "pass allow_p2=True (--allow-p2 on the command line) to build it anyway")
        copies, per_word = (1, 1) if L is None else (L + 1, a.p + 3)
        # with d > 1 and p > log2(cap), b_1 alone writes 2 nnz(c)^p > 2^p entries
        _check_levels(a, N, "the subdivided b" if L is None else "the conjugate bicomplex",
                      lambda cap: [0, cap + 1] if a.dim > 1 and a.p > cap.bit_length() else
                      (copies * b + per_word * w for w, b, _ in level_counts(a, N, p=a.p)), cap)
        self.algebra = a
        self.p = a.p
        self.N = N
        self._faces: dict[tuple[int, int], ModMatrix] = {}
        self._degens: dict[tuple[int, int], ModMatrix] = {}
        self._b: dict[int, ModMatrix] = {}
        self._bprime: dict[int, ModMatrix] = {}
        self._norm: dict[int, ModMatrix] = {}
        self._actions: dict[int, ZpModuleAction] = {}

    def dim(self, n: int) -> int:
        if n < 0 or n > self.N:
            return 0
        return self.algebra.dim ** (self.p * (n + 1))

    def face(self, n: int, i: int) -> ModMatrix:
        if not (1 <= n <= self.N) or not (0 <= i <= n):
            raise WindowError(f"no face ({n}, {i}) in the window")
        if (n, i) not in self._faces:
            self._faces[(n, i)] = self._faces_sum(n, [(i, False)])
        return self._faces[(n, i)]

    def _faces_sum(self, n: int, faces: list[tuple[int, bool]]) -> ModMatrix:
        """The sum of the faces (n, i), negated where asked, in one
        `kron_sum`. Face i < n is the p-th Kronecker power of the ordinary
        face. The wrap face is face 0 with column c moved to
        c // d + (c % d) d^(p(n+1)-1): its first digit, in the last factor,
        moved to the end."""
        a, d = self.algebra, self.algebra.dim
        shape = (self.dim(n - 1), self.dim(n))
        terms = []
        for i, negate in faces:
            f = face_matrix(a, n, 0 if i == n else i)
            rows, cols, vals = f.coo()
            last = (rows, cols, vals, f.shape)
            if i == n:
                last = (rows, cols // d + cols % d * (shape[1] // d), vals,
                        (f.shape[0], f.shape[1] // d))
            terms.append(([(rows, cols, vals, f.shape)] * (self.p - 1) + [last], negate))
        return kron_sum(shape, a.modulus, terms)

    def degeneracy(self, n: int, i: int) -> ModMatrix:
        if not (0 <= n < self.N) or not (0 <= i <= n):
            raise WindowError(f"no degeneracy ({n}, {i}) in the window")
        key = (n, i)
        if key not in self._degens:
            self._degens[key] = kron_power(degeneracy_matrix(self.algebra, n, i), self.p)
        return self._degens[key]

    def rho(self, n: int) -> ModMatrix:
        return rotation_matrix(self.algebra.dim, self.p * (n + 1) - 1,
                               self.algebra.modulus)

    def t(self, n: int) -> ModMatrix:
        return self.rho(n).scale(cyclic_sign(n))

    def action(self, n: int) -> ZpModuleAction:
        """The block rotation of level n, the permutation sigma = rho^(n+1)."""
        if n not in self._actions:
            self._actions[n] = ZpModuleAction(
                block_rotation(self.algebra.dim, self.p * (n + 1), n + 1, self.p), self.p)
        return self._actions[n]

    def b(self, n: int) -> ModMatrix:
        """The alternating sum of the faces, one construction from their
        packed keys (duplicates are summed); no face is kept."""
        if n not in self._b:
            self._b[n] = self._faces_sum(n, [(i, i % 2 == 1) for i in range(n + 1)])
        return self._b[n]

    def bprime(self, n: int) -> ModMatrix:
        if n not in self._bprime:
            self._bprime[n] = face_sum(self.face(n, i) for i in range(n))
        return self._bprime[n]

    def norm(self, n: int) -> ModMatrix:
        if n not in self._norm:
            t = self.t(n)
            total = ModMatrix.identity(self.dim(n), self.algebra.modulus)
            cur = total
            for _ in range(self.p * (n + 1) - 1):
                cur = t @ cur
                total = total + cur
            self._norm[n] = total
        return self._norm[n]


@dataclass
class EdgewiseReport:
    N: int
    sd_dims: dict[int, int]
    hh: dict[int, int]


def edgewise_hh_check(a: StructureConstantsAlgebra, N: int,
                      cap: int | None = None,
                      allow_p2: bool = False) -> EdgewiseReport:
    """Homology of the subdivided complex against the unsubdivided one.

    Subdivision does not change the realization, so the two must agree on
    the whole trusted window; a mismatch raises.
    """
    pcyc = PCyclicLevels(a, N, cap=cap, allow_p2=allow_p2)
    sd = b_complex(pcyc).homology_dims()
    hh = hh_dims(a, N, cap=cap)
    if sd != hh:
        raise SubdivisionMismatchError(
            f"subdivided homology {sd} differs from {hh} for {a.label()}")
    return EdgewiseReport(N=N, sd_dims=sd, hh=hh)


# ---------------- fiberwise group homology bicomplex ----------------

def conjugate_bicomplex(pcyc: PCyclicLevels, L: int) -> BicomplexWindow:
    """Columns carry the subdivided boundary with alternating sign, the
    horizontals resolve the Z/p action: 1 - sigma into even columns, the
    sigma-norm N into odd ones, one shared object per operator and level,
    built when a total degree that holds the cell is read.
    `certify_conjugate_squares` certifies its squares.
    """
    dims = {(x, y): pcyc.dim(y) for x in range(L + 1) for y in range(pcyc.N + 1)}
    neg_b = LazyDiffs(range(1, pcyc.N + 1), lambda y: -pcyc.b(y))
    d_v = LazyDiffs([(x, y) for x, y in dims if y >= 1],
                    lambda c: neg_b[c[1]] if c[0] % 2 else pcyc.b(c[1]))
    d_h = LazyDiffs([(x, y) for x, y in dims if x >= 1],
                    lambda c: (pcyc.action(c[1]).one_minus() if c[0] % 2
                               else pcyc.action(c[1]).norm()))
    return BicomplexWindow(L, pcyc.N, dims, d_v, d_h, pcyc.algebra.modulus)


def certify_conjugate_squares(pcyc: PCyclicLevels, L: int) -> None:
    """Certify that every square of `conjugate_bicomplex(pcyc, L)` vanishes,
    with no product of Z/p operators: for L >= 1 they all vanish iff
    b_(y-1) b_y = 0 and sigma_(y-1) b_y = b_y sigma_y at every level y >= 1.

    Proof: the horizontal squares are (1 - sigma) N = N (1 - sigma) =
    1 - sigma^p, zero as `ZpModuleAction` certifies sigma^p = 1; the
    vertical ones are b_(y-1) b_y; the mixed square of an odd column is
    sigma_(y-1) b - b sigma_y, and that of an even one N_(y-1) b - b N_y,
    zero with it as N is a polynomial in sigma. Raises NotAComplexError
    naming the first level that fails.
    """
    for y in range(1, pcyc.N + 1):
        if y >= 2 and not (pcyc.b(y - 1) @ pcyc.b(y)).is_zero():
            raise NotAComplexError(f"b_{y - 1} b_{y} is not zero at level {y}")
        if L >= 1 and not pcyc.action(y - 1).intertwines(pcyc.b(y), pcyc.action(y)):
            raise NotAComplexError(f"b_{y} does not commute with sigma at level {y}")


def _fixed_reduced_complex(pcyc: PCyclicLevels) -> ChainComplexWindow:
    """The subdivided boundary squeezed onto the repeated-word coordinates,
    a gather of its rows and columns at the p-fold repetitions.

    This must coincide with the ordinary boundary of the algebra, the sum
    of the signed faces: the comparison map is monomial and Fermat
    collapses the coefficient powers. The equality is asserted, not assumed.
    """
    a = pcyc.algebra
    dims = {n: a.dim ** (n + 1) for n in range(pcyc.N + 1)}
    diffs = {}
    for n in range(1, pcyc.N + 1):
        beta = pcyc.b(n).restrict(rows=repeated_words(a.dim, n - 1, pcyc.p),
                                  cols=repeated_words(a.dim, n, pcyc.p))
        if beta != face_sum(face_matrix(a, n, i) for i in range(n + 1)):
            raise InternalCheckError(
                f"fixed-coordinate boundary at level {n} does not match the "
                f"ordinary one for {a.label()}")
        diffs[n] = beta
    return ChainComplexWindow(pcyc.N, dims, diffs, a.modulus)


def _coinvariant_complex(pcyc: PCyclicLevels) -> ChainComplexWindow:
    """Induced boundary on Z/p coinvariants, one orbit coordinate each: b
    on the orbit representatives, each row relabelled by its orbit (the
    entries of an orbit are summed). Its squares are certified as its
    homology is read."""
    orbits = [pcyc.action(n).orbit_data() for n in range(pcyc.N + 1)]
    dims = {n: reps.shape[0] for n, (reps, _, _) in enumerate(orbits)}
    diffs = {}
    for n in range(1, pcyc.N + 1):
        rows, cols, vals = pcyc.b(n).restrict(cols=orbits[n][0]).coo()
        diffs[n] = ModMatrix.from_arrays(
            (dims[n - 1], dims[n]), pcyc.algebra.modulus, orbits[n - 1][1][rows], cols, vals)
    return ChainComplexWindow(pcyc.N, dims, diffs, pcyc.algebra.modulus)


@dataclass
class ConjugateSSReport:
    N: int
    L: int
    e1: dict[tuple[int, int], int]
    e2_positive: dict[int, int]
    e2_zero: dict[int, int]
    hh: dict[int, int]
    matches_hh: bool
    abutment: dict[int, int]
    window: tuple[int, int]


def conjugate_ss(a: StructureConstantsAlgebra, N: int, L: int | None = None,
                 cap: int | None = None,
                 allow_p2: bool = False) -> ConjugateSSReport:
    """Row-filtration spectral sequence of the fiberwise bicomplex.

    The first page in row j is the Z/p homology of the level
    (`zp_homology_dims`). The second page in positive rows is the
    homology of the fixed-coordinate complex, which the comparison map
    identifies with the Hochschild dimensions of the algebra itself; row
    zero carries the coinvariant complex. The abutment column reports the
    homology of the truncated totalization on its trusted window.
    """
    L = 2 * a.p if L is None else L
    pcyc = PCyclicLevels(a, N, cap=cap, allow_p2=allow_p2, L=L)
    e1 = {}
    for n in range(N + 1):
        for j, dim in zp_homology_dims(pcyc.action(n), L).items():
            e1[(j, n)] = dim
    reduced = _fixed_reduced_complex(pcyc)
    e2_pos = reduced.homology_dims()
    coinv = _coinvariant_complex(pcyc)
    e2_zero = coinv.homology_dims()
    hh = hh_dims(a, N, cap=cap)
    certify_conjugate_squares(pcyc, L)
    tot, _ = conjugate_bicomplex(pcyc, L).total_complex()
    abut = tot.homology_dims()
    for m in abut:
        upper = e2_zero.get(m, 0) + sum(e2_pos.get(m - j, 0) for j in range(1, m + 1))
        if upper < abut[m]:
            raise InternalCheckError(
                f"second page sums to {upper} in degree {m}, abutment has {abut[m]}")
    return ConjugateSSReport(
        N=N, L=L, e1=e1, e2_positive=e2_pos, e2_zero=e2_zero,
        hh=hh, matches_hh=e2_pos == hh, abutment=abut,
        window=(0, tot.vhi))


# ---------------- degree zero power map ----------------

@dataclass
class Cartier0Report:
    dim_quotient: int
    matrix: ModMatrix
    samples: int
    seed: int


def cartier0(a: StructureConstantsAlgebra, samples: int = 1000,
             seed: int = 0) -> Cartier0Report:
    """The p-th power map on A / [A, A].

    The matrix is assembled from a coordinate section of the quotient;
    additivity and independence of the representative are then certified
    on sampled elements. Both hold identically in characteristic p, so a
    failure means the quotient or the powering is miscomputed, and raises
    InternalCheckError naming the certificate.
    """
    if a.power != 1:
        raise ModulusError("power map runs over F_p")
    p = a.p
    q_dim, proj = commutator_quotient(a)
    sec = solve_fp(proj, ModMatrix.identity(q_dim, p))
    if sec is None:
        raise InternalCheckError("quotient projection has no section")
    cols = []
    sec_d = sec.to_dense()
    for j in range(q_dim):
        cols.append(proj @ ModMatrix.from_dense(
            a.power_of(sec_d[:, j], p).reshape(-1, 1), p))
    matrix = hstack(cols) if cols else ModMatrix.zeros(0, 0, p)

    rng = np.random.default_rng(seed)
    proj_d = proj.to_dense()

    def cls_of_power(z: np.ndarray) -> np.ndarray:
        return matmul_mod(proj_d, a.power_of(z, p).reshape(-1, 1), p)

    for _ in range(samples):
        x = a.random_element(rng)
        y = a.random_element(rng)
        if not np.array_equal(cls_of_power((x + y) % p),
                              (cls_of_power(x) + cls_of_power(y)) % p):
            raise InternalCheckError(
                f"power map certificate failed for {a.label()}: not additive")
        u = a.random_element(rng)
        v = a.random_element(rng)
        comm = (a.multiply(u, v) - a.multiply(v, u)) % p
        if not np.array_equal(cls_of_power((x + comm) % p), cls_of_power(x)):
            raise InternalCheckError(
                f"power map certificate failed for {a.label()}: "
                f"depends on the representative")
    return Cartier0Report(dim_quotient=q_dim, matrix=matrix, samples=samples, seed=seed)
