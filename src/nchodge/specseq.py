"""Spectral sequence of an increasing coordinate filtration.

Pages are computed from explicit approximate-cycle bases rather than from
page-to-page subquotients: for level l and total degree n,

    Z_r(l, n) = { x in F_l C_n : dx in F_{l-r} C_{n-1} },
    E_r(l, n) = Z_r(l, n) / ( Z_{r-1}(l-1, n) + d Z_{r-1}(l+r-1, n+1) ),

with Z_{-1} read as Z_0. Numerators come from one kernel computation, the
denominators and differential ranks from ranks of concatenated spanning
matrices, so no quotient bases are ever materialized.

Certification discipline: entries are reported only for total degrees
where every chain group a page differential could touch lies inside the
stored window. All pages move total degree by one, so with a genuine
bottom at the carrier's vlo that window is [vlo, vhi]; differential ranks
are additionally available from sources one degree above it.

Internal invariant, checked on every page transition:

    dim E_{r+1}(l, n) = dim E_r(l, n) - rank d_r out of (l, n)
                                       - rank d_r into (l, n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import ChainComplexWindow, IncreasingFiltration
from .errors import InternalCheckError, WindowError
from .modring import ModMatrix, hstack, kernel_basis_fp, rank_fp


@dataclass(frozen=True)
class SSPage:
    """One page: entry dimensions and the ranks of the differentials leaving
    each entry. Keys are (filtration level, total degree)."""

    r: int
    table: dict[tuple[int, int], int]
    d_ranks: dict[tuple[int, int], int]
    window: tuple[int, int]
    level_range: tuple[int, int]

    def dim(self, l: int, n: int) -> int:
        return self.table.get((l, n), 0)

    def rank_out(self, l: int, n: int) -> int:
        return self.d_ranks.get((l, n), 0)

    def is_flat(self) -> bool:
        return all(v == 0 for v in self.d_ranks.values())

    def degree_sums(self) -> dict[int, int]:
        lo, hi = self.window
        out = {n: 0 for n in range(lo, hi + 1)}
        for (_, n), v in self.table.items():
            out[n] += v
        return out


class _Approximants:
    """Cache of spanning matrices for the Z_r(l, n), embedded in C_n."""

    def __init__(self, filt: IncreasingFiltration):
        self.filt = filt
        self.c = filt.carrier
        self.lmin = filt.levels[0]
        self.lmax = filt.levels[-1]
        self._cache: dict[tuple[int, int, int], ModMatrix] = {}
        # every span handed out is the first one built with its degree and
        # content, so the memos below, keyed by the ids of spans, are shared
        # by all (r, l) that reach the same span, and those ids stay valid
        self._canon: dict[tuple, ModMatrix] = {}
        self._denoms: dict[tuple[int, int], ModMatrix] = {}
        self._d_ranks: dict[tuple[int, int], int] = {}

    def _clamp(self, l: int) -> int:
        return min(max(l, self.lmin - 1), self.lmax)

    def _canonical(self, mat: ModMatrix, n: int) -> ModMatrix:
        csc = mat.csc()
        key = (n, mat.shape, csc.indptr.tobytes(), csc.indices.tobytes(),
               csc.data.tobytes())
        return self._canon.setdefault(key, mat)

    def _empty(self, n: int) -> ModMatrix:
        return ModMatrix.zeros(self.c.dim(n), 0, self.c.modulus)

    def z_span(self, r: int, l: int, n: int) -> ModMatrix:
        """Columns spanning Z_r(l, n) inside C_n (a basis, in fact)."""
        c = self.c
        if r < 0:
            r = 0
        if n < c.lo or n > c.hi:
            return self._canonical(self._empty(n), n)
        key = (self._clamp(l), self._clamp(l - r), n)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        src = self.filt.mask(l, n)
        if not src.any():
            out = self._empty(n)
        else:
            d = c.d(n)
            bad = ~self.filt.mask(l - r, n - 1)
            sub = d.restrict(bad, src)
            ker = kernel_basis_fp(sub)
            incl = ModMatrix.from_index_map(np.nonzero(src)[0], c.dim(n), c.modulus)
            out = incl @ ker
        out = self._cache[key] = self._canonical(out, n)
        return out

    def b_span(self, r: int, l: int, n: int) -> ModMatrix:
        """Columns spanning the denominator of E_r(l, n), built once per
        content, so entry_dim and d_rank share its memoized rank."""
        stay = self.z_span(r - 1, l - 1, n)
        deeper = self.z_span(r - 1, l + r - 1, n + 1)
        key = (id(stay), id(deeper))
        hit = self._denoms.get(key)
        if hit is None:
            arrived = self.c.d(n + 1) @ deeper if deeper.shape[1] else self._empty(n)
            hit = self._denoms[key] = self._canonical(hstack([stay, arrived]), n)
        return hit

    def entry_dim(self, r: int, l: int, n: int) -> int:
        z = self.z_span(r, l, n)
        if z.shape[1] == 0:
            return 0
        return z.shape[1] - self.b_span(r, l, n).rank()

    def d_rank(self, r: int, l: int, n: int) -> int:
        """Rank of d_r : E_r(l, n) -> E_r(l - r, n - 1)."""
        z = self.z_span(r, l, n)
        if z.shape[1] == 0:
            return 0
        denom = self.b_span(r, l - r, n - 1)
        key = (id(z), id(denom))
        if key not in self._d_ranks:
            moved = self.c.d(n) @ z
            self._d_ranks[key] = rank_fp(hstack([moved, denom])) - denom.rank()
        return self._d_ranks[key]


def pages(filt: IncreasingFiltration, r_max: int = 3) -> list[SSPage]:
    """Pages E_0 .. E_{r_max} with their differential ranks.

    Raises InternalCheckError if any page transition violates the
    dimension bookkeeping, since that can only mean the computation is
    wrong, not the input.
    """
    if r_max < 0:
        raise WindowError("need r_max >= 0")
    c = filt.carrier
    appr = _Approximants(filt)
    lmin, lmax = appr.lmin, appr.lmax
    degs = list(range(c.vlo, c.vhi + 1))
    out: list[SSPage] = []
    for r in range(r_max + 1):
        table = {(l, n): appr.entry_dim(r, l, n)
                 for n in degs for l in range(lmin, lmax + 1)}
        d_ranks = {(l, n): appr.d_rank(r, l, n)
                   for n in degs + [c.vhi + 1] for l in range(lmin, lmax + r + 1)}
        page = SSPage(r=r, table=table, d_ranks=d_ranks,
                      window=(c.vlo, c.vhi), level_range=(lmin, lmax))
        if out:
            prev = out[-1]
            for (l, n), dim_now in table.items():
                expect = (prev.dim(l, n) - prev.rank_out(l, n)
                          - prev.d_ranks.get((l + prev.r, n + 1), 0))
                if dim_now != expect:
                    raise InternalCheckError(
                        f"page {r} entry ({l}, {n}) has dim {dim_now}, "
                        f"bookkeeping from page {prev.r} gives {expect}")
        out.append(page)
    return out


def span_length(filt: IncreasingFiltration) -> int:
    """Pages beyond this index are final: both entries linked by a longer
    differential cannot be inside the filtration range at once."""
    return filt.levels[-1] - filt.levels[0] + 1


def degenerates_at(filt: IncreasingFiltration, r_max: int | None = None,
                   pgs: list[SSPage] | None = None) -> int | None:
    """Smallest r >= 1 from which every differential vanishes, or None.

    Certified only when the computed range reaches span_length(filt) + 1,
    where the filtration geometry forces all later pages to be flat; if
    the range stops short the answer is None even if everything seen so
    far was flat.
    """
    stab = span_length(filt) + 1
    if pgs is None:
        pgs = pages(filt, r_max=stab if r_max is None else max(r_max, stab))
    if pgs[-1].r < stab:
        return None
    first = None
    for page in pgs:
        if page.r == 0:
            continue
        if page.is_flat():
            if first is None:
                first = page.r
        else:
            first = None
    return first


@dataclass(frozen=True)
class AbutmentReport:
    final: bool
    per_degree: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return all(s >= h for s, h in self.per_degree.values())

    @property
    def converged(self) -> bool:
        return self.final and all(s == h for s, h in self.per_degree.values())


def abutment_check(filt: IncreasingFiltration,
                   pgs: list[SSPage] | None = None,
                   r_max: int | None = None) -> AbutmentReport:
    """Compare the last computed page's antidiagonal sums with the homology
    of the carrier. Sums can only overshoot on a non-final page; a strict
    undershoot means the machinery is broken and raises."""
    if pgs is None:
        pgs = pages(filt, r_max=span_length(filt) + 1 if r_max is None else r_max)
    last = pgs[-1]
    final = last.r >= span_length(filt) + 1
    per = {}
    sums = last.degree_sums()
    for n, s in sums.items():
        h = filt.carrier.homology_dim(n)
        if s < h:
            raise InternalCheckError(
                f"page {last.r} sums to {s} in degree {n}, homology has {h}")
        if final and s != h:
            raise InternalCheckError(
                f"final page sums to {s} in degree {n}, homology has {h}")
        per[n] = (s, h)
    return AbutmentReport(final=final, per_degree=per)
