"""Spectral sequence of an increasing coordinate filtration.

The pages are those of

    Z_r(l, n) = { x in F_l C_n : dx in F_{l-r} C_{n-1} },
    E_r(l, n) = Z_r(l, n) / ( Z_{r-1}(l-1, n) + d Z_{r-1}(l+r-1, n+1) ),

with Z_{-1} read as Z_0, read off one persistence pairing per degree. The
filtration gives each basis vector of C_n its level, the l at which it
first enters F_l. Reducing d_n with rows and columns in level order (the
standard persistence algorithm; Zomorodian and Carlsson, DCG 33, 2005)
pairs pivot rows sigma of C_{n-1} with columns tau of C_n; the pair is a
rank-one d_g, g = level(tau) - level(sigma), and both ends are gone from
page g + 1 on (Basu and Parida, Expo. Math. 35, 2017). So dim E_r(l, n)
counts the degree-n vectors at level l that are unpaired or paired with
gap >= r, and the rank of d_r out of (l, n) counts the degree-n columns at
level l with gap r.

Certification discipline: entries are reported only for total degrees
where every chain group a page differential could touch lies inside the
stored window. All pages move total degree by one and the carrier starts
at a genuine bottom, degree 0, so that window is [0, vhi]; differential
ranks are additionally available from sources one degree above it.

Checked on every call, apart from the pairing: every page transition,

    dim E_{r+1}(l, n) = dim E_r(l, n) - rank d_r out of (l, n)
                                       - rank d_r into (l, n);

E_1(l, n) against the homology of the graded piece l, ranked on the
diagonal blocks of d; and the last page against the homology of the
carrier (`abutment_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .complexes import IncreasingFiltration
from .errors import InternalCheckError, WindowError
from .modring import _column_reduce, _prime_of, rank_fp


@dataclass(frozen=True)
class SSPage:
    """One page: entry dimensions and the ranks of the differentials leaving
    each entry. Keys are (filtration level, total degree)."""

    r: int
    table: dict[tuple[int, int], int]
    d_ranks: dict[tuple[int, int], int]
    window: tuple[int, int]

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


def _pairing(filt: IncreasingFiltration, lev: dict[int, np.ndarray],
             degrees: range) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The pivot pairs of d_n for n in degrees: (rows of C_{n-1}, columns of
    C_n, gaps), one entry per pair.

    Rows are renumbered and columns taken in level order, ties by index, so
    a pivot is the remaining row last in level order and a column only ever
    receives columns of no higher level.
    """
    c = filt.carrier
    out = {}
    for n in degrees:
        d = c.d(n)
        rows = np.argsort(lev[n - 1], kind="stable")
        order = np.argsort(lev[n], kind="stable").tolist()
        _, pivots = _column_reduce(d.restrict(rows=rows).csc(), _prime_of(d), d.shape,
                                   fill_guard=False, order=order)
        sigma = rows[np.fromiter(pivots, dtype=np.int64, count=len(pivots))]
        tau = np.fromiter(pivots.values(), dtype=np.int64, count=len(pivots))
        out[n] = (sigma, tau, lev[n][tau] - lev[n - 1][sigma])
    return out


def _check_first_page(filt: IncreasingFiltration, e1: SSPage) -> None:
    """E_1(l, n) is the homology of the graded piece l in degree n, ranked
    on the diagonal blocks of d."""
    c = filt.carrier

    @cache
    def block_rank(l: int, n: int) -> int:
        if not 0 < n <= c.hi:
            return 0
        return rank_fp(c.d(n).restrict(filt.at(n - 1) == l, filt.at(n) == l))

    for (l, n), dim in e1.table.items():
        want = int(np.count_nonzero(filt.at(n) == l)) - block_rank(l, n) - block_rank(l, n + 1)
        if dim != want:
            raise InternalCheckError(
                f"page 1 entry ({l}, {n}) has dim {dim}, the homology of "
                f"graded piece {l} has {want}")


def pages(filt: IncreasingFiltration, r_max: int = 3) -> list[SSPage]:
    """Pages E_0 .. E_{r_max} with their differential ranks.

    Raises InternalCheckError if a page transition violates the dimension
    bookkeeping, E_1 is not the homology of the graded pieces, or the last
    page does not abut to the homology of the carrier, since that can only
    mean the computation is wrong, not the input.
    """
    if r_max < 0:
        raise WindowError("need r_max >= 0")
    c = filt.carrier
    lmin, lmax = filt.levels
    degs = list(range(c.vhi + 1))
    # per degree, from 0 to vhi + 1 (sources of the last reported ranks): each
    # vector's level, the gap of its pair (r_max + 1 if unpaired, which
    # outlives every page) and, on a column, its pair's gap
    near = range(c.vhi + 2)
    lev = {n: filt.at(n) for n in near}
    alive = {n: np.full(lev[n].shape, r_max + 1) for n in near}
    head = {n: np.full(lev[n].shape, -1) for n in near}
    reduced = range(1, min(c.hi, c.vhi + 1) + 1)
    for n, (sigma, tau, gap) in _pairing(filt, lev, reduced).items():
        alive[n - 1][sigma] = alive[n][tau] = head[n][tau] = gap
    out: list[SSPage] = []
    for r in range(r_max + 1):
        table = {(l, n): int(np.count_nonzero((lev[n] == l) & (alive[n] >= r)))
                 for n in degs for l in range(lmin, lmax + 1)}
        d_ranks = {(l, n): int(np.count_nonzero((lev[n] == l) & (head[n] == r)))
                   for n in degs + [c.vhi + 1] for l in range(lmin, lmax + r + 1)}
        page = SSPage(r=r, table=table, d_ranks=d_ranks, window=(0, c.vhi))
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
    if r_max >= 1:
        _check_first_page(filt, out[1])
    abutment_check(filt, out)
    return out


def span_length(filt: IncreasingFiltration) -> int:
    """Pages beyond this index are final: both entries linked by a longer
    differential cannot be inside the filtration range at once."""
    return filt.levels[-1] - filt.levels[0] + 1


def abutment_check(filt: IncreasingFiltration, pgs: list[SSPage]) -> None:
    """Compare the last computed page's antidiagonal sums with the homology
    of the carrier. Sums can only overshoot on a non-final page, one not
    past span_length(filt); an undershoot, or a final page that differs,
    means the machinery is broken and raises."""
    last = pgs[-1]
    final = last.r >= span_length(filt) + 1
    for n, s in last.degree_sums().items():
        h = filt.carrier.homology_dim(n)
        if s < h:
            raise InternalCheckError(
                f"page {last.r} sums to {s} in degree {n}, homology has {h}")
        if final and s != h:
            raise InternalCheckError(
                f"final page sums to {s} in degree {n}, homology has {h}")
