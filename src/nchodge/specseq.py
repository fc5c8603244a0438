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
level l with gap r. `_pairing` finds the same pairs on the coboundaries,
from degree 1 up, with clearing, where the elimination does less work.
`pair_gaps` hands them out as arrays; `hochcyc.sbi_ranks` reads the SBI
triangle off the same arrays, at the filtration's first step.

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
from .modring import _column_reduce, rank_fp

# the gap of an unpaired vector: past every page, so it counts on all of them
UNPAIRED = np.iinfo(np.int64).max


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
             top: int) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The pivot pairs of d_n for 0 < n <= top: (rows of C_{n-1}, columns of
    C_n, gaps), one entry per pair.

    Each degree is ordered by level, ties by index. The pairs are read off
    the coboundary d_n^T with both orders reversed, which has the same
    pairs as d_n (de Silva, Morozov and Vejdemo-Johansson, Inverse Problems
    27, 2011): a column of C_{n-1} only receives columns of no lower level,
    and its pivot is the remaining row of C_n first in level order. The
    degrees go up with clearing (Chen and Kerber, 2011): a vector of C_n
    that pairs in d_n has a coboundary that reduces to zero, so d_{n+1}^T
    skips it.
    """
    c = filt.carrier
    out = {}
    cleared = np.zeros(0, dtype=np.int64)
    for n in range(1, top + 1):
        d = c.d(n)
        rows = np.argsort(lev[n], kind="stable")[::-1]
        order = np.argsort(lev[n - 1], kind="stable")[::-1]
        keep = np.ones(order.size, dtype=bool)
        keep[cleared] = False
        cod = d.T.restrict(rows=rows)
        _, pivots = _column_reduce(cod.csc(), d.modulus, cod.shape,
                                   fill_guard=False, order=order[keep[order]])
        tau = rows[np.fromiter(pivots, dtype=np.int64, count=len(pivots))]
        sigma = np.fromiter(pivots.values(), dtype=np.int64, count=len(pivots))
        out[n] = (sigma, tau, lev[n][tau] - lev[n - 1][sigma])
        cleared = tau
    return out


def pair_gaps(filt: IncreasingFiltration
              ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray], dict[int, np.ndarray]]:
    """The persistence pairing as arrays, per degree n in [0, vhi + 1]:
    level[n], each vector's level; gap[n], the gap of the pair it is in, as
    row or as column, UNPAIRED if none; head[n], on a column of a pair of
    d_n that pair's gap, -1 elsewhere.

    d_n is reduced for 0 < n <= min(hi, vhi + 1): head is complete on
    [0, vhi + 1] and gap on [0, vhi], the degrees whose homology is trusted.
    """
    c = filt.carrier
    near = range(c.vhi + 2)
    level = {n: filt.at(n) for n in near}
    gap = {n: np.full(level[n].shape, UNPAIRED) for n in near}
    head = {n: np.full(level[n].shape, -1) for n in near}
    for n, (sigma, tau, g) in _pairing(filt, level, min(c.hi, c.vhi + 1)).items():
        gap[n - 1][sigma] = gap[n][tau] = head[n][tau] = g
    return level, gap, head


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


def page_entries(filt: IncreasingFiltration, r_max: int) -> int:
    """The entries of the tables and differential ranks that `pages`
    builds for E_0 .. E_{r_max}: page r holds (vhi + 1) width of the one
    and (vhi + 2) (width + r) of the other."""
    width, vhi = filt.levels[1] - filt.levels[0] + 1, filt.carrier.vhi
    return (r_max + 1) * (2 * vhi + 3) * width + (vhi + 2) * r_max * (r_max + 1) // 2


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
    lev, gap, head = pair_gaps(filt)
    out: list[SSPage] = []
    for r in range(r_max + 1):
        table = {(l, n): int(np.count_nonzero((lev[n] == l) & (gap[n] >= r)))
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
