"""Filtration spectral sequence engine, checked on hand examples and
against the independent homology pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from nchodge.complexes import ChainComplexWindow, IncreasingFiltration, filtration_by_columns
from nchodge.corpus import build
from nchodge.errors import WindowError
from nchodge.hochcyc import CyclicLevelMaps, bB_bicomplex, hc_dims, hh_dims, hodge_ss
from nchodge.modring import ModMatrix, hstack, kernel_basis_fp, rank_fp
from nchodge.specseq import abutment_check, degenerates_at, pages, span_length


def two_step_filtration(p=3):
    # 0 -> F --id--> F -> 0, filtered by (degree-0 line) inside (everything)
    c = ChainComplexWindow(0, 1, {0: 1, 1: 1}, {1: ModMatrix.identity(1, p)}, p, vhi=1)
    masks = {
        0: {0: np.array([True]), 1: np.array([False])},
        1: {0: np.array([True]), 1: np.array([True])},
    }
    return IncreasingFiltration(c, masks)


def test_two_step_pages_by_hand():
    filt = two_step_filtration()
    pgs = pages(filt, r_max=3)
    e0, e1, e2 = pgs[0], pgs[1], pgs[2]
    assert e0.table == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    assert e0.is_flat()
    assert e1.table == e0.table
    assert e1.rank_out(1, 1) == 1 and not e1.is_flat()
    assert e2.table == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    assert degenerates_at(filt, pgs=pgs) == 2
    rep = abutment_check(filt, pgs=pgs)
    assert rep.final and rep.converged
    assert rep.per_degree == {0: (0, 0), 1: (0, 0)}


def test_page_bookkeeping_externally():
    filt = two_step_filtration()
    e1, e2 = pages(filt, r_max=2)[1:]
    for (l, n), v in e2.table.items():
        assert v == e1.dim(l, n) - e1.rank_out(l, n) - e1.rank_out(l + 1, n + 1)


def hodge_filtration(name, N, p=3):
    cyc = CyclicLevelMaps(build(name, p), N)
    tot, blocks, filt = filtration_by_columns(bB_bicomplex(cyc))
    return filt


def uncached_page(filt, r):
    """Entries and differential ranks of page r straight from the
    definitions, every span and rank computed afresh."""
    c = filt.carrier

    def z(r, l, n):
        empty = ModMatrix.zeros(c.dim(n), 0, c.modulus)
        src = filt.mask(l, n)
        if n < c.lo or n > c.hi or not src.any():
            return empty
        sub = c.d(n).restrict(~filt.mask(l - max(r, 0), n - 1), src)
        incl = ModMatrix.from_index_map(np.nonzero(src)[0], c.dim(n), c.modulus)
        return incl @ kernel_basis_fp(sub)

    def denom(r, l, n):
        deeper = z(r - 1, l + r - 1, n + 1)
        arrived = c.d(n + 1) @ deeper if deeper.shape[1] else ModMatrix.zeros(c.dim(n), 0, c.modulus)
        return hstack([z(r - 1, l - 1, n), arrived])

    lmin, lmax = filt.levels[0], filt.levels[-1]
    degs = range(c.vlo, c.vhi + 1)
    table = {(l, n): z(r, l, n).shape[1] and z(r, l, n).shape[1] - rank_fp(denom(r, l, n))
             for n in degs for l in range(lmin, lmax + 1)}
    d_ranks = {}
    for n in list(degs) + [c.vhi + 1]:
        for l in range(lmin, lmax + r + 1):
            src = z(r, l, n)
            low = denom(r, l - r, n - 1)
            d_ranks[(l, n)] = src.shape[1] and \
                rank_fp(hstack([c.d(n) @ src, low])) - rank_fp(low)
    return table, d_ranks


def test_memoized_pages_match_uncached_definitions():
    # the ground field has equal dimensions in neighbouring degrees, so
    # spans of different degrees can share content
    for name, N in (("ground-field", 5), ("dual-numbers", 4), ("group-z3", 3)):
        filt = hodge_filtration(name, N)
        for page in pages(filt, r_max=3):
            assert (page.table, page.d_ranks) == uncached_page(filt, page.r), (name, page.r)


def test_first_page_is_hochschild():
    for name, N in (("ground-field", 5), ("dual-numbers", 4), ("upper-tri-2", 4)):
        a = build(name, 3)
        filt = hodge_filtration(name, N)
        hh = hh_dims(a, N)
        e1 = pages(filt, r_max=1)[1]
        for (l, n), v in e1.table.items():
            want = hh[n - 2 * l] if 0 <= n - 2 * l < N else 0
            assert v == want, (name, l, n)


def test_degeneration_pages_match_verdicts():
    filt = hodge_filtration("ground-field", 5)
    assert degenerates_at(filt) == 1
    filt = hodge_filtration("dual-numbers", 5)
    assert degenerates_at(filt) == 2


def test_not_certified_when_pages_stop_early():
    filt = hodge_filtration("ground-field", 4)
    pgs = pages(filt, r_max=2)  # span is 5, so nothing is certified yet
    assert degenerates_at(filt, pgs=pgs) is None


def test_abutment_matches_cyclic_homology():
    a = build("dual-numbers", 3)
    filt = hodge_filtration("dual-numbers", 6)
    pgs = pages(filt, r_max=span_length(filt) + 1)
    rep = abutment_check(filt, pgs=pgs)
    assert rep.final and rep.converged
    hc = hc_dims(a, 6)
    sums = pgs[-1].degree_sums()
    assert {n: sums[n] for n in hc} == hc
    assert sums == {0: 2, 1: 0, 2: 2, 3: 1, 4: 3, 5: 1}


def test_hodge_report_attaches_certified_pages():
    rep = hodge_ss(build("ground-field", 3), 4)
    assert rep.pages_certified and rep.page_tables is not None
    assert rep.degenerate
    e1 = rep.page_tables[1]
    assert e1.dim(0, 0) == 1 and e1.dim(1, 2) == 1 and e1.dim(0, 1) == 0


def test_r_max_guard():
    with pytest.raises(WindowError):
        pages(two_step_filtration(), r_max=-1)
