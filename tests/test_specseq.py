"""Filtration spectral sequence engine, checked on hand examples and
against the independent homology pipelines."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge import hochcyc, specseq
from nchodge.algebra import normalize_basis
from nchodge.complexes import ChainComplexWindow, IncreasingFiltration, filtration_by_columns
from nchodge.corpus import build, corpus_names
from nchodge.errors import InternalCheckError, WindowError
from nchodge.hochcyc import CyclicLevelMaps, hc_dims, hh_dims, hodge_ss
from nchodge.modring import ModMatrix, hstack, kernel_basis_fp, rank_fp
from nchodge.specseq import abutment_check, pages, span_length
from .sweeps import bB_filtration


def two_step_filtration(p=3):
    # 0 -> F --id--> F -> 0, filtered by (degree-0 line) inside (everything)
    c = ChainComplexWindow(1, {0: 1, 1: 1}, {1: ModMatrix.identity(1, p)}, p, vhi=1)
    c.check_differentials()
    filt = IncreasingFiltration(c, {0: [0], 1: [1]}, (0, 1))
    filt.check()
    return filt


def test_two_step_pages_by_hand():
    filt = two_step_filtration()
    pgs = pages(filt, r_max=3)
    e0, e1, e2 = pgs[0], pgs[1], pgs[2]
    assert e0.table == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    assert e0.is_flat()
    assert e1.table == e0.table
    assert e1.rank_out(1, 1) == 1 and not e1.is_flat()
    assert e2.table == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    assert all(page.is_flat() for page in pgs[2:])
    # the last page is final and sums to the homology, 0 in both degrees
    assert pgs[-1].r >= span_length(filt) + 1
    assert pgs[-1].degree_sums() == {0: 0, 1: 0}
    abutment_check(filt, pgs=pgs)
    tampered = replace(pgs[-1], table={**pgs[-1].table, (0, 1): 1})
    with pytest.raises(InternalCheckError, match="final page sums to 1 in degree 1"):
        abutment_check(filt, pgs=[tampered])


def test_page_bookkeeping_externally():
    filt = two_step_filtration()
    e1, e2 = pages(filt, r_max=2)[1:]
    for (l, n), v in e2.table.items():
        assert v == e1.dim(l, n) - e1.rank_out(l, n) - e1.rank_out(l + 1, n + 1)


def hodge_filtration(name, N, p=3):
    return filtration_by_columns(CyclicLevelMaps(build(name, p), N))


def uncached_page(filt, r):
    """Entries and differential ranks of page r straight from the
    definitions, every span and rank computed afresh."""
    c = filt.carrier

    def z(r, l, n):
        empty = ModMatrix.zeros(c.dim(n), 0, c.modulus)
        src = filt.at(n) <= l
        if n < 0 or n > c.hi or not src.any():
            return empty
        sub = c.d(n).restrict(filt.at(n - 1) > l - max(r, 0), src)
        incl = ModMatrix.from_index_map(np.nonzero(src)[0], c.dim(n), c.modulus)
        return incl @ kernel_basis_fp(sub)

    def denom(r, l, n):
        deeper = z(r - 1, l + r - 1, n + 1)
        arrived = c.d(n + 1) @ deeper if deeper.shape[1] else ModMatrix.zeros(c.dim(n), 0, c.modulus)
        return hstack([z(r - 1, l - 1, n), arrived])

    lmin, lmax = filt.levels[0], filt.levels[-1]
    degs = range(c.vhi + 1)
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


def test_pages_match_uncached_definitions_on_the_corpus():
    # three deeper windows, then every corpus algebra at each prime
    cases = [("ground-field", 5, 3), ("dual-numbers", 4, 3), ("group-z3", 3, 3)]
    for p in (3, 5, 7):
        cases += [(name, 3 if p == 3 or build(name, p).dim <= 2 else 2, p)
                  for name in corpus_names()]
    for name, N, p in cases:
        filt = hodge_filtration(name, N, p)
        for page in pages(filt, r_max=3):
            assert (page.table, page.d_ranks) == uncached_page(filt, page.r), (name, N, p, page.r)


@st.composite
def elementary_sums(draw):
    """A sum of elementary filtered complexes: F --u--> F for each pair
    (n, a, b), a column of degree n at level b hitting a row at level
    a <= b, and F for each single (n, l)."""
    p = draw(st.sampled_from([3, 5, 7]))
    top = draw(st.integers(1, 4))
    nlev = draw(st.integers(1, 4))
    level = st.integers(0, nlev - 1)
    pairs = [(n, min(a, b), max(a, b)) for n, a, b in
             draw(st.lists(st.tuples(st.integers(1, top), level, level), max_size=8))]
    singles = draw(st.lists(st.tuples(st.integers(0, top), level), max_size=5))
    return p, top, nlev, pairs, singles, draw(st.integers(0, 2**32 - 1))


def elementary_filtration(p, top, nlev, pairs, singles, seed):
    """The sum in shuffled coordinates after a random filtration-preserving
    change of basis."""
    rng = np.random.default_rng(seed)
    cells = {n: [] for n in range(top + 1)}
    for k, (n, a, b) in enumerate(pairs):
        cells[n].append((b, ("col", k)))
        cells[n - 1].append((a, ("row", k)))
    for n, l in singles:
        cells[n].append((l, None))
    for n in cells:
        cells[n] = [cells[n][i] for i in rng.permutation(len(cells[n]))]
    level = {n: np.array([l for l, _ in cells[n]], dtype=np.int64) for n in cells}
    pos = {tag: i for n in cells for i, (_, tag) in enumerate(cells[n]) if tag}
    d = {n: np.zeros((len(cells[n - 1]), len(cells[n])), dtype=np.int64)
         for n in range(1, top + 1)}
    for k, (n, _, _) in enumerate(pairs):
        d[n][pos[("row", k)], pos[("col", k)]] = rng.integers(1, p)
    # e_j -> e_j + c e_i with level(i) <= level(j) keeps every F_l; in the
    # new basis d_m gains c col i on col j, and d_{m+1} loses c row j on row i
    for m in cells:
        size = len(cells[m])
        for _ in range(3 * size):
            i, j = rng.integers(0, size, 2)
            if i == j or level[m][i] > level[m][j]:
                continue
            c = int(rng.integers(1, p))
            if m >= 1:
                d[m][:, j] = (d[m][:, j] + c * d[m][:, i]) % p
            if m < top:
                d[m + 1][i, :] = (d[m + 1][i, :] - c * d[m + 1][j, :]) % p
    carrier = ChainComplexWindow(top, {n: len(cells[n]) for n in cells},
                                 {n: ModMatrix.from_dense(d[n], p) for n in d}, p, vhi=top)
    carrier.check_differentials()
    filt = IncreasingFiltration(carrier, level, (0, nlev - 1))
    filt.check()
    return filt


@settings(max_examples=60, deadline=None)
@given(elementary_sums())
def test_pages_of_elementary_sums_read_off_their_pairs(case):
    _, top, nlev, pairs, singles, _ = case
    filt = elementary_filtration(*case)
    for page in pages(filt, r_max=nlev + 1):
        r = page.r

        def entry(l, n):
            # singles, then columns, then rows of pairs that outlive page r
            return (sum((m, k) == (n, l) for m, k in singles)
                    + sum(b - a >= r for m, a, b in pairs if (m, b) == (n, l))
                    + sum(b - a >= r for m, a, b in pairs if (m - 1, a) == (n, l)))

        assert page.table == {(l, n): entry(l, n) for n in range(top + 1) for l in range(nlev)}
        assert page.d_ranks == {
            (l, n): sum(b - a == r for m, a, b in pairs if (m, b) == (n, l))
            for n in range(top + 2) for l in range(nlev + r)}


@pytest.mark.parametrize("old, new", [(0, 1), (1, 0)])
def test_a_shifted_gap_fails_a_certificate(monkeypatch, old, new):
    real = specseq._pairing

    def shifted(*args):
        out = real(*args)
        for *_, gap in out.values():
            hit = np.flatnonzero(gap == old)
            if hit.size:
                gap[hit[0]] = new
                return out
        raise AssertionError(f"no pair with gap {old}")

    monkeypatch.setattr(specseq, "_pairing", shifted)
    with pytest.raises(InternalCheckError):
        pages(hodge_filtration("dual-numbers", 4), r_max=3)


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
    # pages through span_length + 1 include every page that can still move
    filt = hodge_filtration("ground-field", 5)
    pgs = pages(filt, r_max=span_length(filt) + 1)
    assert all(page.is_flat() for page in pgs[1:])
    assert hodge_ss(build("ground-field", 3), 5, pages_budget=0).degenerate
    filt = hodge_filtration("dual-numbers", 5)
    pgs = pages(filt, r_max=span_length(filt) + 1)
    assert not pgs[1].is_flat() and all(page.is_flat() for page in pgs[2:])
    assert not hodge_ss(build("dual-numbers", 3), 5, pages_budget=0).degenerate


def test_not_certified_when_pages_stop_early():
    filt = hodge_filtration("ground-field", 4)
    pgs = pages(filt, r_max=2)  # span is 5, so nothing is certified yet
    assert pgs[-1].r < span_length(filt) + 1
    # a non-final page may overshoot the homology; the same sums on a final
    # page raise
    over = replace(pgs[-1], table={k: v + 1 for k, v in pgs[-1].table.items()})
    abutment_check(filt, pgs=[over])
    with pytest.raises(InternalCheckError, match="final page"):
        abutment_check(filt, pgs=[replace(over, r=span_length(filt) + 1)])


def test_abutment_matches_cyclic_homology():
    a = build("dual-numbers", 3)
    filt = hodge_filtration("dual-numbers", 6)
    pgs = pages(filt, r_max=span_length(filt) + 1)
    abutment_check(filt, pgs=pgs)
    sums = pgs[-1].degree_sums()
    assert sums == {n: filt.carrier.homology_dim(n) for n in sums}
    hc = hc_dims(a, 6)
    assert {n: sums[n] for n in hc} == hc
    assert sums == {0: 2, 1: 0, 2: 2, 3: 1, 4: 3, 5: 1}


def test_hodge_pages_are_the_cyclic_objects_on_the_corpus():
    # hodge_ss reads its pages off the normalized complex and writes E_0 in
    # closed form: every page, E_0 included, is the cyclic object's, in the
    # given and in the normalized basis
    cases = 0
    for p in (3, 5, 7):
        for name in corpus_names():
            given = build(name, p)
            for a in (given, normalize_basis(given)):
                for N in range(2, 5):
                    rep = hodge_ss(a, N)
                    if rep.page_tables is None:
                        break
                    want = pages(bB_filtration(CyclicLevelMaps(a, N)))
                    assert rep.page_tables == want, (name, p, N, a is given)
                    cases += 1
    assert cases >= 200


def test_a_negative_derived_rank_fails_page_zero(monkeypatch):
    # E_0's ranks come from HH: rank b_1 = d - dim HH_0 must lie in [0, d]
    real = hochcyc.hh_dims

    def shifted(*args, **kwargs):
        dims = real(*args, **kwargs)
        dims[0] += 100
        return dims

    monkeypatch.setattr(hochcyc, "hh_dims", shifted)
    with pytest.raises(InternalCheckError, match="derived rank b_1"):
        hodge_ss(build("dual-numbers", 3), 4)


def test_hodge_report_attaches_certified_pages():
    rep = hodge_ss(build("ground-field", 3), 4)
    assert rep.page_tables is not None
    assert rep.degenerate
    e1 = rep.page_tables[1]
    assert e1.dim(0, 0) == 1 and e1.dim(1, 2) == 1 and e1.dim(0, 1) == 0


def test_r_max_guard():
    with pytest.raises(WindowError):
        pages(two_step_filtration(), r_max=-1)
