"""Witt vector arithmetic, pinned against Z/p**2 done by hand."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from nchodge.errors import ModulusError
from nchodge.witt import (
    W2Element,
    carry_coefficients,
    teichmuller,
    w2_add,
    w2_iso_zp2,
    w2_mul,
    w2_neg,
    w2_one,
    w2_zero,
)

from .oracles import ref_witt_pair_from_zp2


def test_carry_coefficients_frozen():
    # ((X+Y)^2 - X^2 - Y^2)/2 = XY
    assert carry_coefficients(2) == (0, 1, 0)
    # ((X+Y)^3 - X^3 - Y^3)/3 = X^2 Y + X Y^2
    assert carry_coefficients(3) == (0, 1, 1, 0)
    # binom(5, i)/5 = 1, 2, 2, 1
    assert carry_coefficients(5) == (0, 1, 2, 2, 1, 0)
    with pytest.raises(ModulusError):
        carry_coefficients(4)


def test_frozen_examples():
    assert w2_add(W2Element(1, 0, 2), W2Element(1, 0, 2)) == W2Element(0, 1, 2)
    assert w2_add(W2Element(1, 0, 3), W2Element(2, 0, 3)) == W2Element(0, 0, 3)
    assert w2_mul(W2Element(2, 0, 3), W2Element(2, 0, 3)) == W2Element(1, 0, 3)
    assert teichmuller(2, 3) == 8
    assert w2_iso_zp2(W2Element(0, 1, 3)) == 3


def test_one_plus_one_at_p3():
    # in Z/9 the Teichmuller digits of 2 are (2, 1) since 2 = 8 + 3
    s = w2_add(w2_one(3), w2_one(3))
    assert s == W2Element(2, 1, 3)
    assert w2_iso_zp2(s) == 2


def test_neg_is_additive_inverse():
    for p in (2, 3, 5):
        for a in range(p):
            for b in range(p):
                x = W2Element(a, b, p)
                assert w2_add(x, w2_neg(x)) == w2_zero(p)


def from_zp2(r: int, p: int) -> W2Element:
    """The Witt vector of r mod p**2, with digits from the oracle."""
    return W2Element(*ref_witt_pair_from_zp2(r, p), p)


def test_iso_round_trip_and_oracle():
    for p in (2, 3, 5, 7):
        q = p * p
        for r in range(q):
            assert w2_iso_zp2(from_zp2(r, p)) == r


@given(st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.integers(min_value=0, max_value=200),
       st.integers(min_value=0, max_value=200))
@settings(max_examples=100, deadline=None)
def test_add_mul_track_zp2(p, m, n):
    # transporting integers through Witt coordinates respects + and *
    q = p * p
    x = from_zp2(m % q, p)
    y = from_zp2(n % q, p)
    assert w2_iso_zp2(w2_add(x, y)) == (m + n) % q
    assert w2_iso_zp2(w2_mul(x, y)) == (m * n) % q


def test_teichmuller_is_multiplicative():
    for p in (3, 5, 7):
        q = p * p
        for a in range(p):
            for b in range(p):
                lhs = teichmuller((a * b) % p, p)
                rhs = teichmuller(a, p) * teichmuller(b, p) % q
                assert lhs == rhs


def test_prime_mismatch_raises():
    with pytest.raises(ModulusError):
        w2_add(W2Element(1, 0, 3), W2Element(1, 0, 5))
    with pytest.raises(ModulusError):
        W2Element(1, 0, 6)
