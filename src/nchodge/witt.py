"""Length-two Witt vectors over F_p and their identification with Z/p**2.

A length-two Witt vector (a0, a1) has ghost components (a0, a0**p + p*a1).
Addition carries via the integral polynomial
K(X, Y) = ((X + Y)**p - X**p - Y**p) / p, giving
(x0, x1) + (y0, y1) = (x0 + y0, x1 + y1 - K(x0, y0)), and multiplication is
(x0, x1) * (y0, y1) = (x0*y0, x0**p*y1 + y0**p*x1). The Teichmuller lift
a -> a**p mod p**2 extends to a ring isomorphism with Z/p**2 by
(a0, a1) -> teichmuller(a0) + p*a1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import ModulusError
from .modring import is_prime


@lru_cache(maxsize=None)
def carry_coefficients(p: int) -> tuple[int, ...]:
    """Coefficients of K(X, Y) mod p: entry i multiplies X**i * Y**(p-i).

    Index 0 and p are zero; the interior entries are binom(p, i)/p mod p.
    Memoized for the life of the process, for every p.
    """
    if not is_prime(p):
        raise ModulusError(f"{p} is not prime")
    coeffs = [0] * (p + 1)
    for i in range(1, p):
        coeffs[i] = (comb(p, i) // p) % p
    return tuple(coeffs)


def _carry(x0: int, y0: int, p: int) -> int:
    ck = carry_coefficients(p)
    total = 0
    for i in range(1, p):
        total += ck[i] * pow(x0, i, p) * pow(y0, p - i, p)
    return total % p


@dataclass(frozen=True)
class W2Element:
    """A length-two Witt vector (a0, a1) with components mod p."""

    a0: int
    a1: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ModulusError(f"{self.p} is not prime")
        object.__setattr__(self, "a0", self.a0 % self.p)
        object.__setattr__(self, "a1", self.a1 % self.p)

    def _join(self, other: "W2Element") -> None:
        if not isinstance(other, W2Element):
            raise TypeError(f"expected W2Element, got {type(other).__name__}")
        if other.p != self.p:
            raise ModulusError(f"primes differ: {self.p} vs {other.p}")

    def __add__(self, other):
        return w2_add(self, other)

    def __mul__(self, other):
        return w2_mul(self, other)

    def __sub__(self, other):
        return w2_add(self, w2_neg(other))

    def __neg__(self):
        return w2_neg(self)


def w2_zero(p: int) -> W2Element:
    return W2Element(0, 0, p)


def w2_one(p: int) -> W2Element:
    return W2Element(1, 0, p)


def w2_add(x: W2Element, y: W2Element) -> W2Element:
    x._join(y)
    p = x.p
    return W2Element(x.a0 + y.a0, x.a1 + y.a1 - _carry(x.a0, y.a0, p), p)


def w2_mul(x: W2Element, y: W2Element) -> W2Element:
    x._join(y)
    p = x.p
    a1 = pow(x.a0, p, p) * y.a1 + pow(y.a0, p, p) * x.a1
    return W2Element(x.a0 * y.a0, a1, p)


def w2_neg(x: W2Element) -> W2Element:
    p = x.p
    return W2Element(-x.a0, _carry(x.a0, -x.a0 % p, p) - x.a1, p)


def teichmuller(a: int, p: int) -> int:
    """The multiplicative lift a -> a**p, as a residue mod p**2."""
    if not is_prime(p):
        raise ModulusError(f"{p} is not prime")
    return pow(a % p, p, p * p)


def w2_iso_zp2(x: W2Element) -> int:
    """Ring isomorphism W2(F_p) -> Z/p**2, (a0, a1) -> a0**p + p*a1, as a
    residue mod p**2."""
    q = x.p * x.p
    return (pow(x.a0, x.p, q) + x.p * x.a1) % q


def verify_w2_ring(p: int) -> list[str]:
    """Exhaustive check of the ring axioms and the isomorphism with Z/p**2.

    Walks all p**2 elements (and all triples for associativity and
    distributivity), so keep p small. Returns a list of human-readable
    failure strings, empty when everything holds.
    """
    failures: list[str] = []
    elems = [W2Element(a, b, p) for a in range(p) for b in range(p)]
    zero, one = w2_zero(p), w2_one(p)
    for x in elems:
        if w2_add(x, zero) != x:
            failures.append(f"additive unit fails at {x}")
        if w2_mul(x, one) != x:
            failures.append(f"multiplicative unit fails at {x}")
        if w2_add(x, w2_neg(x)) != zero:
            failures.append(f"negation fails at {x}")
    for x in elems:
        for y in elems:
            if w2_add(x, y) != w2_add(y, x):
                failures.append(f"addition not commutative at {x}, {y}")
            if w2_mul(x, y) != w2_mul(y, x):
                failures.append(f"multiplication not commutative at {x}, {y}")
    for x in elems:
        for y in elems:
            for z in elems:
                if w2_add(w2_add(x, y), z) != w2_add(x, w2_add(y, z)):
                    failures.append(f"addition not associative at {x}, {y}, {z}")
                if w2_mul(w2_mul(x, y), z) != w2_mul(x, w2_mul(y, z)):
                    failures.append(f"multiplication not associative at {x}, {y}, {z}")
                if w2_mul(x, w2_add(y, z)) != w2_add(w2_mul(x, y), w2_mul(x, z)):
                    failures.append(f"distributivity fails at {x}, {y}, {z}")
    q = p * p
    images = {w2_iso_zp2(x) for x in elems}
    if len(images) != q:
        failures.append("iso to Z/p**2 is not injective")
    for x in elems:
        for y in elems:
            lhs = w2_iso_zp2(w2_add(x, y))
            rhs = (w2_iso_zp2(x) + w2_iso_zp2(y)) % q
            if lhs != rhs:
                failures.append(f"iso not additive at {x}, {y}")
            lhs = w2_iso_zp2(w2_mul(x, y))
            rhs = w2_iso_zp2(x) * w2_iso_zp2(y) % q
            if lhs != rhs:
                failures.append(f"iso not multiplicative at {x}, {y}")
    return failures
