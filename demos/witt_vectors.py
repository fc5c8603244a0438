"""Length-two Witt vectors over F_p and why they see one level deeper than F_p.

The addition law carries: (a0, a1) + (b0, b1) has a correction term in the
second slot that records the overflow of a0 + b0. That correction is what
distinguishes W_2(F_p) = Z/p^2 from the product ring F_p x F_p, and it is
the whole obstruction theory behind lifting algebras mod p^2.
"""

from nchodge.witt import (W2Element, teichmuller, verify_w2_ring, w2_add,
                          w2_iso_zp2, w2_mul, w2_one)

p = 3
one = w2_one(p)
two = w2_add(one, one)
print(f"in W_2(F_{p}): (1,0) + (1,0) = ({two.a0},{two.a1})  "
      "(the carry lands in the second slot)")
print(f"image in Z/{p * p}: {w2_iso_zp2(two)}")

x = W2Element(2, 1, p)
y = W2Element(1, 2, p)
prod = w2_mul(x, y)
print(f"\n({x.a0},{x.a1}) * ({y.a0},{y.a1}) = ({prod.a0},{prod.a1})")
print(f"check against Z/9: {w2_iso_zp2(x)} * {w2_iso_zp2(y)} = "
      f"{w2_iso_zp2(prod)}")

print(f"\nTeichmuller section at p = {p}:",
      {a: teichmuller(a, p) for a in range(p)})

for q in (2, 3, 5, 7):
    failures = verify_w2_ring(q)
    print(f"ring axioms and isomorphism with Z/{q * q}, exhaustive at p = {q}:",
          "all hold" if not failures else failures)
