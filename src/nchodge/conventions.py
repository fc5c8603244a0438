"""Sign conventions, fixed in one place.

Everything downstream reads its signs from here so there is exactly one
knob. The choices follow the common textbook normalization for cyclic
homology:

  face d_i        multiplies factors i, i+1 (the last face wraps around),
  degeneracy s_i  inserts the unit after slot i,
  rho_n           unsigned rotation sending the last tensor factor to the
                  front, of order n + 1 on n-simplices,
  t_n             the signed cyclic operator (-1)^n * rho_n,
  b               sum of (-1)^i d_i over all faces,
  b'              the same sum with the wraparound face omitted,
  N_n             1 + t_n + ... + t_n^n,
  B               (1 - t_{n+1}) compose (x -> 1 (x) x) compose N_n.

With these signs b*b = 0, b'*b' = 0, B*B = 0, b*B + B*b = 0, and the
exchange rule b(1 - t) = (1 - t)b' all hold; the identity sweeps of the
test suite (tests/sweeps.py) check them on the whole corpus.

In a mixed two-directional complex the vertical differential of column x
is multiplied by (-1)^x so squares anticommute on the nose.

In the subdivided p-fold object at level n the one-step rotation of the
p(n+1) tensor factors carries the sign (-1)^n (by simplicial level, not by
tensor length); the block rotation advancing whole (n+1)-blocks is used
unsigned, as a group action of order p.
"""

from __future__ import annotations

from functools import reduce
from operator import add

SIGN_CONVENTION = "loday-v1"


def face_sign(i: int) -> int:
    return -1 if i % 2 else 1


def face_sum(faces):
    """sum of (-1)^i d_i over the faces d_0, d_1, .. given: b, or b'."""
    return reduce(add, (f.scale(face_sign(i)) for i, f in enumerate(faces)))


def cyclic_sign(n: int) -> int:
    """Sign decorating the one-step rotation on n-simplices."""
    return -1 if n % 2 else 1
