"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: pure-python row reduction over
fractions of residues, brute-force orbit counting, direct polynomial
arithmetic. The point is that none of it shares code with the package, so
agreement is evidence rather than tautology.
"""

from __future__ import annotations

from itertools import product


def ref_rank(rows: list[list[int]], p: int) -> int:
    """Row reduction with explicit python ints, no numpy, no pivoting tricks."""
    mat = [[x % p for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        sel = None
        for r in range(row, len(mat)):
            if mat[r][col] % p != 0:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def ref_witt_pair_from_zp2(r: int, p: int) -> tuple[int, int]:
    """Digits (a0, a1) of r mod p**2 in Teichmuller coordinates."""
    q = p * p
    a0 = r % p
    return a0, ((r - pow(a0, p, q)) // p) % p


def tensor_index(word: tuple[int, ...], dim: int) -> int:
    """Little-endian digit packing of a monomial word."""
    idx = 0
    for pos, digit in enumerate(word):
        idx += digit * dim ** pos
    return idx


def tensor_word(idx: int, dim: int, length: int) -> tuple[int, ...]:
    word = []
    for _ in range(length):
        word.append(idx % dim)
        idx //= dim
    return tuple(word)


def ref_orbit_data(dim: int, length: int, block: int, p_rot: int):
    """Orbits of the block rotation on monomials of a tensor power.

    The rotation advances words of `length` digits by `block` positions and
    has order p_rot. Returns (n_fixed, n_free_orbits).
    """
    assert block * p_rot == length
    seen = set()
    fixed = 0
    free = 0
    for word in product(range(dim), repeat=length):
        if word in seen:
            continue
        orbit = {word}
        cur = word
        for _ in range(p_rot - 1):
            cur = cur[-block:] + cur[:-block]
            orbit.add(cur)
        seen |= orbit
        if len(orbit) == 1:
            fixed += 1
        else:
            free += 1
    return fixed, free


def ref_zp_homology_dims(dim: int, length: int, block: int, p: int) -> dict:
    """Group homology dims of Z/p acting on a monomial tensor power.

    Uses the orbit decomposition: every free orbit contributes a copy of
    the regular representation (homology vanishes in positive degrees),
    every fixed monomial contributes a trivial summand (one dimension in
    every degree). Degree zero picks up one dimension per orbit.
    """
    fixed, free = ref_orbit_data(dim, length, block, p)
    return {0: fixed + free, "positive": fixed}



def ref_rank_sparse(rows: list[dict[int, int]], p: int) -> int:
    """Row reduction on rows given as {column: value}: each row is cleared
    at its leading column by the pivot row stored there, or becomes one."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(pivots)


def ref_zp_action_ranks(sigma: list[list[int]], p: int) -> dict:
    """Ranks of a dense Z/p action sigma (a list of rows) by row reduction.

    Returns n, rank(1 - sigma), rank of the norm N = 1 + sigma + ... +
    sigma^(p-1), and the rank of phi, the map from the invariants
    ker(1 - sigma) to the coinvariants V / im(1 - sigma). With T = 1 - sigma,
    phi has kernel ker T meet im T, which has dimension rank T - rank T^2,
    so rank phi = n - 2 rank T + rank T^2.
    """
    return _action_ranks([{j: v for j, v in enumerate(row) if v % p} for row in sigma], p)


def ref_permutation_ranks(perm: list[int], p: int) -> dict:
    """`ref_zp_action_ranks` of the permutation matrix sending e_j to
    e_perm[j], built one entry per column."""
    sigma: list[dict[int, int]] = [{} for _ in perm]
    for j, i in enumerate(perm):
        sigma[i][j] = 1
    return _action_ranks(sigma, p)


def _action_ranks(sigma: list[dict[int, int]], p: int) -> dict:
    n = len(sigma)

    def mul(x, y):
        out = []
        for row in x:
            acc: dict[int, int] = {}
            for k, v in row.items():
                for j, w in y[k].items():
                    acc[j] = (acc.get(j, 0) + v * w) % p
            out.append({j: v for j, v in acc.items() if v})
        return out

    def add(x, y, sign=1):
        out = []
        for rx, ry in zip(x, y):
            acc = dict(rx)
            for j, w in ry.items():
                acc[j] = (acc.get(j, 0) + sign * w) % p
            out.append({j: v for j, v in acc.items() if v})
        return out

    one = [{i: 1} for i in range(n)]
    t = add(one, sigma, -1)
    norm, power = one, one
    for _ in range(p - 1):
        power = mul(sigma, power)
        norm = add(norm, power)
    r1 = ref_rank_sparse(t, p)
    return {"n": n, "rank_one_minus": r1, "rank_norm": ref_rank_sparse(norm, p),
            "phi_rank": n - 2 * r1 + ref_rank_sparse(mul(t, t), p)}


def _basis_vec(dim: int, k: int):
    import numpy as np

    v = np.zeros(dim, dtype=np.int64)
    v[k] = 1
    return v


def ref_face_dense(a, m: int, i: int):
    """Face operator on words of length m+1 built one monomial at a time."""
    import numpy as np

    d = a.dim
    out = np.zeros((d ** m, d ** (m + 1)), dtype=np.int64)
    for col in range(d ** (m + 1)):
        w = tensor_word(col, d, m + 1)
        if i < m:
            prod = a.multiply(_basis_vec(d, w[i]), _basis_vec(d, w[i + 1]))
            left, right = w[:i], w[i + 2:]
        else:
            prod = a.multiply(_basis_vec(d, w[m]), _basis_vec(d, w[0]))
            left, right = (), w[1:m]
        for k in range(d):
            if prod[k]:
                out[tensor_index(left + (int(k),) + right, d), col] += int(prod[k])
    return out % a.modulus


def ref_degeneracy_dense(a, m: int, i: int):
    """Insert the unit after slot i, one monomial at a time."""
    import numpy as np

    d = a.dim
    out = np.zeros((d ** (m + 2), d ** (m + 1)), dtype=np.int64)
    for col in range(d ** (m + 1)):
        w = tensor_word(col, d, m + 1)
        for k in range(d):
            if a.unit[k]:
                row = tensor_index(w[: i + 1] + (int(k),) + w[i + 1:], d)
                out[row, col] += int(a.unit[k])
    return out % a.modulus


def ref_rotation_dense(dim: int, m: int):
    """Move the last tensor slot to the front, one monomial at a time."""
    import numpy as np

    out = np.zeros((dim ** (m + 1), dim ** (m + 1)), dtype=np.int64)
    for col in range(dim ** (m + 1)):
        w = tensor_word(col, dim, m + 1)
        out[tensor_index((w[m],) + w[:m], dim), col] = 1
    return out
