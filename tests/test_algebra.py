"""Structure constant algebras: constructors, validation, quotients, lifts."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge.algebra import (
    MAX_VALIDATION_REPORTS,
    AlgebraLift,
    Quiver,
    StructureConstantsAlgebra,
    check_lift,
    commutator_quotient,
    direct_product,
    dual_numbers,
    from_json_dict,
    group_algebra_cyclic,
    literal_lift,
    load_algebra,
    matrix_algebra,
    path_algebra,
    truncated_poly,
    upper_triangular,
    validate_algebra,
)
from nchodge.corpus import build, corpus_names
from nchodge.errors import ConstructionError, ModulusError, ReductionMismatchError
from nchodge.modring import rank_fp


def test_every_corpus_algebra_validates():
    for p in (2, 3, 5, 7):
        for name in corpus_names():
            a = build(name, p)
            assert validate_algebra(a) == [], name
            assert a.name == name


def test_matrix_algebra_relations():
    a = matrix_algebra(2, 3)
    assert a.dim == 4
    e01 = np.array([0, 1, 0, 0])
    e10 = np.array([0, 0, 1, 0])
    # e01 * e10 = e00, e10 * e01 = e11
    assert np.array_equal(a.multiply(e01, e10), [1, 0, 0, 0])
    assert np.array_equal(a.multiply(e10, e01), [0, 0, 0, 1])
    assert np.array_equal(a.multiply(e01, e01), [0, 0, 0, 0])


def test_truncated_poly_nilpotence():
    a = truncated_poly(5, 3)
    x = np.array([0, 1, 0])
    assert np.array_equal(a.power_of(x, 2), [0, 0, 1])
    assert np.array_equal(a.power_of(x, 3), [0, 0, 0])


def test_group_algebra_is_commutative():
    a = group_algebra_cyclic(3, 4)
    assert np.array_equal(a.constants, a.constants.transpose(1, 0, 2))
    g = np.array([0, 1, 0, 0])
    assert np.array_equal(a.power_of(g, 4), a.unit)


def test_path_algebra_a2_matches_upper_triangular_dimension():
    a = build("a2-path", 3)
    assert a.dim == 3
    ut = upper_triangular(2, 3)
    assert ut.dim == 3
    # both have a 2-dimensional commutator quotient
    assert commutator_quotient(a)[0] == commutator_quotient(ut)[0] == 2


def test_kronecker_products_vanish():
    a = build("kronecker", 5)
    assert a.dim == 4
    labels = list(a.basis)
    ia, ib = labels.index("a"), labels.index("b")
    va = np.eye(4, dtype=np.int64)[ia]
    vb = np.eye(4, dtype=np.int64)[ib]
    assert np.array_equal(a.multiply(va, vb), np.zeros(4, dtype=np.int64))
    assert np.array_equal(a.multiply(va, va), np.zeros(4, dtype=np.int64))


def test_cyclic_quiver_requires_cap():
    q = Quiver(vertices=(1,), arrows=(("a", 1, 1),))
    with pytest.raises(ConstructionError):
        path_algebra(q, 3)
    loop = path_algebra(q, 3, cap=2)
    # e, a, a^2: the cap kills a^3, giving k[x]/x^3
    assert loop.dim == 3
    assert validate_algebra(loop) == []


def test_validation_catches_broken_constants():
    a = matrix_algebra(2, 3)
    bad = a.constants.copy()
    bad[0, 0, 3] = 1  # e00 * e00 = e00 + e11 breaks associativity with e01
    with pytest.raises(ConstructionError):
        StructureConstantsAlgebra(3, a.basis, a.unit, bad)
    failures = validate_algebra(
        StructureConstantsAlgebra(3, a.basis, a.unit, bad, check=False))
    assert failures


def naive_associativity_failures(a: StructureConstantsAlgebra) -> list[str]:
    """The associativity failures, (i, j, k) in lexicographic order, by a
    loop over python ints."""
    c, m, d = a.constants.tolist(), a.modulus, a.dim
    out = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = [sum(c[i][j][t] * c[t][k][l] for t in range(d)) % m for l in range(d)]
                right = [sum(c[j][k][t] * c[i][t][l] for t in range(d)) % m for l in range(d)]
                if left != right:
                    b = a.basis
                    out.append(f"associativity fails at ({b[i]}, {b[j]}, {b[k]})")
    return out


def test_blocked_validation_holds_o_d3_and_reports_in_order():
    a = truncated_poly(3, 40)
    tracemalloc.start()
    try:
        assert validate_algebra(a) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unblocked products held four d^4-entry int64 arrays: 82 MB here;
    # blocked over the first index, 2.1 MB
    assert peak < 6 << 20, peak
    # broken constants past the first block of i: the same failures, in the
    # order of a naive scan, cut at MAX_VALIDATION_REPORTS
    a = truncated_poly(3, 20)
    for cells in ([(13, 2, 15)], [(9, 0, 9), (17, 1, 18)], [(0, 1, 1), (19, 0, 19)]):
        bad = a.constants.copy()
        for cell in cells:
            bad[cell] = 2
        broken = StructureConstantsAlgebra(3, a.basis, a.unit, bad, check=False)
        want = naive_associativity_failures(broken)
        got = validate_algebra(broken)
        assert want and got[:MAX_VALIDATION_REPORTS] == want[:MAX_VALIDATION_REPORTS]
        if len(want) > MAX_VALIDATION_REPORTS:
            assert got[-1] == "... further failures suppressed"


def test_validation_catches_broken_unit():
    with pytest.raises(ConstructionError):
        StructureConstantsAlgebra(3, ["1"], [2], [[[1]]])


def test_direct_product_unit_splits():
    a = direct_product(dual_numbers(3), matrix_algebra(2, 3))
    assert a.dim == 6
    assert validate_algebra(a) == []
    assert commutator_quotient(a)[0] == 2 + 1


def test_commutator_quotient_m2_and_upper_triangular():
    dim, proj = commutator_quotient(matrix_algebra(2, 5))
    assert dim == 1
    assert proj.shape == (1, 4)
    # trace-like: kills e01, e10 and identifies e00 with e11
    assert rank_fp(proj) == 1
    dim, proj = commutator_quotient(upper_triangular(2, 7))
    assert dim == 2
    # commutative algebras have trivial commutator span
    dim, _ = commutator_quotient(truncated_poly(3, 4))
    assert dim == 4


def test_commutator_projection_kills_commutators():
    for name in ("m2", "upper-tri-2", "kronecker", "product-dual-upper"):
        a = build(name, 5)
        _, proj = commutator_quotient(a)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = a.random_element(rng)
            y = a.random_element(rng)
            comm = (a.multiply(x, y) - a.multiply(y, x)) % a.modulus
            image = (proj.to_dense() @ comm) % a.modulus
            assert not image.any()


def json_description(a) -> dict:
    """The JSON description that `load_algebra` reads back as a."""
    entries = [[int(i), int(j), int(k), int(a.constants[i, j, k])]
               for i, j, k in np.argwhere(a.constants != 0)]
    return {"p": a.p, "power": a.power, "dim": a.dim, "basis": list(a.basis),
            "unit": [int(v) for v in a.unit], "constants": entries}


def test_json_round_trip(tmp_path):
    a = build("product-dual-upper", 3)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(json_description(a)))
    data = json.loads(path.read_text())
    assert data["p"] == 3 and data["power"] == 1 and data["dim"] == a.dim
    b = load_algebra(str(path))
    assert b.dim == a.dim
    assert np.array_equal(b.constants, a.constants)
    assert np.array_equal(b.unit, a.unit)


def test_json_rejects_malformed():
    with pytest.raises(ConstructionError):
        from_json_dict({"p": 3, "dim": 2, "unit": [1, 0], "constants": [[0, 0, 0]]})
    with pytest.raises(ConstructionError):
        from_json_dict({"p": 3, "dim": 1, "unit": [1], "constants": [[0, 0, 5, 1]]})
    with pytest.raises(ModulusError):
        from_json_dict({"p": 3, "power": 3, "dim": 1, "unit": [1], "constants": []})


# one field of a valid description of the dual numbers, made malformed; each
# must be reported as bad input, never as a Python error or a rounded value
MALFORMED_FIELDS = {
    "constants-entry-not-int": {"constants": [[0, 0, 0, "x"]]},
    "negative-dim": {"dim": -1},
    "unit-string": {"unit": "ab"},
    "constants-not-list": {"constants": 5},
    "basis-not-list": {"basis": 7},
    "unit-nested": {"unit": [[1], 0]},
    "float-p": {"p": 3.5},
    # refused before the dim^3 constants table is allocated
    "dim-past-the-dense-table": {"dim": 100000, "unit": [1] + [0] * 99999, "basis": None},
}


def dual_numbers_description(**fields) -> dict:
    data = {"p": 3, "power": 1, "dim": 2, "basis": ["1", "x"], "unit": [1, 0],
            "constants": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1]]}
    data.update(fields)
    return data


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_json_rejects_wrong_types_and_ranges(case):
    with pytest.raises(ConstructionError):
        from_json_dict(dual_numbers_description(**MALFORMED_FIELDS[case]))


def test_literal_lift_checks_out_for_corpus():
    for name in corpus_names():
        a = build(name, 3)
        report = check_lift(literal_lift(a))
        assert report.valid, (name, report.failures)


def test_lift_reduction_mismatch_raises():
    a = dual_numbers(3)
    wrong = StructureConstantsAlgebra(
        9, a.basis, a.unit, (a.constants + 1) % 9, check=False)
    with pytest.raises(ReductionMismatchError):
        check_lift(AlgebraLift(base=a, lifted=wrong))


def test_invalid_lift_is_reported_not_raised():
    a = upper_triangular(2, 3)
    bad = a.constants.copy().astype(np.int64)
    # e11 * e12 = 4*e12 mod 9 still reduces correctly mod 3 but kills
    # associativity: (e11 e11) e12 = 4 e12 while e11 (e11 e12) = 7 e12
    i11 = list(a.basis).index("e00")
    i12 = list(a.basis).index("e01")
    bad[i11, i12, i12] = 4
    lifted = StructureConstantsAlgebra(9, a.basis, a.unit, bad, check=False)
    report = check_lift(AlgebraLift(base=a, lifted=lifted))
    assert not report.valid
    assert report.failures


@given(st.sampled_from(corpus_names()), st.sampled_from([3, 5]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_multiplication_is_associative_on_random_elements(name, p, seed):
    a = build(name, p)
    rng = np.random.default_rng(seed)
    x, y, z = (a.random_element(rng) for _ in range(3))
    lhs = a.multiply(a.multiply(x, y), z)
    rhs = a.multiply(x, a.multiply(y, z))
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(a.multiply(a.unit, x), x % p)
    assert np.array_equal(a.multiply(x, a.unit), x % p)


# ---------------- powers and exact products at every accepted modulus ----------------

def test_power_of_equals_repeated_product():
    for p in (3, 5):
        for name in corpus_names():
            a = build(name, p)
            x = a.random_element(np.random.default_rng(p))
            want = x % p
            for k in range(1, 51):
                assert np.array_equal(a.power_of(x, k), want), (name, p, k)
                want = a.multiply(want, x)


# 2**31 - 1, and the largest prime m with (m - 1)**2 < 2**63
WIDE_PRIMES = (2147483647, 3037000493)


def ref_multiply(c: list, x: list, y: list, m: int) -> list:
    d = len(x)
    return [sum(x[i] * y[j] * c[i][j][k] for i in range(d) for j in range(d)) % m
            for k in range(d)]


def rebased(a, t: int):
    """a in the basis f_0 = e_0 + t e_1, f_i = e_i otherwise, computed with
    Python ints: the constants become residues of every size."""
    d, m = a.dim, a.modulus
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    ginv = [[int(i == j) for j in range(d)] for i in range(d)]
    g[0][1], ginv[0][1] = t % m, -t % m
    c = a.constants.tolist()
    new = [[[sum(g[i][u] * g[j][v] * c[u][v][w] * ginv[w][k]
                 for u in range(d) for v in range(d) for w in range(d)) % m
             for k in range(d)] for j in range(d)] for i in range(d)]
    unit = [sum(int(a.unit[w]) * ginv[w][k] for w in range(d)) % m for k in range(d)]
    return StructureConstantsAlgebra(m, a.basis, unit, new, name=f"rebased({a.label()})")


def test_products_are_exact_at_wide_primes():
    for m in WIDE_PRIMES:
        z4 = build("group-z4", m)
        top = [m - 1] * 4
        assert z4.multiply(top, top).tolist() == [4, 4, 4, 4]
        for base in ("group-z4", "m2", "upper-tri-2"):
            # validation runs on construction and must find the rebased
            # algebra associative and unital
            a = rebased(build(base, m), m - 2)
            assert validate_algebra(a) == []
            c = a.constants.tolist()
            rng = np.random.default_rng(m % 1000)
            for _ in range(5):
                x = [int(v) for v in rng.integers(m - 1000, m, a.dim)]
                y = [int(v) for v in rng.integers(0, m, a.dim)]
                want = ref_multiply(c, x, y, m)
                assert a.multiply(x, y).tolist() == want, (m, base)
