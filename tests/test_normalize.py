"""Basis normalization: block idempotents and a radical-adapted basis.

`algebra.normalize_basis` hands the homology commands an isomorphic copy of
an algebra whose basis exposes its blocks. Their payloads are invariants,
so a basis change must not move a byte of them; `validate`, `cartier0` and
`lift-check` keep the given constants.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge.algebra import StructureConstantsAlgebra, from_json_dict, literal_lift, normalize_basis
from nchodge.cartier import PCyclicLevels
from nchodge.cli import main
from nchodge.corpus import build, corpus_names
from nchodge.errors import ResourceError
from nchodge.hochcyc import NormalizedMixedComplex
from .test_algebra import json_description

WIDE = 2147483647


def inverse_mod(g: list[list[int]], p: int) -> list[list[int]] | None:
    """g^-1 mod p by Gauss-Jordan on Python ints, or None if g is singular."""
    d = len(g)
    rows = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(g)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col] % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], p - 2, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[col])]
    return [row[d:] for row in rows]


def rebase(a: StructureConstantsAlgebra, g: list[list[int]]) -> StructureConstantsAlgebra:
    """a in the basis f_i = sum_u g[i][u] e_u, computed with Python ints."""
    d, p = a.dim, a.modulus
    ginv = inverse_mod(g, p)
    c = a.constants.tolist()
    new = [[[sum(g[i][u] * g[j][v] * c[u][v][w] * ginv[w][k]
                 for u in range(d) for v in range(d) for w in range(d)) % p
             for k in range(d)] for j in range(d)] for i in range(d)]
    unit = [sum(int(a.unit[w]) * ginv[w][k] for w in range(d)) % p for k in range(d)]
    return StructureConstantsAlgebra(p, [f"f{i}" for i in range(d)], unit, new, name=a.name)


def random_basis_change(d: int, p: int, seed: int) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    while True:
        g = rng.integers(0, p, (d, d)).tolist()
        if inverse_mod(g, p) is not None:
            return g


def payload(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json", "--quiet"])
    return code, out.getvalue()


@functools.lru_cache(maxsize=None)
def given_basis_payload(*argv) -> tuple[int, str]:
    """The payload computed on the constants as given, normalization off."""
    with mock.patch("nchodge.algebra.normalize_basis", lambda a: a):
        return payload(*argv)


def homology_jobs(p: int, dim: int) -> list[list[str]]:
    jobs = [["hh", "-N", "4"], ["hc", "-N", "4"], ["sbi", "-N", "4"],
            ["hodge", "-N", "4", "--pages"]]
    if p == 3 or dim <= 2:
        jobs.append(["conjugate", "-N", "1"])
    return jobs


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(corpus_names()), p=st.sampled_from([3, 5, 7]),
       seed=st.integers(0, 2**32 - 1))
def test_a_basis_change_moves_no_byte_of_the_homology_payloads(name, p, seed):
    a = build(name, p)
    b = rebase(a, random_basis_change(a.dim, p, seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rebased.json"
        path.write_text(json.dumps({**json_description(b), "name": name}))
        for command, *rest in homology_jobs(p, a.dim):
            want = given_basis_payload(command, name, "-p", str(p), *rest)
            assert payload(command, str(path), *rest) == want, (command, name, p)


def test_the_homology_commands_and_only_they_normalize():
    seen = []

    def spy(a):
        seen.append(a.name)
        return normalize_basis(a)

    normalizing = ["hh", "hc", "sbi", "hodge", "ledger", "edgewise-check", "conjugate"]
    with mock.patch("nchodge.algebra.normalize_basis", spy):
        for command in normalizing + ["validate", "lift-check", "cartier0"]:
            seen.clear()
            extra = ["--samples", "5"] if command == "cartier0" else []
            code, _ = payload(command, "group-z2", *extra)
            assert code == 0, command
            assert seen == (["group-z2"] if command in normalizing else []), command


def test_group_z4_reaches_past_the_cap_of_its_group_basis():
    # in the group basis the default cap refuses N = 11; relative to its
    # three block idempotents N = 40 is small
    code, text = payload("hh", "group-z4", "-N", "40")
    assert code == 0
    assert json.loads(text)["dims"] == [[0, 4]] + [[n, 0] for n in range(1, 40)]


class Admitted(Exception):
    """Raised where a window the cap admits would start building its words."""


def largest_window(make) -> int:
    """The largest N for which make(N) passes the cap check (0 for none).
    The count passes any cap from some level on, and every window below
    that level fits."""
    with pytest.raises(ResourceError) as exc:
        make(1 << 20)
    top = exc.value.level
    if top:
        try:
            make(top)
        except ResourceError:
            return top - 1
    return top


def cap_checks(a) -> dict[str, object]:
    """make(N) per charge of the homology commands: b (hh), b and B (hc,
    sbi, hodge, ledger), the subdivided b (edgewise-check) and the conjugate
    bicomplex (conjugate); it raises ResourceError or returns."""
    def normalized(charge_B):
        def make(N):
            with mock.patch("nchodge.hochcyc._composable_words", side_effect=Admitted), \
                    contextlib.suppress(Admitted):
                NormalizedMixedComplex(a, N, charge_B=charge_B)
        return make

    return {"b": normalized(False), "bB": normalized(True),
            "subdivided": lambda N: PCyclicLevels(a, N, allow_p2=True),
            "conjugate": lambda N: PCyclicLevels(a, N, allow_p2=True, L=2 * a.p)}


def test_the_normalized_basis_refuses_no_window_the_given_one_admits():
    compared = 0
    for p in (2, 3, 5, 7, 11, 13):
        for name in corpus_names():
            a = build(name, p)
            b = normalize_basis(a)
            if b is a:
                continue
            given, normal = cap_checks(a), cap_checks(b)
            for charge, make in given.items():
                top = largest_window(make)
                if top:
                    normal[charge](top)     # raises ResourceError on a flip
            compared += 1
    assert compared >= 15


def test_conjugate_group_z3_at_5_runs_in_the_normalized_basis():
    # F_5[Z/3] = F_5 x F_25: the command runs in the basis of the two blocks
    # and must print what the group basis gives
    assert normalize_basis(build("group-z3", 5)).idempotents.r == 2
    argv = ("conjugate", "group-z3", "-p", "5", "-N", "1")
    code, text = payload(*argv)
    assert code == 0 and (code, text) == given_basis_payload(*argv)


KEPT = ["upper-tri-2", "m2", "dual-numbers", "trunc-poly-3", "trunc-poly-4", "kronecker",
        "a2-path", "product-dual-upper", "product-ground-m2", "ground-field"]


def test_algebras_with_nothing_to_gain_keep_their_basis():
    for p in (3, 5, WIDE):
        for name in KEPT:
            a = build(name, p)
            assert normalize_basis(a) is a, (name, p)


def test_group_algebras_split_into_their_blocks():
    # F_3[Z/2] = F_3 x F_3; F_5[Z/4] = F_5^4, as 4 | 5 - 1; F_3[Z/4] = F_3^2 x F_9
    for name, p, r in [("group-z2", 3, 2), ("group-z4", 5, 4), ("group-z4", 3, 3),
                       ("group-z3", 7, 3), ("group-z4", WIDE, 3)]:
        a = build(name, p)
        b = normalize_basis(a)
        assert b.idempotents.r == r, (name, p)
        assert b.name == a.name and b.dim == a.dim and b.modulus == a.modulus
    # F_3[Z/3] = F_3[x]/x^3 in the basis 1, g - 1, (g - 1)^2
    assert np.array_equal(normalize_basis(build("group-z3", 3)).constants,
                          build("trunc-poly-3", 3).constants)


def test_the_given_basis_stays_on_a_tie_and_mod_p_squared():
    a = build("group-z4", 3)
    lifted = literal_lift(a).lifted
    assert normalize_basis(lifted) is lifted
    data = {**json_description(lifted), "name": "lifted"}
    assert data["power"] == 2
    b = from_json_dict(data)
    assert normalize_basis(b) is b


def test_at_p_2_group_z4_is_trunc_poly_4():
    # F_2[Z/4] = F_2[x]/x^4 with x = g + 1
    _, z4 = payload("hh", "group-z4", "-p", "2", "-N", "7")
    _, t4 = payload("hh", "trunc-poly-4", "-p", "2", "-N", "7")
    z4, t4 = json.loads(z4), json.loads(t4)
    assert z4.pop("algebra") == "group-z4" and t4.pop("algebra") == "trunc-poly-4"
    assert z4 == t4
    assert np.array_equal(normalize_basis(build("group-z4", 2)).constants,
                          build("trunc-poly-4", 2).constants)


# sha256 of the payloads before normalization existed: these commands speak
# about the given constants
GIVEN_BASIS_DIGESTS = {
    ("lift-check", "group-z3"): "f9d485b2b17afc0e0e1b95158c7c720136161b82394bbdbabe538cf623f80b4d",
    ("lift-check", "group-z4"): "600b646c7149029b3ac5ff739f8c20479115e62c26049e800598d19e6f5daaa0",
    ("cartier0", "group-z3"): "e39b9485449d8a088e5df425bb45600900bff096a719a36f3fdaac93dc072fe9",
    ("cartier0", "group-z4"): "3de5cfaf1fae13462da7397848120edcbfcd32bbcf31dd09f156fbca9850461e",
}


def test_lift_check_and_cartier0_read_the_given_constants():
    for (command, name), want in GIVEN_BASIS_DIGESTS.items():
        extra = ["--samples", "50"] if command == "cartier0" else []
        code, text = payload(command, name, *extra)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == want, (command, name)
    # in the normalized basis the power map has other entries
    with mock.patch("nchodge.cli._load_algebra",
                    lambda args, normalize=False: normalize_basis(build(args.algebra, 3))):
        _, text = payload("cartier0", "group-z4", "--samples", "50")
    assert hashlib.sha256(text.encode()).hexdigest() != GIVEN_BASIS_DIGESTS[
        ("cartier0", "group-z4")]


def test_normalization_stays_within_its_load_budget():
    # The budget is 2 ms per load. On a shared 2-core Xeon the worst corpus
    # algebra took 0.9 ms in an idle window and up to 3 ms in slow phases
    # that last seconds (BENCH_normalize.json), so this test takes the best
    # of three rounds of 20 calls and allows 3x the budget.
    algebras = [build(name, p) for p in (3, WIDE) for name in corpus_names()]
    best = [float("inf")] * len(algebras)
    for _ in range(3):
        for k, a in enumerate(algebras):
            for _ in range(20):
                t0 = time.perf_counter()
                normalize_basis(a)
                best[k] = min(best[k], time.perf_counter() - t0)
    slow = [(a.name, a.p, round(t * 1e3, 2)) for a, t in zip(algebras, best) if t >= 6e-3]
    assert not slow, slow
