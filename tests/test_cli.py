import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from nchodge.algebra import from_json_dict, matrix_algebra
from nchodge.cli import main
from nchodge.errors import NCHodgeError
from .test_algebra import MALFORMED_FIELDS, dual_numbers_description, json_description
from .test_normalize import random_basis_change, rebase


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, _ = run(capsys, *argv, "--format", "json", "--quiet")
    return rc, json.loads(out)


def test_corpus_lists_builtins(capsys):
    rc, payload = run_json(capsys, "corpus")
    assert rc == 0
    assert payload["schema"] == "nc-hodge/1"
    names = [row["name"] for row in payload["algebras"]]
    assert "dual-numbers" in names and "m2" in names
    assert names == sorted(names)


def test_validate_clean(capsys):
    rc, payload = run_json(capsys, "validate", "m2")
    assert rc == 0
    assert payload["valid"] is True
    assert payload["failures"] == []


def test_hh_frozen_dims(capsys):
    rc, payload = run_json(capsys, "hh", "dual-numbers", "-N", "5")
    assert rc == 0
    assert payload["dims"] == [[0, 2], [1, 1], [2, 1], [3, 1], [4, 1]]
    assert payload["window"] == [0, 4]
    assert payload["sign_convention"] == "loday-v1"


def test_hc_frozen_dims(capsys):
    rc, payload = run_json(capsys, "hc", "dual-numbers", "-N", "6")
    assert rc == 0
    assert payload["dims"] == [[0, 2], [1, 0], [2, 2], [3, 1], [4, 3]]


def test_m3_in_a_random_basis_has_the_homology_of_the_ground_field(capsys, tmp_path):
    # 475 of the 729 structure constants are nonzero, and M_3 is simple, so
    # normalization splits off no block and the differentials stay dense:
    # b_1 is 9 x 72 with 381 entries, which the column reduction ranks, and
    # b_2 is 72 x 576 with 8,805, whose fill sends it to the dense restart.
    # By Morita invariance HH and HC are those of F_3: HH is F_3 in degree
    # 0, HC in every even degree.
    a = rebase(matrix_algebra(3, 3), random_basis_change(9, 3, 0))
    assert (a.constants != 0).sum() == 475
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(json_description(a)))
    rc, payload = run_json(capsys, "hh", str(path), "-N", "2")
    assert rc == 0 and payload["dims"] == [[0, 1], [1, 0]]
    rc, payload = run_json(capsys, "hc", str(path), "-N", "3")
    assert rc == 0 and payload["dims"] == [[0, 1], [1, 0]]


def test_json_output_deterministic(capsys):
    rc1, out1, _ = run(capsys, "hc", "dual-numbers", "--format", "json",
                       "--quiet")
    rc2, out2, _ = run(capsys, "hc", "dual-numbers", "--format", "json",
                       "--quiet")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_csv_format(capsys):
    rc, out, _ = run(capsys, "hc", "dual-numbers", "--format", "csv",
                     "--quiet")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim"
    assert lines[1] == "0,2"


def test_text_format_has_table(capsys):
    rc, out, _ = run(capsys, "hh", "dual-numbers", "--quiet")
    assert rc == 0
    assert "degree" in out and "algebra: dual-numbers" in out


def test_unknown_algebra_exit_2(capsys):
    rc, _, err = run(capsys, "hh", "no-such-algebra", "--quiet")
    assert rc == 2
    assert "no-such-algebra" in err and "dual-numbers" in err


def test_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "hh", str(tmp_path / "absent.json"), "--quiet")
    assert rc == 2
    assert "absent.json" in err


def test_malformed_json_exit_2_with_position(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 3, bad')
    rc, _, err = run(capsys, "hh", str(path), "--quiet")
    assert rc == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_description_exit_2_without_traceback(capsys, tmp_path, case):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(dual_numbers_description(**MALFORMED_FIELDS[case])))
    rc, _, err = run(capsys, "validate", str(path), "--quiet")
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_unreadable_input_file_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"p": 3, "name": "\xe9"}')
    rc, _, err = run(capsys, "validate", str(path), "--quiet")
    assert rc == 2 and "UTF-8" in err
    rc, _, err = run(capsys, "validate", str(tmp_path) + "/", "--quiet")
    assert rc == 2 and err.startswith("error:")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
DELETE = object()


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["p", "power", "dim", "basis", "unit", "constants", "name"]),
       value=JSON_VALUES | st.just(DELETE))
def test_any_single_field_either_loads_or_is_bad_input(field, value):
    """A description with one field replaced by any JSON value (or removed)
    loads or raises a package error, and validate exits 0 or 2."""
    data = dual_numbers_description(name="k")
    if value is DELETE:
        del data[field]
    else:
        data[field] = value
    try:
        from_json_dict(data)
    except NCHodgeError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "alg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert main(["validate", path, "--quiet"]) in (0, 2)


def test_cap_exit_3_reports_sizes(capsys):
    # b of trunc-poly-4 writes 12, 48, 180, 648 and 2268 entries at levels
    # 1 to 5, and level n costs n + 1 gathers more: 903 through level 4,
    # 3177 through level 5
    rc, _, err = run(capsys, "hh", "trunc-poly-4", "-N", "6", "--cap", "1000", "--quiet")
    assert rc == 3
    assert err == ("error: b of the normalized mixed complex through level 6 passes the cap "
                   "at level 5 (3177 entries, cap is 1000)\n")


def test_page_tables_past_the_cap_exit_3_before_they_are_built(capsys):
    # E_0 .. E_R of dual-numbers at N = 3 hold 2 (R + 1) (R + 14) entries
    rc, _, err = run(capsys, "hodge", "dual-numbers", "-N", "3", "--pages", "--r-max", "20000",
                     "--quiet")
    assert rc == 3
    assert err == ("error: the pages E_0 .. E_20000 pass the cap "
                   "(800600028 entries, cap is 16777216)\n")
    rc, _, err = run(capsys, "hodge", "dual-numbers", "-N", "3", "--pages", "--r-max",
                     str(10 ** 12), "--quiet")
    assert rc == 3 and "(2000000000030000000000028 entries" in err
    rc, _, err = run(capsys, "hodge", "dual-numbers", "-N", "3", "--pages", "--r-max", "3",
                     "--cap", "135", "--quiet")
    assert rc == 3 and "(136 entries, cap is 135)" in err
    rc, payload = run_json(capsys, "hodge", "dual-numbers", "-N", "3", "--pages", "--r-max", "3",
                           "--cap", "136")
    assert rc == 1 and sum(len(page["entries"]) + len(page["d_ranks"])
                           for page in payload["pages"]) == 136


def test_a_window_too_small_exit_2(capsys):
    rc, _, err = run(capsys, "hc", "dual-numbers", "-N", "1", "--quiet")
    assert rc == 2 and err == "error: cyclic homology needs N >= 2\n"


@pytest.mark.parametrize("error", [
    "ConstructionError", "ModulusError", "ShapeError", "WindowError",
    "OrderError", "ParityError", "ReductionMismatchError"])
def test_every_input_error_exits_2(capsys, monkeypatch, error):
    from nchodge import errors, hochcyc

    def refuse(*args, **kwargs):
        raise getattr(errors, error)("refused here")

    monkeypatch.setattr(hochcyc, "hh_dims", refuse)
    rc, out, err = run(capsys, "hh", "dual-numbers", "--quiet")
    assert (rc, out, err) == (2, "", "error: refused here\n")


def test_modulus_past_the_int64_bound_exit_2(capsys, tmp_path):
    import tracemalloc

    # the largest prime within (m - 1)^2 < 2^63 computes what a small prime does
    rc_top, top = run_json(capsys, "hh", "dual-numbers", "-N", "5", "-p", "3037000493")
    rc_ref, ref = run_json(capsys, "hh", "dual-numbers", "-N", "5", "-p", "16777213")
    assert rc_top == rc_ref == 0
    assert top["dims"] == ref["dims"] == [[0, 2], [1, 1], [2, 1], [3, 1], [4, 1]]
    # the smallest prime past the bound, and a prime below 2^32 past it
    for p in ("3037000507", "4294967291"):
        rc, _, err = run(capsys, "hh", "dual-numbers", "-p", p, "--quiet")
        assert rc == 2
        assert "2^63" in err
    # from a file, before the 256^3 constants table that dim 256 asks for
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"p": 3037000507, "dim": 256, "unit": [1] + [0] * 255,
                                "constants": []}))
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, "hh", str(path), "--quiet")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2 and err.count("\n") == 1
    assert "2^63" in err
    assert peak < 8 * 256 ** 3 // 16  # the table takes 8 bytes an entry


def test_lift_modulus_past_the_int64_bound_exit_2(capsys):
    # p fits, but the lift works mod p**2
    rc, _, err = run(capsys, "lift-check", "m2", "-p", "3037000453", "--quiet")
    assert rc == 2
    assert "2^" in err


def test_wide_prime_pages_match_the_reference_prime(capsys):
    argv = ("hodge", "upper-tri-2", "-N", "5", "--pages")
    rc_wide, wide = run_json(capsys, *argv, "-p", "2147483647")
    rc_ref, ref = run_json(capsys, *argv, "-p", "16777213")
    assert rc_wide == rc_ref == 0
    for payload in (wide, ref):
        del payload["p"], payload["modulus"]
    assert wide == ref


def test_ledger_degenerate_exit_0(capsys):
    rc, payload = run_json(capsys, "ledger", "upper-tri-2")
    assert rc == 0
    assert payload["degenerate"] is True
    assert all(row["equal"] for row in payload["rows"])


def test_ledger_nondegenerate_exit_1(capsys):
    rc, payload = run_json(capsys, "ledger", "dual-numbers")
    assert rc == 1
    assert payload["degenerate"] is False
    assert [row["degree"] for row in payload["rows"] if not row["equal"]] == [1, 2, 3]


def test_sbi_exit_0(capsys):
    rc, payload = run_json(capsys, "sbi", "dual-numbers")
    assert rc == 0
    assert payload["exact"] is True and payload["complex_valid"] is True


@pytest.mark.parametrize("name, lowest", [("m2", 1), ("trunc-poly-3", 2)])
def test_sbi_fails_when_the_pairing_drops_a_pair(capsys, monkeypatch, name, lowest):
    # the spots compare the pairing with other eliminations, so one pair
    # lost from any d_n that has one (n >= lowest) is flagged
    from nchodge import specseq
    from nchodge.corpus import build
    from nchodge.hochcyc import sbi_check

    real = specseq._pairing
    for degree in range(lowest, 7):
        def dropped(*args):
            out = real(*args)
            assert out[degree][0].size, f"d_{degree} has no pair"
            out[degree] = tuple(a[1:] for a in out[degree])
            return out

        monkeypatch.setattr(specseq, "_pairing", dropped)
        rep = sbi_check(build(name, 3), 6)
        assert not rep.exact, degree
        rc, payload = run_json(capsys, "sbi", name, "-N", "6")
        assert (rc, payload["exact"]) == (1, False), degree


def test_hodge_pages_attached(capsys):
    rc, payload = run_json(capsys, "hodge", "ground-field", "-N", "4",
                           "--pages")
    assert rc == 0
    assert payload["degenerate"] is True
    assert payload["pages_certified"] is True
    assert [pg["r"] for pg in payload["pages"]] == [0, 1, 2, 3]
    rc, payload = run_json(capsys, "hodge", "ground-field", "-N", "4")
    assert rc == 0 and payload["pages_certified"] is False and "pages" not in payload


def test_cartier0_matrix(capsys):
    rc, payload = run_json(capsys, "cartier0", "trunc-poly-4", "--samples",
                           "100")
    assert rc == 0
    assert payload["matrix"] == [[1, 0, 0, 0], [0, 0, 0, 0],
                                 [0, 0, 0, 0], [0, 1, 0, 0]]
    assert payload["additive_ok"] is payload["representative_ok"] is True


def test_cartier0_at_a_wide_prime_finishes(capsys):
    # powering by square-and-multiply: about 2 log2(p) products, not p - 1
    rc, payload = run_json(capsys, "cartier0", "m2", "-p", "2147483647",
                           "--samples", "5")
    assert rc == 0
    assert payload["matrix"] == [[1]]
    assert payload["additive_ok"] and payload["representative_ok"]


def test_edgewise_check_exit_0(capsys):
    rc, payload = run_json(capsys, "edgewise-check", "dual-numbers", "-N", "2")
    assert rc == 0
    assert payload["equal"] is True
    assert payload["subdivided"] == payload["plain"]


def test_edgewise_check_mismatch_exit_1_before_printing(capsys, monkeypatch):
    from nchodge import cartier

    real = cartier.hh_dims
    monkeypatch.setattr(cartier, "hh_dims", lambda *a, **k: {**real(*a, **k), 0: 0})
    rc, out, err = run(capsys, "edgewise-check", "dual-numbers", "-N", "2", "--quiet")
    assert rc == 1 and out == "" and err.startswith("finding: subdivided homology")


def test_conjugate_matches_hh(capsys):
    rc, payload = run_json(capsys, "conjugate", "dual-numbers", "-N", "2")
    assert rc == 0
    assert payload["matches_hh"] is True
    assert payload["e2_positive_rows"] == [[0, 2], [1, 1]]


def test_lift_check_literal(capsys):
    rc, payload = run_json(capsys, "lift-check", "m2")
    assert rc == 0
    assert payload["valid"] is True and payload["lift_source"] == "literal"
    assert payload["modulus_lift"] == 9


def _dump_literal_lift(tmp_path):
    from nchodge.algebra import literal_lift
    from nchodge.corpus import build

    lift = literal_lift(build("dual-numbers", 3))
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(json_description(lift.lifted)))
    return path


def test_lift_check_from_file(capsys, tmp_path):
    path = _dump_literal_lift(tmp_path)
    rc, payload = run_json(capsys, "lift-check", "dual-numbers", "--lift",
                           str(path))
    assert rc == 0
    assert payload["valid"] is True


def test_lift_check_broken_unit_exit_1(capsys, tmp_path):
    path = _dump_literal_lift(tmp_path)
    data = json.loads(path.read_text())
    # reduces to zero mod 3 but breaks the unit law mod 9
    data["constants"].append([0, 1, 0, 3])
    bad = tmp_path / "bad_lift.json"
    bad.write_text(json.dumps(data))
    rc, payload = run_json(capsys, "lift-check", "dual-numbers", "--lift",
                           str(bad))
    assert rc == 1
    assert payload["valid"] is False
    assert any("unit" in f for f in payload["failures"])


def test_lift_check_nonreducing_exit_2(capsys, tmp_path):
    path = _dump_literal_lift(tmp_path)
    data = json.loads(path.read_text())
    data["constants"][0][3] = (data["constants"][0][3] + 1) % 9
    wrong = tmp_path / "wrong_lift.json"
    wrong.write_text(json.dumps(data))
    rc, _, err = run(capsys, "lift-check", "dual-numbers", "--lift",
                     str(wrong), "--quiet")
    assert rc == 2
    assert "reduce" in err or "reduction" in err


def test_progress_goes_to_stderr(capsys):
    rc, out, err = run(capsys, "hh", "ground-field")
    assert rc == 0
    assert "level" in err
    assert "level" not in out.splitlines()[0]


def test_threads_flag(capsys):
    # there is no thread budget to set: no code path uses threads or BLAS
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "hh", "ground-field", "--quiet"])
    assert exc.value.code == 2


def test_prime_flag_changes_modulus(capsys):
    rc, payload = run_json(capsys, "hh", "dual-numbers", "-p", "5")
    assert rc == 0
    assert payload["p"] == 5 and payload["modulus"] == 5


@pytest.mark.parametrize("argv, flag", [
    (("cartier0", "m2", "--seed", "-1"), "--seed"),
    (("cartier0", "dual-numbers", "--samples", "-3"), "--samples"),
    (("cartier0", "dual-numbers", "--samples", "0"), "--samples"),
    (("conjugate", "dual-numbers", "-N", "2", "-L", "-1"), "-L/--columns"),
    (("hh", "dual-numbers", "-N", "2", "--cap", "-1"), "--cap"),
    (("hodge", "dual-numbers", "-N", "3", "--pages", "--pages-budget", "-5"), "--pages-budget"),
    (("hodge", "dual-numbers", "-N", "3", "--pages", "--r-max", "-1"), "--r-max"),
])
def test_bad_numeric_argument_exit_2_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("corpus", "-p", "4"),
    ("hh", "dual-numbers", "-p", "9"),
    ("conjugate", "dual-numbers", "-p", "1"),
    ("corpus", "-p", "0"),
])
def test_non_prime_p_exit_2_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument -p/--prime:" in err and "Traceback" not in err


def test_subdivision_at_p2_names_the_flag(capsys):
    rc, _, err = run(capsys, "edgewise-check", "dual-numbers", "-p", "2", "--quiet")
    assert rc == 2
    assert "--allow-p2" in err
    rc, payload = run_json(capsys, "edgewise-check", "dual-numbers", "-p", "2",
                           "--allow-p2")
    assert rc == 0 and payload["equal"] is True


def test_no_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (("hc", "group-z4", "-N", "6"), 0),
    (("hodge", "dual-numbers"), 1),
])
def test_closed_stdout_exits_quietly_with_the_earned_code(argv, code):
    # a reader that left before the payload was written, as in `| head -c 0`
    import subprocess
    import sys
    from pathlib import Path

    import nchodge

    src = str(Path(nchodge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from nchodge.cli import main; sys.exit(main())",
             *argv, "--format", "json", "--quiet"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == code
    assert proc.stderr == b""


# exit code and sha256 of whole `--format json` payloads, keyed by command
# line: a change to any HC dimension, ledger row, page entry, differential
# rank, SBI rank or spot must be deliberate and update these. --r-max 50 runs
# pages past the span, where only unpaired vectors are left.
PINNED_PAYLOADS = {
    "conjugate dual-numbers -N 3": (0, "752e50682acd9da96f9a202f6b1ed88f04f7fdd7aaf97e26abd2e3699210b167"),
    "conjugate dual-numbers -N 3 -L 0": (0, "3bbd0aba46b920ff758f12fd38db10292901f42baba815cbf1642f15378000e4"),
    "conjugate dual-numbers -N 3 -L 1": (0, "c96fd58da3046824091aa27cd7bd4946c0f793c79b4303f19d0194f40a21ccde"),
    "conjugate dual-numbers -N 3 -L 3": (0, "0ca02d4a72a423e741c1bdd76f8084b3fae3cf8f30192bd4dede15813e157b15"),
    "conjugate upper-tri-2 -N 2": (0, "2ec7ca5af095bd97c6ad9e030d1a51517662ec46acb61175f283cd09e9313750"),
    "conjugate group-z3 -N 2": (0, "74243aa81081c9755c70f82264c949e63863b98fb5f4e187e79e0feebaac9f0d"),
    "conjugate dual-numbers -N 2 -p 5": (0, "a4e758e302332a0688ede5f3ba59fb22afa1f6ac379578f02f082ab87d5c048c"),
    "edgewise-check dual-numbers -N 4": (0, "a62da55bfd0f6eff7bf96e9c72c0cdb66524e2fb81b2e9ce7d82a103daf154d6"),
    "edgewise-check m2 -N 2": (0, "17dedbbcf596e3c62c1eb16eb61316f88c21ce6f3f76d87f7e06de4c1d20425d"),
    "hc a2-path -N 6": (0, "a521f508fad684d161ddd1a085ccfe68f8e85792fb0e474edcb5b652accc4ee0"),
    "hc dual-numbers -N 6": (0, "b4eb4bef481d7c9ec5c7c3b00cd503377c244d04fde488a4b27ff1c96d9330e1"),
    "hc ground-field -N 6": (0, "4d2fb5e917bc671af47d96b04b0bf6c49b8ba0dec49c34b1ab16b1eb0b0d96da"),
    "hc group-z2 -N 6": (0, "dfbce246525bfd38d1a77605a6277806c79780c51f1650b3f386a02693d2b7ed"),
    "hc group-z3 -N 6": (0, "27710b113c03ff160ea45855f578395b0f7ab97851725cf9b110298b68aeab89"),
    "hc group-z4 -N 6": (0, "10b71cebaefb0577d616c9c09512487f1ae6f42a7ad80f7c5c6fdc3b06ed6e44"),
    "hc kronecker -N 6": (0, "068798637ff0ab32c6c19a34ababd57070aa7db28c885aba32e5900bcb9dfb87"),
    "hc m2 -N 6": (0, "bf071c56355b4a2a44c1ed579f285df0544f4f51fcf200295b7d3b17da74a642"),
    "hc product-dual-upper -N 6": (0, "8cd0581648fcc41640af3e66107fc9ea450b1761ec44625eda68d8a35248a390"),
    "hc product-ground-m2 -N 6": (0, "39efd6e50b3b3ed7aef1743aaef6c9058655fa198da0c5741fbe577169953767"),
    "hc trunc-poly-3 -N 6": (0, "a6aecda5f9c034ad64ca5492bc3499791c964456353434f6d5ac184c93a5b711"),
    "hc trunc-poly-4 -N 6": (0, "32ae67dbea9543102b7a494eea1402a7f816da02aa709efbe94037f3eab2a974"),
    "hc upper-tri-2 -N 6": (0, "ff5db7813ec633487138be1f5987f08a1cc9616f9e21244769e2ffd70799a3f9"),
    "ledger a2-path -N 6": (0, "c94b8cb15d749c311e9922c33cebbe28634133c13bb6dfcfb5fb91f5df106963"),
    "ledger dual-numbers -N 6": (1, "690d11da1b48891426b2028dc389a62f5cf84e3b863d1721748fe1cfd3236ba2"),
    "ledger ground-field -N 6": (0, "bf4369686f9ae5ec5306f07277f556e2b7590390d9f1ecbe5ed4cbce9fd9a9c9"),
    "ledger group-z2 -N 6": (0, "f6d0caeda37d0de222bc168415ac4376e678d323195bc66e90f358ccfe76f254"),
    "ledger group-z3 -N 6": (1, "f1bc418352c40f4b745c08a4104806f115e827a1466abcf801eabb2f666fd55c"),
    "ledger group-z4 -N 6": (0, "7f2236b46597e52e8d15510bff149dcacdee4d52dfa1de9af76839e4c4f01946"),
    "ledger kronecker -N 6": (0, "cacde1b238fe641c1e6f1f4e59b8206f8c4cb3a57ef1a60f9d9c9d7b78303ad1"),
    "ledger m2 -N 6": (0, "0652dbcf7e7aa763c7cc614d6a2ba7ef7e5d05c1f36fc298c74da9d851ea0646"),
    "ledger product-dual-upper -N 6": (1, "f79c2aab82e260fb4b72d1c2ba2131ad92105edaba5699e3cafc3b071c6eb82e"),
    "ledger product-ground-m2 -N 6": (0, "796e304e928e63abbd6d5521229f3b68918a10b43d36732661afd5f61ecdd962"),
    "ledger trunc-poly-3 -N 6": (1, "d78a7fb46f0e99ef6fbd0b897c53b62314329e5161d0a13577b054176e99119e"),
    "ledger trunc-poly-4 -N 6": (1, "761c8ff1ba6ed46c22b7771b79d410a470f4e5a1b7982fc24401e567916fb014"),
    "ledger upper-tri-2 -N 6": (0, "309d20c0542e3a1e96a71e1b05bcfebf8e253c34f8cf35d038ce0c3d2ced3466"),
    "hodge dual-numbers -N 4 --pages": (1, "06a228e9b41fcb0ef14536cca946ab38e5fbb0733dfe92d452c0ca1496f5452c"),
    "hodge upper-tri-2 -N 4 --pages": (0, "b1e75f1c1e342ff9d1afb18a467f8ce34154fbb4208182546da2563473ec82cb"),
    "hodge dual-numbers -N 4 --pages --r-max 50": (1, "0d74f069c42475a8a6f643d094e8736e416ec351916fda347b05a813280c8d64"),
    "sbi a2-path -N 6": (0, "0b6a07d3a7f1735f03563ee96fad443c783b33e4bdb1da5c07406774fe302146"),
    "sbi dual-numbers -N 6": (0, "4653dfd14063998d4e71130f4faa8e04978ab2277678e3fa483664656e5faa0f"),
    "sbi ground-field -N 6": (0, "912ad3f57144a0cfc895eb086ecb67d434d5caaaef7161a226694af03715b773"),
    "sbi group-z2 -N 6": (0, "51711becdffcd5da3cc5e03be6bdb4359778b1fecc18e43e8313c15bac1b2a0f"),
    "sbi group-z3 -N 6": (0, "48eb50753a141e3e959bdb82730c99891cad74d974166061cfe3b775c0f15cac"),
    "sbi group-z4 -N 6": (0, "1c1df76a6833fc426dad58b75174c376caf1eb4dc30eda45053ee4c6135bf530"),
    "sbi kronecker -N 6": (0, "df3803d910192bd3259ca509b6c7aea15a6f4c8f4f76ef5861d511e6b37c08bb"),
    "sbi m2 -N 6": (0, "7a8a84d0f149948ee24de571b4c69243e45e991e6c40f1ebccf122173759183c"),
    "sbi product-dual-upper -N 6": (0, "aaac6d0a9582b5a9886cc0c2e9ba483451df831f9909d03d9270bc869f5eec82"),
    "sbi product-ground-m2 -N 6": (0, "cd762a741155c4b89519c58e93a68b1813878bab3f4360c874389f3e0cfb566f"),
    "sbi trunc-poly-3 -N 6": (0, "3f73408cd3cae50ad223de2fd546a5c462d35d96e22dc5e05d9603d3bad08093"),
    "sbi trunc-poly-4 -N 6": (0, "f6c41b8bba02d5b9a26b589ff6cc928f323e34f9666d728ad9e0560d5f527304"),
    "sbi upper-tri-2 -N 6": (0, "04fe30d35af28cfb81662992e2786153c4f3c07c292ded86324053036a9345e1"),
}


@pytest.mark.parametrize("command", sorted(PINNED_PAYLOADS))
def test_payload_bytes_are_pinned(capsys, command):
    import hashlib

    rc, out, _ = run(capsys, *command.split(), "--format", "json", "--quiet")
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINNED_PAYLOADS[command]


# the sha256 of every help text at COLUMNS=80, taken on Python 3.11; the
# layout of argparse moves between versions (3.13 writes "-p, --prime PRIME"
# where 3.11 writes "-p PRIME, --prime PRIME")
PINNED_HELP = {
    "--help": "01e4e25a8b7e2f7d48786b13fcda7e44a06c3b5b1d6ca272b848de05d0936a94",
    "corpus --help": "72ea15b7abdd37435376021a1ae14463d7eb5268b9916dfe1059e0e64f25aaa3",
    "validate --help": "70403cda369746006a9a5bc5b0951ece8d46a68271c5d7660354e2dd4235abdb",
    "hh --help": "fef1ead5d68afae403011ec3cac12215aea0f80642fc3ae75c312d28d8cb07ac",
    "hc --help": "dd9bd84bc28301070479d014df0c574fddd602c313d283cc5956e5d0fa29f8d8",
    "sbi --help": "1a37ac056776f558b2cea9a83f4180eaaeefcfd6e0e9f58232ab7a3d2445f987",
    "hodge --help": "7ab8b8ee93c89bd8fc8a20a84546c99971404fda7998ef768ad94e77ededb0fd",
    "cartier0 --help": "348f49994980fe2c6dc02ae6fa1663557fce45ff117f2d04cfc7a960604ea21d",
    "edgewise-check --help": "cedbaea73c19a2cae0efae9b20f041d07ab539bd76fb256e71028a55642c52fa",
    "conjugate --help": "b63fe7aea337b7424daa60fc81db9a2273a4730ad6b11eb3e6dce93cdb80e427",
    "ledger --help": "5364d80b43d5fc2984bd967b420c4e1b964cad8c91eff283087dc6bab3322007",
    "lift-check --help": "43bfa0d24fd00cbfdc2ab8ffb7295ebb4e69f0eefe88253bfccc7f43dffa9c7b",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pins are of the 3.11 layout")
@pytest.mark.parametrize("command", sorted(PINNED_HELP))
def test_help_texts_are_pinned(capsys, monkeypatch, command):
    # only the subcommand that argv names gets its arguments, so each text
    # comes from a parser that holds no other command's
    import hashlib

    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[command]


def test_hodge_certifies_that_cyclic_homology_stays_under_the_stack(capsys, monkeypatch):
    from nchodge import hochcyc

    real = hochcyc.hc_dims

    def one_too_many(*args, **kwargs):
        dims = real(*args, **kwargs)
        dims[2] += 1
        return dims

    rc, _, err = run(capsys, "hodge", "ground-field", "--quiet")
    assert rc == 0
    monkeypatch.setattr(hochcyc, "hc_dims", one_too_many)
    for command in ("hodge", "ledger"):
        rc, _, err = run(capsys, command, "ground-field", "--quiet")
        assert rc == 1
        assert "exceeds the Hodge stack in degree 2: 2 > 1" in err


@pytest.mark.parametrize("argv", [
    ("hh", "trunc-poly-4", "-N", "10000"),
    ("conjugate", "dual-numbers", "-p", "1000003", "-N", "1"),
])
def test_a_huge_estimate_exits_3_without_a_traceback(capsys, argv):
    # the estimates stop past the cap instead of building integers with
    # more digits than Python will format
    rc, _, err = run(capsys, *argv, "--quiet")
    assert rc == 3
    assert "Traceback" not in err and "cap is 16777216" in err


def test_a_window_of_empty_levels_is_refused_at_once(capsys):
    # relative to its two idempotents every level of kronecker from 1 on is
    # empty, but level n costs n + 1 gathers: the count passes 2^24 at the
    # first level m with (m + 1) (m + 2) / 2 > 2^24
    import time

    level = next(m for m in range(10_000) if (m + 1) * (m + 2) // 2 > 1 << 24)
    start = time.perf_counter()
    rc, _, err = run(capsys, "hh", "kronecker", "-N", "100000", "--quiet")
    assert rc == 3 and "Traceback" not in err
    assert f"passes the cap at level {level} (" in err and level == 5792
    assert time.perf_counter() - start < 2.0


def test_a_subdivision_at_a_wide_prime_is_refused_at_once(capsys):
    import time

    start = time.perf_counter()
    rc, _, err = run(capsys, "conjugate", "dual-numbers", "-p", "2147483647", "-N", "1", "--quiet")
    assert rc == 3 and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


def test_no_command_builds_the_cyclic_object(capsys, monkeypatch):
    from nchodge import hochcyc
    from nchodge.corpus import build

    def refuse(self, *args, **kwargs):
        raise AssertionError("the unnormalized cyclic object was built")

    monkeypatch.setattr(hochcyc.CyclicLevelMaps, "__init__", refuse)
    with pytest.raises(AssertionError):
        hochcyc.CyclicLevelMaps(build("dual-numbers", 3), 2)
    rc, payload = run_json(capsys, "hodge", "dual-numbers", "-N", "4", "--pages")
    assert rc == 1 and [pg["r"] for pg in payload["pages"]] == [0, 1, 2, 3]
    assert run_json(capsys, "ledger", "dual-numbers", "-N", "5")[0] == 1
    rc, payload = run_json(capsys, "conjugate", "dual-numbers", "-N", "2")
    assert rc == 0 and payload["matches_hh"] is True
