import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from nchodge.algebra import from_json_dict
from nchodge.cli import main
from nchodge.errors import NCHodgeError
from .test_algebra import MALFORMED_FIELDS, dual_numbers_description, json_description


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


def test_modulus_past_the_int64_bound_exit_2(capsys):
    rc, _, err = run(capsys, "hh", "dual-numbers", "-p", "4294967291", "--quiet")
    assert rc == 2
    assert "2^63" in err


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


# sha256 of whole `--format json` payloads with page tables: a change to any
# page entry or differential rank must be deliberate and update these
PINNED_PAGE_PAYLOADS = {
    "dual-numbers": (1, "06a228e9b41fcb0ef14536cca946ab38e5fbb0733dfe92d452c0ca1496f5452c"),
    "upper-tri-2": (0, "b1e75f1c1e342ff9d1afb18a467f8ce34154fbb4208182546da2563473ec82cb"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PAGE_PAYLOADS))
def test_hodge_page_payload_bytes_are_pinned(capsys, name):
    import hashlib

    rc, out, _ = run(capsys, "hodge", name, "-N", "4", "--pages", "--format", "json", "--quiet")
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINNED_PAGE_PAYLOADS[name]


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
