"""Command line front end.

Exit codes: 0 clean, 1 the run completed but flagged findings (failed
verdicts, mismatched pipelines, broken invariants), 2 malformed input or
an impossible window, 3 a resource cap refused the computation.

Output is deterministic for a fixed command line: no timestamps, fixed
key order, seeded sampling. JSON payloads carry "schema": "nc-hodge/1".
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from .errors import (
    CartierError,
    ConstructionError,
    InternalCheckError,
    NCHodgeError,
    NotAComplexError,
    ResourceError,
    SubdivisionMismatchError,
)

SCHEMA = "nc-hodge/1"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_FINDING_ERRORS = (InternalCheckError, SubdivisionMismatchError, CartierError,
                   NotAComplexError)


def _progress(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _load_algebra(args, normalize: bool = False):
    """The algebra named on the command line. The homology commands pass
    normalize=True: their answers are invariants of the algebra, and their
    cost falls when the basis exposes its blocks (`normalize_basis`).
    `validate`, `cartier0` and `lift-check` speak about the given constants."""
    from .algebra import load_algebra, normalize_basis
    from .corpus import build, corpus_names

    spec = args.algebra
    if spec in corpus_names():
        a = build(spec, args.prime)
    elif spec.endswith(".json") or os.path.sep in spec:
        a = load_algebra(spec)
    else:
        raise ConstructionError(
            f"unknown algebra '{spec}'; builtins are: {', '.join(corpus_names())}; "
            "anything else must be a path to a JSON file")
    return normalize_basis(a) if normalize else a


def _dims_list(dims: dict[int, int]) -> list[list[int]]:
    return [[int(n), int(dims[n])] for n in sorted(dims)]


def _triples(table: dict[tuple[int, int], int]) -> list[list[int]]:
    return [[int(x), int(y), int(v)] for (x, y), v in sorted(table.items())]


def _base_payload(command: str, a=None) -> dict:
    from .conventions import SIGN_CONVENTION

    payload = {"schema": SCHEMA, "command": command,
               "sign_convention": SIGN_CONVENTION}
    if a is not None:
        payload["algebra"] = a.label()
        payload["p"] = a.p
        payload["modulus"] = a.modulus
        payload["dim"] = a.dim
    return payload


# ---------------- commands ----------------

def cmd_corpus(args):
    from .corpus import DESCRIPTIONS, build, corpus_names

    rows = []
    for name in corpus_names():
        a = build(name, args.prime)
        rows.append({"name": name, "dim": a.dim,
                     "description": DESCRIPTIONS[name]})
    payload = _base_payload("corpus")
    payload["p"] = args.prime
    payload["algebras"] = rows
    table = (["name", "dim", "description"],
             [[r["name"], r["dim"], r["description"]] for r in rows])
    return payload, table, False


def cmd_validate(args):
    from .algebra import validate_algebra

    a = _load_algebra(args)
    _progress(args, f"checking associativity and unit laws for {a.label()}")
    failures = validate_algebra(a)
    payload = _base_payload("validate", a)
    payload["failures"] = failures
    payload["valid"] = not failures
    table = (["index", "failure"], [[i, f] for i, f in enumerate(failures)])
    return payload, table, bool(failures)


def cmd_hh(args):
    from .hochcyc import hh_dims

    a = _load_algebra(args, normalize=True)
    _progress(args, f"chain groups through level {args.levels}")
    dims = hh_dims(a, args.levels, cap=args.cap)
    payload = _base_payload("hh", a)
    payload["N"] = args.levels
    payload["window"] = [0, args.levels - 1]
    payload["dims"] = _dims_list(dims)
    return payload, (["degree", "dim"], payload["dims"]), False


def cmd_hc(args):
    from .hochcyc import hc_dims

    a = _load_algebra(args, normalize=True)
    _progress(args, f"mixed bicomplex through level {args.levels}")
    dims = hc_dims(a, args.levels, cap=args.cap)
    payload = _base_payload("hc", a)
    payload["N"] = args.levels
    payload["window"] = [0, args.levels - 2]
    payload["dims"] = _dims_list(dims)
    return payload, (["degree", "dim"], payload["dims"]), False


def cmd_sbi(args):
    from .hochcyc import sbi_check

    a = _load_algebra(args, normalize=True)
    _progress(args, "rank bookkeeping for the inclusion/shift/connecting triangle")
    rep = sbi_check(a, args.levels, cap=args.cap)
    payload = _base_payload("sbi", a)
    payload["N"] = rep.N
    payload["degrees"] = rep.degrees
    payload["hh"] = _dims_list(rep.hh)
    payload["hc"] = _dims_list(rep.hc)
    payload["ranks"] = {str(n): rep.ranks[n] for n in sorted(rep.ranks)}
    payload["spots"] = {str(n): rep.spots[n] for n in sorted(rep.spots)}
    payload["complex_valid"] = True  # a mismatch exits 1 before anything is printed
    payload["exact"] = rep.exact
    rows = [[n, rep.spots[n]["at_hc"], rep.spots[n]["at_hc_shift"],
             rep.spots[n]["at_hh"]] for n in rep.degrees]
    table = (["degree", "at_hc", "at_hc_shift", "at_hh"], rows)
    return payload, table, not rep.exact


def cmd_hodge(args):
    from .hochcyc import hodge_ss

    a = _load_algebra(args, normalize=True)
    _progress(args, "column filtration of the mixed bicomplex")
    rep = hodge_ss(a, args.levels, cap=args.cap,
                   pages_budget=args.pages_budget if args.pages else 0,
                   r_max=args.r_max)
    payload = _base_payload("hodge", a)
    payload["N"] = rep.N
    payload["window"] = list(rep.window)
    payload["e1"] = _triples(rep.e1)
    payload["hodge_sums"] = _dims_list(rep.hodge_sums)
    payload["abutment"] = _dims_list(rep.abutment)
    payload["degenerate"] = rep.degenerate
    payload["pages_certified"] = rep.page_tables is not None
    if rep.page_tables is not None:
        payload["pages"] = [
            {"r": page.r, "entries": _triples(page.table),
             "d_ranks": _triples(page.d_ranks)}
            for page in rep.page_tables
        ]
    rows = [[n, rep.abutment[n], rep.hodge_sums[n],
             rep.abutment[n] == rep.hodge_sums[n]]
            for n in sorted(rep.hodge_sums)]
    table = (["degree", "abutment", "hodge_sum", "equal"], rows)
    return payload, table, not rep.degenerate


def cmd_cartier0(args):
    from .cartier import cartier0

    a = _load_algebra(args)
    _progress(args, f"power map on the commutator quotient, {args.samples} samples")
    rep = cartier0(a, samples=args.samples, seed=args.seed)
    payload = _base_payload("cartier0", a)
    payload["dim_quotient"] = rep.dim_quotient
    payload["matrix"] = rep.matrix.to_dense().tolist()
    # always true: a failed certificate exits 1 before anything is printed
    payload["additive_ok"] = payload["representative_ok"] = True
    payload["samples"] = rep.samples
    payload["seed"] = rep.seed
    rows = [[i, j, v] for i, row in enumerate(payload["matrix"])
            for j, v in enumerate(row) if v]
    table = (["row", "col", "value"], rows)
    return payload, table, False


def cmd_edgewise_check(args):
    from .cartier import edgewise_hh_check

    a = _load_algebra(args, normalize=True)
    _progress(args, f"subdividing through level {args.levels}")
    rep = edgewise_hh_check(a, args.levels, cap=args.cap, allow_p2=args.allow_p2)
    payload = _base_payload("edgewise-check", a)
    payload["N"] = rep.N
    payload["window"] = [0, rep.N - 1]
    payload["subdivided"] = _dims_list(rep.sd_dims)
    payload["plain"] = _dims_list(rep.hh)
    payload["equal"] = True  # a mismatch exits 1 before anything is printed
    rows = [[n, rep.sd_dims[n], rep.hh[n]] for n in sorted(rep.sd_dims)]
    table = (["degree", "subdivided", "plain"], rows)
    return payload, table, False


def cmd_conjugate(args):
    from .cartier import conjugate_ss

    a = _load_algebra(args, normalize=True)
    _progress(args, f"fiberwise bicomplex through level {args.levels}")
    rep = conjugate_ss(a, args.levels, L=args.columns, cap=args.cap,
                       allow_p2=args.allow_p2)
    payload = _base_payload("conjugate", a)
    payload["N"] = rep.N
    payload["L"] = rep.L
    payload["window"] = list(rep.window)
    payload["e1"] = _triples(rep.e1)
    payload["e2_positive_rows"] = _dims_list(rep.e2_positive)
    payload["e2_zero_row"] = _dims_list(rep.e2_zero)
    payload["hh"] = _dims_list(rep.hh)
    payload["matches_hh"] = rep.matches_hh
    payload["abutment"] = _dims_list(rep.abutment)
    rows = [[n, rep.e2_positive[n], rep.hh[n]] for n in sorted(rep.e2_positive)]
    table = (["degree", "e2_positive", "hh"], rows)
    return payload, table, not rep.matches_hh


def cmd_ledger(args):
    from .hochcyc import hodge_ss

    a = _load_algebra(args, normalize=True)
    _progress(args, "stacking Hochschild dimensions against cyclic homology")
    rep = hodge_ss(a, args.levels, cap=args.cap, pages_budget=0)
    rows = [[n, rep.abutment[n], total, rep.abutment[n] == total]
            for n, total in sorted(rep.hodge_sums.items())]
    payload = _base_payload("ledger", a)
    payload["N"] = rep.N
    payload["window"] = list(rep.window)
    payload["rows"] = [{"degree": n, "hc": hc, "hodge_sum": total, "equal": equal}
                       for n, hc, total, equal in rows]
    payload["degenerate"] = rep.degenerate
    table = (["degree", "hc", "hodge_sum", "equal"], rows)
    return payload, table, not rep.degenerate


def cmd_lift_check(args):
    from .algebra import AlgebraLift, check_lift, literal_lift, load_algebra

    a = _load_algebra(args)
    if args.lift:
        _progress(args, f"checking the lift in {args.lift}")
        lifted = load_algebra(args.lift, check=False)
        lift = AlgebraLift(base=a, lifted=lifted)
    else:
        _progress(args, "checking the literal lift of the structure constants")
        lift = literal_lift(a)
    rep = check_lift(lift)
    payload = _base_payload("lift-check", a)
    payload["lift_source"] = args.lift or "literal"
    payload["modulus_lift"] = lift.lifted.modulus
    payload["valid"] = rep.valid
    payload["failures"] = rep.failures
    table = (["index", "failure"], [[i, f] for i, f in enumerate(rep.failures)])
    return payload, table, not rep.valid


# ---------------- rendering ----------------

def _render_text(payload: dict, table) -> str:
    lines = []
    skip = {"schema", "command"}
    for key, value in payload.items():
        if key in skip:
            continue
        if isinstance(value, (str, int, float, bool)) or value is None:
            lines.append(f"{key}: {value}")
    header, rows = table
    if rows:
        widths = [max(len(str(h)), max(len(str(r[i])) for r in rows))
                  for i, h in enumerate(header)]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _render(payload: dict, table, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        header, rows = table
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    return _render_text(payload, table)


# ---------------- parser ----------------

def _int_at_least(least: int):
    """An argparse type: an integer >= least. Anything else exits 2 with a
    message naming the flag, before any work starts."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


def _prime(text: str) -> int:
    """An argparse type for -p/--prime: a prime, checked before any work starts."""
    from .modring import is_prime

    value = _int_at_least(2)(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _add_common(sub, levels_default=None, levels_help="chain levels to build"):
    sub.add_argument("algebra", help="builtin corpus name or path to a JSON file")
    sub.add_argument("-p", "--prime", type=_prime, default=3,
                     help="prime for builtin algebras (default 3)")
    if levels_default is not None:
        sub.add_argument("-N", "--levels", type=int, default=levels_default,
                         help=f"{levels_help} (default {levels_default})")
    sub.add_argument("--cap", type=_int_at_least(0), default=None,
                     help="entry budget; refuse with exit 3 beyond it")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--quiet", action="store_true", help="no progress on stderr")


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv. Every subcommand is added with its help line,
    which is all the top-level help and errors print, but only the one
    that argv names gets its arguments: the top level takes no option with
    a value, so the first word of argv that is not an option is the
    subcommand argparse runs."""
    parser = argparse.ArgumentParser(
        prog="nchodge",
        description="Hochschild and cyclic homology of finite F_p algebras, "
                    "with the Hodge and conjugate filtration toolkit.",
        epilog="exit codes: 0 clean, 1 flagged findings, 2 bad input, "
               "3 resource cap")
    subs = parser.add_subparsers(dest="command", required=True)
    named = next((word for word in argv if not word.startswith("-")), None)

    def command(name: str, text: str, func):
        """The subparser of name, to fill in when argv names it; else None."""
        sub = subs.add_parser(name, help=text)
        if name != named:
            return None
        sub.set_defaults(func=func)
        return sub

    if sub := command("corpus", "list the builtin algebras", cmd_corpus):
        sub.add_argument("-p", "--prime", type=_prime, default=3)
        sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sub.add_argument("--quiet", action="store_true")
    if sub := command("validate", "associativity and unit laws", cmd_validate):
        _add_common(sub)
    if sub := command("hh", "Hochschild homology dimensions", cmd_hh):
        _add_common(sub, levels_default=5)
    if sub := command("hc", "cyclic homology dimensions", cmd_hc):
        _add_common(sub, levels_default=5)
    if sub := command("sbi", "inclusion/shift/connecting rank checks", cmd_sbi):
        _add_common(sub, levels_default=6)
    if sub := command("hodge", "column filtration verdict", cmd_hodge):
        _add_common(sub, levels_default=5)
        sub.add_argument("--pages", action="store_true",
                         help="attach certified page tables when affordable")
        sub.add_argument("--pages-budget", type=_int_at_least(0), default=3000)
        sub.add_argument("--r-max", type=_int_at_least(0), default=3)
    if sub := command("cartier0", "power map on the commutator quotient", cmd_cartier0):
        _add_common(sub)
        sub.add_argument("--samples", type=_int_at_least(1), default=1000)
        sub.add_argument("--seed", type=_int_at_least(0), default=0)
    if sub := command("edgewise-check", "subdivided homology against the plain route",
                      cmd_edgewise_check):
        _add_common(sub, levels_default=2)
        sub.add_argument("--allow-p2", action="store_true")
    if sub := command("conjugate", "fiberwise filtration second page", cmd_conjugate):
        _add_common(sub, levels_default=2)
        sub.add_argument("-L", "--columns", type=_int_at_least(0), default=None,
                         help="horizontal extent (default 2p)")
        sub.add_argument("--allow-p2", action="store_true")
    if sub := command("ledger", "degeneration ledger per degree", cmd_ledger):
        _add_common(sub, levels_default=5)
    if sub := command("lift-check", "verify a mod p**2 lift", cmd_lift_check):
        _add_common(sub)
        sub.add_argument("--lift", default=None,
                         help="JSON file with the lifted constants (default: literal)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        payload, table, findings = args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"error: {exc} ({exc.count} entries, cap is {exc.cap})", file=sys.stderr)
        return EXIT_RESOURCE
    except _FINDING_ERRORS as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return EXIT_FINDINGS
    except NCHodgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        sys.stdout.write(_render(payload, table, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the interpreter's
        # final flush stays quiet, and still report what the run found
        with contextlib.suppress(AttributeError, io.UnsupportedOperation):
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
    return EXIT_FINDINGS if findings else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
