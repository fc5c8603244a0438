"""Outside-in tracer for the nchodge layers.

The tracer wraps public functions and methods of each module from outside
the package, so `src/` carries no tracing code. A function imported by name
into other modules is patched at every binding site (for example `rank_fp`
in `modring`, `cartier` and `specseq`, and `homology_dim` as `_hdim` in
`complexes`). Leaving the `Tracer` context undoes every patch.

A span has a name, a start, an end and a parent: the span that was open
when it started. Only aggregates are kept. The self time of a span is its
duration minus the time its child spans cover, summed per span name, so the
self times of one pass add up to the time spent inside traced jobs.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

# span names; each is reported as "<name>_s", its summed self time
SPANS = (
    "cli.job",
    "algebra.build", "algebra.validate",
    "hochcyc.levels", "hochcyc.diff", "hochcyc.norm_B",
    "cartier.sd_ops", "cartier.sd_norm", "cartier.zp", "cartier.coinv",
    "complexes.total", "complexes.filtration",
    "modring.rank", "modring.kernel", "modring.solve", "modring.matmul",
    "modring.modulus",
    "specseq.pages",
    "check.d2", "check.squares", "check.fixed",
    "trace.digest",
)

# counters reported as they are; ratios and trace totals are derived below
COUNTERS = (
    "modring.rank_calls", "modring.rank_nnz", "modring.rank_dense_calls",
    "modring.rank_sparse_calls", "modring.rank_restarts", "modring.restart_waste_s",
    "modring.kernel_calls", "modring.matmul_calls", "modring.matmul_nnz",
    "modring.construct_calls", "hochcyc.built_nnz", "cartier.built_nnz",
    "complexes.total_nnz", "specseq.entries",
)


class Recorder:
    """Span self times and counters of the traced work."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # open spans as [name, child seconds]
        self.rank_path: dict[str, bool] | None = None
        self._ranked: set[bytes] = set()

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            stack.pop()
            self.self_s[name] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def innermost(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def note_ranked(self, digest: bytes) -> None:
        if digest in self._ranked:
            self.counts["modring.rank_repeats"] += 1
        else:
            self._ranked.add(digest)


def layer_metrics(self_s: dict[str, float], counts: dict[str, float],
                  wall_s: float) -> dict[str, float]:
    """Every per-layer metric but trace.overhead_frac, from the summed self
    times and counters of traced jobs that took wall_s in all."""
    out = {f"{name}_s": self_s.get(name, 0.0) for name in SPANS}
    out.update({name: counts.get(name, 0.0) for name in COUNTERS})
    out["modring.rank_repeat_frac"] = _ratio(counts.get("modring.rank_repeats", 0),
                                             counts.get("modring.rank_calls", 0))
    out["hochcyc.cap_ratio"] = _ratio(counts.get("hochcyc.estimate", 0),
                                      counts.get("hochcyc.built_nnz", 0))
    out["cartier.cap_ratio"] = _ratio(counts.get("cartier.estimate", 0),
                                      counts.get("cartier.built_nnz", 0))
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(self_s.values())
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _content_digest(mat) -> bytes:
    csc = mat.csc()
    h = hashlib.blake2b(repr((mat.shape, mat.modulus)).encode(), digest_size=16)
    for arr in (csc.indptr, csc.indices, csc.data):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.digest()


class Tracer:
    """Context manager that installs the wrappers and yields the Recorder.

    A target that no longer exists in the package raises LookupError, so a
    renamed function fails the traced run instead of reading as zero.
    """

    def __init__(self):
        self.rec = Recorder()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self.rec

    def __exit__(self, *exc) -> None:
        self._uninstall()

    # ---------------- patching ----------------

    def _patch_function(self, module: str, name: str, make, sites=None) -> None:
        """Replace a module-level function at every binding site in the
        package, or only in the modules named by sites."""
        original = getattr(sys.modules.get(f"nchodge.{module}"), name, None)
        if original is None:
            raise LookupError(f"tracer target nchodge.{module}.{name} is missing")
        wrapper = functools.wraps(original)(make(original))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "nchodge" or modname.startswith("nchodge.")):
                continue
            if sites is not None and modname not in {f"nchodge.{s}" for s in sites}:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, module: str, cls_name: str, name: str, make) -> None:
        cls = getattr(sys.modules.get(f"nchodge.{module}"), cls_name, None)
        original = vars(cls).get(name) if cls is not None else None
        if original is None:
            raise LookupError(f"tracer target nchodge.{module}.{cls_name}.{name} is missing")
        self._undo.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(make(original)))

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---------------- wrappers ----------------

    def _span(self, name: str):
        rec = self.rec

        def make(fn):
            def wrapper(*args, **kwargs):
                return rec.run(name, fn, *args, **kwargs)
            return wrapper
        return make

    def _install(self) -> None:
        import nchodge.cartier  # noqa: F401  (loads every traced module)
        import nchodge.cli  # noqa: F401
        import nchodge.corpus  # noqa: F401
        import nchodge.specseq  # noqa: F401

        rec = self.rec
        span = self._span
        fn, meth = self._patch_function, self._patch_method

        # modring: elimination, sparse arithmetic, modulus handling
        def rank(orig):
            def wrapper(mat, *args, **kwargs):
                rec.counts["modring.rank_calls"] += 1
                rec.counts["modring.rank_nnz"] += mat.nnz
                rec.note_ranked(rec.run("trace.digest", _content_digest, mat))
                outer, path = rec.rank_path, {}
                rec.rank_path = path
                try:
                    return rec.run("modring.rank", orig, mat, *args, **kwargs)
                finally:
                    rec.rank_path = outer
                    if path.get("restart"):
                        rec.counts["modring.rank_restarts"] += 1
                    elif path.get("sparse"):
                        rec.counts["modring.rank_sparse_calls"] += 1
                    elif path.get("dense"):
                        rec.counts["modring.rank_dense_calls"] += 1
            return wrapper

        restart = getattr(sys.modules["nchodge.modring"], "_DenseRestart", None)
        if restart is None:
            raise LookupError("tracer target nchodge.modring._DenseRestart is missing")

        def column_reduce(orig):
            def wrapper(*args, **kwargs):
                path = rec.rank_path
                t0 = _clock()
                try:
                    out = orig(*args, **kwargs)
                except BaseException as exc:
                    if path is not None and isinstance(exc, restart):
                        path["restart"] = True
                        rec.counts["modring.restart_waste_s"] += _clock() - t0
                    raise
                if path is not None:
                    path["sparse"] = True
                return out
            return wrapper

        def dense_rref(orig):
            def wrapper(*args, **kwargs):
                if rec.rank_path is not None:
                    rec.rank_path["dense"] = True
                return orig(*args, **kwargs)
            return wrapper

        def counted(span_name, counter):
            def make(orig):
                def wrapper(*args, **kwargs):
                    rec.counts[counter] += 1
                    return rec.run(span_name, orig, *args, **kwargs)
                return wrapper
            return make

        def matmul(orig):
            def wrapper(self, other):
                top = rec.innermost()
                if top is not None and top.startswith("check."):
                    return orig(self, other)  # a certificate's product is its own time
                rec.counts["modring.matmul_calls"] += 1
                out = rec.run("modring.matmul", orig, self, other)
                rec.counts["modring.matmul_nnz"] += out.nnz
                return out
            return wrapper

        def construct(orig):
            def wrapper(*args, **kwargs):
                rec.counts["modring.construct_calls"] += 1
                return orig(*args, **kwargs)
            return wrapper

        fn("modring", "rank_fp", rank)
        fn("modring", "_column_reduce", column_reduce)
        fn("modring", "_dense_rref", dense_rref, sites=("modring",))
        fn("modring", "kernel_basis_fp", counted("modring.kernel", "modring.kernel_calls"))
        fn("modring", "solve_fp", span("modring.solve"))
        fn("modring", "split_modulus", span("modring.modulus"))
        fn("modring", "homology_dim", span("check.d2"))
        meth("modring", "ModMatrix", "__matmul__", matmul)
        meth("modring", "ModMatrix", "__init__", construct)

        # algebra: building and validating the structure constants
        fn("corpus", "build", span("algebra.build"))
        fn("algebra", "validate_algebra", span("algebra.validate"))

        # hochcyc: operators of the plain cyclic object
        hochcyc = sys.modules["nchodge.hochcyc"]

        def levels(orig):
            def wrapper(self, a, N, *args, **kwargs):
                out = rec.run("hochcyc.levels", orig, self, a, N, *args, **kwargs)
                rec.counts["hochcyc.estimate"] += hochcyc.estimate_entries(a, N)
                return out
            return wrapper

        def built(counter):
            def make(orig):
                def wrapper(*args, **kwargs):
                    out = orig(*args, **kwargs)
                    rec.counts[counter] += out.nnz
                    return out
                return wrapper
            return make

        meth("hochcyc", "CyclicLevelMaps", "__init__", levels)
        for op in ("face_matrix", "degeneracy_matrix", "rotation_matrix",
                   "extra_degeneracy_matrix"):
            fn("hochcyc", op, built("hochcyc.built_nnz"), sites=("hochcyc",))
        for name in ("b", "bprime"):
            meth("hochcyc", "CyclicLevelMaps", name, span("hochcyc.diff"))
        for name in ("norm", "B"):
            meth("hochcyc", "CyclicLevelMaps", name, span("hochcyc.norm_B"))

        # cartier: subdivision, Z/p actions, conjugate route
        cartier = sys.modules["nchodge.cartier"]

        def sd_init(orig):
            def wrapper(self, a, N, *args, **kwargs):
                out = orig(self, a, N, *args, **kwargs)
                rec.counts["cartier.estimate"] += cartier.estimate_sd_entries(a, N)
                return out
            return wrapper

        def sd_built(orig):
            seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

            def wrapper(self, *args):
                out = rec.run("cartier.sd_ops", orig, self, *args)
                keys = seen.setdefault(self, set())
                if args not in keys:
                    keys.add(args)
                    rec.counts["cartier.built_nnz"] += out.nnz
                return out
            return wrapper

        meth("cartier", "PCyclicLevels", "__init__", sd_init)
        meth("cartier", "PCyclicLevels", "face", sd_built)
        meth("cartier", "PCyclicLevels", "degeneracy", sd_built)
        for name in ("b", "bprime"):
            meth("cartier", "PCyclicLevels", name, span("cartier.sd_ops"))
        meth("cartier", "PCyclicLevels", "norm", span("cartier.sd_norm"))
        meth("cartier", "PCyclicLevels", "action", span("cartier.zp"))
        for name in ("__init__", "orbit_data", "one_minus", "norm"):
            meth("cartier", "ZpModuleAction", name, span("cartier.zp"))
        fn("cartier", "zp_coinvariants", span("cartier.zp"))
        fn("cartier", "zp_invariants", span("cartier.zp"))
        fn("cartier", "_coinvariant_complex", span("cartier.coinv"))
        fn("cartier", "_fixed_reduced_complex", span("check.fixed"))

        # complexes: totalization, filtrations, square checks
        def total(orig):
            def wrapper(*args, **kwargs):
                out = rec.run("complexes.total", orig, *args, **kwargs)
                rec.counts["complexes.total_nnz"] += sum(m.nnz for m in out[0].diffs.values())
                return out
            return wrapper

        meth("complexes", "BicomplexWindow", "total_complex", total)
        fn("complexes", "filtration_by_columns", span("complexes.filtration"))
        meth("complexes", "BicomplexWindow", "check_squares", span("check.squares"))
        meth("complexes", "ChainComplexWindow", "check_differentials", span("check.squares"))
        meth("complexes", "IncreasingFiltration", "check", span("check.squares"))

        # specseq: certified pages
        def pages(orig):
            def wrapper(*args, **kwargs):
                out = rec.run("specseq.pages", orig, *args, **kwargs)
                rec.counts["specseq.entries"] += sum(len(page.table) for page in out)
                return out
            return wrapper

        fn("specseq", "pages", pages)
