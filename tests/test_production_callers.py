"""Every public function, class and method of the package has a production
caller: a reference to its name somewhere in `src/nchodge/` or `demos/`
outside its own definition. Tests do not count as callers.

Module-level names count as referenced through a bare name, an import or
an attribute; method names only through an attribute (`x.name`). Every
field of a dataclass of the package is read the same way: a production
file loads an attribute of that name (`rep.name`), so a report carries no
field that only tests look at.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nchodge"

# The outside-in tracer of the benchmark (perfbench/tracer.py) patches these
# names, or calls them (the two entry counts), and fails when one is missing.
# They leave once the benchmark drops those targets (ROADMAP, item 1).
TRACER_HELD = {
    "hochcyc.estimate_entries",
    "cartier.estimate_sd_entries",
    "modring.kernel_basis_fp",
    "cartier.zp_invariants",
    "cartier.zp_coinvariants",
    "hochcyc.face_matrix",
    "hochcyc.degeneracy_matrix",
    "hochcyc.rotation_matrix",
    "hochcyc.extra_degeneracy_matrix",
    "hochcyc.CyclicLevelMaps",
    "hochcyc.CyclicLevelMaps.__init__",
    "hochcyc.CyclicLevelMaps.b",
    "hochcyc.CyclicLevelMaps.bprime",
    "hochcyc.CyclicLevelMaps.norm",
    "hochcyc.CyclicLevelMaps.B",
    "cartier.PCyclicLevels.__init__",
    "cartier.PCyclicLevels.face",
    "cartier.PCyclicLevels.degeneracy",
    "cartier.PCyclicLevels.b",
    "cartier.PCyclicLevels.bprime",
    "cartier.PCyclicLevels.norm",
    "cartier.PCyclicLevels.action",
    "cartier.PCyclicLevels.t",
    "cartier.PCyclicLevels.rho",
    "cartier.ZpModuleAction.__init__",
    "cartier.ZpModuleAction.orbit_data",
    "cartier.ZpModuleAction.one_minus",
    "cartier.ZpModuleAction.norm",
    "complexes.ChainComplexWindow.check_differentials",
    "complexes.BicomplexWindow.check_squares",
    "complexes.IncreasingFiltration.check",
    # not patched: perfbench/test_bench.py reads it, to show that the matrix
    # it restarts densely is sparse
    "modring.ModMatrix.density",
}


def _definitions(package: Path):
    """(qualified name, bare name, is_method, path, first line, last line) for
    every module-level function and class of the package and their methods."""
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield (f"{module}.{node.name}", node.name, False, path,
                       node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield (f"{module}.{node.name}.{sub.name}", sub.name, True, path,
                               sub.lineno, sub.end_lineno)


def _references(paths):
    """(name, is_attribute, path, line) for every name read in the files."""
    out = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                out.append((node.id, False, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, True, path, node.lineno))
            elif isinstance(node, ast.alias):
                out.append((node.name.rsplit(".", 1)[-1], False, path, node.lineno))
    return out


def unreferenced(package: Path, callers) -> list[str]:
    """Public definitions of the package whose name the caller files never
    read outside the definition itself."""
    refs = _references(callers)
    out = []
    for qual, name, is_method, path, lo, hi in _definitions(package):
        if name.startswith("_"):
            continue
        if not any(ref == name and (attr or not is_method)
                   and not (where == path and lo <= line <= hi)
                   for ref, attr, where, line in refs):
            out.append(qual)
    return out


def _dataclass_fields(package: Path):
    """(qualified name, field name) for every annotated field of every
    class decorated with `dataclass` (bare or called) in the package."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or "dataclass" not in {
                    ast.unparse(dec.func if isinstance(dec, ast.Call) else dec).rsplit(".", 1)[-1]
                    for dec in node.decorator_list}:
                continue
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{path.stem}.{node.name}.{sub.target.id}", sub.target.id


def unread_fields(package: Path, callers) -> list[str]:
    """Dataclass fields of the package that no caller file loads as an
    attribute; a keyword argument or an assignment is no read."""
    loaded = {node.attr for path in callers
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [qual for qual, name in _dataclass_fields(package) if name not in loaded]


def test_every_public_name_has_a_production_caller():
    callers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    missing = sorted(set(unreferenced(PACKAGE, callers)) - TRACER_HELD)
    assert missing == [], f"public names without a production caller: {missing}"


def test_the_allow_list_names_existing_definitions():
    defined = {qual for qual, *_ in _definitions(PACKAGE)}
    assert sorted(TRACER_HELD - defined) == []


def test_the_scan_reports_an_uncalled_definition(tmp_path):
    # control: a recursive call is no caller; a method called from another
    # method or through an instance is
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def used():\n    return 1\n\n\n"
        "def unused(n):\n    return unused(n - 1) if n else used()\n\n\n"
        "class Box:\n    def get(self):\n        return self.put()\n\n"
        "    def put(self):\n        return 0\n\n\n"
        "def caller(box):\n    return box.get()\n")
    assert unreferenced(tmp_path, [mod]) == ["mod.unused", "mod.Box", "mod.caller"]


def test_every_dataclass_field_has_a_production_reader():
    callers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert unread_fields(PACKAGE, callers) == []


def test_the_scan_reports_an_unread_field(tmp_path):
    # control: a field only built or assigned is unread; one loaded anywhere,
    # even in another file, is read; a plain class's annotations are no fields
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Report:\n    shown: int\n    built: int\n    stored: int\n\n\n"
        "@dataclass(frozen=True)\nclass Page:\n    r: int\n\n\n"
        "class Plain:\n    hidden: int\n\n\n"
        "def make():\n    rep = Report(shown=1, built=2, stored=3)\n"
        "    rep.stored = 4\n    return rep\n")
    reader = tmp_path / "reader.py"
    reader.write_text("def show(rep):\n    return rep.shown\n")
    assert unread_fields(tmp_path, [mod, reader]) == [
        "mod.Report.built", "mod.Report.stored", "mod.Page.r"]
