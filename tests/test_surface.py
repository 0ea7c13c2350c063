"""Every public function of the package has a caller inside the package,
and the package exports exactly what ``__init__`` imports.

A public module-level function, method or property of ``src/cantormax`` is
in use when its name is read somewhere in the package's modules (``__init__``
excepted) outside its own ``def``.  Names are matched by name, not by class:
a method counts as used when any attribute of that name is read.  Only the
names in ``ALLOWED`` may have no such caller, and each of them must have
none: a name that gained a caller leaves the list.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import cantormax
from cantormax.correlation import CorrelationReport, classify_A
from cantormax.grids import DiscretizationGrid
from cantormax.intersect import AffineTuple, count_internal

SRC = Path(cantormax.__file__).resolve().parent

ALLOWED = {
    "mk_restricted_type_ratio": "criterion 8's sampler of the linearized maximal operator's adjoint",
    "restricted_type_ratio": "the free-translation sampler that the adjoint benchmark workload runs",
    "phi_star": "the materialised free-translation sum that the adjoint benchmark workload checks",
    "one_dimensional": "the one-dimensional regime's parameter constructor; for building fixtures",
    "custom": "the custom-schedule parameter constructor; for building fixtures",
    "fixed_dimension": "the fixed-dimension parameter constructor of the library sketch and the benchmark",
}


def _public_defs():
    """(module, name) of every public module-level function and public method
    or property of a module-level class."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_"):
                    out.append((path.stem, fn))
    return out


def _reads(node) -> list[str]:
    """The names read by plain names and attributes under node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _unused():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    reads: dict[str, int] = {}
    for tree in trees:
        for name in _reads(tree):
            reads[name] = reads.get(name, 0) + 1
    defs = _public_defs()
    own: dict[str, int] = {}  # reads of a name inside a def of that name
    for _, fn in defs:
        own[fn.name] = own.get(fn.name, 0) + _reads(fn).count(fn.name)
    return sorted({f"{mod}.{fn.name}" for mod, fn in defs if reads.get(fn.name, 0) - own[fn.name] <= 0})


def test_every_public_name_has_a_caller_in_the_package():
    unused = [name for name in _unused() if name.rsplit(".", 1)[1] not in ALLOWED]
    assert unused == []


def test_allowlist_names_only_defined_functions():
    assert set(ALLOWED) <= {fn.name for _, fn in _public_defs()}


def test_allowlist_holds_only_uncalled_names():
    uncalled = {name.rsplit(".", 1)[1] for name in _unused()}
    assert sorted(set(ALLOWED) - uncalled) == []


def _private_defs():
    """(module, node, name) of every private module-level function and
    constant (a name assigned at module level), dunders excepted."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [(path.stem, node, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def test_every_private_name_has_a_reader_in_the_package():
    # matched by name, as for public names; a def's or assignment's own
    # reads of its name do not count
    reads: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        for name in _reads(ast.parse(path.read_text())):
            reads[name] = reads.get(name, 0) + 1
    unread = [
        f"{mod}.{name}" for mod, node, name in _private_defs() if reads.get(name, 0) - _reads(node).count(name) <= 0
    ]
    assert unread == []


# Names that left the package: those only the tests read, kept in
# tests/lemmas.py and tests/conftest.py, and those nothing reads.
MOVED = [
    "core.CantorSet.sigma_integral",
    "core.CantorSet.to_json",
    "core.CantorSet.weak_star_defect",
    "core._TEXT_LENGTH_EDGES",
    "core.alpha",
    "core.build_deterministic",
    "core.check_index",
    "core.interval_of",
    "core.offset_of",
    "correlation.SupLambdaResult",
    "intersect.AffineTuple.min_translation_gap",
    "intersect.DEFAULT_TUPLE_CAP",
    "intersect.IntersectionTuple",
    "intersect.ProjectionReport",
    "intersect.ProximityResult",
    "intersect.SymdiffResult",
    "intersect._classify_offsets",
    "intersect._walk",
    "intersect.classify",
    "intersect.enumerate_F",
    "intersect.projection_multiplicity",
    "intersect.proximity_check",
    "intersect.symdiff_bound_check",
    "maxops.mk_operator",
    "maxops.phi_forward",
    "maxops.phi_star_apply",
    "maxops.sigma_average",
    "randomize.BernsteinBound",
    "randomize.azuma_bound",
    "randomize.bernstein_bound",
    "stepfn.PiecewiseLinear.mass_between",
    "stepfn.StepFunction.from_cells",
    "stepfn.StepFunction.mass_between",
]


def _init_imports() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_exports_are_sorted_unique_and_imported():
    exported = cantormax.__all__
    assert exported == sorted(set(exported))
    assert set(exported) == _init_imports()
    assert [name for name in exported if not hasattr(cantormax, name)] == []


def _defined(path: str) -> bool:
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"cantormax.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr)
    return hasattr(owner, attrs[-1]) or hasattr(cantormax, attrs[-1])


def test_moved_names_left_the_package():
    assert [path for path in MOVED if _defined(path)] == []


def test_correlation_path_stores_each_fact_once():
    # a tuple is its pairs: n is their number, and the level k is an
    # argument of whatever reads the tuple at a level
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(AffineTuple) == ["pairs"]
    assert {"k", "L"}.isdisjoint(names(DiscretizationGrid))
    assert "n" not in names(CorrelationReport)
    assert list(inspect.signature(count_internal).parameters) == ["k", "A", "params"]
    assert list(inspect.signature(classify_A).parameters) == ["A", "cset", "k"]
