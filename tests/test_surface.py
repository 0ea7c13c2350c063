"""Every public function of the package has a caller inside the package.

A public module-level function, method or property of ``src/cantormax`` is
in use when its name is read somewhere in the package's modules (``__init__``
excepted) outside its own ``def``.  Names are matched by name, not by class:
a method counts as used when any attribute of that name is read.  Only the
names in ``ALLOWED`` may have no such caller.
"""

import ast
from pathlib import Path

import cantormax

SRC = Path(cantormax.__file__).resolve().parent

LEMMA_API = "library API that the acceptance criteria use to check one of the paper's lemmas"

ALLOWED = {
    "projection_multiplicity": LEMMA_API,
    "proximity_check": LEMMA_API,
    "symdiff_bound_check": LEMMA_API,
    "bernstein_bound": LEMMA_API,
    "azuma_bound": LEMMA_API,
    "weak_star_defect": LEMMA_API,
    "phi_forward": LEMMA_API,
    "phi_star_apply": LEMMA_API,
    "classify": LEMMA_API,
    "enumerate_F": LEMMA_API,
    "mk_operator": LEMMA_API,
    "mk_restricted_type_ratio": "criterion 8's sampler of the linearized maximal operator's adjoint",
    "restricted_type_ratio": "the free-translation sampler that the adjoint benchmark workload runs",
    "phi_star": "the materialised free-translation sum that the adjoint benchmark workload checks",
    "build_deterministic": "builds the hand-written reference sets of the tests and the library sketch",
    "alpha": "the left endpoint of a multi-index's interval, the paper's alpha(i); for building fixtures",
    "interval_of": "the basic interval of a multi-index; for building fixtures",
    "one_dimensional": "the one-dimensional regime's parameter constructor; for building fixtures",
    "custom": "the custom-schedule parameter constructor; for building fixtures",
    "fixed_dimension": "the fixed-dimension parameter constructor of the library sketch and the benchmark",
    "to_json": "the set file as text; the CLI writes the bytes of to_json_bytes",
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
