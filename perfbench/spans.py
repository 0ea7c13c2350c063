"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each public function listed in ``LAYERS`` with a
timing wrapper in every ``cantormax`` module namespace that bound it (so a
call through ``from .stepfn import product_integral`` is counted like a call
through ``stepfn.product_integral``), and each listed ``CantorSet`` method on
the class.  ``Tracer.remove()`` puts every original back.  Nothing under
``src/`` is edited.

Each span adds its inclusive time to its parent, so a layer's self time is
its inclusive time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(args, kwargs, result):
    parents = _arg(args, kwargs, 0, "parent_offsets")
    n_next = _arg(args, kwargs, 1, "N_next")
    return {"draws": (1 if parents is None else len(parents)) * n_next}


def _factor_breakpoints(args, kwargs, result):
    return {"breakpoints": sum(len(e[0].units) for e in _arg(args, kwargs, 0, "entries"))}


def _term_breakpoints(args, kwargs, result):
    return {"breakpoints": sum(len(t[1].units) for t in _arg(args, kwargs, 0, "terms"))}


def _combination_sizes(args, kwargs, result):
    return {**_term_breakpoints(args, kwargs, result), "out_cells": result.n_cells}


def _tuples(args, kwargs, result):
    return {"tuples": len(result)}


def _transverse(args, kwargs, result):
    return {"transverse": int(result == sys.modules["cantormax.intersect"].TRANSVERSE)}


def _level_runs(args, kwargs, result):
    cset = _arg(args, kwargs, 1, "cset")
    return {"runs": len(cset.level(_arg(args, kwargs, 2, "k")).runs())}


def _built_cells(cache_attr):
    """Cells of a CantorSet cache entry, counted only on the call that built it."""

    def probe(args, kwargs):
        cache = getattr(args[0], cache_attr, None)  # without the cache, count every call
        return cache is None or _arg(args, kwargs, 1, "k") not in cache

    def sizes(args, kwargs, result, built):
        return {"cells": result.n_cells if built else 0}

    return probe, sizes


# (module, attribute, metric prefix, sizes, size keys).  ``sizes`` maps
# (args, kwargs, result) to counts, or is a (probe, sizes) pair whose probe
# runs before the call.  An attribute "Class.method" names a method patched
# on the class.
LAYERS = (
    ("cantormax.randomize", "bernoulli_layer", "randomize.bernoulli_layer", _draws, ("draws",)),
    ("cantormax.randomize", "gate_counts", "randomize.gate_counts", None, ()),
    ("cantormax.randomize", "gate_deviation", "randomize.gate_deviation", None, ()),
    ("cantormax.randomize", "gate_correlation", "randomize.gate_correlation", None, ()),
    ("cantormax.correlation", "evaluate_tuple", "correlation.evaluate_tuple", None, ()),
    ("cantormax.core", "CantorSet.from_json", "core.from_json", None, ()),
    ("cantormax.core", "CantorSet.sigma", "core.sigma", _built_cells("_sigma_cache"), ("cells",)),
    ("cantormax.core", "CantorSet.density", "core.density", None, ()),
    ("cantormax.core", "CantorSet.indicator", "core.indicator", _built_cells("_indicator_cache"), ("cells",)),
    ("cantormax.stepfn", "product_integral", "stepfn.product_integral", _factor_breakpoints, ("breakpoints",)),
    ("cantormax.stepfn", "power_integral", "stepfn.power_integral", _term_breakpoints, ("breakpoints",)),
    ("cantormax.stepfn", "linear_combination", "stepfn.linear_combination", _combination_sizes, ("breakpoints", "out_cells")),
    ("cantormax.intersect", "enumerate_F", "intersect.enumerate_F", _tuples, ("tuples",)),
    ("cantormax.correlation", "lambda_sigma", "correlation.lambda_sigma", None, ()),
    ("cantormax.correlation", "classify_A", "correlation.classify_A", _transverse, ("transverse",)),
    ("cantormax.correlation", "sup_lambda_tr", "correlation.sup_lambda_tr", None, ()),
    ("cantormax.maxops", "average", "maxops.average", None, ()),
    ("cantormax.maxops", "average_via_mass", "maxops.average_via_mass", _level_runs, ("runs",)),
    ("cantormax.maxops", "restricted_maximal", "maxops.restricted_maximal", None, ()),
    ("cantormax.maxops", "unrestricted_maximal", "maxops.unrestricted_maximal", None, ()),
    ("cantormax.maxops", "restricted_type_ratio", "maxops.restricted_type_ratio", None, ()),
    ("cantormax.maxops", "phi_star", "maxops.phi_star", None, ()),
    ("cantormax.maxops", "phi_star_norm_power", "maxops.phi_star_norm_power", None, ()),
)

# The root span around each benchmark task; its self time is the task time
# that no layer span covers (argument parsing, report writing, set loading).
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _close(self, name: str, elapsed: float) -> None:
        child = self._open.pop()
        self.calls[name] += 1
        self.inclusive[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._open:
            self._open[-1] += elapsed

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, time.perf_counter() - t0)

    def _wrapper(self, name, fn, sizes):
        probe = None
        if isinstance(sizes, tuple):
            probe, sizes = sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = probe(args, kwargs) if probe else None
            result = self.timed(name, fn, *args, **kwargs)
            if sizes is not None:
                extra = sizes(args, kwargs, result, before) if probe else sizes(args, kwargs, result)
                for key, value in extra.items():
                    self.counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for _, mod in _cantormax_modules()]
        for module_name, attr, name, sizes, _ in LAYERS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls).get(meth)
                if raw is None:  # gone from the program: its metrics read 0
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrapper(name, raw.__func__, sizes))
                else:
                    patched = self._wrapper(name, raw, sizes)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(name, original, sizes)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def _cantormax_modules():
    return [
        (key, mod) for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "cantormax" or key.startswith("cantormax."))
    ]


def patched_names() -> list[str]:
    """Every cantormax binding that still holds a tracing wrapper."""
    found = []
    for key, mod in _cantormax_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                for meth, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, "__wrapped_by_perfbench__", False):
                        found.append(f"{key}.{attr}.{meth}")
    return found
