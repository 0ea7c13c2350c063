"""Shared fixtures: the deterministic reference set, accepted random sets,
and random-input helpers used across the suite."""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

import cantormax.stepfn as sf
from cantormax import construct, custom, fixed_dimension
from cantormax.core import SET_SCHEMA_VERSION, CantorLevel, CantorSet
from cantormax.errors import DegenerateMeasureError, DomainError, FormatError, InsufficientDepthError
from cantormax.stepfn import (
    PiecewiseLinear,
    StepFunction,
    _clear_denominators,
    linear_combination,
    product_integral,
    run_coverage,
)

# Deterministic two-level reference family: K=2, N=(4,4),
# level-1 selection {(2),(4)}, level-2 {(2,1),(2,3),(4,2),(4,4)}.
FIXTURE_A_SELECTIONS = [
    {(2,), (4,)},
    {(2, 1), (2, 3), (4, 2), (4, 4)},
]


@pytest.fixture(scope="session")
def fixture_a_params():
    return custom([4, 4], [Fraction(1, 4), Fraction(1, 4)])


@pytest.fixture(scope="session")
def fixture_a(fixture_a_params):
    from lemmas import build_deterministic  # lemmas imports this module

    return build_deterministic(FIXTURE_A_SELECTIONS, fixture_a_params)


@pytest.fixture(scope="session")
def toy88_set():
    """Small accepted set on a custom N=(8,8,8) schedule; full grids stay tiny."""
    params = custom(
        [8, 8, 8],
        [Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
        seed=23,
        max_retries=50,
    )
    cset, _ = construct(params, gate_c_budget=4)
    return cset


@pytest.fixture(scope="session")
def z8_set():
    """Accepted fixed-dimension set, N=8, eps=1/4, K=3."""
    cset, _ = construct(
        fixed_dimension(8, Fraction(1, 4), 3, seed=11, max_retries=50), gate_c_budget=4
    )
    return cset


@pytest.fixture(scope="session")
def z4_deep_set():
    """Accepted fixed-dimension set, N=4, eps=3/10, K=4 (demo depth)."""
    cset, _ = construct(
        fixed_dimension(4, Fraction(3, 10), 4, seed=5, max_retries=50), gate_c_budget=4
    )
    return cset


@pytest.fixture(scope="session")
def z16_set():
    """Accepted fixed-dimension set at the production size N=16, K=3."""
    cset, _ = construct(
        fixed_dimension(16, Fraction(1, 4), 3, seed=1, max_retries=50), gate_c_budget=6
    )
    return cset


@pytest.fixture(scope="session")
def broken_nesting_set(z8_set):
    """z8_set with one orphan at level 2: the first child of an unselected
    level-1 offset, so one child run lies outside every parent run."""
    levels = list(z8_set.levels)
    unselected_parent = min(set(range(levels[0].M_k)) - set(levels[0].offsets.tolist()))
    orphan = unselected_parent * levels[1].N_k
    levels[1] = CantorLevel(
        k=2,
        N_k=levels[1].N_k,
        M_k=levels[1].M_k,
        offsets=tuple(sorted(set(levels[1].offsets.tolist()) | {orphan})),
    )
    return CantorSet(z8_set.params, levels, validate=False)


def density(cset: CantorSet, k: int) -> StepFunction:
    """phi_k = 1_{S_k}/|S_k|, built in full: M_k/P_k on each run of S_k and
    0 on the gaps between runs.  The oracle for ``density_integral``, which
    reads the integral from the runs."""
    lv = cset.level(k)
    if lv.P == 0:
        raise DegenerateMeasureError(f"level {k} is empty; phi_{k} undefined")
    runs = lv.runs()
    value = Fraction(lv.M_k, lv.P)
    classes = 1 - np.arange(2 * len(runs) - 1) % 2
    return StepFunction.from_classes(runs.ravel() + lv.M_k, lv.M_k, [0, value.numerator], classes, value.denominator)


def coverage_sigma(cset: CantorSet, k: int) -> StepFunction:
    """sigma_k with its stretches and classes from ``run_coverage`` of the
    scaled parent runs and the child runs, one sort of both bound lists:
    the build that the merge of presorted bounds replaced."""
    if k + 1 > cset.depth:
        raise InsufficientDepthError(f"sigma_{k} needs level {k + 1}")
    parent, child = cset.level(k), cset.level(k + 1)
    if parent.P == 0 or child.P == 0:
        raise DegenerateMeasureError(f"sigma_{k} needs nonempty levels {k} and {k + 1}")
    b = -Fraction(parent.M_k, parent.P)
    levels, vden = _clear_denominators([0, b, Fraction(child.M_k, child.P) + b])
    ends, classes = run_coverage([(parent.runs() * child.N_k).ravel(), child.runs().ravel()])
    return StepFunction.from_classes(ends + child.M_k, child.M_k, levels, classes, vden)


def reference_load(text: str) -> CantorSet:
    """A set file through plain ``json.loads`` and ``from_json_dict``: every
    offset a Python int, no compact-form reading."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"set file is not valid JSON: {exc}") from exc
    return CantorSet.from_json_dict(d)


def reference_dump(cset: CantorSet) -> str:
    """A set file through plain ``json.dumps``: every offset a Python int,
    keys sorted, no whitespace."""
    d = {
        "schema_version": SET_SCHEMA_VERSION,
        "params": cset.params.to_json_dict(),
        "accepted_retries": list(cset.accepted_retries) if cset.accepted_retries else None,
        "levels": [
            {"k": lv.k, "N_k": lv.N_k, "P_k": lv.P, "selected": lv.offsets.tolist()}
            for lv in cset.levels
        ],
    }
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def random_step(rnd: random.Random, max_cells: int = 6, span: int = 40) -> StepFunction:
    """Random compactly supported step function with small rational data."""
    m = rnd.randint(1, max_cells)
    pts = sorted(rnd.sample(range(-span, span), m + 1))
    den = rnd.choice([1, 2, 3, 4, 8])
    bps = sorted({Fraction(p, den) for p in pts})
    while len(bps) < 2:
        bps.append(bps[-1] + 1)
    vals = [Fraction(rnd.randint(-5, 5), rnd.choice([1, 2, 3])) for _ in range(len(bps) - 1)]
    return StepFunction.from_breakpoints(bps, vals)


def breakpoints(f: StepFunction) -> tuple[Fraction, ...]:
    """f's breakpoints as Fractions: its ``units`` over ``den``."""
    return tuple(Fraction(u, f.den) for u in f.units)


def affine_image(f: StepFunction, c, r, w=1) -> StepFunction:
    """z -> w f((z - c)/r): the one-term ``linear_combination``."""
    return linear_combination([(w, f, c, r)])


def from_cells(cells) -> StepFunction:
    """The step function of (left, right, value) triples; gaps are filled
    with zero."""
    cells = sorted(
        ((Fraction(l), Fraction(r), Fraction(v)) for l, r, v in cells),
        key=lambda c: c[0],
    )
    bps: list[Fraction] = []
    vals: list[Fraction] = []
    for l, r, v in cells:
        if r <= l:
            raise DomainError(f"empty or inverted cell [{l}, {r}]")
        if bps:
            if l < bps[-1]:
                raise DomainError("cells overlap")
            if l > bps[-1]:
                vals.append(Fraction(0))
                bps.append(l)
        else:
            bps.append(l)
        vals.append(v)
        bps.append(r)
    return StepFunction.from_breakpoints(bps, vals)


def mass_between(f: StepFunction, a, b) -> Fraction:
    """Exact integral of f over [a, b]: its product with the indicator."""
    a, b = Fraction(a), Fraction(b)
    if b < a:
        raise DomainError("mass_between needs a <= b")
    if a == b:
        return Fraction(0)
    return product_integral([(f, 0, 1), (StepFunction.indicator(a, b), 0, 1)])


def linear_mass_between(h: PiecewiseLinear, a, b) -> Fraction:
    """Exact integral of h over [a, b]: the trapezoid rule, exact on linear
    pieces, over the nodes inside (a, b) and the two ends."""
    a, b = Fraction(a), Fraction(b)
    if b < a:
        raise DomainError("mass_between needs a <= b")
    i0, i1 = bisect_right(h.units, a * h.den), bisect_left(h.units, b * h.den)
    cuts = [a * h.den, *h.units[i0:i1], b * h.den]
    hs = [h.value_at(a) * h.val_den, *h.val_nums[i0:i1], h.value_at(b) * h.val_den]
    total = sum((h0 + h1) * (u1 - u0) for u0, u1, h0, h1 in zip(cuts, cuts[1:], hs, hs[1:]))
    return total / (2 * h.den * h.val_den)


def float_evaluator(f: StepFunction):
    """x -> f(x) in floats, right-continuous at breakpoints: the Monte Carlo
    oracles' evaluator, with the breakpoints converted once."""
    bps = [u / f.den for u in f.units]

    def value(x: float) -> float:
        idx = bisect_right(bps, x) - 1
        if 0 <= idx < f.n_cells:
            return f.val_nums[idx] / f.val_den
        return 0.0

    return value


def random_fraction(rnd: random.Random, lo: Fraction, hi: Fraction, den: int = 64) -> Fraction:
    lo, hi = Fraction(lo), Fraction(hi)
    t = Fraction(rnd.randint(0, den), den)
    return lo + (hi - lo) * t


def prefix_mass(f: StepFunction, a, b) -> Fraction:
    """Exact mass of f over [a, b] from a per-cell prefix-sum table and two
    bisects: no merge code shared with ``mass_between`` or ``integral``."""
    a, b = Fraction(a), Fraction(b)
    assert a <= b
    pre = [0]
    for i, v in enumerate(f.val_nums):
        pre.append(pre[-1] + v * (f.units[i + 1] - f.units[i]))

    def below(x):
        xs = x * f.den
        idx = bisect_right(f.units, xs) - 1
        if idx < 0:
            return 0
        if idx >= len(f.val_nums):
            return pre[-1]
        return pre[idx] + f.val_nums[idx] * (xs - f.units[idx])

    return Fraction(below(b) - below(a)) / (f.den * f.val_den)


def integral(f: StepFunction) -> Fraction:
    """Exact integral of f: per value class, level times the class's width."""
    total = sum(v * w for v, w in zip(f.levels, f._class_widths()))
    return Fraction(total, f.den * f.val_den)


def lp_power_oracle(f: StepFunction, p: int) -> Fraction:
    """Exact integral of |f|^p cell by cell from the tuple views: the loop
    that ``StepFunction.lp_power``'s per-class sum replaced."""
    total = 0
    for i, v in enumerate(f.val_nums):
        total += abs(v) ** p * (f.units[i + 1] - f.units[i])
    return Fraction(total, f.den * f.val_den**p)


def reference_runs(offsets: np.ndarray) -> np.ndarray:
    """``CantorLevel.runs`` as first written: run starts and ends gathered
    from the breaks of ``np.diff`` and stacked."""
    arr = np.asarray(offsets, dtype=np.int64)
    if not len(arr):
        return np.empty((0, 2), dtype=np.int64)
    breaks = np.flatnonzero(np.diff(arr) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(arr) - 1]))
    return np.stack([arr[starts], arr[ends] + 1], axis=1)


def reference_run_coverage(parts) -> tuple[np.ndarray, np.ndarray]:
    """``stepfn.run_coverage`` as first written: +1 and -1 steps in their own
    array, and each position's count read before its first slot."""
    pos = np.concatenate(parts)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    step = 1 - 2 * (order & 1)  # starts sit at even slots, ends at odd ones
    first = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
    return pos[first], np.cumsum(step)[first[1:] - 1]


def _per_gap_sweep(prepared, mults):
    """Exact merge gap by gap: (start, end, weighted factor values) per gap of
    positive width, from a heapq merge of the transformed breakpoints."""
    streams = [[(C + G * u, i) for u in fn.units] for i, (C, G, fn) in enumerate(prepared)]
    fns = [fn for _, _, fn in prepared]
    regs = [-1] * len(prepared)
    prev = None
    for pos, i in heapq.merge(*streams):
        if prev is not None and pos != prev:
            yield prev, pos, [
                m * fn.val_nums[r] if 0 <= r < len(fn.val_nums) else 0
                for fn, m, r in zip(fns, mults, regs)
            ]
        regs[i] += 1
        prev = pos


def _uncollapsed(terms):
    """(D, VW, prepared, mults) for (weight, fn, c, r) terms, one factor per
    term as given: no equal terms summed, zero weights and zero functions
    kept."""
    terms = [(Fraction(w), fn, c, r) for w, fn, c, r in terms]
    D, prepared = sf._prepare_factors([(fn, c, r) for _, fn, c, r in terms])
    VW = math.lcm(1, *(w.denominator * fn.val_den for w, fn, _, _ in terms))
    mults = [w.numerator * (VW // (w.denominator * fn.val_den)) for w, fn, _, _ in terms]
    return D, VW, prepared, mults


def per_gap_oracle(kernel, *args):
    """``product_integral``, ``power_integral``, ``linear_combination`` or
    ``antiderivative`` by per-gap formulas over ``_per_gap_sweep``: no term
    summing, no grouping and no reduction code shared with the kernels."""
    if kernel is sf.product_integral:
        (entries,) = args
        if any(fn.is_zero for fn, _, _ in entries):
            return Fraction(0)
        D, prepared = sf._prepare_factors(entries)
        vden = math.prod(fn.val_den for _, _, fn in prepared)
        gaps = _per_gap_sweep(prepared, [1] * len(prepared))
        return Fraction(sum((end - start) * math.prod(vals) for start, end, vals in gaps), D * vden)
    D, VW, prepared, mults = _uncollapsed(args[0])
    gaps = list(_per_gap_sweep(prepared, mults))
    if kernel is sf.power_integral:
        p = args[1]
        return Fraction(sum(abs(sum(vals)) ** p * (end - start) for start, end, vals in gaps), D * VW**p)
    if not gaps:
        return StepFunction.zero() if kernel is sf.linear_combination else sf.PiecewiseLinear((0, 1), 1, (0, 0), 1)
    units = [start for start, _, _ in gaps] + [gaps[-1][1]]
    if kernel is sf.linear_combination:
        return StepFunction(units, D, [sum(vals) for _, _, vals in gaps], VW)
    assert kernel is sf.antiderivative
    heights = [0]
    for start, end, vals in gaps:
        heights.append(heights[-1] + (end - start) * sum(vals))
    return sf.PiecewiseLinear(units, D, heights, D * VW)


def unclipped_product_integral(entries) -> Fraction:
    """``product_integral`` without clipping to the common support: one
    merge of every breakpoint of every factor, reduced per gap key."""
    if any(fn.is_zero for fn, _, _ in entries):
        return Fraction(0)
    D, prepared = sf._prepare_factors(entries)
    vden = math.prod(fn.val_den for _, _, fn in prepared)
    widths, digits, _ = sf._merge(prepared, [1] * len(prepared))
    acc = np.array(widths, dtype=object)
    for vals in sf._digit_values(digits, product=True):
        acc = acc * vals
    return Fraction(int(acc.sum()), D * vden)


def fits_limbs(prepared) -> bool:
    """True when ``_merge`` encodes these prepared factors in int64 limbs,
    False when it takes Python ints."""
    firsts = [C + G * int(fn._u[0]) for C, G, fn in prepared]
    return sf._fits_limbs([(first - min(firsts), G, fn._u) for (_, G, fn), first in zip(prepared, firsts)])


@contextlib.contextmanager
def python_ints():
    """Every multi-factor merge on the Python-int encoding."""
    with mock.patch.object(sf, "_fits_limbs", return_value=False):
        yield


@contextlib.contextmanager
def python_int_merges():
    """Yield a list that gets one entry per multi-factor merge: True where
    it took the Python-int encoding, False where it took the limbs."""
    taken = []
    fits = sf._fits_limbs

    def spy(parts):
        taken.append(not fits(parts))
        return not taken[-1]

    with mock.patch.object(sf, "_fits_limbs", spy):
        yield taken


@contextlib.contextmanager
def no_merge():
    """Fail on any multi-factor merge: every one keys its gaps."""
    with mock.patch.object(sf, "_gap_keys", side_effect=AssertionError("merged")):
        yield


class KeyRecord(NamedTuple):
    """One merge's gap keys: their dtype, largest key and count, the radix
    of its digits, the product of its factors' class counts (the radix of
    one class digit per factor) and each digit's base (0 for a class digit)."""

    dtype: np.dtype
    max_key: int
    gaps: int
    radix: int
    class_product: int
    bases: list[int]


@contextlib.contextmanager
def gap_key_records():
    """Yield a list that gets one ``KeyRecord`` per merge that keys its gaps."""
    records = []
    gap_keys = sf._gap_keys

    def spy(digits, bounds, order):
        keys, read = gap_keys(digits, bounds, order)
        records.append(KeyRecord(
            keys.dtype,
            int(keys.max()),
            len(keys),
            math.prod(radix for *_, radix in digits),
            math.prod(len(fn.levels) ** len(members) for fn, _, members, _, _ in digits),
            [base for _, _, _, base, _ in digits],
        ))
        return keys, read

    with mock.patch.object(sf, "_gap_keys", spy):
        yield records
