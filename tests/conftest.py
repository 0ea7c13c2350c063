"""Shared fixtures: the deterministic reference set, accepted random sets,
and random-input helpers used across the suite."""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

import cantormax.stepfn as sf
from cantormax import build_deterministic, construct, custom, fixed_dimension
from cantormax.stepfn import StepFunction

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


def per_gap_oracle(kernel, *args):
    """``product_integral``, ``power_integral`` or ``linear_combination`` by
    per-gap formulas over ``_per_gap_sweep``: no grouping and no reduction
    code shared with the kernels."""
    if kernel is sf.product_integral:
        (entries,) = args
        if any(fn.is_zero for fn, _, _ in entries):
            return Fraction(0)
        D, prepared = sf._prepare_factors(entries)
        vden = math.prod(fn.val_den for _, _, fn in prepared)
        gaps = _per_gap_sweep(prepared, [1] * len(prepared))
        return Fraction(sum((end - start) * math.prod(vals) for start, end, vals in gaps), D * vden)
    prep = sf._prepare_weighted(args[0])
    if kernel is sf.power_integral:
        p = args[1]
        if prep is None:
            return Fraction(0)
        D, VW, prepared, mults = prep
        gaps = _per_gap_sweep(prepared, mults)
        return Fraction(sum(abs(sum(vals)) ** p * (end - start) for start, end, vals in gaps), D * VW**p)
    assert kernel is sf.linear_combination
    if prep is None:
        return StepFunction.zero()
    D, VW, prepared, mults = prep
    units, nums = [], []
    for start, end, vals in _per_gap_sweep(prepared, mults):
        units.append(start)
        nums.append(sum(vals))
    units.append(end)
    return StepFunction(units, D, nums, VW)
