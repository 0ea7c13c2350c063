"""Exact step-function algebra and the merge kernels."""

import contextlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cantormax.stepfn as sf
from cantormax.errors import DomainError
from cantormax.stepfn import (
    PiecewiseLinear,
    StepFunction,
    antiderivative,
    linear_combination,
    power_integral,
    product_integral,
)

from conftest import (
    _per_gap_sweep,
    affine_image,
    breakpoints,
    density,
    fits_limbs,
    from_cells,
    gap_key_records,
    integral,
    linear_mass_between,
    lp_power_oracle,
    mass_between,
    no_merge,
    per_gap_oracle,
    prefix_mass,
    python_int_merges,
    python_ints,
    random_step,
    reference_run_coverage,
    unclipped_product_integral,
)

F = Fraction


def on_python_ints(kernel, *args):
    """``kernel(*args)`` with every multi-factor merge on the Python-int
    encoding, checked with == against the per-gap oracle, which shares no
    reduction code with the kernels."""
    with python_ints():
        got = kernel(*args)
    assert got == per_gap_oracle(kernel, *args)
    return got


def in_limbs(entries) -> bool:
    """True when the merge encodes these (fn, c, r) factors in int64 limbs."""
    return fits_limbs(sf._prepare_factors(entries)[1])


def loop_normalize(units, den, val_nums, val_den):
    """The per-cell normalization loop that the array normalizer replaced."""
    if any(nxt <= cur for cur, nxt in zip(units, units[1:])):
        raise DomainError("breakpoints must be strictly increasing")
    merged_u, merged_v = [], []
    for i, v in enumerate(val_nums):
        if merged_v and merged_v[-1] == v:
            merged_u[-1] = units[i + 1]
            continue
        if not merged_u:
            merged_u = [units[i], units[i + 1]]
        else:
            merged_u.append(units[i + 1])
        merged_v.append(v)
    while merged_v and merged_v[0] == 0:
        merged_v.pop(0)
        merged_u.pop(0)
    while merged_v and merged_v[-1] == 0:
        merged_v.pop()
        merged_u.pop()
    if not merged_v:
        return [], 1, [], 1
    g = math.gcd(den, *merged_u)
    h = math.gcd(val_den, *merged_v)
    return [u // g for u in merged_u], den // g, [v // h for v in merged_v], val_den // h


def loop_from_gaps(gaps, den, val_den):
    """Units and values of (start, end, value) gaps, holes filled with 0."""
    units, nums = [], []
    for start, end, value in gaps:
        if units and start > units[-1]:
            nums.append(0)
            units.append(start)
        elif not units:
            units.append(start)
        nums.append(value)
        units.append(end)
    return loop_normalize(units, den, nums, val_den)


def step_strategy(max_cells=5):
    """Random step functions whose values repeat, so classes are shared."""
    return st.builds(
        lambda lefts, vals, den, vden: StepFunction.from_breakpoints(
            [F(u, den) for u in sorted(set(lefts))],
            [F(vals[i % len(vals)], vden) for i in range(len(set(lefts)) - 1)],
        ),
        st.lists(st.integers(-40, 40), min_size=2, max_size=max_cells + 1),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3),
        st.sampled_from([1, 2, 3, 8]),
        st.sampled_from([1, 2, 5]),
    )


def small_fraction(lo=-8, hi=8, dens=(1, 2, 3, 4)):
    return st.builds(
        lambda n, d: F(n, d), st.integers(lo, hi), st.sampled_from(dens)
    )


class TestConstruction:
    def test_normalization_merges_equal_neighbors(self):
        f = StepFunction.from_breakpoints([0, 1, 2, 3], [1, 1, 2])
        assert f.n_cells == 2
        assert breakpoints(f) == (F(0), F(2), F(3))

    def test_zero_cells_stripped_at_ends_only(self):
        f = StepFunction.from_breakpoints([0, 1, 2, 3, 4], [0, 5, 0, 7])
        assert f.support() == (F(1), F(4))
        assert f.values == (F(5), F(0), F(7))

    def test_from_cells_fills_gaps(self):
        f = from_cells([(0, 1, 2), (3, 4, 5)])
        assert f.value_at(F(2)) == 0
        assert integral(f) == 7

    def test_rejects_overlap_and_disorder(self):
        with pytest.raises(DomainError):
            from_cells([(0, 2, 1), (1, 3, 1)])
        with pytest.raises(DomainError):
            StepFunction.from_breakpoints([0, 0, 1], [1, 2])


@st.composite
def _wide_steps(draw):
    """(f, a, b): a step function whose units may lie past 2^63 or span past
    the limbs, and an interval that may be a point or miss the support."""
    n = draw(st.integers(0, 6))
    if n == 0:
        f = StepFunction.zero()
    else:
        start = draw(st.sampled_from([0, -(1 << 40), (1 << 63) + 5, -(1 << 70), 1 << 95]))
        width = draw(st.sampled_from([1 << 3, 1 << 30, 1 << 66]))
        gaps = draw(st.lists(st.integers(1, width), min_size=n, max_size=n))
        units = [start]
        for g in gaps:
            units.append(units[-1] + g)
        vals = draw(st.lists(st.integers(-(1 << 70), 1 << 70), min_size=n, max_size=n))
        den = draw(st.sampled_from([1, 3, 1 << 20, (1 << 64) + 1]))
        f = StepFunction(units, den, vals, draw(st.sampled_from([1, 7, 1 << 65])))
    lo, hi = f.support() or (F(0), F(1))
    ts = sorted(draw(st.fractions(-1, 2, max_denominator=97)) for _ in range(2))
    if draw(st.booleans()):
        ts[1] = ts[0]
    a, b = (lo + (hi - lo) * t for t in ts)
    return f, a, b


@settings(max_examples=150, deadline=None)
@given(data=_wide_steps())
def test_integral_and_mass_match_prefix_oracle(data):
    f, a, b = data
    lo, hi = f.support() or (F(0), F(0))
    with no_merge():
        assert integral(f) == prefix_mass(f, lo, hi)
        assert product_integral([(f, a, F(5, 3))]) == F(5, 3) * prefix_mass(f, lo, hi)
        if not f.is_zero:
            with pytest.raises(DomainError):
                product_integral([(f, 0, 0)])
    assert mass_between(f, a, b) == prefix_mass(f, a, b)
    if a < b:
        with pytest.raises(DomainError):
            mass_between(f, b, a)


class TestPointwiseAndMass:
    def test_side_limits_at_breakpoint(self):
        f = StepFunction.from_breakpoints([0, 1, 2], [3, 5])
        assert f.value_at(1) == 5
        assert (f.value_at(0), f.value_at(2)) == (3, 0)

    def test_mass_below_piecewise(self):
        f = StepFunction.from_breakpoints([0, 1, 2], [2, -1])
        assert mass_between(f, F(1, 2), F(3, 2)) == F(1, 2)

    def test_lp_power_and_norm(self):
        f = StepFunction.indicator(0, 1)
        assert f.lp_power(3) == 1


class TestKernels:
    def test_product_disjoint_supports(self):
        f, g = StepFunction.indicator(0, 1), StepFunction.indicator(5, 6)
        assert product_integral([(f, 0, 1), (g, 0, 1)]) == 0

    def test_endpoint_contact_contributes_zero(self):
        f, g = StepFunction.indicator(0, 1), StepFunction.indicator(1, 2)
        assert product_integral([(f, 0, 1), (g, 0, 1)]) == 0

    def test_identical_copies_scale_by_r(self):
        # two equal slots integrate the square: Lambda = r * int f^2
        rnd = random.Random(1)
        for _ in range(20):
            f = random_step(rnd)
            c, r = F(rnd.randint(-4, 0)), F(rnd.randint(1, 3), rnd.choice([1, 2]))
            got = product_integral([(f, c, r), (f, c, r)])
            assert got == r * f.lp_power(2)

    def test_numpy_and_python_paths_agree(self):
        rnd = random.Random(7)
        cases = []
        for _ in range(40):
            fns = [random_step(rnd) for _ in range(rnd.choice([2, 3, 4]))]
            items = [
                (g, F(rnd.randint(-8, 8), rnd.choice([1, 2, 3])), F(rnd.randint(1, 5), 2))
                for g in fns
            ]
            cases.append((items, product_integral(items)))
        with python_ints():
            for items, want in cases:
                assert product_integral(items) == want == per_gap_oracle(product_integral, items)

    def test_power_paths_agree(self):
        rnd = random.Random(8)
        cases = []
        for _ in range(25):
            terms = [
                (
                    F(rnd.randint(-3, 3), rnd.choice([1, 2])),
                    random_step(rnd, max_cells=4),
                    F(rnd.randint(-4, 4)),
                    F(rnd.randint(1, 3)),
                )
                for _ in range(rnd.choice([2, 3]))
            ]
            p = rnd.choice([1, 2, 3])
            cases.append((terms, p, power_integral(terms, p)))
        with python_ints():
            for terms, p, want in cases:
                assert power_integral(terms, p) == want == per_gap_oracle(power_integral, terms, p)

    def test_power_integral_matches_materialized(self):
        rnd = random.Random(9)
        for _ in range(20):
            terms = [
                (
                    F(rnd.randint(-3, 3), rnd.choice([1, 2])),
                    random_step(rnd, max_cells=4),
                    F(rnd.randint(-4, 4)),
                    F(rnd.randint(1, 3)),
                )
                for _ in range(rnd.choice([2, 3]))
            ]
            p = rnd.choice([1, 2, 3])
            combined = linear_combination(terms)
            assert power_integral(terms, p) == combined.abs().lp_power(p)

    def test_linear_combination_additive_integral(self):
        rnd = random.Random(3)
        for _ in range(20):
            f, g = random_step(rnd), random_step(rnd)
            w1, w2 = F(2, 3), F(-1, 4)
            comb = linear_combination([(w1, f, F(1, 2), F(3, 2)), (w2, g, 0, 1)])
            assert integral(comb) == w1 * F(3, 2) * integral(f) + w2 * integral(g)

    @given(
        c=small_fraction(),
        r=st.builds(lambda n, d: F(n, d), st.integers(1, 6), st.sampled_from([1, 2, 3])),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_image_integral_scaling(self, c, r, data):
        seed = data.draw(st.integers(0, 10**6))
        f = random_step(random.Random(seed))
        assert integral(affine_image(f, c, r)) == r * integral(f)

    def test_inner_product_symmetry(self):
        rnd = random.Random(17)
        f, g = random_step(rnd), random_step(rnd)
        assert product_integral([(f, 0, 1), (g, 0, 1)]) == product_integral([(g, 0, 1), (f, 0, 1)])

    def test_product_against_midpoint_oracle(self):
        # independent route: sort all transformed breakpoints as Fractions and
        # evaluate every factor at cell midpoints via value_at
        rnd = random.Random(23)
        for _ in range(25):
            items = []
            for _ in range(rnd.choice([2, 3])):
                f = random_step(rnd, max_cells=4)
                c = F(rnd.randint(-6, 6), rnd.choice([1, 2, 3]))
                r = F(rnd.randint(1, 4), rnd.choice([1, 2]))
                items.append((f, c, r))
            cuts = sorted(
                {c + r * b for f, c, r in items for b in breakpoints(f)}
            )
            want = F(0)
            for lo, hi in zip(cuts, cuts[1:]):
                mid = (lo + hi) / 2
                prod = hi - lo
                for f, c, r in items:
                    prod *= f.value_at((mid - c) / r)
                want += prod
            assert product_integral(items) == want


_fractions = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


@given(
    st.lists(
        st.tuples(_fractions, _fractions.map(lambda x: abs(x) + F(1, 7)), st.integers(1, 10**6)),
        min_size=1,
        max_size=5,
    )
)
@example([(F(0), F(3, 2), 3)])  # r/den = 1/2: D = 2, not r's denominator times den
def test_scale_is_the_least_common_denominator(terms):
    # the one (c, r) -> (C, G) rule of the merge kernels and intersect's slots
    D, scaled = sf._scale(terms)
    assert [(F(C, D), F(G, D)) for C, G in scaled] == [(c, r / den) for c, r, den in terms]
    # no smaller D: D = D' m with C and G divisible by m would leave gcd m
    assert math.gcd(D, *(x for pair in scaled for x in pair)) == 1


class TestMergeKernel:
    def test_span_not_magnitude_bounds_the_limbs(self):
        # on the 2^24 grid a function reaching y = 2 has a unit equal to 2^25
        M = 1 << 24
        f = StepFunction([M, M + 1, 2 * M - 1, 2 * M], M, [1, 2, 3], 1)
        assert f.units[-1] == 1 << 25
        cases = [
            [(f, 0, 1), (f, F(1, 1 << 25), 1)],
            [(f, F(-3, 2), F(5, 4)), (f, F(-1, 1 << 26), F(3, 2))],
        ]
        far = affine_image(f, 1 << 40, 1)  # units near 2^64, span 2^24
        assert far.units[0] > 1 << 63
        cases.append([(far, -(1 << 40), 1), (f, F(1, 1 << 25), 1)])
        for entries in cases:
            assert in_limbs(entries)
            assert product_integral(entries) == on_python_ints(product_integral, entries)
            terms = [(1, fn, c, r) for fn, c, r in entries]
            assert power_integral(terms, 2) == on_python_ints(power_integral, terms, 2)
            assert linear_combination(terms) == on_python_ints(linear_combination, terms)

    def test_ties_of_distinct_positions_above_2_53(self):
        # the exact positions sit near 2^63 (2^61 over the denominator 4),
        # where floats are 2048 apart, so distinct positions share float keys
        # and their order comes from the limbs
        base = F(1 << 61)
        assert float(2**63) == float(2**63 + 9)
        f = StepFunction.from_breakpoints([0, 1, 2, 3, 4], [1, -2, 3, 5])
        g = StepFunction.from_breakpoints([0, 2, 3, 5], [7, 1, -1])
        entries = [(f, base, 1), (g, base + F(1, 2), 1), (f, base + F(3, 4), 2)]
        assert in_limbs(entries)
        assert product_integral(entries) == on_python_ints(product_integral, entries)
        # by hand on [1/2, 4]: (7 - 28 + 21 + 3 + 5 - 5) / 2
        assert product_integral(entries[:2]) == F(3, 2)
        terms = [(F(1, 3), fn, c, r) for fn, c, r in entries]
        assert power_integral(terms, 3) == on_python_ints(power_integral, terms, 3)
        assert linear_combination(terms) == on_python_ints(linear_combination, terms)

    def test_equal_positions_from_different_factors(self):
        f = StepFunction.from_breakpoints([0, 1, 2, 4], [2, -1, 3])
        g = StepFunction.from_breakpoints([1, 2, 3, 4], [5, 5, -2])
        h = affine_image(f, 0, 1, F(1 << 70, 3))  # class values past int64
        entries = [(f, 0, 1), (g, 0, 1), (h, 1, 1), (g, -1, 1)]
        assert in_limbs(entries)
        assert product_integral(entries) == on_python_ints(product_integral, entries)
        terms = [(i - 1, fn, c, r) for i, (fn, c, r) in enumerate(entries)]
        for p in (1, 2):
            assert power_integral(terms, p) == on_python_ints(power_integral, terms, p)
        assert linear_combination(terms) == on_python_ints(linear_combination, terms)

    def test_negative_offsets_and_steps_near_the_bound(self):
        f = StepFunction.from_breakpoints([0, 1, 3, 4], [1, -2, 3])
        G = sf._G_MAX - 1
        r = F(G, 1 << 60)  # G = 2^62 - 1 over D = 2^60
        entries = [(f, -3, r), (f, F(-7, 2), F(G - 2, 1 << 60)), (f, F(-5, 2), F(3, 2))]
        _, prepared = sf._prepare_factors(entries)
        assert max(Gi for _, Gi, _ in prepared) == G
        assert all(C < 0 for C, _, _ in prepared)
        assert in_limbs(entries)
        assert product_integral(entries) == on_python_ints(product_integral, entries)
        terms = [(F(2, 3), fn, c, r) for fn, c, r in entries]
        assert power_integral(terms, 2) == on_python_ints(power_integral, terms, 2)
        # one step past the bound selects the Python-int encoding
        past = [(f, -3, F(sf._G_MAX, 1 << 60)), entries[1]]
        assert not in_limbs(past)
        assert product_integral(past) == on_python_ints(product_integral, past)

    def test_limits_at_their_bounds_and_far_close_offsets(self):
        f = StepFunction.from_breakpoints([0, 1, 3, 4], [1, -2, 3])
        g = StepFunction.from_breakpoints([0, 2, 3, 5], [7, 1, -1])
        wide = StepFunction([0, 1, (1 << 24) + 3, (1 << 25) - 2, (1 << 25) - 1], 1, [2, -1, 3, 5], 1)
        far = F(1 << 92)  # positions past 2^91, a few units apart
        cases = [
            # step G = 2^62 - 1 over D = 2^60, the largest the limbs take
            [(f, -3, F((1 << 62) - 1, 1 << 60)), (g, F(-7, 2), F(3, 2))],
            # span 2^25 - 1 grid units
            [(wide, 0, 1), (wide, F(1, 3), 1), (g, 1 << 20, 1 << 22)],
            # offsets past 2^91 that lie close together: no position fits
            # int64, but their distances from the first position do
            [(f, far, 1), (g, far + F(1, 3), F(1, 2)), (f, far - F(5, 2), 2)],
        ]
        for entries in cases:
            assert in_limbs(entries)
            assert product_integral(entries) == on_python_ints(product_integral, entries)
            terms = [(F(i + 1, 3), fn, c, r) for i, (fn, c, r) in enumerate(entries)]
            assert power_integral(terms, 2) == on_python_ints(power_integral, terms, 2)
            assert linear_combination(terms) == on_python_ints(linear_combination, terms)

    @pytest.mark.parametrize("n_terms", [16, 32])
    def test_power_integral_many_factors(self, n_terms):
        rnd = random.Random(n_terms)
        fns = [
            StepFunction.from_breakpoints(
                sorted(rnd.sample(range(-40, 40), 13)),
                [F(rnd.randint(1, 40) * rnd.choice([-1, 1]), rnd.choice([1, 2, 3])) for _ in range(12)],
            )
            for _ in range(4)
        ]
        terms = [
            (
                F(rnd.randint(-3, 3) or 1, rnd.choice([1, 2, 3])),
                rnd.choice(fns),
                F(rnd.randint(-8, 8), rnd.choice([1, 2])),
                F(rnd.randint(2, 6), rnd.choice([2, 3])),
            )
            for _ in range(n_terms)
        ]
        prepared = sf._prepare_weighted(terms)[2]
        assert in_limbs([(fn, 0, 1) for _, _, fn in prepared])
        # terms of one function and one weight come a few at a time here, and
        # a count digit of s members over about 13 classes takes a radix
        # s(s+1)^11 + 1 above 13^s, so every factor keys by its own class:
        # 32 factors overflow one int64 mixed radix, and their gap keys are
        # Python ints
        radix = math.prod(len(fn.levels) for _, _, fn in prepared)
        assert (radix > sf._KEY_MAX) == (n_terms == 32)
        with gap_key_records() as records:
            combined = linear_combination(terms)
        assert [(r.radix, r.dtype, set(r.bases)) for r in records] == [
            (radix, object if n_terms == 32 else np.int64, {0})
        ]
        assert combined == on_python_ints(linear_combination, terms)
        for p in (1, 2, 3):
            want = on_python_ints(power_integral, terms, p)
            assert power_integral(terms, p) == want
            assert combined.abs().lp_power(p) == want

    def test_python_int_keys_decode_to_the_swept_class_tuples(self):
        # 40 factors of 13 classes overflow one int64 mixed radix twice, so
        # the gap keys are Python ints; integer offsets make breakpoints of
        # different factors coincide, which leaves zero-width gaps with
        # class tuples of their own
        rnd = random.Random(18)
        fns = [
            StepFunction(
                sorted(rnd.sample(range(30), 13)), 1,
                [v * rnd.choice([-1, 1]) for v in rnd.sample(range(1, 50), 12)], 1,
            )
            for _ in range(40)
        ]
        entries = [(fn, rnd.randint(-5, 5), rnd.choice([1, 2])) for fn in fns]
        _, prepared = sf._prepare_factors(entries)
        sizes = [len(fn.levels) for _, _, fn in prepared]
        assert sizes == [13] * 40 and math.prod(sizes) > sf._KEY_MAX**2
        assert fits_limbs(prepared)
        # the oracle's gaps, with each factor's value standing for its class:
        # the levels of a canonical function are distinct
        gaps = list(_per_gap_sweep(prepared, [1] * len(prepared)))
        by_values: dict[tuple, int] = {}
        for a, b, vals in gaps:
            by_values[tuple(vals)] = by_values.get(tuple(vals), 0) + b - a
        for encoding in (contextlib.nullcontext(), python_ints()):
            with encoding, gap_key_records() as records:
                widths, digits, cells = sf._merge(prepared, [1] * len(prepared))
            assert [r.dtype for r in records] == [object]
            # distinct function objects: each factor keys as its own class
            assert [base for _, _, base, _ in digits] == [0] * 40
            tuples = list(zip(*(d.tolist() for _, _, _, d in digits)))
            assert len(set(tuples)) == len(tuples) == len(widths)
            assert 0 in widths
            values = [tuple(fn.levels[c] for (_, _, fn), c in zip(prepared, t)) for t in tuples]
            assert {t: w for t, w in zip(values, widths) if w} == by_values
            positions, group = cells()
            assert positions.tolist() == [a for a, _, _ in gaps] + [gaps[-1][1]]
            assert [values[g] for g in group.tolist()] == [tuple(vals) for _, _, vals in gaps]

    def test_sigma_product_keys_in_int64(self, z8_set):
        # two sigma factors of 3 classes: the gap keys fit int64
        sigma = z8_set.sigma(2)
        entries = [(sigma, 0, 1), (sigma, F(1, 7), 1)]
        with gap_key_records() as records:
            got = unclipped_product_integral(entries)
        # one function object twice: one count digit of radix 2*3 + 1 = 7
        assert [(r.dtype, r.radix, r.bases) for r in records] == [(np.int64, 7, [3])]
        assert got == product_integral(entries) == per_gap_oracle(product_integral, entries)

    def test_spans_past_2_30_merge_as_python_ints(self):
        # spans of 2^31 grid units and a step past 2^62 leave the limbs;
        # positions of different factors coincide, and near 2^80, where
        # floats are 2^28 apart, distinct positions are equal as float64
        S, far = 1 << 31, 1 << 80
        assert float(far) == float(far + 1)
        f = StepFunction([0, 1, S // 2, S - 1, S], 1, [2, -1, 3, 5], 1)
        g = StepFunction([1, 3, S // 2, S // 2 + 1, S + 7], 1, [7, 1, -2, 4], 1)
        cases = [
            [(f, 0, 1), (g, 0, 1), (f, 1, 1), (g, -2, 1)],
            [(f, far, 1), (g, far + 1, 1), (f, far + F(1, 2), F(3, 2)), (g, far - 3, 1)],
            [(f, 0, 1 << 63), (g, 1 << 63, 1 << 63), (f, F(1, 3), (1 << 63) + 1)],
        ]
        for entries in cases:
            assert not in_limbs(entries)
            terms = [(F(i - 2, 3), fn, c, r) for i, (fn, c, r) in enumerate(entries)]
            with python_int_merges() as taken:
                got = [product_integral(entries), linear_combination(terms)]
                got += [power_integral(terms, p) for p in (1, 2, 3)]
            assert taken and all(taken)
            assert got == [
                per_gap_oracle(product_integral, entries),
                per_gap_oracle(linear_combination, terms),
                *(per_gap_oracle(power_integral, terms, p) for p in (1, 2, 3)),
            ]
            assert got[0] != 0 and got[1].n_cells > 8

    def test_breakpoint_count_alone_leaves_the_limbs(self):
        # with the merged-breakpoint bound at 64, two factors of about 50
        # breakpoints each take the Python-int encoding on their count alone
        rnd = random.Random(64)
        fns = [
            StepFunction(sorted(rnd.sample(range(200), 51)), 1, [rnd.choice([-2, 1, 3]) for _ in range(50)], 1)
            for _ in range(2)
        ]
        entries = [(fns[0], 0, 1), (fns[1], F(1, 3), 1)]
        terms = [(F(1, 2), fns[0], 0, 1), (-1, fns[1], F(1, 3), 1)]
        assert in_limbs(entries) and sum(len(fn._u) for fn in fns) > 64
        with mock.patch.object(sf, "_POS_MAX", 64):
            assert not in_limbs(entries)
            with python_int_merges() as taken:
                got = [product_integral(entries), linear_combination(terms)]
                got += [power_integral(terms, p) for p in (1, 2)]
        assert taken and all(taken)
        assert got == [
            per_gap_oracle(product_integral, entries),
            per_gap_oracle(linear_combination, terms),
            *(per_gap_oracle(power_integral, terms, p) for p in (1, 2)),
        ]

    def test_both_encodings_return_one_grouping(self):
        # many positions coincide across factors, whose values are distinct,
        # so the class tuples of zero-width gaps are their own groups; both
        # encodings take ties in factor order, so even these groups agree
        rnd = random.Random(22)
        fns = [
            StepFunction(sorted(rnd.sample(range(300), 120)), 1, rnd.sample(range(1, 500), 119), 1)
            for _ in range(3)
        ]
        _, prepared = sf._prepare_factors([(fn, rnd.randint(-3, 3), 1) for fn in fns])
        assert fits_limbs(prepared)
        widths, digits, cells = sf._merge(prepared, [1] * 3)
        with python_ints():
            int_widths, int_digits, int_cells = sf._merge(prepared, [1] * 3)
        assert widths == int_widths and 0 in widths
        assert all(np.array_equal(a[3], b[3]) for a, b in zip(digits, int_digits))
        assert all(np.array_equal(a, b) for a, b in zip(cells(), int_cells()))

    def test_merge_holds_few_arrays_of_the_merged_length(self):
        # two factors of about 300k breakpoints: beyond its inputs the merge
        # allocates at most 7 int64 arrays of the merged length, including
        # what its cells() keeps
        rng = np.random.default_rng(18)
        fns = [
            StepFunction.from_classes(
                np.cumsum(rng.integers(1, 40, size=300_001)), 1, (0, -2, 1, 5),
                np.cumsum(rng.integers(1, 4, size=300_000)) % 4, 1,
            )
            for _ in range(2)
        ]
        _, prepared = sf._prepare_factors([(fns[0], 0, 1), (fns[1], F(1, 3), F(3, 2))])
        n = sum(len(fn._u) for _, _, fn in prepared)
        assert n > 500_000 and fits_limbs(prepared)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            widths, _, _ = sf._merge(prepared, [1, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 7 * 8 * n
        ends = [C + G * int(u) for C, G, fn in prepared for u in (fn._u[0], fn._u[-1])]
        assert sum(widths) == max(ends) - min(ends)

    def test_sweep_groups_by_class_tuple(self):
        # two factors of 2000 cells with four values each, zero among them:
        # the Python-int encoding keeps one width per class tuple, not one per gap
        rnd = random.Random(5)
        fns = [
            StepFunction(list(range(0, 4002, 2)), 3, [rnd.choice([-1, 0, 2, 5]) for _ in range(2000)], 1)
            for _ in range(2)
        ]
        entries = [(fns[0], 0, 1), (fns[1], F(1, 3), F(3, 2))]
        _, prepared = sf._prepare_factors(entries)
        with python_ints():
            widths, digits, cells = sf._merge(prepared, [1, 1])
            positions, group = cells()
        assert len(widths) <= 16 < len(group)
        assert sum(widths) == positions[-1] - positions[0]
        assert all(len(d) == len(widths) for _, _, _, d in digits)
        gap_widths = [0] * len(widths)
        for g, w in zip(group.tolist(), np.diff(positions).tolist()):
            gap_widths[g] += w
        assert gap_widths == widths
        assert product_integral(entries) == on_python_ints(product_integral, entries)
        terms = [(F(1, 2), fn, c, r) for fn, c, r in entries]
        assert linear_combination(terms) == on_python_ints(linear_combination, terms)

    @given(
        fns=st.lists(step_strategy(), min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernels_match_sweep(self, fns, data):
        place = st.tuples(
            st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 4])),
            st.builds(F, st.integers(1, 8), st.sampled_from([1, 2, 3])),
            st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2])),
        )
        placed = [(fn, *data.draw(place)) for fn in fns]
        entries = [(fn, c, r) for fn, c, r, _ in placed]
        terms = [(w, fn, c, r) for fn, c, r, w in placed]
        p = data.draw(st.integers(1, 3))
        assert product_integral(entries) == on_python_ints(product_integral, entries)
        assert power_integral(terms, p) == on_python_ints(power_integral, terms, p)
        assert linear_combination(terms) == on_python_ints(linear_combination, terms)


@st.composite
def _sparse_factor(draw):
    """(f, c, r): a step function with several support runs, its units past
    int64 in some draws, and a random affine map."""
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    units = list(itertools.accumulate(gaps, initial=draw(st.integers(-20, 20))))
    # zero values part the support into runs; scale/den keeps x near units
    vals = draw(st.lists(st.sampled_from([0, 0, 1, -2, 3]), min_size=n, max_size=n))
    scale, den = draw(st.sampled_from([(1, 1), (1, 2), (3, 4), (1 << 65, (1 << 65) + 1)]))
    f = StepFunction([u * scale for u in units], den, vals, draw(st.sampled_from([1, 3])))
    c = draw(st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])))
    r = draw(st.builds(F, st.integers(1, 6), st.sampled_from([1, 2, 3])))
    return f, c, r


def _runs(lo_hi_vals):
    """A step function from (left, right, value) cells."""
    return from_cells([(F(a), F(b), F(v)) for a, b, v in lo_hi_vals])


def batched(entries, batch_cells):
    """``product_integral(entries)`` merging batches of about batch_cells
    factor cells."""
    with mock.patch.object(sf, "_BATCH_CELLS", batch_cells):
        return product_integral(entries)


class TestSupportClipping:
    """``product_integral`` clips its factors to their common support and
    merges it in batches of windows."""

    @given(entries=st.lists(_sparse_factor(), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_gap_oracle(self, entries):
        want = per_gap_oracle(product_integral, entries)
        assert product_integral(entries) == want
        assert on_python_ints(product_integral, entries) == want
        # a batch per window, and batches that cut between windows sharing a cell
        assert batched(entries, 1) == batched(entries, 3) == want

    @pytest.mark.parametrize(
        "cells, merges",
        [
            # disjoint supports
            ([[(0, 1, 1), (2, 3, -1)], [(5, 6, 2)]], False),
            # runs that interleave and touch only at endpoints
            ([[(0, 1, 1), (2, 3, -1)], [(1, 2, 3), (3, 4, 5)]], False),
            # three supports that meet pairwise but not all at once
            ([[(0, 2, 1)], [(1, 3, 2)], [(2, 4, 3)]], False),
            # one support nested in a gap of the other
            ([[(0, 2, 1), (8, 10, 2)], [(3, 7, 5)]], False),
            # nested in one long cell: the cell is shared by two windows
            ([[(0, 10, 7)], [(1, 2, 1), (3, 4, -1)]], True),
            # windows in far cells: the cells between become one zero cell
            ([[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)], [(F(1, 4), F(1, 2), 3), (F(13, 4), F(7, 2), 5)]], True),
            # equal supports: nothing is clipped
            ([[(0, 1, 2), (1, 3, -1)], [(0, 2, 1), (2, 3, 4)]], True),
            # one long cell shared by three windows of 2, 2 and 3 cells:
            # batches of 3 cells take the first two and cut before the third
            ([[(0, 10, 7), (11, 12, 2)], [(1, 2, 1), (3, 4, -1), (F(9, 2), 6, 3), (6, 11, 2)]], True),
        ],
    )
    def test_support_layouts(self, cells, merges):
        entries = [(_runs(c), 0, 1) for c in cells]
        with mock.patch.object(sf, "_merge", wraps=sf._merge) as spy:
            got = product_integral(entries)
        assert spy.called == merges
        assert got == per_gap_oracle(product_integral, entries)
        assert got == on_python_ints(product_integral, entries)
        assert got == unclipped_product_integral(entries)
        assert batched(entries, 1) == batched(entries, 3) == got
        if not merges:
            assert got == 0

    def test_far_windows_merge_apart_on_the_vectorised_path(self):
        # windows 2^26 grid units apart: one merge of both would span past
        # the limbs and take Python ints, so each window is its own batch
        far = 1 << 26
        f = _runs([(0, 2, 3), (far, far + 2, -1), (2 * far, 2 * far + 1, 2)])
        g = _runs([(1, 3, 5), (far + 1, far + 3, 7), (2 * far, 2 * far + 1, 1)])
        entries = [(f, 0, 1), (g, F(1, 2), 1)]
        with python_int_merges() as taken:
            with mock.patch.object(sf, "_merge", wraps=sf._merge) as merge:
                got = product_integral(entries)
        assert merge.call_count == len(taken) == 3 and not any(taken)
        assert got == per_gap_oracle(product_integral, entries) == F(3 * 5 - 1 * 7 + 2 * 1, 2)

    def test_memory_does_not_grow_with_the_common_support(self):
        # two factor pairs of 300k and 1.2M cells whose runs of 1000 cells
        # overlap in a window each: the batches bound the traced peak, so it
        # grows by at most a quarter from the small pair to the large one
        def runs_of(n_cells, seed):
            steps = np.random.default_rng(seed).integers(1, 3, size=n_cells)
            cls = np.cumsum(steps) % 3 + 1  # no two neighbours equal
            cls[1000::1000] = 0
            return StepFunction.from_classes(np.arange(n_cells + 1), 1, (0, -2, 1, 5), cls, 1)

        peaks = []
        for n_cells in (150_000, 600_000):
            f, g = runs_of(n_cells, 1), runs_of(n_cells, 2)
            assert f.n_cells + g.n_cells == 2 * n_cells
            f._run_bounds, g._run_bounds  # cached per function, as in production
            entries = [(f, 0, 1), (g, F(1, 2), 1)]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                got = product_integral(entries)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert got == batched(entries, 1 << 40)  # one batch: the whole overlap
        assert peaks[1] <= 1.25 * peaks[0]

    def test_clipped_factor_keeps_only_cells_meeting_windows(self):
        f = _runs([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)])
        g = _runs([(F(1, 4), F(1, 2), 3), (F(13, 4), F(7, 2), 5)])
        _, prepared = sf._prepare_factors([(f, 0, 1), (g, 0, 1)])
        windows = sf._common_support(prepared)
        C, G, fn = prepared[0]
        clipped = sf._clip(fn, *sf._window_cells(C, G, fn, windows))
        assert breakpoints(clipped) == (0, 1, 3, 4)
        assert clipped.values == (1, 0, 4)
        assert product_integral([(f, 0, 1), (g, 0, 1)]) == F(3, 4) + 5


@st.composite
def _repeated_terms(draw):
    """(weight, fn, c, r) terms that repeat (fn, c, r) triples: each triple
    comes with 1-5 weights, some of which sum to exactly 0, in shuffled
    order."""
    fns = draw(st.lists(step_strategy(4), min_size=1, max_size=3))
    place = st.tuples(
        st.integers(0, len(fns) - 1),
        small_fraction(-6, 6),
        st.builds(F, st.integers(1, 4), st.sampled_from([1, 2, 3])),
    )
    terms = []
    for i, c, r in draw(st.lists(place, min_size=1, max_size=4)):
        weights = draw(st.lists(small_fraction(-3, 3), min_size=1, max_size=4))
        if draw(st.booleans()):
            weights.append(-sum(weights))
        terms += [(w, fns[i], c, r) for w in weights]
    return draw(st.permutations(terms))


def _zero_mean(terms, shift):
    """The terms and their negatives moved by shift: the sum integrates to
    0, so its antiderivative vanishes at both ends."""
    return terms + [(-w, fn, c + shift, r) for w, fn, c, r in terms]


class TestEqualTerms:
    """The sums add up equal terms before the merge, and one factor skips it."""

    @given(terms=_repeated_terms(), shift=small_fraction(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_sums_match_uncollapsed_oracle(self, terms, shift):
        anti_terms = _zero_mean(terms, shift)
        anti_want = per_gap_oracle(antiderivative, anti_terms)
        for p in (1, 2, 3, 4):
            want = per_gap_oracle(power_integral, terms, p)
            assert power_integral(terms, p) == want
            assert on_python_ints(power_integral, terms, p) == want
        want = per_gap_oracle(linear_combination, terms)
        assert linear_combination(terms) == want
        assert on_python_ints(linear_combination, terms) == want
        for forced in (False, True):
            with python_ints() if forced else contextlib.nullcontext():
                got = antiderivative(anti_terms)
            for p in (1, 2, 3, 4):
                assert got.lp_power(p) == anti_want.lp_power(p)

    def test_equal_terms_become_one_factor(self):
        f = StepFunction.from_breakpoints([0, 1, 3, 4], [2, -1, 3])
        terms = [(F(1, 3), f, F(1, 2), F(3, 2))] * 5 + [(F(-1, 2), f, F(1, 2), F(3, 2))]
        D, VW, prepared, mults = sf._prepare_weighted(terms)
        assert [fn for _, _, fn in prepared] == [f] and mults == [F(7, 6) * VW / f.val_den]
        with no_merge():
            got = linear_combination(terms)
            assert got == affine_image(f, F(1, 2), F(3, 2), F(7, 6))
            for p in (1, 2, 3):
                assert power_integral(terms, p) == got.lp_power(p) == per_gap_oracle(power_integral, terms, p)

    def test_self_difference_needs_no_merge(self):
        f = StepFunction.from_breakpoints([0, 1, 3, 4], [2, -1, 3])
        with no_merge():
            assert linear_combination([(1, f, 0, 1), (-1, f, 0, 1)]) == StepFunction.zero()
            assert linear_combination([(F(2, 3), f, 1, 2), (F(-2, 3), f, 1, 2)]) == StepFunction.zero()
            assert power_integral([(1, f, 0, 1), (-1, f, 0, 1)], 2) == 0
            zero = antiderivative([(1, f, 0, 1), (-1, f, 0, 1)])
            assert (zero.units, zero.val_nums, zero.den, zero.val_den) == ((0, 1), (0, 0), 1, 1)
        # a dilation r <= 0 is refused even when its weights cancel
        with pytest.raises(DomainError):
            power_integral([(1, f, 0, -1), (-1, f, 0, -1)], 2)

    def test_full_tie_of_distinct_objects(self):
        # the only full tie left: two function objects under one (c, r), so
        # every transformed breakpoint of one equals one of the other
        f = StepFunction.from_breakpoints([0, 1, 2, 4], [2, -1, 3])
        twin = StepFunction(f.units, f.den, f.val_nums, f.val_den)
        other = StepFunction.from_breakpoints([0, 1, 2, 4], [1, 5, -2])
        for second in (twin, other):
            assert second is not f
            c, r = F(1, 2), F(3, 2)
            terms = [(F(2, 3), f, c, r), (F(-1, 2), second, c, r)]
            assert len(sf._prepare_weighted(terms)[2]) == 2
            assert in_limbs([(f, c, r), (second, c, r)])
            anti_terms = _zero_mean(terms, F(5, 2))
            anti_want = per_gap_oracle(antiderivative, anti_terms)
            with mock.patch.object(sf, "_merged_order", wraps=sf._merged_order) as spy:
                for p in (1, 2, 3):
                    assert power_integral(terms, p) == per_gap_oracle(power_integral, terms, p)
                    assert antiderivative(anti_terms).lp_power(p) == anti_want.lp_power(p)
                assert linear_combination(terms) == per_gap_oracle(linear_combination, terms)
            assert spy.called
            for p in (1, 2, 3):
                on_python_ints(power_integral, terms, p)
            on_python_ints(linear_combination, terms)
            on_python_ints(product_integral, [(f, c, r), (second, c, r)])
            with python_ints():
                got = antiderivative(anti_terms)
            for p in (1, 2, 3):
                assert got.lp_power(p) == anti_want.lp_power(p)

    def test_sweep_on_one_factor_matches_no_merge_path(self):
        M = 1 << 24
        f = StepFunction([M, M + 1, 2 * M - 1, 2 * M, 2 * M + 3], M, [1, 0, 3, -2], 1)
        far = affine_image(f, 1 << 40, 1)  # units near 2^64
        assert far._u.dtype == object
        cases = [(f, F(1, 3), F(3, 2)), (f, 1 << 50, 1), (f, -(1 << 45), F(1, 5)), (far, 0, 1), (far, -(1 << 40), 1)]
        # positions on either side of the int64 path's bounds, +-2^62
        cases += [(f, c, 1) for c in ((1 << 38) - 4, 1 << 38, -(1 << 38) - 1, -(1 << 38) - 2)]
        for fn, c, r in cases:
            _, prepared = sf._prepare_factors([(fn, c, r)])
            with no_merge():
                widths, digits, cells = sf._merge(prepared, [1])
                positions, group = cells()
            assert [(f, m, base) for f, m, base, _ in digits] == [(fn, 1, 0)]
            assert digits[0][3].tolist() == list(range(len(fn.levels)))
            gaps = list(_per_gap_sweep(prepared, [1]))
            gap_classes = [fn.levels.index(vals[0]) for _, _, vals in gaps]
            swept_widths = [0] * len(fn.levels)
            for (start, end, _), cls in zip(gaps, gap_classes):
                swept_widths[cls] += end - start
            assert swept_widths == widths == [prepared[0][1] * w for w in fn._class_widths()]
            assert positions.tolist() == [start for start, _, _ in gaps] + [gaps[-1][1]]
            assert group.tolist() == gap_classes == fn._cls.tolist()
            term = [(1, fn, c, r)]
            assert linear_combination(term) == per_gap_oracle(linear_combination, term)
            assert product_integral([(fn, c, r)]) == F(r) * integral(fn)


def _grouped_case(name, z8_set):
    """(weight, fn, c, r) terms for one case of ``TestGroupedDigits``."""
    sig, dens = z8_set.sigma(1), density(z8_set, 1)
    rnd = random.Random(name)

    def place(n, r_dens=(1, 2, 3)):
        # distinct (c, r) pairs, so no two terms are summed into one
        pairs = {(F(rnd.randint(-40, 40), 64), F(rnd.randint(2, 6), rnd.choice(r_dens))) for _ in range(3 * n)}
        return sorted(pairs)[:n]

    def many_levels(n_levels):
        values = [v * rnd.choice([-1, 1]) for v in rnd.sample(range(1, 60), n_levels - 1)]
        return StepFunction(sorted(rnd.sample(range(40), 2 * n_levels)), 3, [values[i % len(values)] for i in range(2 * n_levels - 1)], 1)

    if name in ("sigma x16", "sigma x40"):
        return [(F(1, 32), sig, c, r) for c, r in place(int(name[-2:]))]
    if name == "two functions x two weights":
        return [
            (w, fn, c, r)
            for fn, n in ((sig, 6), (dens, 5))
            for w in (F(1, 3), F(-5, 2))
            for c, r in place(n)
        ]
    if name == "pair of four classes":
        f = many_levels(4)
        return [(F(1, 30), f, c, r) for c, r in place(2)] + [(1, sig, c, r) for c, r in place(3)]
    if name == "density x10":
        return [(F(-3, 4), dens, c, r) for c, r in place(10)]
    if name == "coinciding breakpoints":
        # sigma_1 breaks on multiples of 1/512, so shifts by j/512 at r = 1
        # put most breakpoints of one copy on another's
        return [(F(1, 8), sig, F(j, 512), 1) for j in range(8)] + [(F(1, 8), sig, F(3, 512), 2)]
    assert name == "radix past 2^62"
    f = many_levels(13)
    return [(F(1, 5), f, c, r) for c, r in place(40, (1, 2))]


class TestGroupedDigits:
    """Terms that are one function object with one multiplier key their
    gaps by the members per class; every kernel stays == the per-gap
    oracle on both encodings."""

    # (case, digit bases of the sums' merge, key dtype, whether the sum
    # changes sign); one weight on one nonnegative density cannot
    CASES = [
        ("sigma x16", [17], np.int64, True),
        ("sigma x40", [41], np.int64, True),
        ("two functions x two weights", [7, 7, 6, 6], np.int64, True),
        ("pair of four classes", [0, 0, 4], np.int64, True),
        ("density x10", [11], np.int64, False),
        ("coinciding breakpoints", [10], np.int64, True),
        ("radix past 2^62", [41], object, True),
    ]

    @pytest.mark.parametrize("name, bases, dtype, signs", CASES, ids=[c[0] for c in CASES])
    def test_kernels_match_oracle(self, z8_set, name, bases, dtype, signs):
        terms = _grouped_case(name, z8_set)
        with gap_key_records() as records:
            combined = linear_combination(terms)
        [record] = records
        assert (record.bases, record.dtype) == (bases, dtype)
        assert record.radix <= record.class_product
        if name == "sigma x40":
            # one class digit per copy would take 3^40 > 2^62: Python ints
            assert record.radix == 40 * 41 + 1 and record.class_product > sf._KEY_MAX
        if name == "radix past 2^62":
            assert sf._KEY_MAX < record.radix == 40 * 41**11 + 1 < record.class_product
        assert combined == on_python_ints(linear_combination, terms)
        for p in (1, 2, 3):
            want = on_python_ints(power_integral, terms, p)
            assert power_integral(terms, p) == want
        assert (min(combined.levels) < 0 < max(combined.levels)) == signs
        anti_terms = _zero_mean(terms, F(1, 3))
        want = per_gap_oracle(antiderivative, anti_terms)
        for encoding in (contextlib.nullcontext(), python_ints()):
            with encoding:
                got = antiderivative(anti_terms)
            assert (got.nodes, got.values) == (want.nodes, want.values)
        # products pass multiplier 1, so the copies of one function group
        entries = [(fn, c, r) for _, fn, c, r in terms]
        want = per_gap_oracle(product_integral, entries)
        assert product_integral(entries) == on_python_ints(product_integral, entries) == want
        with gap_key_records() as records:
            assert unclipped_product_integral(entries) == want
        assert all(r.radix <= r.class_product for r in records)
        with python_ints():
            assert unclipped_product_integral(entries) == want

    def test_products_of_overlapping_copies(self):
        # copies whose supports overlap: nonzero products, read from counts
        f = StepFunction.from_breakpoints([0, 1, 2, 3, 5], [2, -3, 1, 4])
        entries = [(f, F(j, 4), 1) for j in range(6)] + [(f, F(1, 8), F(5, 4))]
        want = per_gap_oracle(product_integral, entries)
        with gap_key_records() as records:
            got = unclipped_product_integral(entries)
        assert got == want != 0
        assert [r.bases for r in records] == [[8]]
        assert product_integral(entries) == on_python_ints(product_integral, entries) == want


class TestArrayNormalizer:
    def test_matches_loop_on_random_gaps(self):
        rnd = random.Random(41)
        for trial in range(300):
            den = rnd.choice([1, 2, 6, 12, 1 << 70])
            vden = rnd.choice([1, 3, 4, 10**25])
            scale = rnd.choice([1, 2, 6])
            gaps, pos = [], rnd.randint(-50, 50) * scale
            for _ in range(rnd.randint(0, 12)):
                if rnd.random() < 0.3:
                    pos += rnd.randint(1, 4) * scale  # a hole
                end = pos + rnd.randint(1, 5) * scale
                value = rnd.choice([0, 0, 2, 2, -4, 6]) * rnd.choice([1, 3, 1 << 66])
                gaps.append((pos, end, value))
                pos = end
            want = loop_from_gaps(gaps, den, vden)
            units, nums = [], []
            for start, end, value in gaps:
                if not units:
                    units.append(start)
                elif start > units[-1]:
                    nums.append(0)
                    units.append(start)
                nums.append(value)
                units.append(end)
            got = StepFunction(np.array(units, dtype=object), den, np.array(nums, dtype=object), vden)
            assert (list(got.units), got.den, list(got.val_nums), got.val_den) == tuple(want)
            # one class per cell: repeated and zero levels merge in the normalizer
            u, d, levels, classes, vd = sf._normalize(units, den, nums, np.arange(len(nums)), vden)
            assert (u.tolist(), d, [levels[c] for c in classes.tolist()], vd) == tuple(want)

    def test_rejects_unsorted_units(self):
        with pytest.raises(DomainError):
            StepFunction(np.array([0, 2, 2]), 1, np.array([1, 2]), 1)

    @staticmethod
    def matches_loop(units, den, levels, classes, vden):
        """``_normalize`` on lists and on int64 arrays == ``loop_normalize``
        on the per-cell values; the levels are 0, then the used nonzero ones
        ascending."""
        want = loop_normalize(units, den, [levels[c] for c in classes], vden)
        for u_in, c_in in ((units, classes), (np.array(units), np.array(classes))):
            u, d, lv, c, vd = sf._normalize(u_in, den, levels, c_in, vden)
            assert (u.tolist(), d, [lv[i] for i in c.tolist()], vd) == tuple(want)
            assert list(lv) == [0, *sorted(set(want[2]) - {0})]

    @pytest.mark.parametrize(
        "units, den, levels, classes, vden",
        [
            # unsorted and repeated levels; two zero classes side by side
            ([0, 1, 2, 3, 4, 5, 6], 1, (5, 0, -3, 5, 0), [0, 2, 3, 1, 4, 2], 1),
            ([0, 1, 2, 3], 1, (0, 5, 0, 5), [1, 3, 1], 5),
            # a zero cell at only one end: the first, then the last
            ([0, 2, 4, 6], 2, (0, 3, -1), [0, 1, 2], 1),
            ([0, 2, 4, 6], 2, (0, 3, -1), [1, 2, 0], 1),
            ([0, 2, 4, 6, 9], 4, (0, 3, -1), [1, 2, 1, 0], 1),
            # no equal neighbours, without and with trimming
            ([1, 2, 4, 7, 8], 1, (0, 6, -4), [1, 2, 1, 2], 2),
            ([1, 2, 4, 7, 8], 1, (0, 6, -4), [0, 1, 2, 0], 2),
            # the renumbering is the identity on the used classes only; and
            # levels in np.unique's order, which puts a negative before 0
            ([1, 2, 4, 7], 1, (0, -4, 6, 9), [1, 2, 1], 2),
            ([0, 1, 2, 3], 1, (-4, 0, 6), [0, 2, 0], 1),
            # a zero level that only the trimmed end cells use, and a level
            # that no cell uses
            ([0, 1, 3, 4, 6, 7], 1, (0, 3, 9, 0), [3, 1, 0, 1, 3], 3),
            # one cell, and zero everywhere
            ([5, 8], 3, (0, -7), [1], 7),
            ([0, 1, 2], 1, (0, 0), [1, 0], 1),
        ],
    )
    def test_skipped_passes_match_loop(self, units, den, levels, classes, vden):
        self.matches_loop(units, den, levels, classes, vden)

    @pytest.mark.parametrize("broken", [False, True])
    def test_units_gcd_past_the_prefix(self, broken):
        # every unit a multiple of 4, so the prefix's gcd with den is 4: a
        # unit past the prefix breaks it, or none does
        units = [4 * i for i in range(sf._GCD_PREFIX + 4)]
        if broken:
            units[sf._GCD_PREFIX + 2] += 1
        classes = [1 + i % 2 for i in range(len(units) - 1)]
        self.matches_loop(units, 8, (0, 3, -6), classes, 3)
        assert StepFunction.from_classes(units, 8, (0, 3, -6), classes, 3).den == (8 if broken else 2)


class TestNoAliasing:
    """A normalized function shares no writable array with its caller: the
    skip paths keep the caller's own array frozen, and copy a view."""

    @pytest.mark.parametrize(
        "units, classes",
        [
            # canonical as given: every pass is skipped
            (np.array([0, 1, 3, 4]), np.array([1, 2, 1])),
            # zero end cells: the kept arrays are views of the given ones
            (np.array([0, 1, 3, 4, 6]), np.array([0, 1, 2, 0])),
            # views of larger writable arrays
            (np.arange(-2, 10)[2:6], np.array([7, 1, 2, 1, 7])[1:4]),
        ],
    )
    def test_changing_the_inputs_leaves_the_function(self, units, classes):
        levels = (0, -2, 5)
        fresh = StepFunction.from_classes(units.tolist(), 1, levels, classes.tolist(), 1)
        fn = StepFunction.from_classes(units, 1, levels, classes, 1)
        assert fn == fresh
        assert not fn._u.flags.writeable and not fn._cls.flags.writeable
        for given in (units, classes, units.base, classes.base):
            if given is None:
                continue
            if given.flags.writeable:
                given[:] = 1 - given
            else:
                with pytest.raises(ValueError):
                    given[:] = 1 - given
        assert fn == fresh and fn.abs() == fresh.abs()


@st.composite
def _run_parts(draw):
    """1-4 parts of runs [start, end), starts and ends alternating, on a grid
    of 13 points, so that positions repeat across parts and a start can
    equal another part's end; moved past 2^63 as object arrays or not."""
    shift = draw(st.sampled_from([0, 0, 1 << 64, -(1 << 70)]))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        n_runs = draw(st.integers(1, 3))
        bounds = sorted(draw(st.lists(st.integers(0, 12), min_size=2 * n_runs, max_size=2 * n_runs, unique=True)))
        parts.append(np.array([b + shift for b in bounds], dtype=object if shift else np.int64))
    return parts


@given(parts=_run_parts())
@settings(max_examples=300, deadline=None)
def test_run_coverage_matches_reference(parts):
    given_parts = [p.copy() for p in parts]
    ends, counts = sf.run_coverage(parts)
    want_ends, want_counts = reference_run_coverage(parts)
    assert ends.dtype == want_ends.dtype and ends.tolist() == want_ends.tolist()
    assert counts.tolist() == want_counts.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(parts, given_parts))


_BIG = 1 << 70


@st.composite
def _per_cell_forms(draw):
    """(units, den, val_nums, val_den) with repeated values, so equal
    neighbours, zero end cells, negatives, and units, widths and values past
    int64 all occur."""
    n = draw(st.integers(0, 8))
    pool = draw(st.lists(st.sampled_from([0, 1, -1, 2, -6, 3, _BIG, -_BIG]), min_size=1, max_size=4))
    vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    widths = draw(st.lists(st.sampled_from([1, 2, 3, 6, 1 << 64]), min_size=n, max_size=n))
    units = [draw(st.sampled_from([0, -7, _BIG, -(1 << 66)]))] if n else []
    for w in widths:
        units.append(units[-1] + w)
    return units, draw(st.sampled_from([1, 2, 6, _BIG])), vals, draw(st.sampled_from([1, 3, 4, 10**25]))


def _expanded(terms):
    """linear_combination's cells expanded to one value per cell and
    normalized by the public per-cell constructor."""
    cells = sf._combination_cells(terms)
    if cells is None:
        return StepFunction.zero()
    positions, group, value, D, VW = cells
    return StepFunction(positions, D, [value[g] for g in group.tolist()], VW)


class TestDictionaryEncoding:
    @given(form=_per_cell_forms(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_cell_form(self, form, data):
        units, den, vals, vden = form
        f = StepFunction(units, den, vals, vden)
        want = loop_normalize(units, den, vals, vden)
        assert (list(f.units), f.den, list(f.val_nums), f.val_den) == tuple(want)
        assert f.levels[0] == 0 and list(f.levels[1:]) == sorted(set(want[2]) - {0})
        # the same function from shuffled, repeated and unused levels, from
        # object arrays and from its own canonical tuples
        levels = data.draw(st.permutations(sorted(set(vals)) * 2 + [5]))
        classes = [data.draw(st.sampled_from([i for i, v in enumerate(levels) if v == x])) for x in vals]
        for g in (
            StepFunction.from_classes(units, den, levels, classes, vden),
            StepFunction(np.array(units, dtype=object), den, np.array(vals, dtype=object), vden),
            StepFunction(f.units, f.den, f.val_nums, f.val_den),
        ):
            assert g == f and hash(g) == hash(f)
            assert (g.units, g.val_nums) == (f.units, f.val_nums)
        for p in (1, 2, 3, 4):
            assert f.lp_power(p) == lp_power_oracle(f, p)
            # v and -v fall into one class of |f|
            assert f.abs().lp_power(p) == lp_power_oracle(f, p)
        assert f.abs() == StepFunction(units, den, [abs(v) for v in vals], vden)
        terms = [(data.draw(small_fraction()), f, data.draw(small_fraction()), data.draw(st.integers(1, 3)))]
        if data.draw(st.booleans()):
            terms.append((data.draw(small_fraction()), f.abs(), F(1, 2), F(3, 2)))
        assert linear_combination(terms) == _expanded(terms)
        # forced Python-int encoding
        with python_ints():
            got = linear_combination(terms)
            assert got == _expanded(terms) == per_gap_oracle(linear_combination, terms)

    def test_units_stored_as_int64_once_they_fit(self):
        # past int64 until the gcd is divided out, or until a zero end cell goes
        for f, units in (
            (StepFunction([1 << 70, (1 << 70) + (1 << 64)], 1 << 70, [3], 1), [64, 65]),
            (StepFunction([-(1 << 66), 0, 1], 1, [0, 5], 1), [0, 1]),
        ):
            g = StepFunction(units, f.den, f.val_nums, f.val_den)
            assert f._u.dtype == np.int64 and list(f.units) == units
            assert f == g and hash(f) == hash(g)

    def test_lp_power_of_int64_units_spanning_past_2_63(self):
        a, w = -(1 << 62) - 3, 1 << 62
        wide_cell = StepFunction([a, a + 2 * w + 8, a + 2 * w + 9], 1, [1, -2], 1)
        wide_class = StepFunction([a, a + w, a + w + 1, a + 2 * w + 1], 1, [1, -2, 1], 1)
        for f in (wide_cell, wide_class):
            assert f._u.dtype == np.int64 and f._span() > 1 << 63
            for p in (1, 2, 3):
                assert f.lp_power(p) == lp_power_oracle(f, p)

    def test_hot_paths_build_no_tuple_views(self, z16_set, z8_set, monkeypatch):
        """verify and a materialised adjoint read only the stored arrays: no
        StepFunction they build materialises its ``units``/``val_nums``."""
        from cantormax import CantorSet, DiscretizationGrid, verify_set
        from cantormax.maxops import phi_star, phi_star_norm_power, uniform_assignment

        built = []
        store = StepFunction._store

        def recording_store(fn, *args):
            store(fn, *args)
            built.append(fn)

        monkeypatch.setattr(StepFunction, "_store", recording_store)
        assert verify_set(CantorSet.from_json(z16_set.to_json_bytes()), gate_c_budget=6)[0]
        cset = CantorSet.from_json(z8_set.to_json_bytes())
        grid = DiscretizationGrid.for_level(cset.params, 2)
        rng = np.random.default_rng(83)
        pairs = [
            (grid.c_value(int(c)), grid.r_value(int(r)))
            for c, r in zip(rng.integers(1, grid.n_c + 1, 32), rng.integers(1, grid.n_r + 1, 32))
        ]
        assign = uniform_assignment(cset, 2, 32, pairs.__getitem__)
        omega = list(range(0, 32, 2))
        assert phi_star(omega, cset, 2, assign).lp_power(2) == phi_star_norm_power(omega, cset, 2, assign, 2)
        assert sum(fn.n_cells for fn in built) > 500_000
        assert [fn for fn in built if {"units", "val_nums"} & vars(fn).keys()] == []


class TestPiecewiseLinear:
    def test_value_interpolation(self):
        h = PiecewiseLinear.from_nodes([0, 2], [0, 4])
        assert h.value_at(F(1, 2)) == 1
        assert h.value_at(-5) == 0
        assert h.value_at(7) == 4

    def test_mass_exact_trapezoid(self):
        h = PiecewiseLinear.from_nodes([0, 2], [0, 4])
        assert linear_mass_between(h, 0, 2) == 4
        assert linear_mass_between(h, 0, 1) == 1
        assert linear_mass_between(h, -1, 0) == 0

    def test_lipschitz_constant(self):
        h = PiecewiseLinear.from_nodes([-4, -2, 0], [0, 1, 0])
        assert h.lipschitz_constant() == F(1, 2)

    def test_from_nodes_round_trip(self):
        nodes, values = [F(-7, 3), F(1, 6), F(5, 4)], [F(2, 9), F(-3), F(0)]
        h = PiecewiseLinear.from_nodes(nodes, values)
        assert (h.nodes, h.values) == (tuple(nodes), tuple(values))
        assert (h.units, h.den, h.val_nums, h.val_den) == ((-28, 2, 15), 12, (2, -27, 0), 9)
        # the integer form is kept as given, not normalized
        assert PiecewiseLinear((0, 2, 4), 2, (0, 6, 0), 3).values == (0, 2, 0)

    def test_invalid_forms_and_powers(self):
        for args in [((0, 0, 1), 1, (0, 1, 0), 1), ((0, 2, 1), 1, (0, 1, 0), 1), ((0, 1), 0, (0, 0), 1),
                     ((0, 1), 1, (0,), 1), ((0,), 1, (0,), 1)]:
            with pytest.raises(DomainError):
                PiecewiseLinear(*args)
        with pytest.raises(DomainError):
            PiecewiseLinear.from_nodes([0, 1, 1], [0, 1, 0])
        h = PiecewiseLinear.from_nodes([0, 1, 2], [0, 1, 0])
        assert h.lp_power(1) == 1 and h.lp_power(2) == F(2, 3)
        for p in (0, -1, F(3, 2)):
            with pytest.raises(DomainError):
                h.lp_power(p)
        # a nonzero end value is a nonzero constant tail: the integral diverges
        for values in ([1, 1, 0], [0, 1, F(-1, 2)]):
            with pytest.raises(DomainError):
                PiecewiseLinear.from_nodes([0, 1, 2], values).lp_power(2)


    def test_lp_power_wide_units(self):
        # units inside int64 whose span is not: the widths are taken in Python ints
        lo, hi = -(2**62) - 5, 2**62 + 7
        h = PiecewiseLinear((lo, 0, hi), 3, (0, 2, 0), 1)
        assert h.lp_power(1) == F(hi - lo, 3)
        assert h.lp_power(2) == F(4 * (hi - lo), 9)


def _lp_power_oracle(nodes, values, p):
    """Integral of |h|^p piece by piece in Fractions: a piece of width w on
    which |h| runs linearly from y0 to y1 gives w (y1^(p+1) - y0^(p+1)) /
    ((p+1)(y1 - y0)); for odd p a piece is first cut at its zero."""
    total = F(0)
    for x0, x1, y0, y1 in zip(nodes, nodes[1:], values, values[1:]):
        pieces = [(x0, x1, y0, y1)]
        if p % 2 and y0 * y1 < 0:
            z = x0 + (x1 - x0) * y0 / (y0 - y1)
            pieces = [(x0, z, y0, F(0)), (z, x1, F(0), y1)]
        for a, b, u, v in pieces:
            u, v = (abs(u), abs(v)) if p % 2 else (u, v)
            w = b - a
            total += w * u**p if u == v else w * (v ** (p + 1) - u ** (p + 1)) / ((p + 1) * (v - u))
    return total


@settings(max_examples=80, deadline=None)
@given(
    nodes=st.lists(st.fractions(-20, 20, max_denominator=30), min_size=2, max_size=9, unique=True),
    inner=st.lists(st.fractions(-6, 6, max_denominator=12), min_size=7, max_size=7),
)
def test_piecewise_linear_lp_power_matches_fraction_oracle(nodes, inner):
    nodes = sorted(nodes)
    values = [F(0), *inner[: len(nodes) - 2], F(0)]
    h = PiecewiseLinear.from_nodes(nodes, values)
    assert (h.nodes, h.values) == (tuple(nodes), tuple(values))
    for p in (1, 2, 3, 4):
        assert h.lp_power(p) == _lp_power_oracle(nodes, values, p)
    trapezoid = sum(((y0 + y1) / 2 * (x1 - x0) for x0, x1, y0, y1 in zip(nodes, nodes[1:], values, values[1:])), F(0))
    assert linear_mass_between(h, nodes[0] - 1, nodes[-1] + 1) == trapezoid
    assert [h.value_at(x) for x in nodes] == values


class TestAffineComposition:
    def test_composition_identity(self):
        # f((z-c1)/r1) re-imaged by (c2, r2) equals the single image by
        # (c2 + r2 c1, r2 r1)
        rnd = random.Random(29)
        for _ in range(20):
            f = random_step(rnd)
            c1, r1 = F(rnd.randint(-6, 6), 2), F(rnd.randint(1, 4), 2)
            c2, r2 = F(rnd.randint(-6, 6), 3), F(rnd.randint(1, 4), 3)
            twice = affine_image(affine_image(f, c1, r1), c2, r2)
            once = affine_image(f, c2 + r2 * c1, r2 * r1)
            assert twice == once
