"""Exact step-function algebra and the merge kernels."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cantormax.stepfn as sf
from cantormax.errors import DomainError
from cantormax.stepfn import (
    PiecewiseLinear,
    StepFunction,
    inner_product,
    linear_combination,
    power_integral,
    product_integral,
)

from conftest import per_gap_oracle, prefix_mass, random_step

F = Fraction


def swept(kernel, *args):
    """``kernel(*args)`` on the grouped heapq sweep, checked with == against
    the per-gap oracle, which shares no reduction code with the kernels."""
    with mock.patch.object(sf, "_merge_numpy", lambda prepared: None):
        got = kernel(*args)
    assert got == per_gap_oracle(kernel, *args)
    return got


def vectorised(entries) -> bool:
    """True when the limb merge accepts these (fn, c, r) factors."""
    return sf._merge_numpy(sf._prepare_factors(entries)[1]) is not None


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
        assert f.breakpoints == (F(0), F(2), F(3))

    def test_zero_cells_stripped_at_ends_only(self):
        f = StepFunction.from_breakpoints([0, 1, 2, 3, 4], [0, 5, 0, 7])
        assert f.support() == (F(1), F(4))
        assert f.values == (F(5), F(0), F(7))

    def test_from_cells_fills_gaps(self):
        f = StepFunction.from_cells([(0, 1, 2), (3, 4, 5)])
        assert f.value_at(F(2)) == 0
        assert f.integral() == 7

    def test_rejects_overlap_and_disorder(self):
        with pytest.raises(DomainError):
            StepFunction.from_cells([(0, 2, 1), (1, 3, 1)])
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
    assert f.integral() == prefix_mass(f, lo, hi)
    assert f.mass_between(a, b) == prefix_mass(f, a, b)
    if a < b:
        with pytest.raises(DomainError):
            f.mass_between(b, a)


class TestPointwiseAndMass:
    def test_side_limits_at_breakpoint(self):
        f = StepFunction.from_breakpoints([0, 1, 2], [3, 5])
        assert f.value_at(1, side="+") == 5
        assert f.value_at(1, side="-") == 3

    def test_mass_below_piecewise(self):
        f = StepFunction.from_breakpoints([0, 1, 2], [2, -1])
        assert f.mass_between(F(1, 2), F(3, 2)) == F(1, 2)

    def test_lp_power_and_norm(self):
        f = StepFunction.indicator(0, 1)
        assert f.lp_power(3) == 1
        assert f.lp_norm(F(7, 2)) == pytest.approx(1.0)


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

    def test_numpy_and_python_paths_agree(self, monkeypatch):
        import cantormax.stepfn as sf

        rnd = random.Random(7)
        cases = []
        for _ in range(40):
            fns = [random_step(rnd) for _ in range(rnd.choice([2, 3, 4]))]
            items = [
                (g, F(rnd.randint(-8, 8), rnd.choice([1, 2, 3])), F(rnd.randint(1, 5), 2))
                for g in fns
            ]
            cases.append((items, product_integral(items)))
        monkeypatch.setattr(sf, "_merge_numpy", lambda prepared: None)
        for items, want in cases:
            assert product_integral(items) == want == per_gap_oracle(product_integral, items)

    def test_power_paths_agree(self, monkeypatch):
        import cantormax.stepfn as sf

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
        monkeypatch.setattr(sf, "_merge_numpy", lambda prepared: None)
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
            assert comb.integral() == w1 * F(3, 2) * f.integral() + w2 * g.integral()

    @given(
        c=small_fraction(),
        r=st.builds(lambda n, d: F(n, d), st.integers(1, 6), st.sampled_from([1, 2, 3])),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_image_integral_scaling(self, c, r, data):
        seed = data.draw(st.integers(0, 10**6))
        f = random_step(random.Random(seed))
        assert f.affine_image(c, r).integral() == r * f.integral()

    def test_inner_product_symmetry(self):
        rnd = random.Random(17)
        f, g = random_step(rnd), random_step(rnd)
        assert inner_product(f, g) == inner_product(g, f)

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
                {c + r * b for f, c, r in items for b in f.breakpoints}
            )
            want = F(0)
            for lo, hi in zip(cuts, cuts[1:]):
                mid = (lo + hi) / 2
                prod = hi - lo
                for f, c, r in items:
                    prod *= f.value_at((mid - c) / r)
                want += prod
            assert product_integral(items) == want


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
        far = f.affine_image(1 << 40, 1)  # units near 2^64, span 2^24
        assert far.units[0] > 1 << 63
        cases.append([(far, -(1 << 40), 1), (f, F(1, 1 << 25), 1)])
        for entries in cases:
            assert vectorised(entries)
            assert product_integral(entries) == swept(product_integral, entries)
            terms = [(1, fn, c, r) for fn, c, r in entries]
            assert power_integral(terms, 2) == swept(power_integral, terms, 2)
            assert linear_combination(terms) == swept(linear_combination, terms)

    def test_ties_of_distinct_positions_above_2_53(self):
        # the exact positions sit near 2^63 (2^61 over the denominator 4),
        # where floats are 2048 apart, so distinct positions share float keys
        # and their order comes from the limbs
        base = F(1 << 61)
        assert float(2**63) == float(2**63 + 9)
        f = StepFunction.from_breakpoints([0, 1, 2, 3, 4], [1, -2, 3, 5])
        g = StepFunction.from_breakpoints([0, 2, 3, 5], [7, 1, -1])
        entries = [(f, base, 1), (g, base + F(1, 2), 1), (f, base + F(3, 4), 2)]
        assert vectorised(entries)
        assert product_integral(entries) == swept(product_integral, entries)
        # by hand on [1/2, 4]: (7 - 28 + 21 + 3 + 5 - 5) / 2
        assert product_integral(entries[:2]) == F(3, 2)
        terms = [(F(1, 3), fn, c, r) for fn, c, r in entries]
        assert power_integral(terms, 3) == swept(power_integral, terms, 3)
        assert linear_combination(terms) == swept(linear_combination, terms)

    def test_equal_positions_from_different_factors(self):
        f = StepFunction.from_breakpoints([0, 1, 2, 4], [2, -1, 3])
        g = StepFunction.from_breakpoints([1, 2, 3, 4], [5, 5, -2])
        h = f.scale(F(1 << 70, 3))  # class values past int64
        entries = [(f, 0, 1), (g, 0, 1), (h, 1, 1), (g, -1, 1)]
        assert vectorised(entries)
        assert product_integral(entries) == swept(product_integral, entries)
        terms = [(i - 1, fn, c, r) for i, (fn, c, r) in enumerate(entries)]
        for p in (1, 2):
            assert power_integral(terms, p) == swept(power_integral, terms, p)
        assert linear_combination(terms) == swept(linear_combination, terms)

    def test_negative_offsets_and_steps_near_the_bound(self):
        f = StepFunction.from_breakpoints([0, 1, 3, 4], [1, -2, 3])
        G = sf._G_MAX - 1
        r = F(G, 1 << 60)  # G = 2^61 - 1 over D = 2^60
        entries = [(f, -3, r), (f, F(-7, 2), F(G - 2, 1 << 60)), (f, F(-5, 2), F(3, 2))]
        _, prepared = sf._prepare_factors(entries)
        assert max(Gi for _, Gi, _ in prepared) == G
        assert all(C < 0 for C, _, _ in prepared)
        assert vectorised(entries)
        assert product_integral(entries) == swept(product_integral, entries)
        terms = [(F(2, 3), fn, c, r) for fn, c, r in entries]
        assert power_integral(terms, 2) == swept(power_integral, terms, 2)
        # one step past the bound selects the sweep
        past = [(f, -3, F(sf._G_MAX, 1 << 60)), entries[1]]
        assert not vectorised(past)
        assert product_integral(past) == swept(product_integral, past)

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
        assert vectorised([(fn, 0, 1) for _, _, fn in prepared])
        # 32 factors of about 13 classes overflow one int64 mixed radix, so
        # their gap keys are built in chunks
        radix = math.prod(len(fn._class_table()[0]) for _, _, fn in prepared)
        assert (radix > sf._KEY_MAX) == (n_terms == 32)
        combined = linear_combination(terms)
        assert combined == swept(linear_combination, terms)
        for p in (1, 2, 3):
            want = swept(power_integral, terms, p)
            assert power_integral(terms, p) == want
            assert combined.abs().lp_power(p) == want

    def test_sweep_groups_by_class_tuple(self):
        # two factors of 2000 cells with four values each, zero among them:
        # the grouped sweep keeps one width per class tuple, not one per gap
        rnd = random.Random(5)
        fns = [
            StepFunction(list(range(0, 4002, 2)), 3, [rnd.choice([-1, 0, 2, 5]) for _ in range(2000)], 1)
            for _ in range(2)
        ]
        entries = [(fns[0], 0, 1), (fns[1], F(1, 3), F(3, 2))]
        _, prepared = sf._prepare_factors(entries)
        with mock.patch.object(sf, "_merge_numpy", lambda prepared: None):
            widths, classes, cells = sf._merge(prepared)
            positions, group = cells()
        assert len(widths) <= 16 < len(group)
        assert sum(widths) == positions[-1] - positions[0]
        assert all(len(c) == len(widths) for c in classes)
        gap_widths = [0] * len(widths)
        for g, w in zip(group.tolist(), np.diff(positions).tolist()):
            gap_widths[g] += w
        assert gap_widths == widths
        assert product_integral(entries) == swept(product_integral, entries)
        terms = [(F(1, 2), fn, c, r) for fn, c, r in entries]
        assert linear_combination(terms) == swept(linear_combination, terms)

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
        assert product_integral(entries) == swept(product_integral, entries)
        assert power_integral(terms, p) == swept(power_integral, terms, p)
        assert linear_combination(terms) == swept(linear_combination, terms)


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
            assert sf._normalize(units, den, nums, vden) == tuple(want)

    def test_rejects_unsorted_units(self):
        with pytest.raises(DomainError):
            StepFunction(np.array([0, 2, 2]), 1, np.array([1, 2]), 1)


class TestPiecewiseLinear:
    def test_value_interpolation(self):
        h = PiecewiseLinear([0, 2], [0, 4])
        assert h.value_at(F(1, 2)) == 1
        assert h.value_at(-5) == 0
        assert h.value_at(7) == 4

    def test_mass_exact_trapezoid(self):
        h = PiecewiseLinear([0, 2], [0, 4])
        assert h.mass_between(0, 2) == 4
        assert h.mass_between(0, 1) == 1
        assert h.mass_between(-1, 0) == 0

    def test_lipschitz_constant(self):
        h = PiecewiseLinear([-4, -2, 0], [0, 1, 0])
        assert h.lipschitz_constant() == F(1, 2)


class TestAffineComposition:
    def test_composition_identity(self):
        # f((z-c1)/r1) re-imaged by (c2, r2) equals the single image by
        # (c2 + r2 c1, r2 r1)
        rnd = random.Random(29)
        for _ in range(20):
            f = random_step(rnd)
            c1, r1 = F(rnd.randint(-6, 6), 2), F(rnd.randint(1, 4), 2)
            c2, r2 = F(rnd.randint(-6, 6), 3), F(rnd.randint(1, 4), 3)
            twice = f.affine_image(c1, r1).affine_image(c2, r2)
            once = f.affine_image(c2 + r2 * c1, r2 * r1)
            assert twice == once
