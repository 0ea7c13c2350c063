"""Cantor iteration: indices, intervals, densities, measures, dimension."""

import random
from fractions import Fraction

import pytest

from cantormax import (
    alpha,
    build_deterministic,
    custom,
    dim_bounds,
    dimension_limit_symbolic,
    fixed_dimension,
    interval_of,
    one_dimensional,
)
from cantormax.core import CantorSet, index_of, offset_of
from cantormax.errors import (
    DegenerateMeasureError,
    InsufficientDepthError,
    InvalidIndexError,
    StructureError,
)

from conftest import FIXTURE_A_SELECTIONS, prefix_mass

F = Fraction


class TestAlphaAndIntervals:
    def test_all_ones_gives_left_end(self):
        params = custom([4, 2, 5], [F(1, 4)] * 3)
        assert alpha((1, 1), params) == 1

    def test_single_level_hand_value(self):
        assert alpha((3,), custom([4], [F(1, 4)])) == F(3, 2)

    def test_two_level_hand_value(self):
        assert alpha((2, 2), custom([4, 2], [F(1, 4), F(1, 4)])) == F(11, 8)

    def test_out_of_bounds_entry(self):
        with pytest.raises(InvalidIndexError):
            alpha((5,), custom([4], [F(1, 4)]))
        with pytest.raises(InvalidIndexError):
            alpha((0,), custom([4], [F(1, 4)]))

    def test_interval_endpoints(self):
        params = custom([4, 4], [F(1, 4)] * 2)
        assert interval_of((1,), params) == (F(1), F(5, 4))
        assert interval_of((4, 4), params) == (F(31, 16), F(2))

    def test_children_tile_parent(self):
        params = custom([4, 4], [F(1, 4)] * 2)
        lo, hi = interval_of((1,), params)
        pieces = [interval_of((1, j), params) for j in range(1, 5)]
        assert pieces[0][0] == lo and pieces[-1][1] == hi
        for (a, b), (c, d) in zip(pieces, pieces[1:]):
            assert b == c
        assert sum(b - a for a, b in pieces) == hi - lo

    def test_offset_index_roundtrip(self):
        params = custom([4, 6, 5], [F(1, 4)] * 3)
        for o in range(0, params.M(3), 7):
            assert offset_of(index_of(o, 3, params), params) == o


class TestBuildDeterministic:
    def test_fixture_counts(self, fixture_a):
        assert fixture_a.P(1) == 2
        assert fixture_a.P(2) == 4

    def test_nesting_violation_names_index(self, fixture_a_params):
        with pytest.raises(StructureError, match=r"\(3, 1\)"):
            build_deterministic([{(2,)}, {(3, 1)}], fixture_a_params)

    def test_empty_level_is_degenerate_but_valid(self, fixture_a_params):
        cset = build_deterministic([set(), set()], fixture_a_params)
        assert cset.degenerate
        assert cset.P(1) == 0
        with pytest.raises(DegenerateMeasureError):
            cset.density(1)

    def test_measure_nonincreasing(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            measures = [cset.level(k).measure for k in range(1, cset.depth + 1)]
            assert all(b <= a for a, b in zip(measures, measures[1:]))


class TestDensities:
    def test_density_values_fixture(self, fixture_a):
        phi1 = fixture_a.density(1)
        cells = [(l, r, v) for l, r, v in phi1.cells() if v != 0]
        assert cells == [(F(5, 4), F(3, 2), F(2)), (F(7, 4), F(2), F(2))]
        phi2 = fixture_a.density(2)
        assert set(v for _, _, v in phi2.cells() if v != 0) == {F(4)}

    def test_density_normalized_exactly(self, fixture_a, z8_set, toy88_set):
        for cset in (fixture_a, z8_set, toy88_set):
            for k in range(1, cset.depth + 1):
                assert cset.density(k).integral() == 1

    def test_sigma_zero_mean_and_values(self, fixture_a):
        sig = fixture_a.sigma(1)
        assert sig.integral() == 0
        assert set(sig.values) <= {F(-2), F(0), F(2)}

    def test_sigma_support_inside_parent(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            for k in range(1, cset.depth):
                sig = cset.sigma(k)
                ind = cset.density(k)
                # off S_k the parent density vanishes, so sigma must too
                lo, hi = sig.support()
                plo, phi_ = ind.support()
                assert plo <= lo and hi <= phi_
                for l, r, v in sig.cells():
                    if v != 0:
                        mid = (l + r) / 2
                        assert ind.value_at(mid) != 0

    def test_sigma_needs_next_level(self, fixture_a):
        with pytest.raises(InsufficientDepthError):
            fixture_a.sigma(2)


class TestMeasures:
    def test_unit_mass(self, fixture_a):
        assert fixture_a.nu_interval((1, 2)) == 1

    def test_single_selected_cell(self, fixture_a):
        assert fixture_a.nu_interval((F(5, 4), F(21, 16))) == F(1, 4)

    def test_disjoint_interval(self, fixture_a):
        assert fixture_a.nu_interval((F(33, 32), F(17, 16))) == 0

    def test_fractional_boundary_overlap(self, fixture_a):
        full = fixture_a.nu_interval((F(5, 4), F(21, 16)))
        half = fixture_a.nu_interval((F(5, 4), F(41, 32)))
        assert half == full / 2

    def test_additive_and_monotone(self, fixture_a):
        a = fixture_a.nu_interval((1, F(3, 2)))
        b = fixture_a.nu_interval((F(3, 2), 2))
        assert a + b == fixture_a.nu_interval((1, 2))
        assert a <= fixture_a.nu_interval((1, F(7, 4)))

    def test_matches_density_mass(self, z8_set):
        # the prefix-moment cut against the prefix-table phi_K mass
        rnd = random.Random(61)
        phi = z8_set.density(z8_set.depth)
        for _ in range(20):
            a, b = sorted(1 + F(rnd.randint(0, 10**6), 10**6) for _ in range(2))
            assert z8_set.nu_interval((a, b)) == prefix_mass(phi, a, b)

    def test_outside_domain_rejected(self, fixture_a):
        with pytest.raises(InvalidIndexError):
            fixture_a.nu_interval((0, 1))


class TestWeakStarDefect:
    def test_same_level_zero(self, fixture_a, z8_set):
        assert fixture_a.weak_star_defect(1, 1) == 0
        assert z8_set.weak_star_defect(2, 2) == 0

    def test_fixture_balanced_split(self, fixture_a):
        # each parent holds exactly half the level-2 mass
        assert fixture_a.weak_star_defect(1, 2) == 0

    def test_nonnegative(self, z8_set):
        for k in range(1, z8_set.depth + 1):
            for k2 in range(k, z8_set.depth + 1):
                assert z8_set.weak_star_defect(k, k2) >= 0

    def test_accepted_set_defect_under_formula_bound(self, z8_set):
        # 2B 2^(-k gamma/2) / (1 - 2^(-gamma/2)); wide at this depth but honest
        B, gamma = float(z8_set.params.B), float(z8_set.params.gamma)
        for k in range(1, z8_set.depth + 1):
            bound = 2 * B * 2 ** (-k * gamma / 2) / (1 - 2 ** (-gamma / 2))
            for k2 in range(k, z8_set.depth + 1):
                assert float(z8_set.weak_star_defect(k, k2)) <= bound


class TestBoxCountsAndDimension:
    def test_box_count_at_depth_is_P(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            assert cset.box_count(cset.depth) == cset.P(cset.depth)

    def test_fixture_box_level1(self, fixture_a):
        assert fixture_a.box_count(1) == 2

    def test_dim_quotients_fixture(self, fixture_a):
        rep = dim_bounds(fixture_a)
        assert rep.upper_quotients[-1] == pytest.approx(0.5)

    def test_dim_needs_depth(self, fixture_a_params):
        shallow = build_deterministic([{(2,)}], custom([4], [F(1, 4)]))
        with pytest.raises(InsufficientDepthError):
            dim_bounds(shallow)

    def test_symbolic_limits(self):
        lims = dimension_limit_symbolic(one_dimensional(16, 3))
        assert lims == {"upper": F(1), "lower": F(1)}
        lims = dimension_limit_symbolic(fixed_dimension(16, F(1, 4), 3))
        assert lims == {"upper": F(3, 4), "lower": F(3, 4)}


def loop_structure_problems(cset):
    """The per-offset structure check that the vectorised one replaced; an
    offset out of range is reported as such and never decoded."""
    problems = []
    for idx, lv in enumerate(cset.levels):
        k = idx + 1
        if lv.k != k:
            problems.append(f"level list out of order at {k}")
        if lv.N_k != cset.params.level_N(k) or lv.M_k != cset.params.M(k):
            problems.append(f"level {k} subdivision disagrees with params")
        arr = lv.offsets
        if any(b <= a for a, b in zip(arr, arr[1:])):
            problems.append(f"level {k} offsets not sorted/distinct")
        if any(not 0 <= o < lv.M_k for o in arr):
            problems.append(f"level {k} offset out of range")
        if k >= 2:
            parents = set(cset.levels[idx - 1].offsets)
            for o in arr:
                if 0 <= o < lv.M_k and o // lv.N_k not in parents:
                    bad = index_of(o, k, cset.params)
                    problems.append(f"index {bad} at level {k} has unselected parent")
                    break
    return problems


class TestStructureProblems:
    def test_messages_match_loop_on_mutated_levels(self, z8_set):
        from dataclasses import replace

        rnd = random.Random(5)
        seen = set()
        for _ in range(200):
            levels = list(z8_set.levels)
            for _ in range(rnd.randint(1, 3)):
                j = rnd.randrange(len(levels))
                offs = list(levels[j].offsets)
                kind = rnd.choice(["swap", "dup", "orphan", "drop", "empty", "low", "high", "mid"])
                if kind == "swap" and len(offs) > 1:
                    i = rnd.randrange(len(offs) - 1)
                    offs[i], offs[i + 1] = offs[i + 1], offs[i]
                elif kind == "dup" and offs:
                    i = rnd.randrange(len(offs))
                    offs.insert(i, offs[i])
                elif kind == "orphan":
                    offs = sorted(set(offs) | {rnd.randrange(levels[j].M_k)})
                elif kind == "drop" and offs:
                    offs.pop(rnd.randrange(len(offs)))
                elif kind == "empty":
                    offs = []
                elif kind == "low" and offs:
                    offs[0] = -1
                elif kind == "high" and offs:
                    offs[-1] = levels[j].M_k
                elif kind == "mid" and offs:  # out of range and out of order
                    offs.insert(len(offs) // 2, levels[j].M_k + 3)
                levels[j] = replace(levels[j], offsets=tuple(offs))
            cset = CantorSet(z8_set.params, levels, validate=False)
            want = loop_structure_problems(cset)
            assert cset.structure_problems() == want
            seen.update(m.split(" ")[-1] for m in want)
            if kind in ("low", "high", "mid") and offs:
                assert f"level {j + 1} offset out of range" in want
        assert {"sorted/distinct", "range", "parent"} <= seen


class TestSerialization:
    def test_roundtrip_identity(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            text = cset.to_json()
            again = CantorSet.from_json(text)
            assert again.to_json() == text
            assert again.levels == cset.levels

    def test_selection_decodes_indices(self, fixture_a):
        assert fixture_a.selection(1) == {(2,), (4,)}
        assert fixture_a.selection(2) == set(FIXTURE_A_SELECTIONS[1])
