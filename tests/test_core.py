"""Cantor iteration: indices, intervals, densities, measures, dimension."""

import json
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cantormax.core as core

from cantormax import (
    custom,
    dim_bounds,
    dimension_limit_symbolic,
    fixed_dimension,
    one_dimensional,
)
from cantormax.core import CantorLevel, CantorSet, index_of
from cantormax.maxops import average
from cantormax.stepfn import StepFunction
from cantormax.errors import (
    DegenerateMeasureError,
    FormatError,
    InsufficientDepthError,
    InvalidIndexError,
    StructureError,
)

from conftest import (
    FIXTURE_A_SELECTIONS,
    RunMoments,
    coverage_sigma,
    density,
    integral,
    prefix_mass,
    reference_dump,
    reference_load,
    reference_runs,
)
from lemmas import alpha, build_deterministic, interval_of, offset_of, weak_star_defect

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
        assert any(lv.P == 0 for lv in cset.levels)
        assert cset.P(1) == 0
        with pytest.raises(DegenerateMeasureError):
            density(cset, 1)

    def test_measure_nonincreasing(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            measures = [cset.level(k).measure for k in range(1, cset.depth + 1)]
            assert all(b <= a for a, b in zip(measures, measures[1:]))


class TestDensities:
    def test_density_values_fixture(self, fixture_a):
        phi1 = density(fixture_a, 1)
        cells = [(l, r, v) for l, r, v in phi1.cells() if v != 0]
        assert cells == [(F(5, 4), F(3, 2), F(2)), (F(7, 4), F(2), F(2))]
        phi2 = density(fixture_a, 2)
        assert set(v for _, _, v in phi2.cells() if v != 0) == {F(4)}

    def test_density_normalized_exactly(self, fixture_a, z8_set, toy88_set):
        for cset in (fixture_a, z8_set, toy88_set):
            for k in range(1, cset.depth + 1):
                assert integral(density(cset, k)) == 1

    def test_sigma_zero_mean_and_values(self, fixture_a):
        sig = fixture_a.sigma(1)
        assert integral(sig) == 0
        assert set(sig.values) <= {F(-2), F(0), F(2)}

    def test_sigma_support_inside_parent(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            for k in range(1, cset.depth):
                sig = cset.sigma(k)
                ind = density(cset, k)
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


def searchsorted_sigma(cset, k):
    """sigma_k with each cell classed by four searchsorted passes over the
    run endpoints: the build that the one-pass running sum replaced.  The
    class is the number of runs covering the cell, as in ``CantorSet.sigma``:
    where S_{k+1} lies in S_k that is 2 on S_{k+1}, and a child run outside
    every parent run gets 1."""
    parent, child = cset.level(k), cset.level(k + 1)
    on_child = F(child.M_k, child.P) - F(parent.M_k, parent.P)
    off_child = -F(parent.M_k, parent.P)
    vden = math.lcm(on_child.denominator, off_child.denominator)
    a_num = on_child.numerator * (vden // on_child.denominator)
    b_num = off_child.numerator * (vden // off_child.denominator)
    parent_runs = parent.runs() * child.N_k
    child_runs = child.runs()
    bps = np.unique(np.concatenate([parent_runs.ravel(), child_runs.ravel()]))
    starts = bps[:-1]
    in_parent = (
        np.searchsorted(parent_runs[:, 0], starts, side="right")
        - np.searchsorted(parent_runs[:, 1], starts, side="right")
    ) == 1
    in_child = (
        np.searchsorted(child_runs[:, 0], starts, side="right")
        - np.searchsorted(child_runs[:, 1], starts, side="right")
    ) == 1
    classes = in_parent.astype(np.int64) + in_child
    return StepFunction.from_classes(
        bps + child.M_k, child.M_k, [0, b_num, a_num], classes, vden
    )


@pytest.mark.parametrize("name", ["fixture_a", "z8_set", "z16_set", "broken_nesting_set"])
def test_runs_match_reference_build(request, name):
    for lv in request.getfixturevalue(name).levels:
        runs = lv.runs()
        assert runs.dtype == np.int64 and np.array_equal(runs, reference_runs(lv.offsets))


@pytest.mark.parametrize(
    "offsets, want",
    [([], np.empty((0, 2))), ([5], [[5, 6]]), ([0, 1, 2], [[0, 3]]), ([0, 2, 3, 7], [[0, 1], [2, 4], [7, 8]])],
)
def test_runs_of_small_levels(offsets, want):
    runs = CantorLevel(k=1, N_k=8, M_k=8, offsets=offsets).runs()
    assert runs.dtype == np.int64 and np.array_equal(runs, want)
    assert np.array_equal(runs, reference_runs(offsets))


ALL_SETS = ["fixture_a", "toy88_set", "z8_set", "z4_deep_set", "z16_set", "broken_nesting_set"]


@pytest.mark.parametrize("name", ALL_SETS)
def test_sigma_matches_searchsorted_build(request, name):
    cset = request.getfixturevalue(name)
    for k in range(1, cset.depth):
        assert cset.sigma(k) == searchsorted_sigma(cset, k)


@pytest.mark.parametrize("name", ALL_SETS)
def test_run_based_integrals_match_built_functions(request, name):
    """The normalization report's integral of phi_k, read from the runs,
    against the built phi_k.  The report reads no sigma_k: the built ones
    all integrate to 0 exactly when the set passes the structure check (on
    the set that breaks nesting sigma_1 is not phi_2 - phi_1)."""
    cset = request.getfixturevalue(name)
    for k in range(1, cset.depth + 1):
        assert cset.density_integral(k) == integral(density(cset, k)) == 1
    clean = not cset.structure_problems()
    assert clean == (name != "broken_nesting_set")
    assert clean == all(integral(coverage_sigma(cset, k)) == 0 for k in range(1, cset.depth))


class TestSigmaMerge:
    """``CantorSet.sigma``, which merges the presorted parent and child run
    bounds, against ``coverage_sigma``, which sorts them together."""

    @staticmethod
    def fresh_sigma(cset, k):
        # a set of its own, so that no cached sigma_k is compared
        return CantorSet(cset.params, cset.levels, validate=False).sigma(k)

    @pytest.mark.parametrize("name", ALL_SETS)
    def test_matches_coverage_build(self, request, name):
        cset = request.getfixturevalue(name)
        for k in range(1, cset.depth):
            assert self.fresh_sigma(cset, k) == coverage_sigma(cset, k)

    def test_matches_coverage_build_on_non_nested_mutations(self, z8_set):
        rnd = random.Random(17)
        for _ in range(150):
            arrays = [lv.offsets.tolist() for lv in z8_set.levels]
            j = rnd.choice([1, 2])
            offs = set(arrays[j])
            for _ in range(rnd.randint(1, 12)):
                if rnd.random() < 0.5:
                    offs.add(rnd.randrange(z8_set.level(j + 1).M_k))
                elif len(offs) > 1:
                    offs.discard(rnd.choice(sorted(offs)))
            arrays[j] = sorted(offs)
            cset = _unchecked_set(z8_set.params, arrays)
            sigmas = [cset.sigma(k) for k in range(1, cset.depth)]
            assert sigmas == [coverage_sigma(cset, k) for k in range(1, cset.depth)]
            clean = not cset.structure_problems()
            assert clean == all(integral(sig) == 0 for sig in sigmas)

    @pytest.mark.parametrize(
        "children",
        [
            [4, 5],  # a child run that starts on its parent run's start
            [10, 11],  # one that ends on its parent run's end
            [4, 11],  # one on each bound
            [4, 7, 9, 10, 11],  # both, with a run inside
            [3, 4, 12],  # a run across the parent run's start, and one from its end
            [0, 1, 15],  # every child run outside the parent run
        ],
    )
    def test_child_runs_on_parent_bounds(self, fixture_a_params, children):
        # parents 1 and 2: one parent run, [4, 12) on the child grid
        cset = _unchecked_set(fixture_a_params, [[1, 2], children])
        sig = cset.sigma(1)
        assert sig == coverage_sigma(cset, 1) == searchsorted_sigma(cset, 1)
        assert (integral(sig) == 0) == (not cset.structure_problems())

    def test_every_child_selected_gives_zero(self, fixture_a_params):
        # S_2 = S_1, so phi_2 = phi_1
        cset = _unchecked_set(fixture_a_params, [[0, 2], [0, 1, 2, 3, 8, 9, 10, 11]])
        sig = cset.sigma(1)
        assert sig.is_zero and sig == coverage_sigma(cset, 1)

    def test_empty_child_level_is_degenerate(self, fixture_a_params):
        cset = _unchecked_set(fixture_a_params, [[0, 2], []])
        for build in (cset.sigma, lambda k: coverage_sigma(cset, k)):
            with pytest.raises(DegenerateMeasureError):
                build(1)
        with pytest.raises(DegenerateMeasureError):
            cset.density_integral(2)


def test_verify_of_broken_nesting_builds_sigma_and_reports_structure(broken_nesting_set):
    """A child run outside its parents: verify returns through its
    structure report.  Gate (c) builds sigma_2; sigma_1, whose child level
    holds the orphan, is not checked, as it is phi_2 - phi_1 only for nested
    levels (its build on this set: ``test_sigma_matches_searchsorted_build``)."""
    from cantormax import verify_set

    cset = CantorSet(broken_nesting_set.params, broken_nesting_set.levels, validate=False)
    ok, reports = verify_set(cset, gate_c_budget=2)
    assert not ok and set(cset._sigma_cache) == {2}
    (structure,) = [r for r in reports if r.gate == "structure"]
    assert not structure.passed and "unselected parent" in structure.detail
    # the nesting fault is named once, by the structure report
    (normalization,) = [r for r in reports if r.gate == "normalization"]
    assert normalization.passed and "sigma" not in normalization.detail


class TestBuildMemory:
    """Traced peaks of the sigma build and of the density oracle, in int64
    arrays of the built function's cell count, as ``verify`` meets them:
    each level's runs are cached by then."""

    @staticmethod
    def traced_arrays(z16_set, build):
        cset = CantorSet.from_json(z16_set.to_json_bytes())
        for lv in cset.levels:
            lv.runs()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn = build(cset)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fn.n_cells > 300_000
        return peak / (8 * fn.n_cells)

    def test_sigma_build_holds_few_arrays_of_its_cells(self, z16_set):
        # the merged bounds and the classes, and int8 steps; 2.6 here
        assert self.traced_arrays(z16_set, lambda cset: cset.sigma(2)) <= 3.5

    def test_density_build_holds_few_arrays_of_its_cells(self, z16_set):
        assert self.traced_arrays(z16_set, lambda cset: density(cset, 3)) <= 2.5

    def test_runs_build_holds_few_arrays_of_its_offsets(self, z16_set):
        # the (n, 2) runs hold 1.75 arrays of the level's offsets here
        lv = z16_set.level(3)
        level = CantorLevel(k=lv.k, N_k=lv.N_k, M_k=lv.M_k, offsets=lv.offsets)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            level.runs()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert level.P > 150_000 and peak <= 4.0 * 8 * level.P

    def test_cell_moments_build_holds_few_arrays_of_its_offsets(self, z16_set):
        # the table and one temporary: 2.0 arrays of the level's offsets here
        lv = z16_set.level(3)
        level = CantorLevel(k=lv.k, N_k=lv.N_k, M_k=lv.M_k, offsets=lv.offsets)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            level.cell_moments
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert level.P > 150_000 and peak <= 2.5 * 8 * level.P


class TestLoadMemory:
    """Traced peaks of loading ``z16_set``'s bytes, in int64 arrays of its
    level-3 offsets.  The offset lists are parsed piece by piece into their
    arrays, so the compact read holds little beyond them, and the structure
    checks of a well-formed set compare neighbours and search the parents'
    windows, with no full-size temporary but a boolean one."""

    @staticmethod
    def traced_arrays(z16_set, load):
        data = z16_set.to_json_bytes()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            load(data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert z16_set.P(3) > 150_000
        return peak / (8 * z16_set.P(3))

    def test_compact_read_holds_little_beyond_its_arrays(self, z16_set):
        # the three levels' arrays alone are 1.0 + P_1/P_3 + P_2/P_3
        assert self.traced_arrays(z16_set, core._compact_set_dict) <= 1.5

    def test_from_json_holds_few_arrays_of_its_offsets(self, z16_set):
        # 1.16 here: the arrays, and the structure checks' order test
        assert self.traced_arrays(z16_set, CantorSet.from_json) <= 2.0

    def test_structure_checks_hold_little_beyond_the_offsets(self, z16_set):
        def check(_):
            return CantorSet(z16_set.params, z16_set.levels, validate=False).structure_problems()

        # 0.13 here: one boolean array of the level-3 offsets
        assert self.traced_arrays(z16_set, check) <= 0.5


def deepest_mass(cset, a, b):
    """mu_K([a, b]): the average A_1[K] 1_[a, b](0), as the L^1 demo reads its ball masses."""
    return average(StepFunction.indicator(a, b), cset, cset.depth, 1, 0)


def cell_moments_brute(offsets, u):
    """(length, integral of 2u du) of the cells [o, o + 1) inside [0, u],
    summed cell by cell."""
    length = square = F(0)
    for o in offsets:
        top = min(F(o + 1), u)
        if top > o:
            length += top - o
            square += top * top - o * o
    return length, square


@st.composite
def _offsets_and_cuts(draw):
    """(M, offsets, cuts): sorted distinct offsets in [0, M), with adjacent
    offsets, offset 0 and offset M - 1 each drawn often, and cuts on every
    cell edge from 0 to M and inside cells, selected or not."""
    M = draw(st.integers(1, 24))
    offsets = draw(st.sets(st.integers(0, M - 1), max_size=M))
    offsets |= {0} if draw(st.booleans()) else set()
    offsets |= {M - 1} if draw(st.booleans()) else set()
    if M > 1 and draw(st.booleans()):
        o = draw(st.integers(0, M - 2))
        offsets |= {o, o + 1}
    cuts = [F(e) for e in range(M + 1)]
    cuts += [o + F(draw(st.integers(1, 12)), 13) for o in range(M)]
    return M, sorted(offsets), cuts


class TestRunMoments:
    """``core.CellMoments``, the prefix moments over a level's selected
    cells, against the runs-based table it replaced (``conftest.RunMoments``)
    and a cell-by-cell sum, with ==."""

    @settings(max_examples=300, deadline=None)
    @given(data=_offsets_and_cuts())
    def test_cell_moments_match_the_runs_and_the_cells(self, data):
        M, offsets, cuts = data
        arr = np.array(offsets, dtype=np.int64)
        moments = core.CellMoments(arr, M)
        oracle = RunMoments(reference_runs(arr), M)
        for u in cuts:
            assert moments.below(u) == oracle.below(u) == cell_moments_brute(offsets, u)

    @pytest.mark.parametrize("log_m, dtype", [(30, np.int64), (31, object)])
    def test_run_moments_at_the_dtype_boundary(self, log_m, dtype):
        # c1 is bounded by M_k^2, so the table stays int64 below M_k = 2^31
        M = 1 << log_m
        runs = np.array([[0, 3], [5, 1 << 20], [M // 2 - 7, M // 2 + 9], [M - 4, M]], dtype=np.int64)
        offsets = np.concatenate([np.arange(s, e, dtype=np.int64) for s, e in runs])
        moments = core.CellMoments(offsets, M)
        assert moments.c1.dtype == dtype
        oracle = RunMoments(runs, M)

        def brute(u):
            length = square = F(0)
            for s, e in runs.tolist():
                top = min(F(e), u)
                if top > s:
                    length += top - s
                    square += top * top - s * s
            return length, square

        cuts = [F(0), F(1, 3), F(3), F(4), F(5), F(11, 2), F((1 << 20) - 1, 7)]
        cuts += [F(M // 2) + d for d in (F(-7), F(-13, 2), F(0), F(9), F(19, 2))]
        cuts += [F(M) + d for d in (F(-5), F(-4), F(-1, 3), F(0))]
        for u in cuts:
            assert moments.below(u) == oracle.below(u) == brute(u)


class TestMeasures:
    def test_unit_mass(self, fixture_a):
        assert deepest_mass(fixture_a, 1, 2) == 1

    def test_single_selected_cell(self, fixture_a):
        assert deepest_mass(fixture_a, F(5, 4), F(21, 16)) == F(1, 4)

    def test_disjoint_interval(self, fixture_a):
        assert deepest_mass(fixture_a, F(33, 32), F(17, 16)) == 0

    def test_fractional_boundary_overlap(self, fixture_a):
        full = deepest_mass(fixture_a, F(5, 4), F(21, 16))
        half = deepest_mass(fixture_a, F(5, 4), F(41, 32))
        assert half == full / 2

    def test_additive_and_monotone(self, fixture_a):
        a = deepest_mass(fixture_a, 1, F(3, 2))
        b = deepest_mass(fixture_a, F(3, 2), 2)
        assert a + b == deepest_mass(fixture_a, 1, 2)
        assert a <= deepest_mass(fixture_a, 1, F(7, 4))

    def test_matches_density_mass(self, z8_set):
        # the prefix-moment cut against the prefix-table phi_K mass
        rnd = random.Random(61)
        phi = density(z8_set, z8_set.depth)
        for _ in range(20):
            a, b = sorted(1 + F(rnd.randint(0, 10**6), 10**6) for _ in range(2))
            assert deepest_mass(z8_set, a, b) == prefix_mass(phi, a, b)


class TestWeakStarDefect:
    def test_same_level_zero(self, fixture_a, z8_set):
        assert weak_star_defect(fixture_a, 1, 1) == 0
        assert weak_star_defect(z8_set, 2, 2) == 0

    def test_fixture_balanced_split(self, fixture_a):
        # each parent holds exactly half the level-2 mass
        assert weak_star_defect(fixture_a, 1, 2) == 0

    def test_nonnegative(self, z8_set):
        for k in range(1, z8_set.depth + 1):
            for k2 in range(k, z8_set.depth + 1):
                assert weak_star_defect(z8_set, k, k2) >= 0

    @pytest.mark.parametrize("name", ["z8_set", "z16_set"])
    def test_matches_loop_oracle(self, request, name):
        # the per-parent dict loop this check once ran, as an == oracle
        cset = request.getfixturevalue(name)
        for k in range(1, cset.depth + 1):
            for k2 in range(k, cset.depth + 1):
                lv, lv2 = cset.level(k), cset.level(k2)
                ratio = lv2.M_k // lv.M_k
                desc = Counter(o // ratio for o in lv2.offsets)
                assert cset.descendant_counts(k, k2).tolist() == [desc[o] for o in lv.offsets]
                total = sum(abs(desc[o] * lv.P - lv2.P) for o in lv.offsets)
                assert weak_star_defect(cset, k, k2) == Fraction(total, lv.P * lv2.P)

    def test_accepted_set_defect_under_formula_bound(self, z8_set):
        # 2B 2^(-k gamma/2) / (1 - 2^(-gamma/2)); wide at this depth but honest
        B, gamma = float(z8_set.params.B), float(z8_set.params.gamma)
        for k in range(1, z8_set.depth + 1):
            bound = 2 * B * 2 ** (-k * gamma / 2) / (1 - 2 ** (-gamma / 2))
            for k2 in range(k, z8_set.depth + 1):
                assert float(weak_star_defect(z8_set, k, k2)) <= bound


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
        arr = lv.offsets.tolist()
        if any(b <= a for a, b in zip(arr, arr[1:])):
            problems.append(f"level {k} offsets not sorted/distinct")
        if any(not 0 <= o < lv.M_k for o in arr):
            problems.append(f"level {k} offset out of range")
        if k >= 2:
            parents = set(cset.levels[idx - 1].offsets.tolist())
            for o in arr:
                if 0 <= o < lv.M_k and o // lv.N_k not in parents:
                    bad = index_of(o, k, cset.params)
                    problems.append(f"index {bad} at level {k} has unselected parent")
                    break
    return problems


class TestStructureProblems:
    KINDS = ["swap", "dup", "orphan", "orphan_block", "orphan_edge", "dup_orphan", "drop", "empty", "low", "high", "mid", "far"]

    def test_messages_match_loop_on_mutated_levels(self, z8_set):
        from dataclasses import replace

        rnd = random.Random(5)
        seen = set()
        for _ in range(400):
            levels = list(z8_set.levels)
            for _ in range(rnd.randint(1, 3)):
                j = rnd.randrange(len(levels))
                offs = list(levels[j].offsets)
                kind = rnd.choice(self.KINDS)
                N_j, M_j = levels[j].N_k, levels[j].M_k
                if kind == "swap" and len(offs) > 1:
                    i = rnd.randrange(len(offs) - 1)
                    offs[i], offs[i + 1] = offs[i + 1], offs[i]
                elif kind == "dup" and offs:
                    i = rnd.randrange(len(offs))
                    offs.insert(i, offs[i])
                elif kind == "orphan":
                    offs = sorted(set(offs) | {rnd.randrange(M_j)})
                elif kind == "orphan_block" and j:
                    # every child of an unselected parent
                    free = sorted(set(range(M_j // N_j)) - set(levels[j - 1].offsets.tolist()))
                    if free:
                        p = rnd.choice(free)
                        offs = sorted(set(offs) | set(range(p * N_j, (p + 1) * N_j)))
                elif kind == "orphan_edge":
                    # an orphan below the first child or above the last
                    offs = sorted(set(offs) | {rnd.choice([0, M_j - 1])})
                elif kind == "dup_orphan":
                    o = rnd.randrange(M_j)
                    offs = sorted(offs + [o, o])
                elif kind == "drop" and offs:
                    offs.pop(rnd.randrange(len(offs)))
                elif kind == "empty":
                    offs = []
                elif kind == "low" and offs:
                    offs[0] = -1
                elif kind == "high" and offs:
                    offs[-1] = M_j
                elif kind == "mid" and offs:  # out of range and out of order
                    offs.insert(len(offs) // 2, M_j + 3)
                elif kind == "far":  # far out of range at either end
                    offs = sorted(offs + [rnd.choice([-(1 << 62), 1 << 62])])
                levels[j] = replace(levels[j], offsets=tuple(offs))
            cset = CantorSet(z8_set.params, levels, validate=False)
            want = loop_structure_problems(cset)
            assert cset.structure_problems() == want
            seen.update(m.split(" ")[-1] for m in want)
            if kind in ("low", "high", "mid", "far") and offs:
                assert f"level {j + 1} offset out of range" in want
        assert {"sorted/distinct", "range", "parent"} <= seen


    @pytest.mark.parametrize(
        "parents, children",
        [
            ([1, 1, 2], [0, 4]),  # a repeated parent with one child, and an orphan
            ([2, 1], [0, 4, 8]),  # descending parents, and an orphan
            ([1, 2], [8, 4, 1]),  # descending children, one an orphan
            ([1, 2], [4, 4, 1]),  # a repeated child, and an orphan
            ([1, 5], [4, 1]),  # a parent out of range, and an orphan
        ],
    )
    def test_malformed_levels_hide_no_orphan(self, fixture_a_params, parents, children):
        """The children of a repeated parent are counted twice in its window,
        and unordered levels cannot be searched, so the orphan is named by the
        per-offset test."""
        cset = _unchecked_set(fixture_a_params, [parents, children])
        want = loop_structure_problems(cset)
        assert cset.structure_problems() == want
        assert "has unselected parent" in want[-1]


def _int64_boundaries() -> list[int]:
    """0, then each 10^j - 1 and 10^j (j = 1..18) with their neighbours,
    and int64 max: every change of the length of a value's text."""
    values = {0, 1, (1 << 63) - 1}
    for j in range(1, 19):
        values.update(10**j + d for d in (-2, -1, 0, 1))
    return sorted(values)


def _unchecked_set(params, arrays) -> CantorSet:
    """A set with the given offset arrays as its levels, never validated."""
    levels = [
        CantorLevel(k, params.level_N(k), params.M(k), np.array(a, dtype=np.int64))
        for k, a in enumerate(arrays, start=1)
    ]
    return CantorSet(params, levels, accepted_retries=(0,) * len(levels), validate=False)


@pytest.fixture(scope="module")
def wide_params():
    """Two levels with M_2 = 2^63: every int64 >= 0 is a level-2 offset, and
    its parent is the offset >> 31."""
    return custom([1 << 32, 1 << 31], [Fraction(1, 4), Fraction(1, 4)])


class TestSerialization:
    def test_to_json_matches_reference_dump(self, fixture_a, z8_set, z16_set, fixture_a_params):
        """The writer's bytes are ``json.dumps`` of Python-int lists, and
        every file it writes is read through the compact form."""
        empty_level = build_deterministic([{(2,)}, set()], fixture_a_params)
        for cset in (fixture_a, z8_set, z16_set, empty_level):
            data = cset.to_json_bytes()
            assert data == reference_dump(cset).encode("ascii")
            assert core._compact_set_dict(data) is not None

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_to_json_at_every_text_length(self, wide_params, order):
        """Offsets at each change of their text's length, up to int64 max,
        under their parents: ascending, the set is written as ``json.dumps``
        writes it; in any other order it fails the structure check and is
        refused."""
        values = _int64_boundaries()
        if order == "descending":
            values.reverse()
        elif order == "shuffled":
            random.Random(3).shuffle(values)
        cset = _unchecked_set(wide_params, [sorted({v >> 31 for v in values}), values])
        if order == "ascending":
            assert cset.to_json_bytes() == reference_dump(cset).encode("ascii")
        else:
            with pytest.raises(StructureError, match="^level 2 offsets not sorted/distinct$"):
                cset.to_json_bytes()

    def test_to_json_matches_reference_dump_on_any_int64(self, wide_params):
        """Random int64 offsets, sorted or not, under their parents or not: a
        set that passes the structure check is written as ``json.dumps``
        writes it, and any other raises the constructor's ``StructureError``."""
        value = st.one_of(
            st.sampled_from(_int64_boundaries()), st.integers(-(1 << 63), (1 << 63) - 1), st.integers(0, 10**6)
        )
        outcomes = Counter()

        @settings(max_examples=200, deadline=None)
        @given(st.lists(value, max_size=40), st.lists(value, max_size=8), st.booleans(), st.booleans())
        def check(values, strays, ascending, nested):
            if ascending:
                values = sorted(set(values))
            parents = sorted({v >> 31 for v in values}) if nested else sorted(set(strays))
            cset = _unchecked_set(wide_params, [parents, values])
            try:
                CantorSet(cset.params, cset.levels, cset.accepted_retries)
            except StructureError as exc:
                outcomes["refused"] += 1
                with pytest.raises(StructureError, match=f"^{re.escape(str(exc))}$"):
                    cset.to_json_bytes()
            else:
                outcomes["written"] += 1
                assert cset.to_json_bytes() == reference_dump(cset).encode("ascii")

        check()
        assert outcomes["refused"] and outcomes["written"]

    def test_offset_blocks_match_join_on_ascending_int64(self):
        """``_offset_blocks`` of ascending arrays in [0, 2^63), drawn around
        the changes of text length, is the values' text joined by commas
        (all of those changes at once: ``test_to_json_at_every_text_length``)."""
        value = st.one_of(
            st.sampled_from(_int64_boundaries()), st.integers(0, (1 << 63) - 1), st.integers(0, 10**6)
        )

        @settings(max_examples=300, deadline=None)
        @given(st.lists(value, max_size=60))
        def check(values):
            a = np.array(sorted(set(values)), dtype=np.int64)
            assert b"".join(core._offset_blocks(a)) == ",".join(map(str, a.tolist())).encode("ascii")

        check()

    def test_long_levels_are_written_in_pieces_of_at_most_65536(self, wide_params, z16_set):
        """Pieces are cut every 65,536 values and again where the text's
        length changes inside such a piece, and the bytes stay those of
        ``json.dumps``."""
        rising = np.arange(10**5 - 70_000, 10**5 + 80_000, dtype=np.int64)
        blocks = core._offset_blocks(rising)
        # a comma before every value but the first; 100000 is the 70,000th
        assert [bytes(b).count(b",") + (i == 0) for i, b in enumerate(blocks)] == [65_536, 4_464, 61_072, 18_928]
        assert b"".join(blocks) == ",".join(map(str, rising.tolist())).encode("ascii")
        for cset in (_unchecked_set(wide_params, [[0], rising]), z16_set):
            assert cset.to_json_bytes() == reference_dump(cset).encode("ascii")

    @pytest.mark.parametrize(
        "levels",
        [
            pytest.param([[1, 3], [7, 5]], id="descending"),
            pytest.param([[1, 3], [5, 5, 13]], id="repeated"),
            pytest.param([[1, 3], [-3, 5]], id="negative"),
            pytest.param([[1, 3], [5, 16]], id="at_M_k"),
            pytest.param([[1, 3], [5, 8]], id="orphan"),
        ],
    )
    def test_sets_failing_the_structure_check_are_not_written(self, fixture_a_params, levels):
        """``fixture_a``'s grid (M_2 = 16, parents 1 and 3): the writer
        refuses the set with the message the constructor gives it."""
        cset = _unchecked_set(fixture_a_params, levels)
        with pytest.raises(StructureError) as built:
            CantorSet(cset.params, cset.levels)
        with pytest.raises(StructureError) as written:
            cset.to_json_bytes()
        assert str(written.value) == str(built.value)

    def test_level_leaves_the_callers_array_writeable(self):
        a = np.arange(5)
        lv = CantorLevel(1, 4, 4, a)
        assert a.flags.writeable and not lv.offsets.flags.writeable
        a[0] = 3
        assert lv.offsets.tolist() == [0, 1, 2, 3, 4]

    def test_level_keeps_a_read_only_array(self):
        """A read-only int64 array, as the reader hands over, is not copied."""
        loaded = core._offset_list(b"1,2,3", 0, 5)
        assert not loaded.flags.writeable
        assert CantorLevel(1, 4, 4, loaded).offsets is loaded

    def test_roundtrip_identity(self, fixture_a, z8_set):
        for cset in (fixture_a, z8_set):
            data = cset.to_json_bytes()
            again = CantorSet.from_json(data)
            assert again.to_json_bytes() == data
            assert again.levels == cset.levels

    def test_empty_level_roundtrips_through_compact_form(self, fixture_a_params):
        cset = build_deterministic([{(2,)}, set()], fixture_a_params)
        data = cset.to_json_bytes()
        assert b'"selected":[]' in data
        assert core._compact_set_dict(data) is not None
        again = CantorSet.from_json(data)
        assert again.to_json_bytes() == data
        assert again.levels == cset.levels
        assert again.level(2).offsets.dtype == np.int64

    def test_selection_decodes_indices(self, fixture_a):
        def selection(k):
            return {index_of(o, k, fixture_a.params) for o in fixture_a.level(k).offsets.tolist()}

        assert selection(1) == {(2,), (4,)}
        assert selection(2) == set(FIXTURE_A_SELECTIONS[1])


_MUTATIONS = (
    "edit", "delete", "leading_zero", "minus", "half", "exponent",
    "digits_18", "digits_19", "digits_25", "space", "duplicate_key",
    "escaped_key", "non_ascii", "truncate", "digit_anywhere", "nan", "swap",
)


def _mutate(text: str, kind: str, draw) -> str:
    """One edit of a set file's text; list edits land in a drawn level's
    ``selected`` list, at a drawn field."""
    if kind == "space":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([" ", "\n", "\t"])) + text[at:]
    if kind == "truncate":
        return text[: draw(st.integers(0, max(len(text) - 1, 0)))]
    if kind == "digit_anywhere":
        m = re.compile(r"[0-9]").search(text, draw(st.integers(0, len(text))))
        if m is None:
            return text
        return text[: m.start()] + draw(st.sampled_from("0123456789")) + text[m.end() :]
    keys = [m.start() for m in re.finditer(re.escape('"selected":['), text)]
    ends = [text.find("]", key) for key in keys]
    lists = [(key, end) for key, end in zip(keys, ends) if end >= 0]
    if not lists:
        return text
    key, end = lists[draw(st.integers(0, len(lists) - 1))]
    lo = key + len('"selected":[')
    if kind in ("duplicate_key", "escaped_key"):
        name = {"duplicate_key": "selected", "escaped_key": 'x\\"selected'}[kind]
        if draw(st.booleans()):
            return text[:key] + f'"{name}":[0,2],' + text[key:]
        return text[: end + 1] + f',"{name}":[0,2]' + text[end + 1 :]
    if kind == "nan":
        return text[: lo - 1] + "NaN" + text[end + 1 :]
    pos = draw(st.integers(lo, end))
    start = text.rfind(",", lo, pos) + 1 or lo
    stop = text.find(",", pos, end)
    stop = end if stop < 0 else stop
    if kind == "swap":  # the field at pos and the next one trade places
        if stop == end:
            return text
        after = text.find(",", stop + 1, end)
        after = end if after < 0 else after
        return text[:start] + text[stop + 1 : after] + "," + text[start:stop] + text[after:]
    if kind == "edit":
        return text[:pos] + draw(st.sampled_from("0123456789,")) + text[pos + 1 :]
    if kind == "delete":
        return text[:pos] + text[pos + 1 :]
    if kind in ("leading_zero", "minus"):
        return text[:start] + {"leading_zero": "0", "minus": "-"}[kind] + text[start:]
    if kind in ("half", "exponent"):
        return text[:stop] + {"half": ".5", "exponent": "e3"}[kind] + text[stop:]
    if kind == "non_ascii":
        return text[:start] + draw(st.sampled_from(["\u0663", "\uff13", "\u00b2"])) + text[start + 1 :]
    n = int(kind.split("_")[1])
    lowest, highest = 10 ** (n - 1), 10**n - 1
    value = draw(st.one_of(st.sampled_from([lowest, highest]), st.integers(lowest, highest)))
    return text[:start] + str(value) + text[stop:]


def _outcome(load, text):
    try:
        cset = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return cset.params, cset.levels, cset.accepted_retries


class TestCompactLoad:
    def test_from_json_matches_reference_load(self, fixture_a, z8_set, z16_set):
        """``from_json`` == ``reference_load`` on mutated set files: the same
        set, or the same exception class and message."""
        texts = [cset.to_json_bytes().decode("ascii") for cset in (fixture_a, z8_set, z16_set)]
        paths = Counter()
        compact = core._compact_set_dict

        def spy(text):
            d = compact(text)
            paths["fallback" if d is None else "compact"] += 1
            return d

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def check(data):
            text = texts[data.draw(st.integers(0, len(texts) - 1))]
            for kind in data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
                text = _mutate(text, kind, data.draw)
            want = _outcome(reference_load, text)
            assert _outcome(CantorSet.from_json, text) == want
            assert _outcome(CantorSet.from_json, text.encode()) == want

        with mock.patch.object(core, "_compact_set_dict", spy):
            check()
        assert paths["compact"] and paths["fallback"]

    @pytest.mark.parametrize(
        "body, path",
        [
            pytest.param("4,6,13,9223372036854775807", "fallback", id="int64_max"),
            pytest.param("4,6,13,9999999999999999999", "fallback", id="19_digits_above_int64_max"),
            pytest.param("4,6,13,999999999999999999", "compact", id="10^18-1"),
            pytest.param("4,6,13,1000000000000000000", "fallback", id="10^18"),
            pytest.param("0", "compact", id="lone_0"),
            pytest.param("00", "fallback", id="lone_00"),
            pytest.param("4,6,13,15,", "fallback", id="trailing_comma"),
            pytest.param("4,6,,13,15", "fallback", id="double_comma"),
            pytest.param(",4,6,13,15", "fallback", id="leading_comma"),
            pytest.param("4,13,6,15", "fallback", id="swapped_pair"),
            pytest.param("4,6,6,15", "fallback", id="repeated"),
            pytest.param("4,6,13,15", "compact", id="unchanged"),
        ],
    )
    def test_edge_lists_match_reference_load(self, fixture_a, body, path):
        """Level 2's list of ``fixture_a`` (4,6,13,15) replaced by ``body``:
        the text and its bytes load as ``reference_load`` loads the text,
        and only plain ascending lists below 10^18 take the compact path."""
        text = fixture_a.to_json_bytes().decode("ascii")
        assert text.count('"selected":[4,6,13,15]') == 1
        text = text.replace('"selected":[4,6,13,15]', f'"selected":[{body}]')
        want = _outcome(reference_load, text)
        assert _outcome(CantorSet.from_json, text) == want
        assert _outcome(CantorSet.from_json, text.encode()) == want
        d = core._compact_set_dict(text.encode())
        assert ("fallback" if d is None else "compact") == path
        if path == "compact":
            assert d["levels"][1]["selected"].tolist() == json.loads(f"[{body}]")

    def test_saturated_fields_are_refused(self):
        """``np.fromstring`` saturates a field above int64 max to 2^63 - 1
        without an error; such a list is refused, not read as 2^63 - 1."""
        body = b"1,9999999999999999999"
        assert np.fromstring(body, dtype=np.int64, sep=",").tolist() == [1, 2**63 - 1]
        assert core._offset_list(body, 0, len(body)) is None

    def test_lists_are_parsed_in_pieces_cut_at_commas(self):
        """A list longer than one piece, read from inside a larger buffer,
        and the same list with one field broken in its second piece."""
        values = np.arange(10**6, 10**6 + 3 * 65_536 // 8 * 2, 2, dtype=np.int64)
        body = ",".join(map(str, values.tolist())).encode()
        data = b"[" + body + b"]"
        assert core._offset_list(data, 1, len(data) - 1).tolist() == values.tolist()
        cut = data.index(b",", 65_536 + 100)
        for edit in (b",,", b"0", b" "):
            broken = data[:cut] + edit + data[cut + 1 :]
            assert core._offset_list(broken, 1, len(broken) - 1) is None

    def test_non_utf8_bytes_are_a_format_error(self, fixture_a):
        data = fixture_a.to_json_bytes().replace(b'"params":{', b'"params":{"\xff":1,', 1)
        with pytest.raises(FormatError, match="^set file is not UTF-8: "):
            CantorSet.from_json(data)

    @pytest.mark.parametrize("case", ["nan_and_moved_list", "spaced_list_and_escaped_key"])
    def test_each_list_must_be_its_own_levels_selection(self, z8_set, case):
        """As many plain lists as levels, but not one per level: the last
        level's list moved to the key ``x"selected`` and NaN in its place,
        or the first level's list written with a space (so not cut out) and
        a list under ``x"selected`` added.  Both go through ``json.loads``."""
        text = z8_set.to_json_bytes().decode("ascii")
        if case == "nan_and_moved_list":
            key = text.rindex('"selected":[')
            text = text[:key] + '"selected":NaN,"x\\' + text[key:]
        else:
            key = text.index('"selected":[')
            text = text[:key] + '"x\\"selected":[0,2],"selected": ' + text[key + len('"selected":') :]
        assert core._compact_set_dict(text.encode()) is None
        assert _outcome(CantorSet.from_json, text) == _outcome(reference_load, text)
        if case == "nan_and_moved_list":
            with pytest.raises(FormatError, match="level 3 selected offsets must be a list of integers"):
                CantorSet.from_json(text)
        else:
            assert CantorSet.from_json(text).levels == z8_set.levels
