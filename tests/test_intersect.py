"""Intersection family enumeration and counting, tangency classes, and the two geometric bounds."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantormax import AffineTuple, count_internal, custom, fixed_dimension
from cantormax.errors import CapacityError, DomainError
from cantormax.grids import DiscretizationGrid
from cantormax.correlation import classify_A
from cantormax.intersect import DEFAULT_GRID_CAP, TRANSVERSE, _slot_geometry

from conftest import python_ints
from lemmas import classify, enumerate_F, projection_multiplicity, proximity_check, symdiff_bound_check

F = Fraction

P4 = custom([4], [F(1, 4)])
P44 = custom([4, 4], [F(1, 4), F(1, 4)])
P88 = custom([8, 8], [F(1, 4), F(1, 4)])
P888 = custom([8, 8, 8], [F(1, 4)] * 3)  # a level-3 count, so the level-2 grid exists
P16 = fixed_dimension(16, F(1, 4), 3, seed=1)


def brute_force_F(k, A, params, restrict=None):
    """All-pairs oracle over the full index grid (or selected offsets)."""
    M = params.M(k)
    offsets = list(range(M)) if restrict is None else list(restrict.level(k).offsets)
    spans = []
    for o in offsets:
        a = 1 + F(o, M)
        spans.append((a, a + F(1, M)))
    out = set()
    for combo in itertools.product(range(len(offsets)), repeat=A.n):
        lo = max(A.pairs[l][0] + A.pairs[l][1] * spans[c][0] for l, c in enumerate(combo))
        hi = min(A.pairs[l][0] + A.pairs[l][1] * spans[c][1] for l, c in enumerate(combo))
        if lo <= hi:
            out.add(tuple(offsets[c] for c in combo))
    return out


def internal_oracle(offsets, N_k):
    """Internal tuples of a brute-force family: some two slots share a parent
    and their last digits differ by at most 4."""
    return sum(
        1
        for o in offsets
        if any(
            o[a] // N_k == o[b] // N_k and abs(o[a] % N_k - o[b] % N_k) <= 4
            for a in range(len(o))
            for b in range(a + 1, len(o))
        )
    )


def enumerated_internal(k, A, params):
    return sum(t.cls == "internal" for t in enumerate_F(k, A, params))


def count_internal_by_offsets(k, A, params):
    """Internal pairs (n = 2) by one pass over every first-slot offset.

    Slot 1 offset o1 = p*N_k + d1 meets the slot-2 offsets
    [ceil((s1 - C2 - G2)/G2) - M_k, floor((s1 + G1 - C2)/G2) - M_k], and its
    internal partners are those inside p*N_k + [d1 - 4, d1 + 4] clipped to
    the parent's digits [0, N_k).
    """
    M_k, (C1, C2), (G1, G2) = _slot_geometry(k, A, params)
    N_k = params.level_N(k)
    o1 = np.arange(M_k, dtype=np.int64)
    # starts and bounds pass 2^63 on the N=16 level-2 grid: divide on Python
    # ints; the quotients are offsets within a few M_k (c in [-4, 0], r in [1, 2])
    s1 = (C1 + G1 * M_k) + G1 * o1.astype(object)
    o_min = (-((C2 + G2 - s1) // G2)).astype(np.int64) - M_k
    o_max = ((s1 + G1 - C2) // G2).astype(np.int64) - M_k
    d1 = o1 % N_k
    parent = o1 - d1
    lo = np.maximum(o_min, parent + np.maximum(d1 - 4, 0))
    hi = np.minimum(o_max, parent + np.minimum(d1 + 4, N_k - 1))
    return int(np.maximum(hi - lo + 1, 0).sum())


def random_tuple(rnd, n):
    pairs = tuple(
        (F(rnd.randint(-32, 0), 8), F(rnd.randint(8, 16), 8)) for _ in range(n)
    )
    return AffineTuple(pairs)


class TestAffineTuple:
    def test_requires_even_n(self):
        with pytest.raises(DomainError):
            AffineTuple(((F(0), F(1)), (F(0), F(1)), (F(-1), F(1))))

    def test_range_validation(self):
        with pytest.raises(DomainError):
            AffineTuple(((F(1), F(1)), (F(0), F(1))))
        with pytest.raises(DomainError):
            AffineTuple(((F(0), F(3)), (F(0), F(1))))


class TestEnumerate:
    def test_identity_pair_family(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        tuples = enumerate_F(1, A, P4)
        got = {t.offsets for t in tuples}
        assert got == {(i, j) for i in range(4) for j in range(4) if abs(i - j) <= 1}
        assert all(t.cls == "internal" for t in tuples)

    def test_disjoint_copies_empty(self):
        A = AffineTuple(((F(0), F(1)), (F(-2), F(1))))
        assert enumerate_F(1, A, P4) == []

    def test_matches_brute_force_full_grid(self):
        rnd = random.Random(3)
        for _ in range(25):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4]) if k == 1 else 2
            A = random_tuple(rnd, n)
            mine = {t.offsets for t in enumerate_F(k, A, P88)}
            assert mine == brute_force_F(k, A, P88)

    def test_matches_brute_force_restricted(self, fixture_a):
        rnd = random.Random(5)
        for _ in range(15):
            A = random_tuple(rnd, 2)
            mine = {t.offsets for t in enumerate_F(2, A, fixture_a.params, restrict_to=fixture_a)}
            assert mine == brute_force_F(2, A, fixture_a.params, restrict=fixture_a)

    def test_capacity_cap(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        with pytest.raises(CapacityError):
            enumerate_F(1, A, P4, cap=3)

    def test_joint_permutation_invariance(self):
        rnd = random.Random(11)
        for _ in range(10):
            A = random_tuple(rnd, 4)
            perm = [2, 0, 3, 1]
            base = {t.offsets for t in enumerate_F(1, A, P88)}
            permuted = {
                t.offsets for t in enumerate_F(1, AffineTuple(tuple(A.pairs[p] for p in perm)), P88)
            }
            assert permuted == {tuple(o[p] for p in perm) for o in base}


class TestClassify:
    def test_partition(self):
        rnd = random.Random(13)
        for _ in range(15):
            A = random_tuple(rnd, 2)
            tuples = enumerate_F(2, A, P88)
            f_int, f_tr = classify(tuples)
            assert len(f_int) + len(f_tr) == len(tuples)

    def test_gap_five_pair_is_transverse(self):
        # same parent, last digits 1 and 6, stretched into contact by r1 != r2:
        # copy1 = -2 + 2*I(1) = [0, 2/16], copy2 = -21/16 + I(6) = [0, 1/16]
        params = custom([16], [F(1, 4)])
        A = AffineTuple(((F(-2), F(2)), (F(-21, 16), F(1))))
        tuples = enumerate_F(1, A, params)
        offs = {t.offsets for t in tuples}
        assert (0, 5) in offs
        pair = next(t for t in tuples if t.offsets == (0, 5))
        assert pair.cls == "transverse"

    def test_membership_precedes_class(self):
        # wide-gap indices whose intervals do not meet are simply absent
        params = custom([32], [F(1, 4)])
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        offs = {t.offsets for t in enumerate_F(1, A, params)}
        assert (0, 9) not in offs

    def test_witness_recorded(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        t = enumerate_F(1, A, P4)[0]
        assert t.cls == "internal" and t.witness == (1, 2)


class TestCountInternal:
    def test_matches_brute_force_and_enumeration(self):
        rnd = random.Random(31)
        for _ in range(20):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4]) if k == 1 else 2
            A = random_tuple(rnd, n)
            ref = internal_oracle(brute_force_F(k, A, P88), P88.level_N(k))
            assert count_internal(k, A, P88) == ref
            assert enumerated_internal(k, A, P88) == ref
            if n == 2:
                assert count_internal_by_offsets(k, A, P88) == ref

    def test_identity_pair_counts_every_near_pair(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        assert count_internal(1, A, P4) == 10
        assert count_internal(1, AffineTuple(A.pairs * 2), P4) == len(
            brute_force_F(1, AffineTuple(A.pairs * 2), P4)
        )

    def test_production_level_2_bounds_past_int64(self):
        # N=16 level 2: the first slot's starts and the admissible bounds
        # need more than 63 bits, so an int64 evaluation would wrap
        grid = DiscretizationGrid.for_level(P16, 2)
        rng = np.random.default_rng(5)
        widest = 0
        for i in range(16):
            A = grid.sample_tuple(rng, 2, near_diagonal=(i % 2 == 0))
            M, (C1, C2), (G1, G2) = _slot_geometry(2, A, P16)
            s_last = C1 + G1 * (2 * M - 1)
            widest = max(widest, abs(s_last + G1 - C2), abs(C2 + G2 - s_last))
            got = count_internal(2, A, P16)
            assert got == count_internal_by_offsets(2, A, P16) == enumerated_internal(2, A, P16)
        assert widest >= 1 << 63

    def test_denominators_far_past_int64(self):
        # odd denominators near 2^58 put every start and bound beyond int64,
        # the internal rows included
        c = -2 + F(1, 5**25)
        r = 2 - F(1, 3**37)
        A = AffineTuple(((c, r), (c + F(1, 7**20), r - F(1, 11**17))))
        for params, k in ((P88, 1), (P88, 2), (P16, 2)):
            got = count_internal(k, A, params)
            assert got == count_internal_by_offsets(k, A, params)
            assert got == enumerated_internal(k, A, params) > 0
            if params.M(k) <= 64:
                assert got == internal_oracle(brute_force_F(k, A, params), params.level_N(k))

    @pytest.mark.parametrize(
        "params, k",
        [(P4, 1), (custom([3, 5], [F(1, 4)] * 2), 2), (P44, 2), (P88, 1), (P88, 2), (P16, 2)],
    )
    def test_equal_dilations_shifted_by_whole_cells(self, params, k):
        # G1 = G2: slot 2 shifted j cells down meets (o1, o1 + delta) iff
        # |delta - j| <= 1, so each contact inequality holds for every o1 or
        # for none.  j = 0 is the identical pair, j = +-4 and +-5 keep only
        # delta = +-4 (last digits 0..N_k-5 or 4..N_k-1), |j| >= 6 meets only
        # across parents, and N_k < 9 clips the delta = +-4 window to nothing.
        M, N = params.M(k), params.level_N(k)
        for r in (F(1), F(5, 4)):
            for j in range(-6, 7):
                c = F(-2)
                A = AffineTuple(((c, r), (c - j * r / M, r)))
                expected = sum(
                    M // N * max(N - abs(d), 0) for d in range(-4, 5) if abs(d - j) <= 1
                )
                got = count_internal(k, A, params)
                assert got == expected
                if M <= 256:
                    assert got == count_internal_by_offsets(k, A, params)

    def test_identical_pairs_count_the_diagonal_and_its_neighbours(self):
        for params, k in ((P4, 1), (P88, 2), (P16, 2)):
            M, parents = params.M(k), params.M(k) // params.level_N(k)
            for c, r in ((F(0), F(1)), (F(-2), F(3, 2)), (F(-4), F(2)), (F(-7, 3), F(9, 7))):
                A = AffineTuple(((c, r), (c, r)))
                assert count_internal(k, A, params) == M + 2 * (M - parents)

    def test_single_point_contacts_at_either_end(self):
        # slot 1 is 1 + [o1, o1 + 1]/M and slot 2 is 1 + [2*o2, 2*o2 + 2]/M:
        # o1 + 1 = 2*o2 touches at slot 1's right end, o1 = 2*o2 + 2 at its
        # left end, and each bound of o1 is an exact division there
        slow, fast = (F(0), F(1)), (F(-1), F(2))
        for params, k in ((P4, 1), (P88, 1), (P44, 2)):
            for pairs in ((slow, fast), (fast, slow)):
                A = AffineTuple(pairs)
                family = brute_force_F(k, A, params)
                ref = internal_oracle(family, params.level_N(k))
                assert count_internal(k, A, params) == ref
                assert count_internal_by_offsets(k, A, params) == ref
                M, N = params.M(k), params.level_N(k)
                internal = [o for o in family if o[0] // N == o[1] // N and abs(o[0] - o[1]) <= 4]
                o_slow = [o[pairs.index(slow)] for o in internal]
                o_fast = [o[pairs.index(fast)] for o in internal]
                ends = {
                    "right" if a + 1 == 2 * b else "left"
                    for a, b in zip(o_slow, o_fast)
                    if a + 1 == 2 * b or a == 2 * b + 2
                }
                assert ends == {"left", "right"}

    def test_empty_band(self):
        # the images [1, 2] and [-3, -2] never meet; a pair that meets only
        # far from the diagonal has no internal member
        for params, k in ((P4, 1), (P88, 2), (P16, 2)):
            apart = AffineTuple(((F(0), F(1)), (F(-4), F(1))))
            assert count_internal(k, apart, params) == 0
            assert enumerated_internal(k, apart, params) == 0
        crossing_late = AffineTuple(((F(0), F(1)), (F(-3), F(2))))
        assert count_internal(2, crossing_late, P88) == 0
        assert count_internal_by_offsets(2, crossing_late, P88) == 0

    def test_work_does_not_grow_with_the_grid(self):
        # the identity pair at M_2 = 2^21, exactly the grid cap: the offset
        # pass takes seconds and hundreds of MB here; the closed form a few
        # Python ints per delta
        params = custom([2048, 1024], [F(1, 4), F(1, 4)])
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        assert params.M(2) == DEFAULT_GRID_CAP == 2**21
        tracemalloc.start()
        try:
            got = count_internal(2, A, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 2**21 + 2 * (2**21 - 2**11)
        assert peak < 64 * 1024

    def test_transverse_production_tuple(self, z16_set):
        # slot 2 crosses slot 1 at o1 = 0, so only the first parent's
        # diagonal end holds internal pairs: fewer than sqrt(P_2)
        A = AffineTuple(((F(0), F(1)), (F(-1), F(2))))
        got = count_internal(2, A, P16)
        assert got == count_internal_by_offsets(2, A, P16) == 17
        assert classify_A(A, z16_set, 2) == "transverse"

    def test_threshold_boundary_tuples(self):
        # the tuples of TestClassifyA::test_threshold_boundary_strict: four
        # internal members against a threshold of four, then fewer
        params = custom([8], [F(1, 4)], epsilon0=F(1, 3))
        A2 = AffineTuple(((F(0), F(1)), (F(-9, 16), F(1))))
        A3 = AffineTuple(((F(0), F(1)), (F(-11, 16), F(1))))
        assert count_internal(1, A2, params) == enumerated_internal(1, A2, params) == 4
        assert count_internal(1, A3, params) == enumerated_internal(1, A3, params) < 4

    def test_rejects_bad_arguments(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        with pytest.raises(CapacityError):
            count_internal(3, A, P16)

    def test_capacity_message_names_level_and_cap(self):
        # gate (c) and correlate reach the grid check through classify_A,
        # which has no restrict_to to suggest
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        params = custom([4096, 1024], [F(1, 4), F(1, 4)])
        with pytest.raises(CapacityError) as info:
            count_internal(2, A, params)
        assert str(info.value) == "level 2 index grid M_2 = 4194304 exceeds cap 2097152"

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_grid_tuples(self, data):
        params, k, n = data.draw(
            st.sampled_from([(P88, 1, 2), (P88, 1, 4), (P888, 2, 2), (P16, 1, 2), (P16, 2, 2)])
        )
        grid = DiscretizationGrid.for_level(params, k)
        ci = data.draw(st.integers(1, grid.n_c))
        ri = data.draw(st.integers(1, grid.n_r))
        w = data.draw(st.sampled_from([grid.diag_window, grid.n_c]))
        idx = [(ci, ri)]
        for _ in range(n - 1):
            cj = min(max(ci + data.draw(st.integers(-w, w)), 1), grid.n_c)
            rj = min(max(ri + data.draw(st.integers(-w, w)), 1), grid.n_r)
            idx.append((cj, rj))
        A = AffineTuple(tuple((grid.c_value(c), grid.r_value(r)) for c, r in idx))
        got = count_internal(k, A, params)
        assert got == enumerated_internal(k, A, params)
        if n == 2:
            assert got == count_internal_by_offsets(k, A, params)


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


@st.composite
def slot_tuples(draw):
    """(k, A, params) with A.n in {4, 6} on a custom grid of N_k in 4..12:
    slots near one base pair (up to six cells apart), repeats of earlier slots,
    and free draws."""
    n = draw(st.sampled_from([4, 6]))
    counts = draw(st.lists(st.integers(4, 12), min_size=1, max_size=2))
    params = custom(counts, [F(1, 4)] * len(counts))
    k = draw(st.integers(1, len(counts)))
    M = params.M(k)
    den = draw(st.sampled_from([1, 4, 8, 12]))
    base = (F(draw(st.integers(-4 * den, 0)), den), F(draw(st.integers(den, 2 * den)), den))
    pairs = [base]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["near", "near", "repeat", "free"]))
        if kind == "repeat":
            pairs.append(draw(st.sampled_from(pairs)))
        elif kind == "near":
            q = draw(st.sampled_from([1, 2, 3]))
            c = _clamp(base[0] + F(draw(st.integers(-6, 6)), q * M), -4, 0)
            r = _clamp(base[1] + F(draw(st.integers(-2, 2)), q * M), 1, 2)
            pairs.append((c, r))
        else:
            pairs.append((F(draw(st.integers(-4 * den, 0)), den), F(draw(st.integers(den, 2 * den)), den)))
    order = draw(st.permutations(range(n)))
    return k, AffineTuple(tuple(pairs[i] for i in order)), params


def walk_and_brute_force(k, A, params):
    """The walk's internal count, checked against brute force where M_k^n is small."""
    ref = enumerated_internal(k, A, params)
    if params.M(k) ** A.n <= 4096:
        assert ref == internal_oracle(brute_force_F(k, A, params), params.level_N(k))
    return ref


class TestCountInternalMerged:
    """``count_internal`` for n >= 4 against the walk (``lemmas._walk``)."""

    @given(case=slot_tuples())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_walk(self, case):
        k, A, params = case
        assert count_internal(k, A, params) == walk_and_brute_force(k, A, params)

    @given(case=slot_tuples())
    @settings(max_examples=25, deadline=None)
    def test_python_int_positions_equal_the_walk(self, case):
        k, A, params = case
        with python_ints():
            got = count_internal(k, A, params)
        assert got == enumerated_internal(k, A, params)

    @pytest.mark.parametrize("params, k", [(P4, 1), (custom([4, 5], [F(1, 4)] * 2), 2), (P88, 2)])
    @pytest.mark.parametrize("n", [4, 6, 10])
    def test_repeated_slots(self, params, k, n):
        # every breakpoint is shared by all or half the slots: the contacts
        # choose left or right in up to n slots at once (past 8 slots, the
        # free slots of a position take more than one byte)
        for pairs in (((F(0), F(1)),) * n, ((F(-2), F(3, 2)), (F(-2, 3), F(5, 4))) * (n // 2)):
            A = AffineTuple(pairs)
            assert count_internal(k, A, params) == walk_and_brute_force(k, A, params)

    @pytest.mark.parametrize("params", [custom([8], [F(1, 4)]), custom([4, 2], [F(1, 4)] * 2)])
    def test_single_point_common_range(self, params):
        # segments [1, 2], [-1, 1], [1/2, 2] and [1/3, 5/3] meet only at 1,
        # where slot 1 starts, slot 2 ends, slot 4 breaks inside (free) and
        # slot 3 has no breakpoint (3j/16 = 1/2 has no integer j at M = 8)
        k = len(params.level_counts)
        pairs = ((F(0), F(1)), (F(-3), F(2)), (F(-1), F(3, 2)), (F(-1), F(4, 3)))
        two_free = pairs[:2] + (pairs[3], pairs[3])  # every left/right choice is a member
        for members, slots in ((2, pairs), (2, pairs[::-1]), (2, pairs[1:] + pairs[:1]), (4, two_free)):
            A = AffineTuple(slots)
            family = brute_force_F(k, A, params)
            assert len(family) == members
            ref = internal_oracle(family, params.level_N(k))
            assert count_internal(k, A, params) == enumerated_internal(k, A, params) == ref

    @pytest.mark.parametrize("params", [custom([12], [F(1, 4)]), custom([4, 3], [F(1, 4)] * 2)])
    def test_contacts_at_both_ends_of_the_common_range(self, params):
        # common range [1, 5/3]: at 1 slots 1, 2 and 3 start and slot 4
        # breaks inside; at 5/3 slot 4 ends and slots 1, 2 and 3 break inside
        k = len(params.level_counts)
        A = AffineTuple(((F(0), F(1)), (F(0), F(1)), (F(-1), F(2)), (F(-1), F(4, 3))))
        family = brute_force_F(k, A, params)
        M = params.M(k)
        meets = set()
        for o in family:
            lo = max(c + r * (1 + F(j, M)) for (c, r), j in zip(A.pairs, o))
            hi = min(c + r * (1 + F(j + 1, M)) for (c, r), j in zip(A.pairs, o))
            if lo == hi:
                meets.add(lo)
        assert {F(1), F(5, 3)} <= meets
        assert count_internal(k, A, params) == walk_and_brute_force(k, A, params)

    def test_last_digits_four_apart_are_internal_and_five_apart_are_not(self):
        # the four members: (0, 4, 9, 15) and (0, 6, 10, 15) are internal only
        # through one pair of last digits 4 apart, (0, 5, 9, 15) through 5 and
        # 9, and every pair of (0, 5, 10, 15) is 5 or more apart
        params = custom([16], [F(1, 4)])
        A = AffineTuple(((F(-2), F(2)), (F(-21, 16), F(1)), (F(-2), F(5, 4)), (F(-63, 16), F(2))))
        family = enumerate_F(1, A, params)
        assert {t.offsets: t.cls for t in family} == {
            (0, 4, 9, 15): "internal",
            (0, 5, 9, 15): "internal",
            (0, 5, 10, 15): "transverse",
            (0, 6, 10, 15): "internal",
        }
        assert count_internal(1, A, params) == 3

    def test_empty_common_range_makes_no_pass(self):
        # slots 1 and 2 are [1, 2] and [-3, -2]: no tuple at M_2 = 2^21, and
        # nothing of the grid's size is allocated
        params = custom([2048, 1024], [F(1, 4), F(1, 4)])
        A = AffineTuple(((F(0), F(1)), (F(-4), F(1)), (F(0), F(1)), (F(-1), F(2))))
        tracemalloc.start()
        try:
            got = count_internal(2, A, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 0 and peak < 64 * 1024
        A = AffineTuple(((F(0), F(1)), (F(0), F(1)), (F(-4), F(1)), (F(-4), F(1))))
        assert count_internal(1, A, P88) == enumerated_internal(1, A, P88) == 0

    @pytest.mark.parametrize("counts", [[4, 8], [5, 7]])
    def test_digit_window_at_both_ends_of_a_parent(self, counts):
        # slot i shifted by s_i whole cells, s = (0, j, 11, 22): only slots 1
        # and 2 can be near, and for j = +-1 some of their pairs straddle two
        # parents (last digits N_k - 1 and 0), which makes the tuple transverse
        params = custom(counts, [F(1, 4)] * 2)
        M, N = params.M(2), params.level_N(2)
        c, r = F(-1), F(5, 4)
        for j in range(-5, 6):
            A = AffineTuple(tuple((c - s * r / M, r) for s in (0, j, 11, 22)))
            family = enumerate_F(2, A, params)
            internal = sum(t.cls == "internal" for t in family)
            assert count_internal(2, A, params) == internal
            straddling = [t for t in family if abs(t.offsets[0] - t.offsets[1]) == 1 and t.cls == TRANSVERSE]
            assert bool(straddling) == (abs(j) <= 2) and 0 < internal < len(family)

    def test_near_diagonal_memory_at_the_third_level(self):
        # the N=8, K=4 params at k = 3 (M_3 = 2^18): one near-diagonal draw
        # walks 1,048,561 tuples (the walk's count, about 7 s); the merged
        # count holds about 7.5 int64 arrays of the 4(M_3 + 1) breakpoints
        params = fixed_dimension(8, F(1, 4), 4, seed=1)
        grid = DiscretizationGrid.for_level(params, 3)
        A = grid.sample_tuple(np.random.default_rng(0), 4, near_diagonal=True)
        tracemalloc.start()
        try:
            got = count_internal(3, A, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 1048561
        assert peak < 10 * 8 * 4 * (params.M(3) + 1)


def tangency_counts(cset, A, k):
    """(L_int, L_tr): the members of F_int and F_tr with every coordinate selected."""
    f_int, f_tr = classify(enumerate_F(k, A, cset.params, restrict_to=cset))
    return len(f_int), len(f_tr)


class TestTangencyCounts:
    def test_identical_copies_diagonal(self, fixture_a):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        L_int, L_tr = tangency_counts(fixture_a, A, 2)
        assert L_int >= fixture_a.P(2)

    def test_disjoint_copies_zero(self, fixture_a):
        A = AffineTuple(((F(0), F(1)), (F(-3), F(1))))
        assert tangency_counts(fixture_a, A, 2) == (0, 0)

    def test_counts_match_brute_force(self, fixture_a):
        rnd = random.Random(19)
        for _ in range(10):
            A = random_tuple(rnd, 2)
            L_int, L_tr = tangency_counts(fixture_a, A, 2)
            ref = brute_force_F(2, A, fixture_a.params, restrict=fixture_a)
            N_k = fixture_a.params.level_N(2)
            ref_int = sum(
                1
                for (o1, o2) in ref
                if o1 // N_k == o2 // N_k and abs(o1 % N_k - o2 % N_k) <= 4
            )
            assert (L_int, L_tr) == (ref_int, len(ref) - ref_int)


class TestProjectionMultiplicity:
    def test_at_most_four_random_sweep(self):
        rnd = random.Random(23)
        for _ in range(60):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4]) if k == 1 else 2
            A = random_tuple(rnd, n)
            tuples = enumerate_F(k, A, P88)
            for ell in range(1, n + 1):
                rep = projection_multiplicity(tuples, ell, k, P88)
                assert rep.multiplicity <= 4
                assert rep.max_alpha_spread <= 4 * P88.delta(k)

    def test_identity_family_inner_count(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))))
        rep = projection_multiplicity(enumerate_F(1, A, P4), 1, 1, P4)
        assert rep.multiplicity == 3

    def test_empty_family(self):
        rep = projection_multiplicity([], 1, 1, P4)
        assert rep.multiplicity == 0


class TestProximity:
    def test_bound_value(self):
        A = AffineTuple(((F(0), F(1)), (F(-1), F(1))))
        res = proximity_check(A, 2, 160)
        assert res.bound == 1

    def test_small_L_vacuous(self):
        A = AffineTuple(((F(0), F(1)), (F(-4), F(1))))
        res = proximity_check(A, 2, 40)
        assert res.bound == 4 and res.satisfied

    def test_zero_violations_random_sweep(self):
        rnd = random.Random(29)
        for _ in range(60):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4]) if k == 1 else 2
            A = random_tuple(rnd, n)
            f_int, _ = classify(enumerate_F(k, A, P88))
            res = proximity_check(A, n, len(f_int))
            assert res.satisfied


class TestSymdiff:
    def test_identical_intervals(self):
        res = symdiff_bound_check(0, 0, 1, 1, F(1, 2), F(1, 8))
        assert res.measure == 0 and res.satisfied

    def test_two_flap_value(self):
        # x=0, y=eta/2, r=s: measure is 2(y-x) = eta
        eta = F(1, 50)
        res = symdiff_bound_check(0, eta / 2, 1, 1, F(1, 2), eta)
        assert res.measure == eta and res.satisfied

    def test_precondition_rejected(self):
        with pytest.raises(DomainError):
            symdiff_bound_check(0, F(1, 4), 1, 1, F(1, 2), F(1, 8))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_never_violated_under_preconditions(self, data):
        den = 840
        t = F(data.draw(st.integers(5, den - 1)), den)
        eta_cap = t / 2
        eta = eta_cap * F(data.draw(st.integers(1, 99)), 100)
        r = F(1, 2) + F(3, 2) * F(data.draw(st.integers(1, 99)), 100)
        ds = eta * F(data.draw(st.integers(-99, 99)), 100)
        s = min(max(r + ds, F(1, 2) + F(1, 1000)), 2 - F(1, 1000))
        if abs(r - s) >= eta:
            s = r
        x = F(data.draw(st.integers(-200, 200)), 100)
        y = x + eta * F(data.draw(st.integers(-99, 99)), 100)
        res = symdiff_bound_check(x, y, r, s, t, eta)
        assert res.satisfied
