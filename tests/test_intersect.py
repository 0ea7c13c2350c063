"""Intersection family enumeration, tangency classes, and the two geometric bounds."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantormax import (
    AffineTuple,
    classify,
    custom,
    enumerate_F,
    projection_multiplicity,
    proximity_check,
    symdiff_bound_check,
    tangency_counts,
)
from cantormax.errors import CapacityError, DomainError

F = Fraction

P4 = custom([4], [F(1, 4)])
P44 = custom([4, 4], [F(1, 4), F(1, 4)])
P88 = custom([8, 8], [F(1, 4), F(1, 4)])


def brute_force_F(n, k, A, params, restrict=None):
    """All-pairs oracle over the full index grid (or selected offsets)."""
    M = params.M(k)
    offsets = list(range(M)) if restrict is None else list(restrict.level(k).offsets)
    spans = []
    for o in offsets:
        a = 1 + F(o, M)
        spans.append((a, a + F(1, M)))
    out = set()
    for combo in itertools.product(range(len(offsets)), repeat=n):
        lo = max(A.pairs[l][0] + A.pairs[l][1] * spans[c][0] for l, c in enumerate(combo))
        hi = min(A.pairs[l][0] + A.pairs[l][1] * spans[c][1] for l, c in enumerate(combo))
        if lo <= hi:
            out.add(tuple(offsets[c] for c in combo))
    return out


def random_tuple(rnd, n, level):
    pairs = tuple(
        (F(rnd.randint(-32, 0), 8), F(rnd.randint(8, 16), 8)) for _ in range(n)
    )
    return AffineTuple(pairs, level)


class TestAffineTuple:
    def test_requires_even_n(self):
        with pytest.raises(DomainError):
            AffineTuple(((F(0), F(1)), (F(0), F(1)), (F(-1), F(1))), 1)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            AffineTuple(((F(1), F(1)), (F(0), F(1))), 1)
        with pytest.raises(DomainError):
            AffineTuple(((F(0), F(3)), (F(0), F(1))), 1)


class TestEnumerate:
    def test_identity_pair_family(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))), 1)
        tuples = enumerate_F(2, 1, A, P4)
        got = {t.offsets for t in tuples}
        assert got == {(i, j) for i in range(4) for j in range(4) if abs(i - j) <= 1}
        assert all(t.cls == "internal" for t in tuples)

    def test_disjoint_copies_empty(self):
        A = AffineTuple(((F(0), F(1)), (F(-2), F(1))), 1)
        assert enumerate_F(2, 1, A, P4) == []

    def test_matches_brute_force_full_grid(self):
        rnd = random.Random(3)
        for _ in range(25):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4]) if k == 1 else 2
            A = random_tuple(rnd, n, k)
            mine = {t.offsets for t in enumerate_F(n, k, A, P88)}
            assert mine == brute_force_F(n, k, A, P88)

    def test_matches_brute_force_restricted(self, fixture_a):
        rnd = random.Random(5)
        for _ in range(15):
            A = random_tuple(rnd, 2, 2)
            mine = {t.offsets for t in enumerate_F(2, 2, A, fixture_a.params, restrict_to=fixture_a)}
            assert mine == brute_force_F(2, 2, A, fixture_a.params, restrict=fixture_a)

    def test_capacity_cap(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))), 1)
        with pytest.raises(CapacityError):
            enumerate_F(2, 1, A, P4, cap=3)

    def test_joint_permutation_invariance(self):
        rnd = random.Random(11)
        for _ in range(10):
            A = random_tuple(rnd, 4, 1)
            perm = [2, 0, 3, 1]
            base = {t.offsets for t in enumerate_F(4, 1, A, P88)}
            permuted = {
                t.offsets for t in enumerate_F(4, 1, A.permuted(perm), P88)
            }
            assert permuted == {tuple(o[p] for p in perm) for o in base}


class TestClassify:
    def test_partition(self):
        rnd = random.Random(13)
        for _ in range(15):
            A = random_tuple(rnd, 2, 2)
            tuples = enumerate_F(2, 2, A, P88)
            f_int, f_tr = classify(tuples)
            assert len(f_int) + len(f_tr) == len(tuples)

    def test_gap_five_pair_is_transverse(self):
        # same parent, last digits 1 and 6, stretched into contact by r1 != r2:
        # copy1 = -2 + 2*I(1) = [0, 2/16], copy2 = -21/16 + I(6) = [0, 1/16]
        params = custom([16], [F(1, 4)])
        A = AffineTuple(((F(-2), F(2)), (F(-21, 16), F(1))), 1)
        tuples = enumerate_F(2, 1, A, params)
        offs = {t.offsets for t in tuples}
        assert (0, 5) in offs
        pair = next(t for t in tuples if t.offsets == (0, 5))
        assert pair.cls == "transverse"

    def test_membership_precedes_class(self):
        # wide-gap indices whose intervals do not meet are simply absent
        params = custom([32], [F(1, 4)])
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))), 1)
        offs = {t.offsets for t in enumerate_F(2, 1, A, params)}
        assert (0, 9) not in offs

    def test_witness_recorded(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))), 1)
        t = enumerate_F(2, 1, A, P4)[0]
        assert t.cls == "internal" and t.witness == (1, 2)


class TestTangencyCounts:
    def test_identical_copies_diagonal(self, fixture_a):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))), 2)
        L_int, L_tr = tangency_counts(fixture_a, A, 2, 2)
        assert L_int >= fixture_a.P(2)

    def test_disjoint_copies_zero(self, fixture_a):
        A = AffineTuple(((F(0), F(1)), (F(-3), F(1))), 2)
        assert tangency_counts(fixture_a, A, 2, 2) == (0, 0)

    def test_counts_match_brute_force(self, fixture_a):
        rnd = random.Random(19)
        for _ in range(10):
            A = random_tuple(rnd, 2, 2)
            L_int, L_tr = tangency_counts(fixture_a, A, 2, 2)
            ref = brute_force_F(2, 2, A, fixture_a.params, restrict=fixture_a)
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
            A = random_tuple(rnd, n, k)
            tuples = enumerate_F(n, k, A, P88)
            for ell in range(1, n + 1):
                rep = projection_multiplicity(tuples, ell, k, P88)
                assert rep.multiplicity <= 4
                assert rep.max_alpha_spread <= 4 * P88.delta(k)

    def test_identity_family_inner_count(self):
        A = AffineTuple(((F(0), F(1)), (F(0), F(1))), 1)
        rep = projection_multiplicity(enumerate_F(2, 1, A, P4), 1, 1, P4)
        assert rep.multiplicity == 3

    def test_empty_family(self):
        rep = projection_multiplicity([], 1, 1, P4)
        assert rep.multiplicity == 0


class TestProximity:
    def test_bound_value(self):
        A = AffineTuple(((F(0), F(1)), (F(-1), F(1))), 1)
        res = proximity_check(A, 2, 160)
        assert res.bound == 1

    def test_small_L_vacuous(self):
        A = AffineTuple(((F(0), F(1)), (F(-4), F(1))), 1)
        res = proximity_check(A, 2, 40)
        assert res.bound == 4 and res.satisfied

    def test_zero_violations_random_sweep(self):
        rnd = random.Random(29)
        for _ in range(60):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4]) if k == 1 else 2
            A = random_tuple(rnd, n, k)
            f_int, _ = classify(enumerate_F(n, k, A, P88))
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
