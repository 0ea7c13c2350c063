"""Randomized construction: layer law, gates, retries, deviation bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cantormax import (
    RngStream,
    azuma_bound,
    bernoulli_layer,
    bernstein_bound,
    boundedness_check,
    build_deterministic,
    construct,
    custom,
    fixed_dimension,
    gate_correlation,
    gate_counts,
    gate_deviation,
    one_dimensional,
    sup_lambda_tr,
    verify_set,
)
import cantormax.randomize as randomize
from cantormax.errors import ConstructionFailure, DomainError

F = Fraction


class TestBernoulliLayer:
    def test_probability_one_keeps_all_children(self):
        rng = np.random.default_rng(0)
        parents = np.array([2, 5], dtype=np.int64)
        out = bernoulli_layer(parents, 4, 1.0, rng)
        assert list(out) == [8, 9, 10, 11, 20, 21, 22, 23]

    def test_probability_zero_keeps_none(self):
        rng = np.random.default_rng(0)
        out = bernoulli_layer(np.array([2, 5], dtype=np.int64), 4, 0.0, rng)
        assert len(out) == 0

    def test_children_only_under_selected_parents(self):
        rng = np.random.default_rng(42)
        parents = np.array([1, 3, 7], dtype=np.int64)
        out = bernoulli_layer(parents, 8, 0.5, rng)
        assert set(int(o) // 8 for o in out) <= {1, 3, 7}

    def test_binomial_mean(self):
        # N_1 = 16, p = 1/4 over many draws: mean count 4.0 +/- 0.1
        rng = np.random.default_rng(7)
        total = 0
        trials = 10_000
        for _ in range(trials):
            total += len(bernoulli_layer(None, 16, 0.25, rng))
        assert abs(total / trials - 4.0) < 0.1

    def test_chunking_consistent(self, monkeypatch):
        parents = np.arange(0, 50, dtype=np.int64)
        a = bernoulli_layer(parents, 16, 0.3, RngStream(5).child(1))
        monkeypatch.setattr(randomize, "DRAW_CHUNK", 64)  # 4 parents per block
        b = bernoulli_layer(parents, 16, 0.3, RngStream(5).child(1))
        # the blocks take the uniforms from the stream in the same order, so
        # the draws do not depend on the block size
        assert np.array_equal(a, b)
        assert all(int(o) // 16 in set(map(int, parents)) for o in b)
        assert len(set(map(int, a))) == len(a)


class TestGateCounts:
    def _single_level(self, P, N=16, eps=F(1, 2)):
        params = custom([N], [eps], depth=1)
        return build_deterministic([{(i,) for i in range(1, P + 1)}], params)

    def test_gate_a_window(self):
        # N_1=16, eps_1=1/2: bounds [2, 8]
        rep_a, _ = gate_counts(self._single_level(2), 1)
        assert rep_a.passed
        rep_a, _ = gate_counts(self._single_level(8), 1)
        assert rep_a.passed
        rep_a, _ = gate_counts(self._single_level(1), 1)
        assert not rep_a.passed
        rep_a, _ = gate_counts(self._single_level(9), 1)
        assert not rep_a.passed

    def test_gate_b_exact_when_P_equals_Q(self):
        # Q_1 = 16^(1/2) = 4 exactly
        _, rep_b = gate_counts(self._single_level(4), 1)
        assert rep_b.passed and rep_b.measured == 0.0

    def test_gate_b_vacuous_width(self):
        # |P_1 - 4| <= 10 * 2 = 20 admits anything in the gate-a window
        _, rep_b = gate_counts(self._single_level(8), 1)
        assert rep_b.passed
        assert rep_b.threshold == pytest.approx(20.0, rel=1e-9)


class TestGateDeviation:
    def test_balanced_fixture_zero(self):
        # p_2 = 1/2 on N=(4,4): two of four children each -> deviation 0
        params = custom([4, 4], [F(1, 2), F(1, 2)])
        cset = build_deterministic(
            [{(2,), (4,)}, {(2, 1), (2, 3), (4, 2), (4, 4)}], params
        )
        rep = gate_deviation(cset, 2)
        assert rep.passed and rep.measured == 0.0

    def test_threshold_hand_value(self):
        # N_2=16, eps_2=1/2, B=10, P_1=4: sqrt(8*4*ln 160) ~ 12.7436
        params = custom([16, 16], [F(1, 2), F(1, 2)])
        sel1 = {(i,) for i in (1, 5, 9, 13)}
        sel2 = {(1, 1), (5, 2), (9, 3), (13, 4)}
        cset = build_deterministic([sel1, sel2], params)
        rep = gate_deviation(cset, 2)
        assert rep.threshold == pytest.approx(math.sqrt(32 * math.log(160)), rel=1e-9)

    def test_all_children_kept_passes(self):
        params = custom([4, 4], [F(1, 2), F(1, 2)])
        sel2 = {(2, j) for j in range(1, 5)} | {(4, j) for j in range(1, 5)}
        cset = build_deterministic([{(2,), (4,)}, sel2], params)
        rep = gate_deviation(cset, 2)
        # deviation |4 - 2| = 2 per parent, bound sqrt(8*2*ln 80) ~ 8.37
        assert rep.passed and rep.measured == 2.0


class TestGateCorrelation:
    def test_passes_on_accepted_set(self, z8_set):
        rep = gate_correlation(z8_set, 1, 2, 8, RngStream(1).child(9))
        assert rep.passed
        assert rep.extras["coverage"]["mode"] == "sampled"

    def test_agrees_with_sup_lambda_tr(self, z8_set):
        # gate (c) thresholds the same transverse scan sup_lambda_tr reports
        rep = gate_correlation(z8_set, 1, 2, 8, RngStream(1).child(9))
        res = sup_lambda_tr(z8_set, 2, 1, 8, RngStream(1).child(9))
        assert rep.measured_exact == f"{res.max_abs.numerator}/{res.max_abs.denominator}"
        assert rep.extras["transverse_seen"] == res.transverse_seen
        assert "stratified" not in rep.extras["coverage"]
        assert res.coverage["stratified"] == "half near-diagonal"

    def test_fails_when_threshold_forced_tiny(self, z8_set, monkeypatch):
        import cantormax.randomize as rz

        monkeypatch.setattr(rz, "c0_constant", lambda *a, **k: -1.0)
        rep = gate_correlation(z8_set, 1, 2, 32, RngStream(1).child(9))
        assert not rep.passed
        assert "witness" in rep.extras


class TestConstruct:
    def test_deterministic_in_seed(self):
        params = fixed_dimension(8, F(1, 4), 2, seed=3, max_retries=50)
        a, _ = construct(params, gate_c_budget=4)
        b, _ = construct(params, gate_c_budget=4)
        assert a.to_json() == b.to_json()

    def test_zero_retries_fails(self):
        params = fixed_dimension(8, F(1, 4), 2, seed=3, max_retries=0)
        with pytest.raises(ConstructionFailure) as exc:
            construct(params)
        assert exc.value.transcript == []

    def test_transcript_records_gates(self, z8_set):
        params = fixed_dimension(8, F(1, 4), 2, seed=3, max_retries=50)
        _, transcript = construct(params, gate_c_budget=4)
        gates = {(r.level, r.gate) for r in transcript}
        assert (1, "a") in gates and (2, "d") in gates and (2, "c") in gates

    def test_verify_idempotent(self, z8_set):
        ok, reports = verify_set(z8_set, gate_c_budget=4)
        assert ok
        ok2, reports2 = verify_set(z8_set, gate_c_budget=4)
        assert [r.to_json_dict() for r in reports] == [r.to_json_dict() for r in reports2]

    def test_verify_catches_broken_nesting(self, z8_set):
        from cantormax.core import CantorLevel, CantorSet

        levels = list(z8_set.levels)
        unselected_parent = min(set(range(levels[0].M_k)) - set(levels[0].offsets))
        orphan = unselected_parent * levels[1].N_k
        bad = CantorLevel(
            k=2,
            N_k=levels[1].N_k,
            M_k=levels[1].M_k,
            offsets=tuple(sorted(set(levels[1].offsets) | {orphan})),
        )
        levels[1] = bad
        broken = CantorSet(z8_set.params, levels, validate=False)
        ok, reports = verify_set(broken, gate_c_budget=2)
        assert not ok
        assert any(r.gate == "structure" and not r.passed for r in reports)


class TestLargeDeviationBounds:
    def test_bernstein_b_gate_value(self):
        # 4 e^(-B^2/8) at B=10
        res = bernstein_bound(100, 100.0, 1.0)
        assert res.value == pytest.approx(4 * math.exp(-12.5), rel=1e-12)

    def test_bernstein_clamps_at_one(self):
        assert bernstein_bound(5, 100.0, 0.0).value == 1.0

    def test_bernstein_hypothesis_flag(self):
        assert not bernstein_bound(10, 1.0, 1.0).applicable
        assert bernstein_bound(10, 60.0, 1.0).applicable

    def test_bernstein_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            bernstein_bound(0, 1.0, 0.1)
        with pytest.raises(DomainError):
            bernstein_bound(5, -1.0, 0.1)

    def test_bernstein_empirical(self):
        # sum of (X_i - p) over N_1 = 16 draws at p = 1/4: the tail fraction
        # never exceeds the bound when the variance hypothesis holds
        rng = np.random.default_rng(123)
        trials = 10_000
        counts = rng.binomial(16, 0.25, size=trials)
        sums = np.abs(counts - 4.0)
        sigma2 = 16 * 0.25 * 0.75
        for lam in (1 / 64, 1 / 32):
            res = bernstein_bound(16, sigma2, lam)
            if not res.applicable:
                continue
            frac = float(np.mean(sums >= 16 * lam))
            assert frac <= res.value

    def test_azuma_hand_value(self):
        assert azuma_bound([1, 1], 2) == pytest.approx(2 * math.exp(-1), rel=1e-12)

    def test_azuma_clamps(self):
        assert azuma_bound([1], 0) == 1.0

    def test_azuma_rejects_empty(self):
        with pytest.raises(DomainError):
            azuma_bound([], 1)

    def test_azuma_martingale_usage(self, z8_set):
        # lambda = 4 delta_k sqrt(2 P_k) sqrt(ln(4^n n! B delta_{k+1}^(-2Ln)))
        # gives a bound below delta_{k+1}^(2Ln) / (4^(n-1) n! B)
        params = z8_set.params
        n, L, B = 2, params.L, float(params.B)
        for k in (1, 2):
            delta_k = float(params.delta(k))
            delta_next = float(params.delta(k + 1))
            P = z8_set.P(k)
            Y = 4**n * math.factorial(n) * B * delta_next ** (-2 * L * n)
            lam = 4 * delta_k * math.sqrt(2 * P) * math.sqrt(math.log(Y))
            got = azuma_bound([4 * delta_k] * P, lam)
            target = delta_next ** (2 * L * n) / (4 ** (n - 1) * math.factorial(n) * B)
            assert got <= target * (1 + 1e-9)


class TestBoundedness:
    def test_one_dimensional_large_base_passes(self):
        rep = boundedness_check(one_dimensional(10**4, 3))
        assert rep.passed

    def test_fixed_dimension_small_base_fails_honestly(self):
        rep = boundedness_check(fixed_dimension(16, F(1, 4), 3))
        assert not rep.passed
        # terms 2^(6k) ln(M_k) / N^((k+1)(1-eps)); the max sits at k=K here
        terms = [
            2 ** (6 * k) * math.log(16.0 ** (k * (k + 1) / 2)) / 16 ** ((k + 1) * 0.75)
            for k in (1, 2, 3)
        ]
        assert rep.measured == pytest.approx(max(terms), rel=1e-6)
        assert terms[0] == pytest.approx(math.log(16) * 64 / 16**1.5, rel=1e-9)

    def test_tiny_subdivisions_fail(self):
        rep = boundedness_check(custom([2, 2, 2, 2], [F(1, 4)] * 4, depth=3))
        assert not rep.passed


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(99).child(3, 1).random(8)
        b = RngStream(99).child(3, 1).random(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = RngStream(99).child(3, 1).random(8)
        b = RngStream(99).child(3, 2).random(8)
        assert not np.array_equal(a, b)


class TestOneDimensionalRegime:
    def test_construct_and_verify(self):
        # N_k = N^(k+1) with eps_k = 1/(k+1): the expected growth N^k is
        # always an exact integer, so gates (b) and (d) take the exact path
        params = one_dimensional(2, 3, seed=4, max_retries=50)
        cset, _ = construct(params, gate_c_budget=4)
        assert cset.depth == 3
        ok, _ = verify_set(cset, gate_c_budget=4)
        assert ok
        assert cset.Q_exact(2) is not None

    def test_layer_capacity_guard(self):
        from cantormax.errors import CapacityError

        rng = RngStream(1).child(0)
        with pytest.raises(CapacityError):
            bernoulli_layer(np.arange(10**5, dtype=np.int64), 10**5, 0.5, rng)


class TestBoundednessRaisedBase:
    def test_larger_base_passes(self):
        # the same fixed-dimension schedule clears the 1/32 threshold once
        # the base is raised far enough
        rep = boundedness_check(fixed_dimension(1024, F(1, 4), 3))
        assert rep.passed


class TestVerifyReplaysGateSampling:
    def test_gate_c_measured_values_reproduced(self):
        # verify derives the same sampling streams from the stored retry
        # indices, so the correlation gate re-measures identical sups
        params = fixed_dimension(8, F(1, 4), 3, seed=31, max_retries=50)
        cset, transcript = construct(params, gate_c_budget=5)
        built = {
            (r.level, r.attempt): r.measured_exact
            for r in transcript
            if r.gate == "c" and r.passed
        }
        ok, reports = verify_set(cset, gate_c_budget=5)
        assert ok
        for rep in reports:
            if rep.gate != "c":
                continue
            attempt = cset.accepted_retries[rep.level - 1]
            assert rep.measured_exact == built[(rep.level, attempt)]

    def test_gate_a_threshold_recursion(self):
        # the exact growth product advances by N_{k+1}^(1-eps) per level
        from cantormax.randomize import _growth_product_bounds

        params = fixed_dimension(16, F(1, 4), 3)
        for k in (1, 2):
            B1, p1 = _growth_product_bounds(params, k)
            B2, p2 = _growth_product_bounds(params, k + 1)
            # compare p2^(1/B2) == p1^(1/B1) * N^(1-eps) via integer powers
            growth = params.expected_growth(k + 1)
            assert growth is not None
            lhs = p2 ** B1
            rhs = (p1 * growth.numerator ** B1) ** B2 if growth.denominator == 1 else None
            assert rhs is not None and lhs == rhs
