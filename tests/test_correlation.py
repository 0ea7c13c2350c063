"""Correlation functional: exact values, bounds, classes, sampled sups."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cantormax import (
    AffineTuple,
    RngStream,
    c0_constant,
    classify_A,
    custom,
    fixed_dimension,
    lambda_exact,
    lambda_sigma,
    one_dimensional,
    sup_lambda_tr,
    trivial_bound,
)
from cantormax.correlation import CorrelationReport
from cantormax.errors import EmptySampleError
from conftest import density, fits_limbs, float_evaluator, per_gap_oracle, python_ints, random_step

F = Fraction


def evaluate_tuple(A, cset, n, k, c0):
    """One tuple's report from ``lambda_sigma`` and ``classify_A`` called
    directly: the reference for the reports that ``sup_lambda_tr`` builds."""
    lam = lambda_sigma(A, cset, k)
    cls = classify_A(A, cset, k)
    return CorrelationReport(A, k, lam, cls, trivial_bound(cset, n, k), c0)


def pair(c, r):
    return (F(c), F(r))


class TestLambdaExact:
    def test_disjoint_supports_zero(self, fixture_a):
        phi1 = density(fixture_a, 1)
        A = AffineTuple((pair(0, 1), pair(-4, 1)))
        assert lambda_exact(A, [phi1, phi1]) == 0

    def test_identical_copies_fixture(self, fixture_a):
        phi1 = density(fixture_a, 1)
        A = AffineTuple((pair(0, 1), pair(0, 1)))
        assert lambda_exact(A, [phi1, phi1]) == 2

    def test_translation_invariance(self, fixture_a):
        sig = fixture_a.sigma(1)
        rnd = random.Random(2)
        for _ in range(15):
            c1, c2 = F(rnd.randint(-12, 0), 4), F(rnd.randint(-12, 0), 4)
            r1, r2 = F(rnd.randint(4, 8), 4), F(rnd.randint(4, 8), 4)
            t = F(rnd.randint(-7, 7), 3)
            A = AffineTuple(((c1, r1), (c2, r2)))
            v1 = lambda_exact(A, [sig, sig])
            shifted = [(sig, c1 + t, r1), (sig, c2 + t, r2)]
            from cantormax.stepfn import product_integral

            assert product_integral(shifted) == v1

    def test_joint_scaling(self, fixture_a):
        from cantormax.stepfn import product_integral

        sig = fixture_a.sigma(1)
        lam = F(3, 2)
        c1, c2, r1, r2 = F(-1, 2), F(-3, 4), F(5, 4), F(9, 8)
        base = product_integral([(sig, c1, r1), (sig, c2, r2)])
        scaled = product_integral([(sig, lam * c1, lam * r1), (sig, lam * c2, lam * r2)])
        assert scaled == lam * base

    def test_slot_symmetry(self, fixture_a):
        phi1, phi2 = density(fixture_a, 1), density(fixture_a, 2)
        A = AffineTuple((pair(F(-1, 2), F(3, 2)), pair(F(-1, 4), F(5, 4))))
        B = AffineTuple(A.pairs[::-1])
        assert lambda_exact(A, [phi1, phi2]) == lambda_exact(B, [phi2, phi1])

    def test_monte_carlo_oracle(self, fixture_a):
        rnd = random.Random(41)
        rng = np.random.default_rng(17)
        hits = 0
        trials = 40
        for _ in range(trials):
            f1, f2 = random_step(rnd, max_cells=4, span=10), random_step(rnd, max_cells=4, span=10)
            c1, c2 = F(rnd.randint(-8, 0), 2), F(rnd.randint(-8, 0), 2)
            r1, r2 = F(rnd.randint(2, 4), 2), F(rnd.randint(2, 4), 2)
            A = AffineTuple(((c1, r1), (c2, r2)))
            exact = float(lambda_exact(A, [f1, f2]))
            los, his = [], []
            for f, (c, r) in zip((f1, f2), A.pairs):
                s = f.support()
                los.append(float(c + r * s[0]))
                his.append(float(c + r * s[1]))
            lo, hi = min(los), max(his)
            m = 4000
            z = rng.uniform(lo, hi, m)
            v1, v2 = float_evaluator(f1), float_evaluator(f2)
            vals = np.array([v1((zz - float(c1)) / float(r1)) for zz in z])
            vals *= np.array([v2((zz - float(c2)) / float(r2)) for zz in z])
            est = (hi - lo) * vals.mean()
            se = (hi - lo) * vals.std(ddof=1) / math.sqrt(m)
            if se == 0:
                hits += est == exact
            else:
                hits += abs(est - exact) <= 3 * se
        assert hits >= 0.9 * trials


class TestLambdaSigma:
    def test_identical_copies_squared_mass(self, fixture_a):
        A = AffineTuple((pair(0, 1), pair(0, 1)))
        assert lambda_sigma(A, fixture_a, 1) == 2

    def test_disjoint_zero(self, fixture_a):
        A = AffineTuple((pair(0, 1), pair(-4, 1)))
        assert lambda_sigma(A, fixture_a, 1) == 0

    def test_exact_sigma_l2_identity(self, z8_set):
        # int sigma_k^2 = 1/|S_{k+1}| - 1/|S_k| exactly
        for k in (1, 2):
            A = AffineTuple((pair(0, 1), pair(0, 1)))
            got = lambda_sigma(A, z8_set, k)
            want = 1 / z8_set.level(k + 1).measure - 1 / z8_set.level(k).measure
            assert got == want

    def test_trivial_bound_sampled(self, toy88_set):
        rnd = random.Random(31)
        for _ in range(30):
            k = rnd.choice([1, 2])
            n = rnd.choice([2, 4])
            pairs = tuple(
                (F(rnd.randint(-64, 0), 16), F(rnd.randint(16, 32), 16)) for _ in range(n)
            )
            A = AffineTuple(pairs)
            assert abs(lambda_sigma(A, toy88_set, k)) <= trivial_bound(toy88_set, n, k)


class TestTrivialBound:
    def test_fixture_value(self, fixture_a):
        assert trivial_bound(fixture_a, 2, 1) == 32

    def test_unit_mass_case(self):
        params = custom([2, 2], [F(1, 4), F(1, 4)])
        from lemmas import build_deterministic

        full = build_deterministic([{(1,), (2,)}, {(i, j) for i in (1, 2) for j in (1, 2)}], params)
        assert trivial_bound(full, 2, 1) == 8

    def test_monotone_in_mass(self, fixture_a, z8_set):
        # smaller surviving mass means a larger bound
        assert trivial_bound(z8_set, 2, 2) > trivial_bound(z8_set, 2, 1)


class TestClassifyA:
    def test_disjoint_copies_transverse(self, fixture_a):
        A = AffineTuple((pair(0, 1), pair(-4, 1)))
        assert classify_A(A, fixture_a, 2) == "transverse"

    def test_identical_copies_internal(self, fixture_a):
        A = AffineTuple((pair(0, 1), pair(0, 1)))
        assert classify_A(A, fixture_a, 2) == "internal"

    def test_threshold_boundary_strict(self):
        # engineered so #F_int equals P_k^(1-eps0) exactly: strict "<" makes
        # the tuple internal.  With eps0 = 1/3 and all 8 cells selected the
        # threshold is 8^(2/3) = 4; a 9/16 shift yields digit gaps {4, 5},
        # exactly four of which are internal.
        params = custom([8], [F(1, 4)], epsilon0=F(1, 3))
        from lemmas import build_deterministic, enumerate_F

        cset = build_deterministic([{(i,) for i in range(1, 9)}], params)
        A2 = AffineTuple((pair(0, 1), pair(F(-9, 16), 1)))
        f_int = [t for t in enumerate_F(1, A2, params) if t.cls == "internal"]
        assert len(f_int) == 4
        assert classify_A(A2, cset, 1) == "internal"
        # one fewer internal member crosses to transverse
        A3 = AffineTuple((pair(0, 1), pair(F(-11, 16), 1)))
        f_int3 = [t for t in enumerate_F(1, A3, params) if t.cls == "internal"]
        assert len(f_int3) < 4
        assert classify_A(A3, cset, 1) == "transverse"


class TestSupLambda:
    def test_exhaustive_small_pool(self):
        # N=(2,2) with L=1: the level-1 grid's 64 pairs give a pool of 4096
        # tuples, small enough that every one is a candidate
        from lemmas import build_deterministic
        from cantormax.correlation import grid_tuples
        from cantormax.grids import DiscretizationGrid

        params = custom([2, 2], [F(1, 4), F(1, 4)], L=1)
        cset = build_deterministic([{(1,), (2,)}, {(1, 2), (2, 1)}], params)
        pool = grid_tuples(DiscretizationGrid.for_level(params, 1), 2)
        res = sup_lambda_tr(cset, 2, 1, budget=5, rng=np.random.default_rng(1))
        assert res.coverage == {"mode": "exhaustive", "tuples": len(pool)}
        # oracle: brute max over the pool, transverse only
        best, seen = F(0), 0
        for A in pool:
            if classify_A(A, cset, 1) == "transverse":
                seen += 1
                best = max(best, abs(lambda_sigma(A, cset, 1)))
        assert res.max_abs == best
        assert 0 < seen < len(pool) and best > 0
        assert res.transverse_seen == seen
        assert abs(lambda_sigma(res.witness, cset, 1)) == best
        # the full pool leaves nothing to the budget or the stream
        other = sup_lambda_tr(cset, 2, 1, budget=1, rng=np.random.default_rng(9))
        assert (other.max_abs, other.witness) == (res.max_abs, res.witness)

    def test_no_transverse_draw_raises(self, z8_set):
        # a budget of one near-diagonal grid draw at k=1 lands on an internal
        # tuple: the sup has no candidate to take
        with pytest.raises(EmptySampleError, match="no transverse tuples among 1 candidates at k=1"):
            sup_lambda_tr(z8_set, 2, 1, 1, RngStream(0).child(1))
        # gate (c) on the same stream takes the sup over the empty set
        from cantormax import gate_correlation

        rep = gate_correlation(z8_set, 1, 2, 1, RngStream(0).child(1))
        assert rep.passed
        assert "gate passes vacuously" in rep.detail
        assert rep.measured == 0.0
        assert "witness" not in rep.extras

    def test_budget_zero_raises(self, fixture_a):
        with pytest.raises(EmptySampleError):
            sup_lambda_tr(fixture_a, 2, 1, budget=0, rng=np.random.default_rng(1))

    def test_sampled_max_below_trivial(self, z8_set):
        res = sup_lambda_tr(z8_set, 2, 1, budget=24, rng=RngStream(3).child(1))
        assert res.max_abs <= trivial_bound(z8_set, 2, 1)
        assert res.coverage["mode"] == "sampled"


class TestClassifyFirst:
    @pytest.mark.parametrize("set_name", ["z8_set", "z16_set"])
    def test_gate_c_computes_lambda_only_for_transverse(self, set_name, request, monkeypatch):
        import cantormax.correlation as corr
        from cantormax import gate_correlation

        cset = request.getfixturevalue(set_name)
        calls = []
        original = corr.lambda_sigma
        monkeypatch.setattr(corr, "lambda_sigma", lambda *a: calls.append(a) or original(*a))
        rep = gate_correlation(cset, 2, 2, 6, RngStream(1).child(9))
        seen = rep.extras["transverse_seen"]
        assert 0 < seen < rep.extras["coverage"]["tuples"]
        assert len(calls) == seen

    def test_reports_equal_evaluate_tuple(self, z8_set):
        from dataclasses import fields

        from cantormax.grids import DiscretizationGrid

        res = sup_lambda_tr(z8_set, 2, 2, 8, RngStream(1).child(9))
        grid = DiscretizationGrid.for_level(z8_set.params, 2)
        rng = RngStream(1).child(9)
        candidates = [grid.sample_tuple(rng, 2, near_diagonal=(i % 2 == 0)) for i in range(8)]
        c0 = c0_constant(z8_set.params, 2, 2)
        assert [rep.A for rep in res.reports] == candidates
        assert {rep.cls for rep in res.reports} == {"internal", "transverse"}
        for rep, A in zip(res.reports, candidates):
            ref = evaluate_tuple(A, z8_set, 2, 2, c0)
            for f in fields(ref):
                assert getattr(rep, f.name) == getattr(ref, f.name)
            assert (rep.within_trivial, rep.within_c0) == (ref.within_trivial, ref.within_c0)
            assert rep.to_json_dict() == ref.to_json_dict()


class TestC0Constant:
    def test_hand_evaluation(self):
        # independent term-by-term evaluation for n=2, k=1, B=10, L=2,
        # fixed-dimension N=16, eps=1/4
        params = fixed_dimension(16, F(1, 4), 3)
        n, k, B, L = 2, 1, 10.0, 2
        lead = 4 ** (n + 2) * math.factorial(n) * B * 2 ** (k * (n + 1.5))
        prod = 1.0
        for j in range(1, k + 1):
            eps_j = 0.25
            prod *= params.level_N(j) ** (-0.5 + eps_j * (n - 0.5))
        prod *= params.level_N(k + 1) ** (n * 0.25)
        inner = math.log(4**n * math.factorial(n) * B)
        for j in range(1, k + 2):
            inner += 2 * L * n * math.log(params.level_N(j))
        want = lead * prod * math.sqrt(inner)
        got = c0_constant(params, n, k)
        assert abs(got - want) / want < 1e-9

    def test_monotone_in_B(self):
        # B enters linearly up front (and once more, weakly, inside the log)
        lo = c0_constant(fixed_dimension(16, F(1, 4), 3, B=F(10)), 2, 1)
        hi = c0_constant(fixed_dimension(16, F(1, 4), 3, B=F(20)), 2, 1)
        assert hi > 2 * lo
        assert hi < 2.1 * lo

    def test_one_dim_regime_eventually_decays(self):
        params = one_dimensional(10**4, 5)
        assert c0_constant(params, 2, 3) < c0_constant(params, 2, 2)

    def test_rounding_direction(self):
        params = fixed_dimension(16, F(1, 4), 3)
        assert c0_constant(params, 2, 1, "down") < c0_constant(params, 2, 1, "up")


class TestTwoLimbPath:
    def test_production_scale_matches_python_fallback(self, z16_set):
        # at N=16, k=2 the scaled grid positions need two 64-bit limbs;
        # compare the limb encoding against the Python-int one
        import cantormax.stepfn as sf
        from cantormax.grids import DiscretizationGrid

        grid = DiscretizationGrid.for_level(z16_set.params, 2)
        rng = np.random.default_rng(77)
        cases = []
        for _ in range(2):
            A = grid.sample_tuple(rng, 2, near_diagonal=True)
            cases.append((A, lambda_exact(A, [z16_set.sigma(2)] * 2)))
        assert any(v != 0 for _, v in cases)
        with python_ints():
            for A, want in cases:
                assert lambda_exact(A, [z16_set.sigma(2)] * 2) == want
                entries = [(z16_set.sigma(2), c, r) for c, r in A.pairs]
                assert per_gap_oracle(sf.product_integral, entries) == want


class TestMergeKernelOnSets:
    def test_linear_combination_matches_sweep_on_sigma_2(self, z8_set):
        # sixteen weighted, dilated and translated copies of sigma_2, as in
        # the free-translation adjoint; exact positions far beyond 2^53
        import cantormax.stepfn as sf
        from cantormax.grids import DiscretizationGrid
        from cantormax.stepfn import linear_combination, power_integral

        sig = z8_set.sigma(2)
        grid = DiscretizationGrid.for_level(z8_set.params, 2)
        rng = np.random.default_rng(16)
        pairs = [grid.sample_tuple(rng, 2, near_diagonal=True).pairs[0] for _ in range(16)]
        terms = [(F((-1) ** i * (i + 1), 17), sig, c, r) for i, (c, r) in enumerate(pairs)]
        D, _, prepared, _ = sf._prepare_weighted(terms)
        assert D > 1 << 53 and fits_limbs(prepared)
        got = linear_combination(terms)
        powers = [power_integral(terms, p) for p in (1, 2)]
        with python_ints():
            assert got == linear_combination(terms)
            assert powers == [power_integral(terms, p) for p in (1, 2)]
        assert got == per_gap_oracle(linear_combination, terms)
        assert powers == [per_gap_oracle(power_integral, terms, p) for p in (1, 2)]
        assert powers == [got.abs().lp_power(p) for p in (1, 2)]
        assert got.n_cells > 1000


class TestSupportClipping:
    @staticmethod
    def _sigma_2_candidates(cset):
        """Every level-3 gate (c) candidate of the set's construction, and
        every k=2 candidate of ``correlate`` with its default seed 0."""
        from cantormax.correlation import _transverse_scan
        from cantormax.randomize import GATE_C_STREAM_TAG

        stream = RngStream(cset.params.seed).child(3, cset.accepted_retries[2], GATE_C_STREAM_TAG)
        scans = [_transverse_scan(cset, 2, 2, 6, stream), _transverse_scan(cset, 2, 2, 8, RngStream(0).child(90, 2))]
        return [(A, cls) for scan in scans for A, cls in zip(scan.candidates, scan.classes)]

    def test_sigma_2_lambdas_match_unclipped_merge(self, z16_set):
        # transverse, near-diagonal (internal) and disjoint tuples alike; the
        # near-diagonal ones merge their common support in several batches
        from unittest import mock

        import cantormax.stepfn as sf
        from conftest import unclipped_product_integral

        sig = z16_set.sigma(2)
        seen, batched = set(), set()
        for A, cls in self._sigma_2_candidates(z16_set):
            want = unclipped_product_integral([(sig, c, r) for c, r in A.pairs])
            with mock.patch.object(sf, "_merge", wraps=sf._merge) as spy:
                assert lambda_sigma(A, z16_set, 2) == want
            seen.add((cls, want == 0))
            batched.add(cls if spy.call_count > 1 else None)
        assert {("internal", False), ("transverse", False), ("transverse", True)} <= seen
        assert "internal" in batched

    def test_transverse_lambdas_merge_a_small_share(self, z16_set):
        from unittest import mock

        import cantormax.stepfn as sf

        sig = z16_set.sigma(2)
        full = 2 * len(sig._u)
        assert full == 677524
        merged, met = [], []
        real_merge = sf._merge

        def counting_merge(prepared, mults):
            merged.append(sum(len(fn._u) for _, _, fn in prepared))
            return real_merge(prepared, mults)

        with mock.patch.object(sf, "_merge", counting_merge):
            for A, cls in self._sigma_2_candidates(z16_set):
                if cls == "transverse":
                    _, prepared = sf._prepare_factors([(sig, c, r) for c, r in A.pairs])
                    meet = len(sf._common_support(prepared)) > 0
                    merged.clear()
                    lambda_sigma(A, z16_set, 2)
                    # no merge exactly when the supports meet in a null set,
                    # and a small share of the breakpoints over all batches
                    assert bool(merged) == meet
                    assert sum(merged) < 0.15 * full
                    met.append(meet)
        assert any(met) and not all(met)


class TestReports:
    def test_report_flags(self, fixture_a):
        A = AffineTuple((pair(0, 1), pair(0, 1)))
        rep = evaluate_tuple(A, fixture_a, 2, 1, c0=1e6)
        assert rep.within_trivial and rep.within_c0
        assert rep.cls == "internal"
        d = rep.to_json_dict()
        assert d["lambda"] == "2/1"


class TestExhaustiveGridCoverage:
    def test_tiny_grid_enumerated(self):
        # N=(2,2) with L=1: 16*4 = 64 grid pairs, 4096 pair-tuples at n=2
        from cantormax import gate_correlation, RngStream
        from lemmas import build_deterministic
        from cantormax.correlation import grid_tuples
        from cantormax.grids import DiscretizationGrid

        params = custom([2, 2], [F(1, 4), F(1, 4)], L=1)
        cset = build_deterministic(
            [{(1,), (2,)}, {(1, 1), (2, 2)}], params
        )
        grid = DiscretizationGrid.for_level(params, 1)
        tuples = grid_tuples(grid, 2)
        assert tuples is not None and len(tuples) == grid.total_pairs() ** 2
        res = sup_lambda_tr(cset, 2, 1, budget=1, rng=RngStream(0).child(1))
        assert res.coverage["mode"] == "exhaustive"
        # oracle: brute max over every grid tuple, transverse only
        best = F(0)
        for A in tuples:
            if classify_A(A, cset, 1) == "transverse":
                best = max(best, abs(lambda_sigma(A, cset, 1)))
        assert res.max_abs == best
        rep = gate_correlation(cset, 1, 2, 1, RngStream(0).child(2))
        assert rep.extras["coverage"]["mode"] == "exhaustive"
        assert rep.passed


class TestGridSample:
    def test_sampled_tuple_equals_tuple_of_its_pairs(self, z8_set):
        from cantormax.grids import DiscretizationGrid

        grid = DiscretizationGrid.for_level(z8_set.params, 2)
        rng = np.random.default_rng(5)
        for near_diagonal in (False, True):
            A = grid.sample_tuple(rng, 2, near_diagonal=near_diagonal)
            B = AffineTuple(A.pairs)
            assert A == B and hash(A) == hash(B)
