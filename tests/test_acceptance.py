"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated
elsewhere.  Criterion 8's ratio half samples the adjoint of the linearized
maximal operator ``mk_operator`` (dilation free, translation the point
itself), and decides the decay on exact values.  The free-translation adjoint
``phi_star`` is not sampled there: its constant draws reach the
cancellation-free value |Omega|^(1/n) r^(1/n) ||sigma_k||_n, and
int sigma_k^2 = 1/|S_{k+1}| - 1/|S_k| grows with k (see README).
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cantormax import (
    AffineTuple,
    RngStream,
    custom,
    dim_bounds,
    dimension_limit_symbolic,
    fixed_dimension,
    lambda_exact,
    lambda_sigma,
    mk_restricted_type_ratio,
    one_dimensional,
    sup_lambda_tr,
    trivial_bound,
)
from cantormax.cli import main as cli_main
from cantormax.grids import DiscretizationGrid
from cantormax.maxops import differentiation_experiment, uniform_assignment
from cantormax.stepfn import PiecewiseLinear, StepFunction, product_integral

from conftest import density, float_evaluator, integral, from_cells, python_int_merges, random_step
from lemmas import (
    classify,
    enumerate_F,
    phi_forward,
    phi_star_apply,
    projection_multiplicity,
    proximity_check,
    symdiff_bound_check,
)

F = Fraction

P88 = custom([8, 8], [F(1, 4), F(1, 4)])


def _report(num: int, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {num:2d}] {status}  {detail}  ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_exact_normalization(fixture_a, toy88_set, z8_set, z4_deep_set):
    suite_sets = [fixture_a, toy88_set, z8_set, z4_deep_set]
    t0 = time.time()
    ok = True
    for cset in suite_sets:
        for k in range(1, cset.depth + 1):
            ok &= integral(density(cset, k)) == 1
        for k in range(1, cset.depth):
            ok &= integral(cset.sigma(k)) == 0
    _report(1, ok, f"int phi=1, int sigma=0 on {len(suite_sets)} sets, zero tolerance",
            time.time() - t0, 1.0)


def _random_sweep_tuples(seed: int):
    rnd = random.Random(seed)
    cases = []
    for k, n in itertools.product((1, 2), (2, 4)):
        for _ in range(25):
            pairs = tuple(
                (F(rnd.randint(-64, 0), 16), F(rnd.randint(16, 32), 16)) for _ in range(n)
            )
            cases.append((k, n, AffineTuple(pairs)))
    return cases


def test_criterion_02_projection_multiplicity():
    t0 = time.time()
    violations = 0
    for k, n, A in _random_sweep_tuples(1001):
        tuples = enumerate_F(k, A, P88)
        for ell in range(1, n + 1):
            rep = projection_multiplicity(tuples, ell, k, P88)
            if rep.multiplicity > 4 or rep.max_alpha_spread > 4 * P88.delta(k):
                violations += 1
    _report(2, violations == 0,
            f"projections at most four-to-one over 100 tuples, {violations} violations",
            time.time() - t0, 10.0)


def test_criterion_03_proximity_bound():
    t0 = time.time()
    violations = 0
    for k, n, A in _random_sweep_tuples(1002):
        f_int, _ = classify(enumerate_F(k, A, P88))
        if not proximity_check(A, n, len(f_int)).satisfied:
            violations += 1
    _report(3, violations == 0,
            f"tangency-proximity bound over 100 tuples, {violations} violations",
            time.time() - t0, 10.0)


def test_criterion_04_symmetric_difference():
    t0 = time.time()
    rnd = random.Random(4)
    violations = 0
    for _ in range(10_000):
        t = F(rnd.randint(5, 999), 1000)
        eta = t / 2 * F(rnd.randint(1, 99), 100)
        r = F(1, 2) + F(3, 2) * F(rnd.randint(1, 199), 200)
        s = r + eta * F(rnd.randint(-99, 99), 100)
        if not (F(1, 2) < s < 2):
            s = r
        x = F(rnd.randint(-400, 400), 100)
        y = x + eta * F(rnd.randint(-99, 99), 100)
        if not symdiff_bound_check(x, y, r, s, t, eta).satisfied:
            violations += 1
    _report(4, violations == 0,
            f"symdiff <= 3 eta on 10^4 exact samples, {violations} violations",
            time.time() - t0, 5.0)


def test_criterion_05_trivial_correlation_bound(toy88_set):
    t0 = time.time()
    rnd = random.Random(5)
    violations = 0
    total = 0
    for k, n in itertools.product((1, 2), (2, 4)):
        bound = trivial_bound(toy88_set, n, k)
        for _ in range(250):
            pairs = tuple(
                (F(rnd.randint(-256, 0), 64), F(rnd.randint(64, 128), 64))
                for _ in range(n)
            )
            A = AffineTuple(pairs)
            if abs(lambda_sigma(A, toy88_set, k)) > bound:
                violations += 1
            total += 1
    _report(5, violations == 0,
            f"|Lambda(sigma_k)| within the cancellation-free bound on {total} tuples",
            time.time() - t0, 60.0)


def _np_brute_F(n, k, A, params):
    """Vectorized all-tuples oracle over the full grid, exact int64 positions."""
    M = params.M(k)
    D = 1
    for c, r in A.pairs:
        D = math.lcm(D, c.denominator, r.denominator * M)
    starts, ends = [], []
    base = np.arange(M, dtype=np.int64)
    for c, r in A.pairs:
        C = c.numerator * (D // c.denominator)
        G = r.numerator * (D // (r.denominator * M))
        s = C + G * (M + base)
        starts.append(s)
        ends.append(s + G)
    out = set()
    if n == 2:
        lo = np.maximum(starts[0][:, None], starts[1][None, :])
        hi = np.minimum(ends[0][:, None], ends[1][None, :])
        for i, j in np.argwhere(lo <= hi):
            out.add((int(i), int(j)))
        return out
    assert n == 4
    lo3 = np.maximum(
        starts[1][:, None, None],
        np.maximum(starts[2][None, :, None], starts[3][None, None, :]),
    )
    hi3 = np.minimum(
        ends[1][:, None, None], np.minimum(ends[2][None, :, None], ends[3][None, None, :])
    )
    for i1 in range(M):
        mask = (np.maximum(lo3, starts[0][i1]) <= np.minimum(hi3, ends[0][i1]))
        for i2, i3, i4 in np.argwhere(mask):
            out.add((i1, int(i2), int(i3), int(i4)))
    return out


def test_criterion_06_oracle_equivalence():
    t0 = time.time()
    rnd = random.Random(6)
    schedules = [
        (custom([4], [F(1, 4)]), 1),
        (custom([8], [F(1, 4)]), 1),
        (custom([64], [F(1, 4)]), 1),
        (custom([4, 4], [F(1, 4)] * 2), 2),
        (custom([8, 8], [F(1, 4)] * 2), 2),
        (custom([4, 16], [F(1, 4)] * 2), 2),
        (custom([4, 4, 4], [F(1, 4)] * 3), 3),
    ]
    mismatches = 0
    compared = 0
    for params, k in schedules:
        for n in (2, 4):
            for _ in range(3):
                pairs = tuple(
                    (F(rnd.randint(-64, 0), 16), F(rnd.randint(16, 32), 16))
                    for _ in range(n)
                )
                A = AffineTuple(pairs)
                mine = {t.offsets for t in enumerate_F(k, A, params)}
                if mine != _np_brute_F(n, k, A, params):
                    mismatches += 1
                compared += 1

    # Monte Carlo oracle for the exact correlation integral
    rng = np.random.default_rng(606)
    hits = 0
    trials = 100
    for _ in range(trials):
        f1 = f2 = None
        while f1 is None or f1.is_zero:
            f1 = random_step(rnd, max_cells=4, span=10)
        while f2 is None or f2.is_zero:
            f2 = random_step(rnd, max_cells=4, span=10)
        c1, c2 = F(rnd.randint(-8, 0), 2), F(rnd.randint(-8, 0), 2)
        r1, r2 = F(rnd.randint(2, 4), 2), F(rnd.randint(2, 4), 2)
        A = AffineTuple(((c1, r1), (c2, r2)))
        exact = float(lambda_exact(A, [f1, f2]))
        spans = [
            (float(c + r * f.support()[0]), float(c + r * f.support()[1]))
            for f, (c, r) in zip((f1, f2), A.pairs)
        ]
        lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
        m = 4000
        z = rng.uniform(lo, hi, m)
        v1, v2 = float_evaluator(f1), float_evaluator(f2)
        vals = np.array(
            [v1((zz - float(c1)) / float(r1)) for zz in z]
        ) * np.array([v2((zz - float(c2)) / float(r2)) for zz in z])
        est = (hi - lo) * vals.mean()
        se = (hi - lo) * vals.std(ddof=1) / math.sqrt(m)
        if se == 0:
            hits += est == exact
        else:
            hits += abs(est - exact) <= 3 * se
    ok = mismatches == 0 and hits >= 95
    _report(6, ok,
            f"sweep == brute force on {compared} instances; MC within 3 SE in {hits}/100",
            time.time() - t0, 120.0)


def test_criterion_07_construction_gates(tmp_path):
    t0 = time.time()
    ok = True
    details = []
    for seed in range(1, 11):
        out = tmp_path / f"seed{seed}"
        code = cli_main(
            [
                "construct",
                "--set", "construction.N=16",
                "--set", "construction.epsilon=1/4",
                "--set", "construction.K=3",
                "--set", "construction.B=10",
                "--set", f"construction.seed={seed}",
                "--set", "construction.max_retries=50",
                "--set", "construction.gate_c_budget=6",
                "-o", str(out),
            ]
        )
        ok &= code == 0
        if code != 0:
            details.append(f"seed {seed}: construct exit {code}")
            continue
        payload = json.loads((out / "set.json").read_text())
        retries = payload["accepted_retries"]
        ok &= all(r < 50 for r in retries)
        vcode = cli_main(
            [
                "verify", str(out / "set.json"),
                "--set", "construction.gate_c_budget=6",
                "-o", str(out),
            ]
        )
        ok &= vcode == 0
        if vcode != 0:
            details.append(f"seed {seed}: verify exit {vcode}")
    _report(7, ok,
            "10 seeds accepted within 50 retries/level and re-verified"
            + ("; " + "; ".join(details) if details else ""),
            time.time() - t0, 300.0)


def test_criterion_08_decay_trend(z16_set, z8_set):
    # The correlation sup is measured on the production-size set, where the
    # sampled maximum saturates (identical maxima from budget 60 to 150 and
    # ratios 0.15-0.28 across seeds/streams); at N=8 the estimate is still
    # sampling noise.  The ratio half is measured at N=8 (200 samples at N=16
    # would blow the time budget).  It samples the adjoint of the linearized
    # mk_operator, g -> integral g(x) sigma_k((z - x)/r(x)) dx / r(x), whose
    # cells overlap and cancel; the decay is decided on the exact maxima of
    # ||Phi* 1_Omega||_2^2 / |Omega|, and floats appear only in the detail.
    t0 = time.time()
    s1 = sup_lambda_tr(z16_set, 2, 1, 60, RngStream(7).child(81, 1))
    s2 = sup_lambda_tr(z16_set, 2, 2, 60, RngStream(7).child(81, 2))
    lambda_ok = s2.max_abs <= s1.max_abs / 2
    r1 = mk_restricted_type_ratio(z8_set, 1, 2, 200, RngStream(7).child(82, 1))
    r2 = mk_restricted_type_ratio(z8_set, 2, 2, 200, RngStream(7).child(82, 2))
    ratio_ok = r2.max_power < r1.max_power
    detail = (
        f"sup|Lambda|: {float(s1.max_abs):.4f} -> {float(s2.max_abs):.4f} "
        f"({'halved' if lambda_ok else 'NOT halved'}); "
        f"mk adjoint ratio: {r1.max_ratio:.4f} -> {r2.max_ratio:.4f} "
        f"({'decayed' if ratio_ok else 'did NOT decay'})"
    )
    _report(8, lambda_ok and ratio_ok, detail, time.time() - t0, 600.0)


def test_criterion_09_adjoint_identity(fixture_a, z8_set):
    t0 = time.time()
    rnd = random.Random(9)
    checked = past_limbs = 0
    ok = True
    cases = [(fixture_a, 1), (z8_set, 1), (z8_set, 2)]
    while checked < 50:
        cset, k = cases[checked % len(cases)]
        rng = np.random.default_rng(900 + checked)
        grid = DiscretizationGrid.for_level(cset.params, k)

        def source(i):
            return (
                grid.c_value(grid._rand_index(rng, grid.n_c)),
                grid.r_value(grid._rand_index(rng, grid.n_r)),
            )

        assign = uniform_assignment(cset, k, 8, source)
        f = random_step(rnd)
        cells = [
            (F(i, 8), F(i + 1, 8), F(rnd.randint(-3, 3), rnd.choice([1, 2])))
            for i in range(8)
            if rnd.random() < 0.7
        ]
        cells = [(a, b, v) for a, b, v in cells if v]
        if not cells:
            continue
        g = from_cells(cells)
        lhs = product_integral([(phi_forward(f, cset, k, assign), 0, 1), (g, 0, 1)])
        adjoint = phi_star_apply(g, cset, k, assign)
        with python_int_merges() as taken:
            rhs = product_integral([(f, 0, 1), (adjoint, 0, 1)])
        past_limbs += sum(taken)
        ok &= lhs == rhs
        checked += 1
    _report(9, ok, f"<Phi f, g> == <f, Phi* g> exactly on {checked} random fixtures",
            time.time() - t0, 10.0)
    # Phi* g's dilated breakpoints span past the limbs on the grid of f's
    # product with it, which keeps the Python-int encoding exercised
    assert past_limbs > 0


def test_criterion_10_differentiation(toy88_set):
    t0 = time.time()
    hat = PiecewiseLinear.from_nodes([-4, -2, 0], [0, 3, 0])
    lip = hat.lipschitz_constant()
    points = [F(-3), F(-5, 2), F(-9, 4), F(-7, 4), F(-1, 2)]
    rows = differentiation_experiment(
        hat, toy88_set, points, [F(1, 4), F(1, 8), F(1, 16), F(1, 32)]
    )
    lip_ok = all(row.sup_error <= 2 * lip * row.r for row in rows)

    rnd = random.Random(10)
    ind = StepFunction.indicator(0, 1)
    zero_ok = True
    for _ in range(100):
        x = F(rnd.randint(1, 999), 1000)
        margin = min(x, 1 - x) / 2
        rs = [margin * F(1, 2), margin * F(1, 4), margin * F(1, 8)]
        for row in differentiation_experiment(ind, toy88_set, [x], rs):
            zero_ok &= row.sup_error == 0
    _report(10, lip_ok and zero_ok,
            f"Lipschitz bound exact on {len(rows)} rows; interior errors all zero",
            time.time() - t0, 30.0)


def test_criterion_11_dimension(z16_set):
    t0 = time.time()
    lims_one = dimension_limit_symbolic(one_dimensional(16, 3))
    lims_fixed = dimension_limit_symbolic(fixed_dimension(16, F(1, 4), 3))
    symbolic_ok = (
        lims_one == {"upper": F(1), "lower": F(1)}
        and lims_fixed == {"upper": F(3, 4), "lower": F(3, 4)}
    )
    slope = z16_set.box_count_report()["slope"]
    slope_ok = abs(slope - 0.75) <= 0.15
    rep = dim_bounds(z16_set)
    _report(11, symbolic_ok and slope_ok,
            f"symbolic limits 1 and 3/4 exact; box slope {slope:.4f} "
            f"(quotients {rep.lower:.3f}..{rep.upper:.3f})",
            time.time() - t0, 30.0)


def test_criterion_12_l1_failure_demo(z4_deep_set):
    t0 = time.time()
    from cantormax.maxops import l1_divergence_demo

    rho0 = z4_deep_set.params.delta(4)
    res = l1_divergence_demo(z4_deep_set, 4, rho0=rho0)
    ok = res.growth_factor >= 10
    _report(12, ok,
            f"singular-profile averages grew {res.growth_factor:.1f}x from k=1 to k=4 "
            f"(rho0 = delta_4)",
            time.time() - t0, 60.0)
