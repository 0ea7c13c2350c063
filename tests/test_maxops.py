"""Averaging/maximal/adjoint operators, norms, and the two experiments."""

import hashlib
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cantormax import (
    MaximalQuery,
    RngStream,
    average,
    differentiation_experiment,
    l1_divergence_demo,
    mk_adjoint,
    mk_restricted_type_ratio,
    phi_star,
    restricted_type_ratio,
)
from cantormax.config import DifferentiateConfig
from cantormax.errors import DegenerateMeasureError, DomainError, GridError, InsufficientDepthError
from cantormax.grids import DiscretizationGrid
from cantormax.maxops import (
    AdjointAssignment,
    _dilation_cells,
    _omega_cells,
    _ratio_draws,
    restricted_type_target,
    dyadic_r_grid,
    maximal_sweep,
    phi_star_norm_power,
    uniform_assignment,
)
import cantormax.stepfn as sf
from cantormax.stepfn import PiecewiseLinear, StepFunction, linear_combination, product_integral

from conftest import (
    affine_image,
    breakpoints,
    density,
    fits_limbs,
    from_cells,
    gap_key_records,
    linear_mass_between,
    no_merge,
    prefix_mass,
    python_ints,
    random_fraction,
    random_step,
)
from lemmas import build_deterministic, mk_operator, phi_forward, phi_star_apply, sigma_average

F = Fraction


def _rand_assignment(cset, k, n_cells, seed):
    rng = np.random.default_rng(seed)
    grid = DiscretizationGrid.for_level(cset.params, k)

    def source(i):
        return (
            grid.c_value(grid._rand_index(rng, grid.n_c)),
            grid.r_value(grid._rand_index(rng, grid.n_r)),
        )

    return uniform_assignment(cset, k, n_cells, source)


def _merge_average(f, cset, k, r, x):
    """Merge oracle: the product integral of f against the affine image of
    phi_k, over r."""
    r, x = F(r), F(x)
    return product_integral([(f, 0, 1), (density(cset, k), x, r)]) / r


def _run_loop_average(f, cset, k, r, x):
    """Run-loop oracle: the f-mass over the affine image of every run of S_k,
    by the prefix table for a step function."""
    r, x = F(r), F(x)
    lv = cset.level(k)
    M = lv.M_k
    mass = partial(prefix_mass if isinstance(f, StepFunction) else linear_mass_between, f)
    total = F(0)
    for s, e in lv.runs():
        total += mass(x + r * (1 + F(int(s), M)), x + r * (1 + F(int(e), M)))
    return total / (r * lv.measure)


class TestAverage:
    def test_constant_function(self, fixture_a):
        f = from_cells([(-10, 10, F(7, 3))])
        assert average(f, fixture_a, 1, F(5, 4), F(-2)) == F(7, 3)

    def test_covering_indicator(self, fixture_a):
        f = StepFunction.indicator(0, 3)
        assert average(f, fixture_a, 1, 1, 0) == 1

    def test_fixture_half_mass(self, fixture_a):
        f = StepFunction.indicator(F(5, 4), F(3, 2))
        assert average(f, fixture_a, 1, 1, 0) == F(1, 2)

    def test_degenerate_level_refused(self, fixture_a_params):
        empty = build_deterministic([set(), set()], fixture_a_params)
        with pytest.raises(DegenerateMeasureError):
            average(StepFunction.indicator(0, 1), empty, 1, 1, 0)

    def test_positivity_and_monotonicity(self, fixture_a):
        rnd = random.Random(31)
        for _ in range(10):
            f = random_step(rnd).abs()
            g = linear_combination([(1, f, 0, 1), (1, StepFunction.indicator(F(1, 2), F(7, 2)), 0, 1)])
            x, r = F(rnd.randint(-3, 0)), F(rnd.randint(5, 7), 4)
            assert average(f, fixture_a, 1, r, x) <= average(g, fixture_a, 1, r, x)

    def test_mass_path_agrees(self, fixture_a, z8_set):
        rnd = random.Random(37)
        for cset in (fixture_a, z8_set):
            for _ in range(5):
                f = random_step(rnd)
                x, r = F(rnd.randint(-3, 0)), F(rnd.randint(5, 7), 4)
                k = rnd.randint(1, cset.depth)
                assert average(f, cset, k, r, x) == _run_loop_average(f, cset, k, r, x)


def _window_step(rnd, x, r, cells=4):
    """Random step function whose breakpoints lie around the window x + r [1, 2]."""
    ts = sorted({F(rnd.randint(8, 40), 16) + F(rnd.randint(0, 96), 97 * 16) for _ in range(cells + 1)})
    vals = [F(rnd.randint(-5, 5), rnd.choice([1, 2, 3])) for _ in range(len(ts) - 1)]
    return StepFunction.from_breakpoints([x + r * t for t in ts], vals)


_HAT = PiecewiseLinear.from_nodes([-4, -2, 0], [0, 1, 0])


class TestPrefixMomentAverage:
    """``average`` against the merge and run-loop oracles, with ==."""

    @pytest.mark.parametrize("name", ["fixture_a", "z8_set", "z16_set"])
    def test_matches_both_oracles_every_level(self, name, request):
        cset = request.getfixturevalue(name)
        rnd = random.Random(51)
        for k in range(1, cset.depth + 1):
            points = [(F(-2), F(9, 8)), (F(-7, 4), F(13, 10)), (F(-3, 2), F(5, 4))]
            for x, r in points:
                f = StepFunction.indicator(0, 1)
                assert average(f, cset, k, r, x) == _merge_average(f, cset, k, r, x)
                g = _window_step(rnd, x, r)
                assert average(g, cset, k, r, x) == _merge_average(g, cset, k, r, x)
            # the run loop costs a pass over every run: about 15 s at z16 k=3
            assert average(_HAT, cset, k, F(1, 8), F(-2)) == _run_loop_average(_HAT, cset, k, F(1, 8), F(-2))
            if name != "z16_set":
                x, r = points[0]
                g = _window_step(rnd, x, r)
                assert average(g, cset, k, r, x) == _run_loop_average(g, cset, k, r, x)

    def test_cuts_inside_runs(self, fixture_a, z8_set):
        # fixture_a level 1 is [5/4, 3/2) u [7/4, 2); f = 1 on [21/16, 15/8)
        # cuts both runs in their interiors: (3/16 + 1/8) / |S_1| = 5/8
        f = StepFunction.indicator(F(21, 16), F(15, 8))
        assert average(f, fixture_a, 1, 1, 0) == F(5, 8) == _run_loop_average(f, fixture_a, 1, 1, 0)
        # generic rational cuts land inside runs of every level
        rnd = random.Random(52)
        for cset in (fixture_a, z8_set):
            for k in range(1, cset.depth + 1):
                runs = cset.level(k).runs()
                M = cset.level(k).M_k
                for _ in range(3):
                    x, r = F(rnd.randint(-40, 0), 16), F(rnd.randint(17, 63), 32)
                    # breakpoints at the images of points strictly inside random runs
                    s, e = (int(v) for v in runs[rnd.randrange(len(runs))])
                    ys = sorted(1 + (s + F(rnd.randint(1, 9), 10) * (e - s)) / M for _ in range(2))
                    if ys[0] == ys[1]:
                        continue
                    f = StepFunction.indicator(x + r * ys[0], x + r * ys[1])
                    pl = PiecewiseLinear.from_nodes([x + r * y for y in ys], [F(3, 2), F(-1, 3)])
                    got = average(f, cset, k, r, x)
                    assert got == _run_loop_average(f, cset, k, r, x) == _merge_average(f, cset, k, r, x)
                    assert 0 < got < 1
                    assert average(pl, cset, k, r, x) == _run_loop_average(pl, cset, k, r, x)

    def test_piecewise_linear_tails_overlap_support(self, fixture_a, z8_set):
        # window x + r [1, 2] = [-7/2, -1/2] covers both constant tails
        pl = PiecewiseLinear.from_nodes([-3, F(-5, 2), -1], [2, F(-1, 3), 5])
        steep_right = PiecewiseLinear.from_nodes([F(-3, 2), F(-1, 2)], [F(-7, 4), 3])
        flat = PiecewiseLinear.from_nodes([0, 1], [F(7, 3), F(7, 3)])
        for cset in (fixture_a, z8_set):
            for k in range(1, cset.depth + 1):
                for x, r in ((F(-13, 2), F(3)), (F(-3), F(3, 4)), (F(-1), F(5, 4))):
                    for f in (pl, steep_right):
                        assert average(f, cset, k, r, x) == _run_loop_average(f, cset, k, r, x)
                    assert average(flat, cset, k, r, x) == F(7, 3)

    def test_large_denominator_dilations(self, fixture_a, z8_set):
        rnd = random.Random(53)
        for cset in (fixture_a, z8_set):
            for r in (1 + F(1, 3**40), F(10**30 + 7, 10**30), F(2**61 + 1, 2**60)):
                x = F(-2) + F(1, 7**25)
                for k in range(1, cset.depth + 1):
                    g = _window_step(rnd, x, r)
                    assert average(g, cset, k, r, x) == _merge_average(g, cset, k, r, x)
                    assert average(_HAT, cset, k, r, x) == _run_loop_average(_HAT, cset, k, r, x)

    def test_support_misses_the_set(self, fixture_a, z8_set):
        # fixture_a level 1 has the gap [3/2, 7/4) between its runs
        gap = StepFunction.indicator(F(3, 2), F(7, 4))
        gap_pl = PiecewiseLinear.from_nodes([F(3, 2), F(13, 8), F(7, 4)], [0, 9, 0])
        for k in (1, 2):
            assert average(gap, fixture_a, k, 1, 0) == 0 == _merge_average(gap, fixture_a, k, 1, 0)
            assert average(gap_pl, fixture_a, k, 1, 0) == 0 == _run_loop_average(gap_pl, fixture_a, k, 1, 0)
        # supports left of, right of, and touching the window x + r [1, 2]
        for cset in (fixture_a, z8_set):
            for k in range(1, cset.depth + 1):
                for x in (F(-7), F(3), F(-2), F(-1)):
                    for f in (StepFunction.indicator(-1, 0), StepFunction.zero()):
                        assert average(f, cset, k, 1, x) == _merge_average(f, cset, k, 1, x)
                    assert average(_HAT, cset, k, 1, x) == _run_loop_average(_HAT, cset, k, 1, x)
                assert average(_HAT, cset, k, 1, F(-7)) == 0

    def test_sigma_average_matches_product_integral(self, fixture_a, z8_set):
        rnd = random.Random(54)
        for cset, k in ((fixture_a, 1), (z8_set, 1), (z8_set, 2)):
            for _ in range(4):
                x, r = F(rnd.randint(-48, 0), 16), F(rnd.randint(17, 63), 32)
                f = _window_step(rnd, x, r, cells=5)
                want = product_integral([(f, 0, 1), (cset.sigma(k), x, r)]) / r
                assert sigma_average(f, cset, k, r, x) == want
        with pytest.raises(InsufficientDepthError):
            sigma_average(StepFunction.indicator(0, 1), fixture_a, 2, 1, 0)
        with pytest.raises(DomainError):
            sigma_average(StepFunction.indicator(0, 1), fixture_a, 2, 0, 0)

    def test_tables_built_lazily(self, fixture_a_params):
        from conftest import FIXTURE_A_SELECTIONS

        cset = build_deterministic(FIXTURE_A_SELECTIONS, fixture_a_params)
        assert not cset._moments_cache
        average(_HAT, cset, 2, F(1, 2), F(-3))
        assert list(cset._moments_cache) == [2]


@st.composite
def _window_functions(draw):
    """(x, r, f): f a step or piecewise-linear function with 1-5 pieces whose
    breakpoints lie around the window x + r [1, 2]."""
    x = F(draw(st.integers(-256, 0)), draw(st.sampled_from([1, 3, 16, 81])))
    r = F(draw(st.integers(1, 400)), draw(st.sampled_from([7, 64, 100])))
    ts = draw(st.lists(st.fractions(F(1, 2), F(5, 2), max_denominator=200), min_size=2, max_size=6, unique=True))
    zs = [x + r * t for t in sorted(ts)]
    vals = draw(st.lists(st.fractions(-4, 4, max_denominator=9), min_size=len(zs), max_size=len(zs)))
    if draw(st.booleans()):
        return x, r, StepFunction.from_breakpoints(zs, vals[1:])
    return x, r, PiecewiseLinear.from_nodes(zs, vals)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=_window_functions(), which=st.sampled_from(["fixture_a", "z8_set"]), k=st.integers(1, 3))
def test_average_property_matches_oracles(fixture_a, z8_set, data, which, k):
    x, r, f = data
    cset = fixture_a if which == "fixture_a" else z8_set
    k = min(k, cset.depth)
    got = average(f, cset, k, r, x)
    if isinstance(f, StepFunction):
        assert got == _merge_average(f, cset, k, r, x)
    else:
        assert got == _run_loop_average(f, cset, k, r, x)


class TestMkOperator:
    def test_constant_cancels(self, fixture_a):
        f = from_cells([(-10, 10, 5)])
        assert mk_operator(f, fixture_a, 1, 0, dyadic_r_grid(5)) == 0

    def test_matched_bump_positive(self, fixture_a):
        f = StepFunction.indicator(F(5, 4), F(21, 16))
        assert mk_operator(f, fixture_a, 1, 0, [F(101, 100), F(3, 2)]) > 0

    def test_refining_grid_monotone(self, fixture_a):
        f = StepFunction.indicator(0, 1)
        coarse = dyadic_r_grid(3)
        fine = dyadic_r_grid(7)  # superset of the coarse dyadic grid
        assert set(coarse) <= set(fine)
        for x in (F(-1), F(-2), F(-5, 2)):
            assert mk_operator(f, fixture_a, 1, x, fine) >= mk_operator(
                f, fixture_a, 1, x, coarse
            )


def restricted_maximal(f, cset, q):
    """M f at each query point, read from the sweep as ``cli.cmd_maximal`` does."""
    return maximal_sweep(f, cset, q, (0,)).restricted()


def windowed_maximal(f, cset, q):
    """max of r^a A_r[k]|f|(x) over the query's window, read from the sweep."""
    return maximal_sweep(f, cset, q, range(q.m_min, q.m_max + 1)).windowed()


class TestRestrictedMaximal:
    def test_exact_one_on_matched_band(self, fixture_a):
        # f = 1 on [x+1, x+2+delta_K]: any r <= 1 + delta_K/2 reaches average
        # exactly 1, larger r strictly less; the grid max is exactly 1
        x = F(-3)
        delta_K = fixture_a.params.delta(2)
        f = StepFunction.indicator(x + 1, x + 2 + delta_K)
        grid = (1 + delta_K / 4, 1 + delta_K / 2, F(3, 2))
        q = MaximalQuery(points=[x], r_grid=grid)
        [(_, val)] = restricted_maximal(f, fixture_a, q)
        assert val == 1
        assert average(f, fixture_a, 1, F(3, 2), x) < 1

    def test_support_window(self, fixture_a):
        f = StepFunction.indicator(0, 1)
        q = MaximalQuery(points=[F(-5), F(-4), F(0), F(1, 2), F(2)], r_grid=dyadic_r_grid(5))
        vals = dict(restricted_maximal(f, fixture_a, q))
        assert vals[F(-5)] == 0 and vals[F(1, 2)] == 0 and vals[F(2)] == 0

    def test_two_route_consistency(self, fixture_a):
        # direct definition (max over all (k, r)) vs per-level max of maxima
        f = StepFunction.indicator(0, 1)
        grid = dyadic_r_grid(7)
        x = F(-3)
        q = MaximalQuery(points=[x], r_grid=grid)
        [(_, via_query)] = restricted_maximal(f, fixture_a, q)
        per_level = max(
            max(average(f, fixture_a, k, r, x) for r in grid) for k in (1, 2)
        )
        assert via_query == per_level

    def test_sublinearity(self, fixture_a):
        rnd = random.Random(5)
        grid = dyadic_r_grid(5)
        for _ in range(8):
            f, g = random_step(rnd), random_step(rnd)
            q = MaximalQuery(points=[F(-2)], r_grid=grid)
            [(_, m_sum)] = restricted_maximal(linear_combination([(1, f, 0, 1), (1, g, 0, 1)]), fixture_a, q)
            [(_, m_f)] = restricted_maximal(f, fixture_a, q)
            [(_, m_g)] = restricted_maximal(g, fixture_a, q)
            assert m_sum <= m_f + m_g


class TestUnrestrictedMaximal:
    def test_constant_with_zero_exponent(self, fixture_a):
        f = from_cells([(-100, 100, 1)])
        q = MaximalQuery(points=[F(-2)], r_grid=dyadic_r_grid(3), m_min=-2, m_max=2)
        [(_, val)] = windowed_maximal(f, fixture_a, q)
        assert val == pytest.approx(1.0)

    def test_widening_window_monotone(self, fixture_a):
        f = StepFunction.indicator(0, 1)
        narrow = MaximalQuery(points=[F(-2)], r_grid=dyadic_r_grid(3), m_min=0, m_max=1)
        wide = MaximalQuery(points=[F(-2)], r_grid=dyadic_r_grid(3), m_min=0, m_max=3)
        [(_, v1)] = windowed_maximal(f, fixture_a, narrow)
        [(_, v2)] = windowed_maximal(f, fixture_a, wide)
        assert v2 >= v1

    def test_rescaling_identity_exact(self, fixture_a):
        # A_r[k] f(x) = A_u[k] f(2^-m .) (2^m x) with u = r 2^m
        rnd = random.Random(9)
        for _ in range(10):
            f = random_step(rnd)
            m = rnd.randint(-2, 2)
            u = F(rnd.randint(9, 15), 8)  # in (1, 2)
            r = u / 2**m
            x = F(rnd.randint(-12, 4), 4)
            k = rnd.randint(1, 2)
            lhs = average(f, fixture_a, k, r, x)
            rhs = average(affine_image(f, 0, 2**m), fixture_a, k, u, x * 2**m)
            assert lhs == rhs

    def test_exponent_validation(self):
        with pytest.raises(DomainError):
            MaximalQuery(points=[0], r_grid=dyadic_r_grid(3), p=2, q=1)


class TestAdjoint:
    def test_empty_omega_zero(self, fixture_a):
        assign = _rand_assignment(fixture_a, 1, 8, 3)
        assert phi_star([], fixture_a, 1, assign).is_zero

    def test_constant_assignment_closed_form(self, fixture_a):
        c0, r0 = F(-2), F(3, 2)
        assign = uniform_assignment(fixture_a, 1, 4, lambda i: (c0, r0))
        got = phi_star([0, 2], fixture_a, 1, assign)
        want = affine_image(fixture_a.sigma(1), c0, r0, F(1, 2))
        assert got == want

    def test_adjoint_identity_exact(self, fixture_a, z8_set):
        rnd = random.Random(21)
        for cset, k in ((fixture_a, 1), (z8_set, 1), (z8_set, 2)):
            for trial in range(6):
                assign = _rand_assignment(cset, k, 8, seed=100 + trial)
                f = random_step(rnd)
                g_cells = []
                for i in range(4):
                    v = F(rnd.randint(-3, 3), rnd.choice([1, 2]))
                    if v:
                        g_cells.append((F(i, 4), F(2 * i + 1, 8), v))
                if not g_cells:
                    continue
                g = from_cells(g_cells)
                lhs = product_integral([(phi_forward(f, cset, k, assign), 0, 1), (g, 0, 1)])
                rhs = product_integral([(f, 0, 1), (phi_star_apply(g, cset, k, assign), 0, 1)])
                assert lhs == rhs

    def test_misaligned_assignment_rejected(self, fixture_a):
        with pytest.raises(GridError):
            AdjointAssignment(
                cells=((F(0), F(1, 3), F(-1), F(3, 2)), (F(1, 3), F(1), F(-1), F(3, 2))),
                spacing=F(1, 256),
            )

    def test_norm_power_matches_materialized(self, fixture_a):
        assign = _rand_assignment(fixture_a, 1, 8, 7)
        omega = [0, 3, 5]
        fused = phi_star_norm_power(omega, fixture_a, 1, assign, 2)
        materialized = phi_star(omega, fixture_a, 1, assign).lp_power(2)
        assert fused == materialized


class TestRestrictedTypeRatio:
    def test_single_cell_constant_closed_form(self, fixture_a):
        c0, r0 = F(-1), F(5, 4)
        assign = uniform_assignment(fixture_a, 1, 8, lambda i: (c0, r0))
        power = phi_star_norm_power([2], fixture_a, 1, assign, 2)
        omega_measure = F(1, 8)
        sig = fixture_a.sigma(1)
        want = omega_measure ** F(1, 2) * float(r0) ** 0.5 * float(sig.lp_power(2)) ** 0.5
        got = float(power) ** 0.5 / float(omega_measure) ** 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_sampled_ratios_below_target(self, z8_set):
        res = restricted_type_ratio(z8_set, 1, 2, 12, RngStream(5).child(2), n_cells=16)
        assert res.max_ratio <= res.rhs_theoretical
        assert all(s.ratio <= res.rhs_theoretical for s in res.samples)

    def test_rhs_uses_measured_counts(self, z8_set):
        assert restricted_type_target(z8_set, 2, 1) > 0

    def test_constant_draws_need_no_merge(self, z8_set):
        # a constant draw sums |omega| copies of one affine image of sigma_k:
        # one factor, so no merge, and the closed form |omega|^n r ||sigma_k||_n^n
        k, n_cells = 2, 32
        sig = z8_set.sigma(k)
        draws = list(_ratio_draws(z8_set, k, 5, RngStream(7).child(82, k), n_cells))
        constant = [(assign, omega) for const, assign, omega in draws if const]
        assert len(constant) == 3
        with no_merge():
            for assign, omega in constant:
                (r,) = {cell[3] for cell in assign.cells}
                measure = F(len(omega), n_cells)
                adj = phi_star(omega, z8_set, k, assign)
                for n in (1, 2, 3):
                    want = measure**n * r * sig.lp_power(n)
                    assert adj.lp_power(n) == want
                    assert phi_star_norm_power(omega, z8_set, k, assign, n) == want
            for n in (2, 4):
                res = restricted_type_ratio(z8_set, k, n, 1, RngStream(7).child(82, k), n_cells)
                assign, omega = constant[0]
                measure = F(len(omega), n_cells)
                power = measure**n * assign.cells[0][3] * sig.lp_power(n)
                assert res.max_power == power / measure ** (n - 1)
                assert [s.ratio for s in res.samples] == [
                    float(power) ** (1.0 / n) / float(measure) ** ((n - 1) / n)
                ]

    def test_cellwise_draws_key_densely(self, z8_set):
        # a cellwise draw sums |omega| equal-weight copies of sigma_2 at
        # distinct (c, r): one count digit, so int64 keys below the number
        # of gaps and no sparse numbering; 16 copies key in 16*17 + 1 values
        k, budget, n_cells = 2, 8, 32
        sig = z8_set.sigma(k)
        draws = list(_ratio_draws(z8_set, k, budget, RngStream(0).child(82, k), n_cells))
        cellwise = [len(omega) for const, _, omega in draws if not const]
        with gap_key_records() as records:
            restricted_type_ratio(z8_set, k, 2, budget, RngStream(0).child(82, k), n_cells)
        assert len(records) == len(cellwise) and 16 in cellwise
        for copies, r in zip(cellwise, records):
            assert r.class_product == len(sig.levels) ** copies
            assert r.radix == copies * (copies + 1) + 1 <= r.class_product
            assert r.dtype == np.int64 and r.max_key < r.gaps
        assert {r.radix for r, copies in zip(records, cellwise) if copies == 16} == {273}


def _step_near_adjoint(rnd):
    """Random step function with 2-4 cells and breakpoints in [1, 5], where
    the adjoint of an omega inside [0, 1] lives."""
    m = rnd.randint(2, 4)
    bps = sorted(F(p, 16) for p in rnd.sample(range(16, 81), m + 1))
    vals = [F(rnd.randint(-5, 5), rnd.choice([1, 2, 3])) for _ in range(m)]
    return StepFunction.from_breakpoints(bps, vals)


def _random_dilation_cells(rnd, cset, k, width, count):
    """count cells of a 1/width partition of [0, 1], each with a grid dilation."""
    grid = DiscretizationGrid.for_level(cset.params, k)
    starts = sorted(rnd.sample(range(width), count))
    return [(F(i, width), F(i + 1, width), grid.r_value(rnd.randint(1, grid.n_r))) for i in starts]


def _adjoint_oracle(f, cset, k, cells):
    """Sum over cells of the integral over x in [lo, hi] of sigma_average(f, r, x).

    sigma_average(f, r, x) is continuous and piecewise linear in x, with kinks
    where x + r*u meets a breakpoint of f for a breakpoint u of sigma_k, so
    the trapezoid rule at those nodes is exact.
    """
    us = breakpoints(cset.sigma(k))
    total = F(0)
    for lo, hi, r in cells:
        xs = sorted({lo, hi} | {p - r * u for p in breakpoints(f) for u in us if lo < p - r * u < hi})
        vals = [sigma_average(f, cset, k, r, x) for x in xs]
        total += sum((v0 + v1) / 2 * (x1 - x0) for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:]))
    return total


def _pairing(f, h):
    return sum((v * linear_mass_between(h, lo, hi) for lo, hi, v in f.cells()), F(0))


def _power_oracle(h, n):
    """Integral of |h|^n, n <= 3, by Simpson's rule on each piece of h cut at
    its zero: |h|^n is a polynomial of degree n there, so Simpson is exact."""
    total = F(0)
    for x0, x1, y0, y1 in zip(h.nodes, h.nodes[1:], h.values, h.values[1:]):
        cuts = [x0, x0 + (x1 - x0) * y0 / (y0 - y1), x1] if y0 * y1 < 0 else [x0, x1]
        for a, b in zip(cuts, cuts[1:]):
            ends = abs(h.value_at(a)) ** n + abs(h.value_at(b)) ** n
            total += (b - a) / 6 * (ends + 4 * abs(h.value_at((a + b) / 2)) ** n)
    return total


def _private_merge_nodes(cells, cset, k):
    """(Z, H, D, HD) from the private merge ``mk_adjoint`` used before it
    shared the kernels' merge: an argsort of every transformed sigma_k
    breakpoint, the slope jumps summed per distinct position by reduceat."""
    sig = cset.sigma(k)
    terms = []
    for a, b, r in _dilation_cells(cells):
        terms += [(1 / r, sig, a, r), (-1 / r, sig, b, r)]
    prep = sf._prepare_weighted(terms)
    if prep is None:
        return None
    D, VW, prepared, mults = prep
    jump = np.diff(np.array([0, *sig.val_nums, 0], dtype=object))
    umax = max(abs(sig.units[0]), abs(sig.units[-1]))
    if max(abs(C) + G * umax for C, G, _ in prepared) < 1 << 62:
        units = np.asarray(sig.units, dtype=np.int64)
        pos = np.concatenate([C + G * units for C, G, _ in prepared])
    else:
        pos = np.array([C + G * u for C, G, _ in prepared for u in sig.units], dtype=object)
    jumps = np.concatenate([jump * m for m in mults])
    order = np.argsort(pos, kind="stable")
    pos, jumps = pos[order], jumps[order]
    first = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
    Z = pos[first]
    slopes = np.cumsum(np.add.reduceat(jumps, first))
    H = np.concatenate(([0], np.cumsum(np.diff(Z).astype(object) * slopes[:-1])))
    return Z, H, D, D * VW


def _node_lists(nodes):
    Z, H, D, HD = nodes
    return Z.tolist(), H.tolist(), D, HD


def _int_form(h):
    """A PiecewiseLinear's integers in ``_node_lists``' order."""
    return list(h.units), list(h.val_nums), h.den, h.val_den


class TestMkAdjoint:
    def test_pairing_matches_sigma_average_oracle(self, fixture_a, z8_set):
        # <f, Phi* 1_omega> == sum over omega cells of the integral of the
        # single-scale average at the cell's dilation; z8 at k=2 uses narrow
        # cells to keep the oracle's node count small
        rnd = random.Random(41)
        pairings = []
        for cset, k, width, trials in ((fixture_a, 1, 32, 4), (z8_set, 1, 32, 4), (z8_set, 2, 256, 2)):
            for _ in range(trials):
                cells = _random_dilation_cells(rnd, cset, k, width, rnd.randint(1, 3))
                f = _step_near_adjoint(rnd)
                pairings.append(_pairing(f, mk_adjoint(cells, cset, k)))
                assert pairings[-1] == _adjoint_oracle(f, cset, k, cells)
        assert sum(v != 0 for v in pairings) >= len(pairings) // 2

    def test_adjacent_equal_dilations_and_wide_positions(self, fixture_a):
        # neighbours with one dilation share an endpoint that cancels; a
        # dilation with a huge denominator moves positions past int64
        rnd = random.Random(42)
        for r in (F(5, 4), 1 + F(1, 3**40)):
            cells = [(F(3, 16), F(1, 4), r), (F(1, 4), F(5, 16), r), (F(1, 2), F(9, 16), F(3, 2))]
            for _ in range(3):
                f = _step_near_adjoint(rnd)
                assert _pairing(f, mk_adjoint(cells, fixture_a, 1)) == _adjoint_oracle(
                    f, fixture_a, 1, cells
                )

    def test_nodes_match_private_merge(self, fixture_a, z8_set):
        # criterion 8's own draws, then random cells on fixture_a with a
        # dilation whose 3^40 denominator leaves the limbs; the first draws
        # and the 3^40 case also run on the forced Python-int encoding
        cases = []
        for cset, k, count in ((z8_set, 1, 8), (z8_set, 2, 3)):
            draws = _ratio_draws(cset, k, count, RngStream(7).child(82, k), 32)
            for constant, assign, omega in draws:
                cells = [(lo, hi, r) for lo, hi, _, r in _omega_cells(omega, assign)]
                cases.append((cset, k, cells, len(cases) < 2 or (k == 2 and not constant)))
        rnd = random.Random(46)
        for _ in range(4):
            cases.append((fixture_a, 1, _random_dilation_cells(rnd, fixture_a, 1, 32, 3), True))
        wide = 1 + F(1, 3**40)
        cells = [(F(3, 16), F(1, 4), wide), (F(1, 4), F(5, 16), wide), (F(1, 2), F(9, 16), F(3, 2))]
        cases.append((fixture_a, 1, cells, True))
        sig = fixture_a.sigma(1)
        prepared = sf._prepare_weighted([(1, sig, 0, 1), (1, sig, F(1, 2), wide)])[2]
        assert not fits_limbs(prepared)
        for cset, k, cells, force in cases:
            want = _node_lists(_private_merge_nodes(cells, cset, k))
            assert _int_form(mk_adjoint(cells, cset, k)) == want
            if force:
                with python_ints():
                    assert _int_form(mk_adjoint(cells, cset, k)) == want
        assert _private_merge_nodes([], fixture_a, 1) is None
        assert _int_form(mk_adjoint([], fixture_a, 1)) == ([0, 1], [0, 0], 1, 1)

    def test_norm_power_matches_simpson_oracle(self, fixture_a, z8_set):
        rnd = random.Random(43)
        for cset, k in ((fixture_a, 1), (z8_set, 1)):
            for _ in range(3):
                cells = _random_dilation_cells(rnd, cset, k, 32, rnd.randint(1, 4))
                h = mk_adjoint(cells, cset, k)
                for n in (1, 2, 3):
                    assert h.lp_power(n) == _power_oracle(h, n)

    def test_zero_mean_and_compact_support(self, z8_set):
        cells = _random_dilation_cells(random.Random(44), z8_set, 1, 32, 3)
        h = mk_adjoint(cells, z8_set, 1)
        assert h.values[0] == h.values[-1] == 0
        assert linear_mass_between(h, h.nodes[0], h.nodes[-1]) == 0

    def test_split_equal_dilation_cells_match_merged(self, fixture_a, z8_set):
        # neighbours with one dilation are no longer merged by hand: the
        # terms at their shared endpoint sum to 0 in the kernel and drop out
        wide = 1 + F(1, 3**40)
        for cset, k, r in ((fixture_a, 1, F(5, 4)), (fixture_a, 1, wide), (z8_set, 2, F(3, 2))):
            merged = [(F(1, 8), F(1, 2), r), (F(5, 8), F(3, 4), F(7, 4)), (F(3, 4), F(13, 16), r)]
            split = [
                (F(3, 8), F(1, 2), r),
                (F(1, 8), F(1, 4), r),
                (F(5, 8), F(11, 16), F(7, 4)),
                (F(3, 4), F(13, 16), r),
                (F(1, 4), F(3, 8), r),
                (F(11, 16), F(3, 4), F(7, 4)),
            ]
            want, got = mk_adjoint(merged, cset, k), mk_adjoint(split, cset, k)
            assert got._u.dtype == want._u.dtype and np.array_equal(got._u, want._u)
            assert got._h.dtype == want._h.dtype and np.array_equal(got._h, want._h)
            assert (got.den, got.val_den) == (want.den, want.val_den)

    def test_empty_and_invalid_cells(self, fixture_a):
        assert mk_adjoint([], fixture_a, 1).lp_power(2) == 0
        assert linear_mass_between(mk_adjoint([], fixture_a, 1), 0, 5) == 0
        with pytest.raises(DomainError):
            mk_adjoint([(F(0), F(1, 2), F(3, 2)), (F(1, 4), F(1), F(3, 2))], fixture_a, 1)
        with pytest.raises(DomainError):
            mk_adjoint([(F(0), F(1, 2), F(3, 2))], fixture_a, 1).lp_power(0)

    def test_mass_between_matches_full_scan(self, z8_set):
        # linear_mass_between bisects to the nodes inside (a, b); the oracle is the
        # full scan over every node
        def full_scan(h, a, b):
            cuts = [a] + [x for x in h.nodes if a < x < b] + [b]
            return sum(
                ((h.value_at(lo) + h.value_at(hi)) / 2 * (hi - lo) for lo, hi in zip(cuts, cuts[1:])),
                F(0),
            )

        rnd = random.Random(45)
        h = mk_adjoint(_random_dilation_cells(rnd, z8_set, 1, 32, 8), z8_set, 1)
        assert len(h.nodes) >= 1000
        lo, hi = h.nodes[0] - 1, h.nodes[-1] + 1
        ends = [rnd.choice(h.nodes) for _ in range(20)] + [random_fraction(rnd, lo, hi) for _ in range(20)]
        intervals = [sorted(rnd.sample(ends, 2)) for _ in range(40)]
        intervals += [(lo, hi), (h.nodes[0], h.nodes[-1]), (h.nodes[5], h.nodes[5]), (lo - 1, lo)]
        for a, b in intervals:
            assert linear_mass_between(h, a, b) == full_scan(h, a, b)

    def test_samplers_share_draws(self, fixture_a):
        rng_a, rng_b = RngStream(5).child(3), RngStream(5).child(3)
        free = restricted_type_ratio(fixture_a, 1, 2, 8, rng_a, n_cells=8)
        mk = mk_restricted_type_ratio(fixture_a, 1, 2, 8, rng_b, n_cells=8)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        key = [(s.omega_measure, s.constant_assignment) for s in free.samples]
        assert key == [(s.omega_measure, s.constant_assignment) for s in mk.samples]
        for res in (free, mk):
            assert res.max_ratio == pytest.approx(float(res.max_power) ** 0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "k, budget, digest",
        [
            (1, 200, "133657f2b4c375d2dab0031814c40582d43942a0d952e2b0d5a8a52312e16f29"),
            (2, 10, "b4f7fe686fbaf487e907ae95fb6fddf26ba75f6e24fd617363c30058e1fa6a0d"),
        ],
        ids=["k1", "k2"],
    )
    def test_criterion_8_values_pinned(self, z8_set, k, budget, digest):
        # criterion 8's mk sampler on its own stream: the exact max_power, the
        # max ratio and every sample's ratio, bit for bit (k=2: first draws)
        res = mk_restricted_type_ratio(z8_set, k, 2, budget, RngStream(7).child(82, k))
        text = "\n".join([str(res.max_power), repr(res.max_ratio), *(repr(s.ratio) for s in res.samples)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestNorms:
    def test_fixture_density_l2(self, fixture_a):
        assert density(fixture_a, 1).lp_power(2) == 2

    def test_unit_indicator_all_p(self):
        f = StepFunction.indicator(F(3, 7), F(10, 7))
        for p in (1, 2, 3):
            assert f.lp_power(p) == 1

    def test_dilation_scaling_exact(self):
        rnd = random.Random(13)
        for _ in range(10):
            f = random_step(rnd)
            lam = F(rnd.randint(1, 5), rnd.choice([1, 2]))
            p = rnd.choice([1, 2, 3])
            assert affine_image(f, 0, lam).lp_power(p) == lam * f.lp_power(p)


class TestDifferentiation:
    def test_locally_constant_zero_error(self, fixture_a):
        f = StepFunction.indicator(0, 1)
        rows = differentiation_experiment(f, fixture_a, [F(1, 5)], [F(1, 20), F(1, 40)])
        assert all(row.sup_error == 0 for row in rows)

    def test_lipschitz_bound_every_entry(self, fixture_a, z8_set):
        hat = PiecewiseLinear.from_nodes([-4, -2, 0], [0, 3, 0])
        lip = hat.lipschitz_constant()
        for cset in (fixture_a, z8_set):
            rows = differentiation_experiment(
                hat, cset, [F(-3), F(-7, 3), F(-1, 2)], [F(1, 4), F(1, 8), F(1, 16)]
            )
            for row in rows:
                assert row.sup_error <= 2 * lip * row.r

    def test_jump_point_recorded_not_asserted(self, fixture_a):
        f = StepFunction.indicator(0, 1)
        # x = -1 with r in [1/2, 1]: the window x + r[1,2] straddles the jump
        # of f at 0, so errors stay away from 0 instead of shrinking
        rows = differentiation_experiment(f, fixture_a, [F(-1)], [F(3, 4), F(5, 8)])
        assert all(row.sup_error > 0 for row in rows)

    def test_indicator_left_of_its_jump_reads_mu_k(self, z16_set):
        # x = -theta r with theta in [1, 2]: x + r y lies in [0, 1] exactly
        # when y >= theta, so A_r[k] 1_[0,1](x) is mu_k([theta, 2]); theta
        # runs over fixed points and over breakpoints of every phi_k
        f = StepFunction.indicator(0, 1)
        thetas = {F(1), F(9, 8), F(4, 3), F(3, 2), F(7, 4), F(2)}
        phis = {k: density(z16_set, k) for k in range(1, z16_set.depth + 1)}
        for phi in phis.values():
            units = breakpoints(phi)
            thetas |= {units[i] for i in (0, 1, len(units) // 2, -2, -1)}
        assert all(1 <= t <= 2 for t in thetas)
        for k, phi in phis.items():
            for theta in sorted(thetas):
                want = prefix_mass(phi, theta, 2)
                for r in DifferentiateConfig().r_sequence:
                    assert average(f, z16_set, k, r, -theta * r) == want
        assert prefix_mass(phis[1], F(1), F(2)) == 1

    def test_requires_decreasing_r(self, fixture_a):
        with pytest.raises(DomainError):
            differentiation_experiment(
                StepFunction.indicator(0, 1), fixture_a, [F(1, 5)], [F(1, 8), F(1, 8)]
            )


class TestL1Demo:
    def test_growth_and_monotone_rho(self, z4_deep_set):
        res = l1_divergence_demo(z4_deep_set, 4, rho0=z4_deep_set.params.delta(4))
        assert res.growth_factor > 1
        bigger = l1_divergence_demo(z4_deep_set, 4, rho0=F(1, 64))
        smaller = l1_divergence_demo(z4_deep_set, 4, rho0=F(1, 256))
        assert all(b <= a for (_, a), (_, b) in zip(bigger.rows, smaller.rows))

    def test_layercake_monotonicity_conditional(self, z4_deep_set):
        # if ball masses are nondecreasing in k at every tabulated radius,
        # the tabulated integrals are nondecreasing as well
        res = l1_divergence_demo(z4_deep_set, 4, rho0=F(1, 64))
        masses_monotone = all(
            all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))
            for masses in res.ball_masses.values()
        )
        if masses_monotone:
            values = [v for _, v in res.rows]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_depth_validation(self, fixture_a):
        with pytest.raises(DomainError):
            l1_divergence_demo(fixture_a, 5, rho0=F(1, 16))

    @pytest.mark.parametrize("name", ["z4_deep_set", "z16_set"])
    def test_ball_masses_match_prefix_oracle(self, name, request):
        # each ball mass is the prefix-table phi_k mass of [x0 - rho, x0 + rho]
        # clipped to [1, 2]; the demo reads it from the prefix moments
        cset = request.getfixturevalue(name)
        res = l1_divergence_demo(cset, cset.depth, rho0=F(1, 64))
        assert len(res.ball_masses) == cset.depth
        phis = [density(cset, k) for k in range(1, cset.depth + 1)]
        for j in range(1, cset.depth + 1):
            rho = cset.params.delta(j)
            lo, hi = max(F(1), res.x0 - rho), min(F(2), res.x0 + rho)
            want = [prefix_mass(phi, lo, hi) for phi in phis]
            got = [average(StepFunction.indicator(lo, hi), cset, k, 1, 0) for k in range(1, cset.depth + 1)]
            assert got == want
            assert res.ball_masses[f"{rho.numerator}/{rho.denominator}"] == [float(m) for m in want]


class TestPositiveExponent:
    def test_unrestricted_with_a_quarter(self, fixture_a):
        # p=2, q=4 gives a = 1/4; the r^a weight only rescales scales
        f = StepFunction.indicator(0, 1)
        q = MaximalQuery(points=[F(-2)], r_grid=dyadic_r_grid(3), p=2, q=4, m_min=0, m_max=2)
        assert q.a == F(1, 4)
        [(_, val)] = windowed_maximal(f, fixture_a, q)
        grid_vals = []
        for m in range(0, 3):
            for r0 in q.r_grid:
                r = r0 / 2**m
                v = average(f, fixture_a, 1, r, F(-2))
                v2 = average(f, fixture_a, 2, r, F(-2))
                grid_vals.append(float(max(v, v2)) * float(r) ** 0.25)
        assert val == pytest.approx(max(grid_vals), rel=1e-12)

    def test_omega_index_validation(self, fixture_a):
        assign = _rand_assignment(fixture_a, 1, 8, 3)
        with pytest.raises(GridError):
            phi_star([0, 9], fixture_a, 1, assign)
