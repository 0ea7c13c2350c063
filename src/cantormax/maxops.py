"""Averaging, maximal, and adjoint operators, plus the two experiments.

Everything that feeds a comparison is exact.  An average A_r[k] f(x) is a
sum over the linear pieces of f: on a piece where f(z) = alpha + beta z it
needs the length and the first moment of S_k over the piece's preimage,
which two bisects into the level's prefix-moment tables give
(``CantorSet.run_moments``), so an average costs O(pieces * log runs) and
never a pass over the runs.  Maximal values are exact maxima of exact
rationals over the query grid.  The sup over continuous dilations is
replaced by a grid max; refinement of the grid never decreases any value.

The single-scale operator is f -> sup over r of |integral f(x + r y)
sigma_k(y) dy|: the dilation r is its only free parameter, and the
translation is the point x itself.  This module computes the adjoint of
its linearization (``mk_adjoint``) and samples that adjoint's
restricted-type ratio; the operator itself, as a max over an r grid, is
``mk_operator`` in ``tests/lemmas.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import CantorSet
from .correlation import c0_constant
from .errors import (
    DegenerateMeasureError,
    DomainError,
    EmptySampleError,
    GridError,
)
from .params import _frac_str
from .stepfn import (
    PiecewiseLinear,
    StepFunction,
    antiderivative,
    linear_combination,
    power_integral,
)

# ---------------------------------------------------------------------------
# averaging / maximal operators
# ---------------------------------------------------------------------------


def average(f, cset: CantorSet, k: int, r, x) -> Fraction:
    """A_r[k] f(x) = integral of f(x + r y) dmu_k(y), exact.

    f is a StepFunction or a PiecewiseLinear.  On a piece [p, q] where
    f(z) = alpha + beta z, the integrand is alpha + beta x + beta r y on the
    preimage Y = [(p - x)/r, (q - x)/r], so the piece contributes
    (alpha + beta x) |S_k ∩ Y| + beta r * (integral of y over S_k ∩ Y).
    Both come from cutting the level's prefix moments at the ends of Y.
    """
    r, x = Fraction(r), Fraction(x)
    if r <= 0:
        raise DomainError("dilation r must be positive")
    lv = cset.level(k)
    if lv.P == 0:
        raise DegenerateMeasureError(f"level {k} is empty")
    moments = cset.run_moments(k)
    M = lv.M_k

    def cut(z, unbounded):
        """Grid unit u = M (y - 1) of the point z = x + r y, clipped to [0, M]."""
        return unbounded if z is None else min(max(M * (z - x - r) / r, 0), M)

    total = Fraction(0)
    for p, q, alpha, beta in f.linear_pieces():
        lo, hi = cut(p, 0), cut(q, M)
        if hi <= lo or not (alpha or beta):
            continue
        (a0, a1), (b0, b1) = moments.below(lo), moments.below(hi)
        # with y = 1 + u/M, |S_k ∩ Y| = m0/M and the integral of y is
        # m0/M + m1/(2 M^2); the 1/M cancels against |S_k| = P/M
        total += (alpha + beta * (x + r)) * (b0 - a0) + beta * r * (b1 - a1) / (2 * M)
    return total / lv.P


@dataclass(frozen=True)
class MaximalQuery:
    points: tuple[Fraction, ...]
    r_grid: tuple[Fraction, ...]
    p: Fraction = Fraction(2)
    q: Fraction = Fraction(2)
    m_min: int = 0
    m_max: int = 0

    def __post_init__(self):
        pts = tuple(Fraction(v) for v in self.points)
        grid = tuple(sorted(Fraction(v) for v in self.r_grid))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "r_grid", grid)
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if not grid:
            raise DomainError("r_grid must be nonempty")
        if any(not (1 < r < 2) for r in grid):
            raise DomainError("r_grid values must lie in (1, 2)")
        if not (1 < self.p <= self.q):
            raise DomainError("need 1 < p <= q < infinity")
        if self.m_min > self.m_max:
            raise DomainError("need m_min <= m_max")

    @property
    def a(self) -> Fraction:
        return 1 / self.p - 1 / self.q


def dyadic_r_grid(size: int) -> tuple[Fraction, ...]:
    """size equispaced interior points of (1, 2).

    Passing 2*size + 1 refines the grid in place (the old points persist),
    which is what the discretization-sensitivity checks rely on.
    """
    if size < 1:
        raise DomainError("need size >= 1")
    denom = size + 1
    return tuple(1 + Fraction(j, denom) for j in range(1, denom))


def _scale(m: int) -> Fraction:
    return Fraction(1, 2**m) if m >= 0 else Fraction(2 ** (-m))


@dataclass(frozen=True)
class MaximalSweep:
    """A_r[k]|f|(x) over a query's points, levels 1..k_top and dilations
    r = r0 2^-m (r0 on the r grid, m in the swept scales), keyed
    (x, m, k, r0), each computed once."""

    query: MaximalQuery
    k_top: int
    averages: dict

    def _keys(self, m: int):
        return [(m, k, r0) for k in range(1, self.k_top + 1) for r0 in self.query.r_grid]

    def restricted(self) -> list[tuple[Fraction, Fraction]]:
        """M f at each query point: max over the r grid (m = 0) and levels."""
        keys = self._keys(0)
        return [
            (x, max([Fraction(0), *(self.averages[(x, *key)] for key in keys)]))
            for x in self.query.points
        ]

    def windowed(self) -> list[tuple[Fraction, float]]:
        """max of r^a A_r[k]|f|(x) over the query's scale window; r^a is the only float."""
        a = self.query.a
        keys = [key for m in range(self.query.m_min, self.query.m_max + 1) for key in self._keys(m)]
        out = []
        for x in self.query.points:
            best = 0.0
            for m, k, r0 in keys:
                val = self.averages[x, m, k, r0]
                if val == 0:
                    continue
                best = max(best, float(val) * float(r0 * _scale(m)) ** float(a))
            out.append((x, best))
        return out


def maximal_sweep(f: StepFunction, cset: CantorSet, query: MaximalQuery, scales) -> MaximalSweep:
    """A_{r0 2^-m}[k]|f|(x) at every query point x, level k <= cset.depth, r0 on
    the r grid and m in ``scales``; ``restricted`` reads scale 0 and
    ``windowed`` the query's window."""
    fabs = f.abs()
    averages = {
        (x, m, k, r0): average(fabs, cset, k, r0 * _scale(m), x)
        for x in dict.fromkeys(query.points)
        for m in scales
        for k in range(1, cset.depth + 1)
        for r0 in query.r_grid
    }
    return MaximalSweep(query, cset.depth, averages)


# ---------------------------------------------------------------------------
# the discretized adjoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjointAssignment:
    """Piecewise-constant translation/dilation maps on a partition of [0, 1].

    Cells must be unions of delta_{k+1}^L grid cells; values live on the
    discretization grids.  The translation c of a cell is free: it is drawn
    from the [-4, 0] grid and need not be the point x of the cell.  The maps
    therefore linearize a family with free translations, not the
    single-scale operator, whose only free parameter is the dilation;
    ``mk_adjoint`` is the adjoint of that operator's linearization.
    """

    cells: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]  # (lo, hi, c, r)
    spacing: Fraction

    def __post_init__(self):
        prev = Fraction(0)
        for lo, hi, c, r in self.cells:
            if lo != prev:
                raise GridError(f"assignment cells must tile [0,1]; gap at {lo}")
            if (lo / self.spacing).denominator != 1 or (hi / self.spacing).denominator != 1:
                raise GridError("assignment cell not aligned with the discretization grid")
            prev = hi
        if prev != 1:
            raise GridError("assignment cells must end at 1")

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def uniform_assignment(
    cset: CantorSet, k: int, n_cells: int, pair_source: Callable[[int], tuple]
) -> AdjointAssignment:
    """Partition [0,1] into n_cells equal cells; (c, r) per cell from pair_source."""
    params = cset.params
    fine = params.M(k + 1) ** params.L
    if fine % n_cells:
        raise GridError(f"{n_cells} cells do not align with the {fine}-cell fine grid")
    spacing = Fraction(1, fine)
    cells = []
    for i in range(n_cells):
        c, r = pair_source(i)
        cells.append((Fraction(i, n_cells), Fraction(i + 1, n_cells), Fraction(c), Fraction(r)))
    return AdjointAssignment(tuple(cells), spacing)


def _omega_cells(omega: Sequence[int], assign: AdjointAssignment):
    cells = []
    for i in omega:
        if not (0 <= i < assign.n_cells):
            raise GridError(f"omega cell {i} outside the assignment partition")
        cells.append(assign.cells[i])
    return cells


def phi_star(
    omega: Sequence[int], cset: CantorSet, k: int, assign: AdjointAssignment
) -> StepFunction:
    """Adjoint applied to an indicator: sum over omega cells of
    |cell| * sigma_k((z - c)/r), exact."""
    sig = cset.sigma(k)
    terms = [(hi - lo, sig, c, r) for lo, hi, c, r in _omega_cells(omega, assign)]
    return linear_combination(terms)


def phi_star_norm_power(
    omega: Sequence[int], cset: CantorSet, k: int, assign: AdjointAssignment, n: int
) -> Fraction:
    """Exact integral of |Phi_k* 1_omega|^n without materializing the sum."""
    sig = cset.sigma(k)
    terms = [(hi - lo, sig, c, r) for lo, hi, c, r in _omega_cells(omega, assign)]
    return power_integral(terms, n)


# ---------------------------------------------------------------------------
# the adjoint of the linearized maximal operator
# ---------------------------------------------------------------------------


def _dilation_cells(cells) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The (lo, hi, r) cells sorted and checked.  The endpoint two equal-r
    neighbours share gives opposite terms, which ``stepfn`` sums to 0."""
    out = sorted((Fraction(lo), Fraction(hi), Fraction(r)) for lo, hi, r in cells)
    for prev, (lo, hi, r) in zip([None, *out], out):
        if hi <= lo or r <= 0:
            raise DomainError("adjoint cells need lo < hi and r > 0")
        if prev and lo < prev[1]:
            raise DomainError("adjoint cells overlap")
    return out


def mk_adjoint(cells, cset: CantorSet, k: int) -> PiecewiseLinear:
    """Adjoint of the linearized single-scale operator applied to 1_omega, exact.

    ``cells`` holds disjoint (lo, hi, r) triples: omega is their union and
    r(x) = r on [lo, hi].  The linearization f -> integral f(x + r(x) y)
    sigma_k(y) dy = integral f(z) sigma_k((z - x)/r(x)) dz / r(x) has the
    adjoint Phi* g(z) = integral g(x) sigma_k((z - x)/r(x)) dx / r(x); on a
    cell it is S((z - lo)/r) - S((z - hi)/r), with S the antiderivative of
    sigma_k.  So the result is ``stepfn.antiderivative`` of the slope terms
    (1/r) sigma_k((z - lo)/r) and -(1/r) sigma_k((z - hi)/r): continuous and
    piecewise linear with compact support, its nodes every transformed
    sigma_k breakpoint, held in cleared-denominator integers.
    """
    sig = cset.sigma(k)
    terms = []
    for a, b, r in _dilation_cells(cells):
        terms += [(1 / r, sig, a, r), (-1 / r, sig, b, r)]
    return antiderivative(terms)


# ---------------------------------------------------------------------------
# restricted-type ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioSample:
    omega_measure: Fraction
    ratio: float
    constant_assignment: bool


@dataclass(frozen=True)
class RatioResult:
    max_ratio: float
    rhs_theoretical: float  # restricted strong-type target with C treated as 1
    n: int
    k: int
    samples: tuple[RatioSample, ...]
    max_power: Fraction  # exact max of ||Phi* 1_omega||_n^n / |omega|^(n-1); max_ratio^n up to rounding


def _ratio_draws(cset: CantorSet, k: int, budget: int, rng: np.random.Generator, n_cells: int):
    """Yield budget (constant, assignment, omega) draws from rng.

    Assignments alternate between constant and cellwise-random (translation
    index, then dilation index, cell by cell); each draw then picks a density
    and a random omega of that many cells.  Both ratio samplers consume these
    draws, so they see the same omegas and dilations.
    """
    from .grids import DiscretizationGrid

    grid = DiscretizationGrid.for_level(cset.params, k)
    for s in range(budget):
        constant = s % 2 == 0
        if constant:
            ci = grid._rand_index(rng, grid.n_c)
            ri = grid._rand_index(rng, grid.n_r)
            pair_source = lambda i, cv=grid.c_value(ci), rv=grid.r_value(ri): (cv, rv)
        else:
            def pair_source(i):
                return (
                    grid.c_value(grid._rand_index(rng, grid.n_c)),
                    grid.r_value(grid._rand_index(rng, grid.n_r)),
                )

        assign = uniform_assignment(cset, k, n_cells, pair_source)
        density = _DENSITIES[int(rng.integers(0, len(_DENSITIES)))]
        count = max(1, int(n_cells * density))
        omega = sorted(int(i) for i in rng.choice(n_cells, size=count, replace=False))
        yield constant, assign, omega


def _sampled_ratio(cset, k, n, budget, rng, n_cells, norm_power) -> RatioResult:
    """Max over ``_ratio_draws`` of norm_power(omega, assign)^(1/n) / |omega|^((n-1)/n)."""
    if budget < 1:
        raise EmptySampleError("restricted-type ratio sampling needs budget >= 1")
    samples = []
    best = 0.0
    best_power = Fraction(0)
    for constant, assign, omega in _ratio_draws(cset, k, budget, rng, n_cells):
        power = norm_power(omega, assign)
        measure = Fraction(len(omega), n_cells)
        ratio = float(power) ** (1.0 / n) / float(measure) ** ((n - 1) / n)
        best = max(best, ratio)
        best_power = max(best_power, power / measure ** (n - 1))
        samples.append(RatioSample(measure, ratio, constant))
    rhs = restricted_type_target(cset, n, k)
    return RatioResult(best, rhs, n, k, tuple(samples), best_power)


_DENSITIES = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))


def restricted_type_ratio(
    cset: CantorSet,
    k: int,
    n: int,
    budget: int,
    rng: np.random.Generator,
    n_cells: int = 32,
) -> RatioResult:
    """Max over sampled (omega, assignment) of ||Phi_k* 1_omega||_n / |omega|^((n-1)/n)
    for the free-translation adjoint ``phi_star``.

    Omegas are random unions of grid cells at density 1/8, 1/4 or 1/2;
    assignments alternate between constant and cellwise-random translation
    and dilation draws.  This is not the adjoint of the single-scale
    operator: a constant draw makes Phi* 1_omega = |omega| sigma_k((z - c)/r),
    the cancellation-free value |omega|^(1/n) r^(1/n) ||sigma_k||_n of the
    ratio, which grows with k as ||sigma_k||_n does.
    ``mk_restricted_type_ratio`` samples that operator's adjoint on the same
    draws.  The reported target is the restricted strong-type right side
    with its unquantified absolute constant treated as 1 (labeled as such in
    reports).
    """

    def norm_power(omega, assign):
        return phi_star_norm_power(omega, cset, k, assign, n)

    return _sampled_ratio(cset, k, n, budget, rng, n_cells, norm_power)


def mk_restricted_type_ratio(
    cset: CantorSet,
    k: int,
    n: int,
    budget: int,
    rng: np.random.Generator,
    n_cells: int = 32,
) -> RatioResult:
    """Max over sampled (omega, dilations) of ||Phi_k* 1_omega||_n / |omega|^((n-1)/n)
    for ``mk_adjoint``, the adjoint of the linearized single-scale operator.

    Consumes the same draws as ``restricted_type_ratio``, translations
    included, and discards each cell's translation: in the single-scale
    operator the translation is the point x itself.  ``max_power`` holds
    the exact max of ||Phi_k* 1_omega||_n^n / |omega|^(n-1), the quantity to
    compare across k.
    """

    def norm_power(omega, assign):
        cells = [(lo, hi, r) for lo, hi, _, r in _omega_cells(omega, assign)]
        return mk_adjoint(cells, cset, k).lp_power(n)

    return _sampled_ratio(cset, k, n, budget, rng, n_cells, norm_power)


def restricted_type_target(cset: CantorSet, n: int, k: int) -> float:
    """Restricted strong-type target [max(2^n n^4 P_k^(eps0-1) /
    (P_{k+1} delta_{k+1})^(n-1), C0)]^(1/n), absolute constant taken as 1."""
    params = cset.params
    eps0 = float(params.epsilon0)
    P = cset.P(k)
    meas = float(cset.level(k + 1).measure)
    first = 2.0**n * n**4 * P ** (eps0 - 1.0) / meas ** (n - 1)
    c0 = c0_constant(params, n, k)
    return max(first, c0) ** (1.0 / n)


# ---------------------------------------------------------------------------
# differentiation experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffRow:
    x: Fraction
    r: Fraction
    sup_error: Fraction
    per_level: tuple[Fraction, ...]


def differentiation_experiment(
    f,
    cset: CantorSet,
    points: Sequence,
    r_sequence: Sequence,
) -> list[DiffRow]:
    """For each x and shrinking r: sup over k of |A_r[k] f(x) - f(x)|, exact.

    f may be a StepFunction or a PiecewiseLinear; it is evaluated by its
    right limit at breakpoints.  Rows are recorded, not judged (divergence
    at a jump point is data, not an error).
    """
    rs = [Fraction(r) for r in r_sequence]
    if any(r2 >= r1 for r1, r2 in zip(rs, rs[1:])) or any(r <= 0 for r in rs):
        raise DomainError("r_sequence must decrease strictly to 0")
    rows = []
    for x in points:
        x = Fraction(x)
        fx = f.value_at(x)
        for r in rs:
            errs = tuple(
                abs(average(f, cset, k, r, x) - fx)
                for k in range(1, cset.depth + 1)
            )
            rows.append(DiffRow(x, r, max(errs), errs))
    return rows


# ---------------------------------------------------------------------------
# L^1 failure demonstration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DemoResult:
    x0: Fraction
    r: Fraction
    rho0: Fraction
    rows: tuple[tuple[int, float], ...]  # (k, integral of the singular profile)
    growth_factor: float
    ball_masses: dict  # radius -> per-level masses
    eta_estimates: dict  # radius -> mass/(2 rho) at the deepest level


def densest_point(cset: CantorSet) -> Fraction:
    """Center of a deepest-level cell with the most selected cells within 8
    cells of it."""
    lv = cset.level(cset.depth)
    if lv.P == 0:
        raise EmptySampleError("no selected intervals at the deepest level")
    arr = lv.offsets
    hi = np.searchsorted(arr, arr + 8, side="right")
    lo = np.searchsorted(arr, arr - 8, side="left")
    best = int(np.argmax(hi - lo))
    o = int(arr[best])
    return 1 + Fraction(2 * o + 1, 2 * lv.M_k)


def _profile_integral(cset, k, x0: Fraction, r: Fraction, rho0: Fraction) -> float:
    """integral of h(r(y - x0)) phi_k(y) dy with h(u) = |u|^(-1/2) on |u| < rho0.

    Per-run closed form: the antiderivative of |u|^(-1/2) is 2 sign(u) |u|^(1/2).
    """
    lv = cset.level(k)
    if lv.P == 0:
        raise DegenerateMeasureError(f"level {k} is empty")
    runs = lv.runs()
    M = lv.M_k
    lo = 1 + runs[:, 0].astype(np.float64) / M
    hi = 1 + runs[:, 1].astype(np.float64) / M
    x0f, rf, rho = float(x0), float(r), float(rho0)
    cut = rho / rf  # |y - x0| < rho0/r
    a = np.maximum(lo, x0f - cut)
    b = np.minimum(hi, x0f + cut)
    mask = b > a
    a, b = a[mask] - x0f, b[mask] - x0f

    def anti(u):
        return 2.0 * np.sign(u) * np.sqrt(np.abs(u))

    total = float(np.sum(anti(b) - anti(a))) / math.sqrt(rf)
    return total / float(lv.measure)


def l1_divergence_demo(
    cset: CantorSet,
    depth: int,
    rho0,
    r=Fraction(1, 2),
) -> DemoResult:
    """Tabulate the averaged singular profile h(x - x_j + r y) against mu_k.

    The profile is h(u) = |u|^(-1/2) truncated at rho0 (the inverse of the
    integrable g(t) = t^(-2) tail); x_j is placed so the average is centered
    on a densest point x0 of the deepest level.  Divergence is evidenced, not
    proven: the table reports its growth across k plus the empirical ball
    masses behind it, at radii delta_1..delta_depth around x0.  A ball mass
    mu_k(B) is the average A_1[k] 1_B(0), read from the prefix moments.
    """
    if depth < 1 or depth > cset.depth:
        raise DomainError(f"depth must lie in 1..{cset.depth}")
    rho0, r = Fraction(rho0), Fraction(r)
    if rho0 <= 0 or r <= 0:
        raise DomainError("rho0 and r must be positive")
    x0 = densest_point(cset)
    rows = []
    for k in range(1, depth + 1):
        rows.append((k, _profile_integral(cset, k, x0, r, rho0)))
    first, last = rows[0][1], rows[-1][1]
    growth = last / first if first > 0 else math.inf
    ball_masses = {}
    eta = {}
    for j in range(1, depth + 1):
        rho = cset.params.delta(j)
        lo = max(Fraction(1), x0 - rho)
        hi = min(Fraction(2), x0 + rho)
        masses = []
        for k in range(1, depth + 1):
            if cset.P(k):
                masses.append(float(average(StepFunction.indicator(lo, hi), cset, k, 1, 0)))
            else:
                masses.append(float("nan"))
        key = _frac_str(rho)
        ball_masses[key] = masses
        eta[key] = masses[-1] / (2.0 * float(rho))
    return DemoResult(x0, r, rho0, tuple(rows), growth, ball_masses, eta)
