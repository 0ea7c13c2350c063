"""The n-fold correlation functional and its transverse-class bookkeeping.

Lambda(A; f_1..f_n) = integral of prod f_l((z - c_l)/r_l) dz, evaluated
exactly by a single merged-breakpoint sweep; no quadrature tolerance exists
anywhere in it.  The sampled sup over the transverse class never claims to
be a certified sup: reports carry their coverage mode.

A tuple's class is a threshold on a count of internal tuples, so it is
decided by counting, never by listing, and before any lambda is computed:
the transverse scan computes lambda only for the transverse candidates it
maximises over, and ``sup_lambda_tr`` adds the internal ones' for its
reports.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import CantorSet
from .errors import DegenerateMeasureError, DomainError, EmptySampleError
from .grids import DiscretizationGrid
from .intersect import AffineTuple, INTERNAL, TRANSVERSE, count_internal
from .params import ConstructionParams, nudge
from .stepfn import StepFunction, product_integral

EXHAUSTIVE_CAP = 4096


def lambda_exact(A: AffineTuple, fns: Sequence[StepFunction]) -> Fraction:
    """Exact n-fold correlation of fns according to A."""
    if len(fns) != A.n:
        raise DomainError(f"need {A.n} functions, got {len(fns)}")
    return product_integral([(f, c, r) for f, (c, r) in zip(fns, A.pairs)])


def lambda_sigma(A: AffineTuple, cset: CantorSet, k: int) -> Fraction:
    """lambda_exact with every slot equal to sigma_k."""
    sig = cset.sigma(k)
    return lambda_exact(A, [sig] * A.n)


def trivial_bound(cset: CantorSet, n: int, k: int) -> Fraction:
    """Cancellation-free bound 2^(n+1) / (P_{k+1} delta_{k+1})^(n-1)."""
    lv = cset.level(k + 1)
    if lv.P == 0:
        raise DegenerateMeasureError(f"level {k + 1} is empty")
    return Fraction(2 ** (n + 1)) / lv.measure ** (n - 1)


def classify_A(A: AffineTuple, cset: CantorSet, n: int, k: int) -> str:
    """Transverse iff #F_int < P_k^(1 - eps0), compared exactly.

    The internal tuples are counted over the full index grid (the family
    does not depend on which intervals were selected) without listing them;
    the threshold uses the set's P_k and epsilon0.
    """
    eps0 = Fraction(cset.params.epsilon0)
    count = count_internal(n, k, A, cset.params)
    P = cset.P(k)
    # count < P^((b-a)/b)  <=>  count^b < P^(b-a), both sides integers
    a, b = eps0.numerator, eps0.denominator
    return TRANSVERSE if count**b < P ** (b - a) else INTERNAL


@dataclass(frozen=True)
class CorrelationReport:
    A: AffineTuple
    n: int
    k: int
    lam: Fraction
    cls: str
    trivial: Fraction
    c0: float

    @property
    def within_trivial(self) -> bool:
        return abs(self.lam) <= self.trivial

    @property
    def within_c0(self) -> bool:
        return abs(self.lam) <= self.c0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "k": self.k,
            "n": self.n,
            "pairs": [[str(c), str(r)] for c, r in self.A.pairs],
            "class": self.cls,
            "lambda": f"{self.lam.numerator}/{self.lam.denominator}",
            "lambda_float": float(self.lam),
            "trivial_bound": float(self.trivial),
            "c0": self.c0,
            "within_trivial": self.within_trivial,
            "within_c0": self.within_c0,
        }


@dataclass(frozen=True)
class SupLambdaResult:
    max_abs: Fraction
    witness: AffineTuple | None
    coverage: dict
    transverse_seen: int
    reports: tuple[CorrelationReport, ...]


def grid_tuples(grid: DiscretizationGrid, n: int) -> list[AffineTuple] | None:
    """All grid tuples when the full enumeration fits under the cap, else None."""
    total_pairs = grid.total_pairs()
    if total_pairs**n > EXHAUSTIVE_CAP:
        return None
    pairs = [
        (grid.c_value(ci), grid.r_value(ri))
        for ci in range(1, grid.n_c + 1)
        for ri in range(1, grid.n_r + 1)
    ]
    return [AffineTuple(combo, grid.k) for combo in itertools.product(pairs, repeat=n)]


def evaluate_tuple(
    A: AffineTuple, cset: CantorSet, n: int, k: int, c0: float
) -> CorrelationReport:
    lam = lambda_sigma(A, cset, k)
    cls = classify_A(A, cset, n, k)
    return CorrelationReport(A, n, k, lam, cls, trivial_bound(cset, n, k), c0)


@dataclass(frozen=True)
class TransverseScan:
    """Every candidate's class, and Lambda(A; sigma_k) of the transverse ones."""

    candidates: tuple[AffineTuple, ...]
    classes: tuple[str, ...]
    transverse_lams: dict[int, Fraction]  # candidate index -> lambda
    coverage: dict
    max_abs: Fraction
    witness: AffineTuple | None

    @property
    def transverse_seen(self) -> int:
        return len(self.transverse_lams)


def _transverse_scan(
    cset: CantorSet, n: int, k: int, budget: int, rng: np.random.Generator
) -> TransverseScan:
    """Max of |Lambda(A; sigma_k)| over the transverse candidates.

    Candidates are every level-k grid tuple when the grid has at most
    ``EXHAUSTIVE_CAP`` of them, else ``budget`` grid draws with the
    even-numbered ones near-diagonal.  Every candidate is classified first,
    by counting its internal tuples (``classify_A``), and lambda is
    computed only for the transverse ones: the max never reads an internal
    candidate's lambda.  With no transverse candidate the max is 0 and the
    witness None.
    """
    grid = DiscretizationGrid.for_level(cset.params, k)
    candidates = grid_tuples(grid, n)
    if candidates is not None:
        coverage = {"mode": "exhaustive", "tuples": len(candidates)}
    else:
        candidates = [
            grid.sample_tuple(rng, n, near_diagonal=(i % 2 == 0))
            for i in range(budget)
        ]
        coverage = {"mode": "sampled", "tuples": budget, "grid_pairs": grid.total_pairs()}

    classes = tuple(classify_A(A, cset, n, k) for A in candidates)
    lams = {
        i: lambda_sigma(A, cset, k)
        for i, (A, cls) in enumerate(zip(candidates, classes))
        if cls == TRANSVERSE
    }
    best = Fraction(0)
    witness = None
    for i, lam in lams.items():
        if witness is None or abs(lam) > best:
            best, witness = abs(lam), candidates[i]
    return TransverseScan(tuple(candidates), classes, lams, coverage, best, witness)


def sup_lambda_tr(
    cset: CantorSet, n: int, k: int, budget: int, rng: np.random.Generator
) -> SupLambdaResult:
    """Sampled stand-in for sup over transverse tuples of |Lambda(A; sigma_k)|.

    The candidates are the level-k discretization grid's tuples: all of
    them when the grid is small enough, else ``budget`` draws, half of them
    in the near-diagonal stratum.  The reports cover every candidate, so the
    internal ones' lambdas, which the scan skips, are computed here.
    """
    if budget < 1:
        raise EmptySampleError("sup_lambda_tr needs budget >= 1")
    scan = _transverse_scan(cset, n, k, budget, rng)
    if scan.witness is None:
        raise EmptySampleError(
            f"no transverse tuples among {len(scan.candidates)} candidates at k={k}"
        )
    if scan.coverage["mode"] == "sampled":
        scan.coverage["stratified"] = "half near-diagonal"
    c0 = c0_constant(cset.params, n, k)
    triv = trivial_bound(cset, n, k)
    reports = []
    for i, (A, cls) in enumerate(zip(scan.candidates, scan.classes)):
        lam = scan.transverse_lams[i] if cls == TRANSVERSE else lambda_sigma(A, cset, k)
        reports.append(CorrelationReport(A, n, k, lam, cls, triv, c0))
    return SupLambdaResult(
        scan.max_abs, scan.witness, scan.coverage, scan.transverse_seen, tuple(reports)
    )


def c0_constant(
    params: ConstructionParams, n: int, k: int, rounding: str = "up"
) -> float:
    """The correlation-gate constant for sigma_k at eps0 = 1/2.

    4^(n+2) n! B 2^(k(n+3/2)) prod_j N_j^(-1/2 + eps_j (n-1/2))
    * N_{k+1}^(n eps_{k+1}) * sqrt(ln(4^n n! B prod_{j<=k+1} N_j^(2Ln))).

    Float evaluation; ``rounding`` nudges the result a few ulps up (reporting
    default, conservative over-estimate) or down (gate thresholds, so float
    error can only reject, never falsely accept).
    """
    if n < 2 or n % 2:
        raise DomainError("n must be an even integer >= 2")
    B = float(params.B)
    log_val = (n + 2) * math.log(4.0) + math.lgamma(n + 1) + math.log(B)
    log_val += k * (n + 1.5) * math.log(2.0)
    for j in range(1, k + 1):
        eps_j = float(params.level_eps(j))
        log_val += (-0.5 + eps_j * (n - 0.5)) * math.log(params.level_N(j))
    log_val += n * float(params.level_eps(k + 1)) * math.log(params.level_N(k + 1))
    inner = math.lgamma(n + 1) + n * math.log(4.0) + math.log(B)
    for j in range(1, k + 2):
        inner += 2 * params.L * n * math.log(params.level_N(j))
    value = math.exp(log_val) * math.sqrt(inner)
    return nudge(value, up=(rounding == "up"))


def write_reports_csv(path, reports: Sequence[CorrelationReport]) -> None:
    """Summary rows (k, n, class, lambda, bounds) for decay-curve plotting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "n", "class", "lambda", "trivial_bound", "c0"])
        for rep in reports:
            w.writerow(
                [rep.k, rep.n, rep.cls, float(rep.lam), float(rep.trivial), rep.c0]
            )
