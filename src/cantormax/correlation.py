"""The n-fold correlation functional and its transverse-class bookkeeping.

Lambda(A; f_1..f_n) = integral of prod f_l((z - c_l)/r_l) dz, evaluated
exactly by a single merged-breakpoint sweep; no quadrature tolerance exists
anywhere in it.  The sampled sup over the transverse class never claims to
be a certified sup: reports carry their coverage mode.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import CantorSet
from .errors import DegenerateMeasureError, DomainError, EmptySampleError
from .grids import DiscretizationGrid
from .intersect import AffineTuple, INTERNAL, TRANSVERSE, enumerate_F
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


def classify_A(
    A: AffineTuple,
    cset: CantorSet,
    n: int,
    k: int,
    epsilon0: Fraction | None = None,
) -> str:
    """Transverse iff #F_int < P_k^(1 - eps0), compared exactly.

    The count runs over the full index grid (the family does not depend on
    which intervals were selected); the threshold uses the set's P_k.
    """
    eps0 = Fraction(epsilon0 if epsilon0 is not None else cset.params.epsilon0)
    tuples = enumerate_F(n, k, A, cset.params)
    count = sum(1 for t in tuples if t.cls == INTERNAL)
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
    within_trivial: bool
    within_c0: bool

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
    triv = trivial_bound(cset, n, k)
    return CorrelationReport(
        A=A,
        n=n,
        k=k,
        lam=lam,
        cls=cls,
        trivial=triv,
        c0=c0,
        within_trivial=abs(lam) <= triv,
        within_c0=abs(lam) <= c0,
    )


def _transverse_scan(
    cset: CantorSet,
    n: int,
    k: int,
    budget: int,
    rng: np.random.Generator,
    pair_pool: Sequence[tuple] | None = None,
) -> SupLambdaResult:
    """Max of |Lambda(A; sigma_k)| over the transverse candidates.

    Candidates are every tuple over ``pair_pool`` (or ``budget`` draws from
    it when the pool is too large), else every level-k grid tuple when the
    grid is small enough, else ``budget`` grid draws with the even-numbered
    ones near-diagonal.  With no transverse candidate the max is 0 and the
    witness None.
    """
    c0 = c0_constant(cset.params, n, k)
    if pair_pool is not None:
        pool = [(Fraction(c), Fraction(r)) for c, r in pair_pool]
        total = len(pool) ** n
        if total <= EXHAUSTIVE_CAP:
            candidates = [
                AffineTuple(combo, k) for combo in itertools.product(pool, repeat=n)
            ]
            coverage = {"mode": "exhaustive", "tuples": total}
        else:
            idx = rng.integers(0, len(pool), size=(budget, n))
            candidates = [
                AffineTuple(tuple(pool[j] for j in row), k) for row in idx
            ]
            coverage = {"mode": "sampled", "tuples": budget, "pool": len(pool)}
    else:
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

    best = Fraction(0)
    witness = None
    transverse_seen = 0
    reports = []
    for A in candidates:
        rep = evaluate_tuple(A, cset, n, k, c0)
        reports.append(rep)
        if rep.cls != TRANSVERSE:
            continue
        transverse_seen += 1
        if witness is None or abs(rep.lam) > best:
            best, witness = abs(rep.lam), A
    return SupLambdaResult(best, witness, coverage, transverse_seen, tuple(reports))


def sup_lambda_tr(
    cset: CantorSet,
    n: int,
    k: int,
    budget: int,
    rng: np.random.Generator,
    pair_pool: Sequence[tuple] | None = None,
) -> SupLambdaResult:
    """Sampled stand-in for sup over transverse tuples of |Lambda(A; sigma_k)|.

    With ``pair_pool`` the candidate tuples come from that explicit pool of
    (c, r) pairs; pools small enough are enumerated exhaustively.  Otherwise
    samples are drawn from the level-k discretization grid, half of them in
    the near-diagonal stratum.
    """
    if budget < 1:
        raise EmptySampleError("sup_lambda_tr needs budget >= 1")
    result = _transverse_scan(cset, n, k, budget, rng, pair_pool)
    if result.witness is None:
        raise EmptySampleError(
            f"no transverse tuples among {len(result.reports)} candidates at k={k}"
        )
    if pair_pool is None and result.coverage["mode"] == "sampled":
        result.coverage["stratified"] = "half near-diagonal"
    return result


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


def write_reports_jsonl(path, reports: Sequence[CorrelationReport]) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")


def write_reports_csv(path, reports: Sequence[CorrelationReport]) -> None:
    """Summary rows (k, n, class, lambda, bounds) for decay-curve plotting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "n", "class", "lambda", "trivial_bound", "c0"])
        for rep in reports:
            w.writerow(
                [rep.k, rep.n, rep.cls, float(rep.lam), float(rep.trivial), rep.c0]
            )
