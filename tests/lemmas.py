"""The paper's lemma checks and the tests' fixture builders.

No command, config key or report of ``cantormax`` reads anything here: the
acceptance criteria and the unit tests check the source paper's lemmas
through it (projection multiplicity, proximity of internal tangencies, the
symmetric-difference bound, the Bernstein and Azuma tails, the weak-star
defect, the free-translation operator and its adjoint, and the single-scale
operator mk_operator), and build hand-written sets with it.  Pytest does
not collect this module; tests import it the way they import ``conftest``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from cantormax.core import CantorLevel, CantorSet, MultiIndex
from cantormax.errors import (
    CapacityError,
    DegenerateMeasureError,
    DomainError,
    InsufficientDepthError,
    InvalidIndexError,
)
from cantormax.intersect import INTERNAL, TRANSVERSE, AffineTuple, _check_grid, _slot_geometry
from cantormax.maxops import AdjointAssignment, average
from cantormax.params import ConstructionParams
from cantormax.stepfn import StepFunction, linear_combination, product_integral

from conftest import from_cells, mass_between

# ---------------------------------------------------------------------------
# multi-indices and hand-written sets
# ---------------------------------------------------------------------------


def check_index(i: MultiIndex, params: ConstructionParams) -> None:
    if not i:
        raise InvalidIndexError("multi-index must be nonempty")
    for j, digit in enumerate(i, start=1):
        N_j = params.level_N(j)
        if not (1 <= digit <= N_j):
            raise InvalidIndexError(f"entry i_{j}={digit} out of range 1..{N_j}")


def offset_of(i: MultiIndex, params: ConstructionParams) -> int:
    check_index(i, params)
    o = 0
    for j, digit in enumerate(i, start=1):
        o = o * params.level_N(j) + (digit - 1)
    return o


def alpha(i: MultiIndex, params: ConstructionParams) -> Fraction:
    """Left endpoint of the basic interval of i: 1 + sum (i_j - 1)/M_j."""
    o = offset_of(i, params)
    return 1 + Fraction(o, params.M(len(i)))


def interval_of(i: MultiIndex, params: ConstructionParams) -> tuple[Fraction, Fraction]:
    a = alpha(i, params)
    return a, a + params.delta(len(i))


def build_deterministic(selections, params: ConstructionParams) -> CantorSet:
    """Assemble a CantorSet from explicit per-level multi-index collections.

    ``selections`` is one collection of multi-indices (or raw offsets) per
    level, outermost level first.  Nesting is validated and P_k recomputed.
    """
    levels = []
    for k, sel in enumerate(selections, start=1):
        offsets = set()
        for item in sel:
            if isinstance(item, tuple):
                if len(item) != k:
                    raise InvalidIndexError(f"index {item} has length {len(item)}, expected {k}")
                offsets.add(offset_of(item, params))
            else:
                o = int(item)
                if not (0 <= o < params.M(k)):
                    raise InvalidIndexError(f"offset {o} out of range at level {k}")
                offsets.add(o)
        levels.append(
            CantorLevel(k=k, N_k=params.level_N(k), M_k=params.M(k), offsets=sorted(offsets))
        )
    return CantorSet(params, levels)


def weak_star_defect(cset: CantorSet, k: int, k2: int) -> Fraction:
    """Sum over selected level-k intervals of |∫ (phi_k2 - phi_k)|, exact."""
    if not (1 <= k <= k2 <= cset.depth):
        raise InsufficientDepthError(f"need 1 <= k <= k' <= {cset.depth}")
    P, P2 = cset.P(k), cset.P(k2)
    if P == 0 or P2 == 0:
        raise DegenerateMeasureError("defect needs nonempty levels")
    # summed in Python ints, so the total is exact at any level size
    total = np.abs(cset.descendant_counts(k, k2).astype(object) * P - P2).sum()
    return Fraction(int(total), P * P2)


# ---------------------------------------------------------------------------
# intersection tuples
# ---------------------------------------------------------------------------

DEFAULT_TUPLE_CAP = 10**7


def _classify_offsets(offsets: Sequence[int], N_k: int):
    """Internal iff two slots share a parent and differ by <= 4 in the last digit."""
    n = len(offsets)
    for a in range(n):
        pa, da = divmod(offsets[a], N_k)
        for b in range(a + 1, n):
            pb, db = divmod(offsets[b], N_k)
            if pa == pb and abs(da - db) <= 4:
                return INTERNAL, (a + 1, b + 1)
    return TRANSVERSE, None


def _walk(
    k: int, A: AffineTuple, params: ConstructionParams, restrict_to: CantorSet | None
) -> Iterator[tuple[int, ...]]:
    """The offset tuples of F[n, k; A], n = A.n, in lexicographic order, by one
    output-sensitive sweep: slots are scanned in order, and each partial
    tuple narrows the admissible window analytically, so only the indices
    whose intervals meet it are touched.  It lists every tuple, so it is
    the ``==`` oracle of ``intersect.count_internal``.

    The slots range over ``restrict_to``'s selected level-k offsets, or over
    the full index grid when it is None.  Arguments are checked on the call,
    before the first tuple is asked for.
    """
    M_k, Cs, Gs = _slot_geometry(k, A, params)
    if restrict_to is None:
        _check_grid(k, M_k)
        slot_offsets: Sequence[int] | None = None
    else:
        slot_offsets = restrict_to.level(k).offsets.tolist()

    def candidates(slot: int, lo: int, hi: int) -> Iterable[int]:
        # offsets o with interval [start, start + G] meeting [lo, hi]
        C, G = Cs[slot], Gs[slot]
        o_min = -(-(lo - C - G) // G) - M_k  # ceil((lo - C)/G) - 1 - M
        o_max = (hi - C) // G - M_k
        if slot_offsets is None:
            return range(max(o_min, 0), min(o_max, M_k - 1) + 1)
        return slot_offsets[bisect_left(slot_offsets, o_min) : bisect_right(slot_offsets, o_max)]

    def extend(slot: int, lo: int, hi: int, prefix: tuple[int, ...]):
        last = slot == A.n - 1
        for o in candidates(slot, lo, hi):
            s = Cs[slot] + Gs[slot] * (M_k + o)
            if last:
                yield prefix + (o,)
            else:
                yield from extend(slot + 1, max(lo, s), min(hi, s + Gs[slot]), prefix + (o,))

    def walk():
        for o in range(M_k) if slot_offsets is None else slot_offsets:
            s = Cs[0] + Gs[0] * (M_k + o)
            yield from extend(1, s, s + Gs[0], (o,))

    return walk()


@dataclass(frozen=True)
class IntersectionTuple:
    """A member of F with its tangency class.

    ``offsets`` encode the level-k multi-indices; ``witness`` names the
    slot pair that certifies an internal tangency.
    """

    offsets: tuple[int, ...]
    cls: str
    witness: tuple[int, int] | None


def enumerate_F(
    k: int,
    A: AffineTuple,
    params: ConstructionParams,
    restrict_to: CantorSet | None = None,
    cap: int = DEFAULT_TUPLE_CAP,
) -> list[IntersectionTuple]:
    """All n-tuples of level-k indices whose affine images share a point.

    Closed intervals: single-point contacts count as members.  With
    ``restrict_to`` the slots range over that set's selected indices only,
    otherwise over the full index grid (which must stay under
    ``intersect.DEFAULT_GRID_CAP``).
    """
    walk = _walk(k, A, params, restrict_to)
    N_k = params.level_N(k)
    out: list[IntersectionTuple] = []
    for offsets in walk:
        if len(out) == cap:
            raise CapacityError(f"enumeration exceeded cap of {cap} tuples")
        out.append(IntersectionTuple(offsets, *_classify_offsets(offsets, N_k)))
    return out


def classify(
    tuples: Sequence[IntersectionTuple],
) -> tuple[list[IntersectionTuple], list[IntersectionTuple]]:
    """Partition an enumerated family into (F_int, F_tr)."""
    f_int = [t for t in tuples if t.cls == INTERNAL]
    f_tr = [t for t in tuples if t.cls == TRANSVERSE]
    return f_int, f_tr


@dataclass(frozen=True)
class ProjectionReport:
    multiplicity: int
    max_alpha_spread: Fraction  # spread audit over fixed complements, absolute units


def projection_multiplicity(
    tuples: Sequence[IntersectionTuple], ell: int, k: int, params: ConstructionParams
) -> ProjectionReport:
    """Max number of distinct slot-ell completions over fixed complements.

    Also audits the alpha spread of those completions (never above 4*delta_k).
    """
    if not tuples:
        return ProjectionReport(0, Fraction(0))
    n = len(tuples[0].offsets)
    if not (1 <= ell <= n):
        raise DomainError(f"slot {ell} outside 1..{n}")
    groups: dict[tuple[int, ...], set[int]] = {}
    for t in tuples:
        key = t.offsets[: ell - 1] + t.offsets[ell:]
        groups.setdefault(key, set()).add(t.offsets[ell - 1])
    best = max(len(v) for v in groups.values())
    spread = max(max(v) - min(v) for v in groups.values())
    return ProjectionReport(best, Fraction(spread, params.M(k)))


@dataclass(frozen=True)
class ProximityResult:
    bound: Fraction
    min_gap: Fraction
    satisfied: bool


def min_translation_gap(A: AffineTuple) -> Fraction:
    return min(
        abs(A.pairs[i][0] - A.pairs[j][0]) for i in range(A.n) for j in range(i + 1, A.n)
    )


def proximity_check(A: AffineTuple, n: int, L_int: int) -> ProximityResult:
    """Internal tangencies force nearby translations: min gap <= min(4, 80n(n-1)/L)."""
    if n != A.n:
        raise DomainError(f"A has {A.n} pairs but n={n}")
    if L_int > 0:
        bound = min(Fraction(4), Fraction(80 * n * (n - 1), L_int))
    else:
        bound = Fraction(4)  # vacuous: translations live in a width-4 range
    gap = min_translation_gap(A)
    return ProximityResult(bound, gap, gap <= bound)


@dataclass(frozen=True)
class SymdiffResult:
    measure: Fraction
    bound: Fraction
    satisfied: bool


def symdiff_bound_check(x, y, r, s, t, eta) -> SymdiffResult:
    """Exact |[x, x+rt] symdiff [y, y+st]| against the 3*eta bound.

    Preconditions: 0 < t < 1, 1/2 < r, s < 2, eta < t/2, |x-y| < eta,
    |r-s| < eta.
    """
    x, y, r, s, t, eta = (Fraction(v) for v in (x, y, r, s, t, eta))
    if not (0 < t < 1):
        raise DomainError("need 0 < t < 1")
    if not (Fraction(1, 2) < r < 2 and Fraction(1, 2) < s < 2):
        raise DomainError("need 1/2 < r, s < 2")
    if not (eta < t / 2):
        raise DomainError("need eta < t/2")
    if not (abs(x - y) < eta and abs(r - s) < eta):
        raise DomainError("need |x-y| < eta and |r-s| < eta")
    a1, b1 = x, x + r * t
    a2, b2 = y, y + s * t
    overlap = max(Fraction(0), min(b1, b2) - max(a1, a2))
    measure = (b1 - a1) + (b2 - a2) - 2 * overlap
    bound = 3 * eta
    return SymdiffResult(measure, bound, measure <= bound)


# ---------------------------------------------------------------------------
# large-deviation bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BernsteinBound:
    value: float
    applicable: bool  # sigma^2 >= 6 m lambda hypothesis


def bernstein_bound(m: int, sigma2, lam) -> BernsteinBound:
    """P(|Z_1 + ... + Z_m| >= m*lambda) <= 4 exp(-m^2 lambda^2 / (8 sigma^2)),
    valid for |Z_j| <= 1 centered with total variance <= sigma^2 >= 6 m lambda."""
    if m <= 0:
        raise DomainError("need m >= 1")
    sigma2 = float(sigma2)
    lam = float(lam)
    if sigma2 <= 0:
        raise DomainError("need sigma^2 > 0")
    if lam < 0:
        raise DomainError("need lambda >= 0")
    applicable = sigma2 >= 6.0 * m * lam
    value = 4.0 * math.exp(-(m * m * lam * lam) / (8.0 * sigma2))
    return BernsteinBound(min(1.0, value), applicable)


def azuma_bound(cs, lam) -> float:
    """P(|U_m - U_0| >= lambda) <= 2 exp(-lambda^2 / (2 sum c_k^2))."""
    cs = [float(c) for c in cs]
    if not cs:
        raise DomainError("need at least one increment bound")
    if any(c <= 0 for c in cs):
        raise DomainError("increment bounds must be positive")
    lam = float(lam)
    total = sum(c * c for c in cs)
    return min(1.0, 2.0 * math.exp(-(lam * lam) / (2.0 * total)))


# ---------------------------------------------------------------------------
# the single-scale operator and the free-translation pair
# ---------------------------------------------------------------------------


def sigma_average(f, cset: CantorSet, k: int, r, x) -> Fraction:
    """integral of f(x + r y) sigma_k(y) dy = A_r[k+1] f(x) - A_r[k] f(x), exact."""
    if Fraction(r) <= 0:
        raise DomainError("dilation r must be positive")
    if k + 1 > cset.depth:
        raise InsufficientDepthError(f"sigma_{k} needs level {k + 1}")
    lower = average(f, cset, k, r, x)
    return average(f, cset, k + 1, r, x) - lower


def mk_operator(f: StepFunction, cset: CantorSet, k: int, x, r_grid) -> Fraction:
    """Discretized single-scale operator: max over the r grid of
    |integral f(x + r y) sigma_k(y) dy|."""
    if not r_grid:
        raise DomainError("r_grid must be nonempty")
    return max(abs(sigma_average(f, cset, k, r, x)) for r in r_grid)


def phi_star_apply(
    g: StepFunction, cset: CantorSet, k: int, assign: AdjointAssignment
) -> StepFunction:
    """Adjoint applied to any step function g supported in [0, 1]."""
    sig = cset.sigma(k)
    terms = []
    for lo, hi, c, r in assign.cells:
        w = mass_between(g, lo, hi)
        if w:
            terms.append((w, sig, c, r))
    return linear_combination(terms)


def phi_forward(
    f: StepFunction, cset: CantorSet, k: int, assign: AdjointAssignment
) -> StepFunction:
    """Free-translation operator: x -> integral f(z) sigma_k((z - c(x))/r(x)) dz,
    constant on assignment cells.

    Translation c(x) and dilation r(x) are both free, so this is not the
    linearization of ``mk_operator`` (there the translation is x itself and
    the kernel carries a 1/r factor); ``phi_star_apply`` is its adjoint.
    """
    sig = cset.sigma(k)
    cells = []
    for lo, hi, c, r in assign.cells:
        v = product_integral([(f, 0, 1), (sig, c, r)])
        if v:
            cells.append((lo, hi, v))
    return from_cells(cells) if cells else StepFunction.zero()
