"""Enumeration and classification of n-fold affine interval intersections.

The family F[n, k; A] of index tuples whose transformed closed intervals
share a point is enumerated by an output-sensitive sweep: slots are scanned
in order, and each partial tuple narrows the admissible window analytically,
so only the (at most a handful of) indices whose intervals meet the current
window are ever touched.  Brute force over the full index power set is
available in the test suite as the oracle.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import CantorSet, MultiIndex, index_of
from .errors import CapacityError, DomainError, InvalidIndexError
from .params import ConstructionParams

INTERNAL = "internal"
TRANSVERSE = "transverse"

DEFAULT_TUPLE_CAP = 10**7
DEFAULT_GRID_CAP = 1 << 21


@dataclass(frozen=True)
class AffineTuple:
    """n translation-dilation pairs (c, r) with c in [-4, 0], r in [1, 2]."""

    pairs: tuple[tuple[Fraction, Fraction], ...]
    level: int
    grid_indices: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if len(self.pairs) < 2 or len(self.pairs) % 2:
            raise DomainError("affine tuples need an even number n >= 2 of pairs")
        pairs = tuple((Fraction(c), Fraction(r)) for c, r in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for c, r in pairs:
            if not (-4 <= c <= 0):
                raise DomainError(f"translation {c} outside [-4, 0]")
            if not (1 <= r <= 2):
                raise DomainError(f"dilation {r} outside [1, 2]")
        if self.level < 1:
            raise DomainError("level must be >= 1")

    @property
    def n(self) -> int:
        return len(self.pairs)

    def min_translation_gap(self) -> Fraction:
        gaps = [
            abs(self.pairs[i][0] - self.pairs[j][0])
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]
        return min(gaps)

    def permuted(self, perm: Sequence[int]) -> "AffineTuple":
        return AffineTuple(tuple(self.pairs[p] for p in perm), self.level)


@dataclass(frozen=True)
class IntersectionTuple:
    """A member of F with its tangency class.

    ``offsets`` encode the level-k multi-indices; ``witness`` names the
    slot pair that certifies an internal tangency.
    """

    offsets: tuple[int, ...]
    cls: str
    witness: tuple[int, int] | None

    def indices(self, k: int, params: ConstructionParams) -> tuple[MultiIndex, ...]:
        return tuple(index_of(o, k, params) for o in self.offsets)


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


def enumerate_F(
    n: int,
    k: int,
    A: AffineTuple,
    params: ConstructionParams,
    restrict_to: CantorSet | None = None,
    cap: int = DEFAULT_TUPLE_CAP,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> list[IntersectionTuple]:
    """All n-tuples of level-k indices whose affine images share a point.

    Closed intervals: single-point contacts count as members.  With
    ``restrict_to`` the slots range over that set's selected indices only,
    otherwise over the full index grid (which must stay under ``grid_cap``).
    """
    if n < 2 or n % 2:
        raise DomainError("n must be an even integer >= 2")
    if n != A.n:
        raise DomainError(f"A has {A.n} pairs but n={n}")
    if k < 1:
        raise InvalidIndexError("k must be >= 1")
    M_k = params.M(k)
    if restrict_to is None:
        if M_k > grid_cap:
            raise CapacityError(
                f"full index grid M_{k}={M_k} exceeds cap {grid_cap}; pass restrict_to"
            )
        slot_offsets: Sequence[int] | None = None
        n_slots = M_k
    else:
        slot_offsets = restrict_to.level(k).offsets
        n_slots = len(slot_offsets)

    # Clear denominators: slot l covers [C_l + G_l*(M+o), C_l + G_l*(M+o+1)].
    D = 1
    for c, r in A.pairs:
        D = math.lcm(D, c.denominator, r.denominator * M_k)
    Cs, Gs = [], []
    for c, r in A.pairs:
        Cs.append(c.numerator * (D // c.denominator))
        Gs.append(r.numerator * (D // (r.denominator * M_k)))

    out: list[IntersectionTuple] = []
    N_k = params.level_N(k)

    def start_of(slot: int, o: int) -> int:
        return Cs[slot] + Gs[slot] * (M_k + o)

    def candidates(slot: int, lo: int, hi: int) -> Iterable[int]:
        # offsets o with interval [start, start + G] meeting [lo, hi]
        G = Gs[slot]
        o_min = -(-(lo - Cs[slot] - G) // G) - M_k  # ceil((lo - C)/G) - 1 - M
        o_max = (hi - Cs[slot]) // G - M_k
        if slot_offsets is None:
            o_min = max(o_min, 0)
            o_max = min(o_max, M_k - 1)
            return range(o_min, o_max + 1)
        i0 = bisect_left(slot_offsets, o_min)
        i1 = bisect_right(slot_offsets, o_max)
        return slot_offsets[i0:i1]

    def recurse(slot: int, lo: int, hi: int, prefix: tuple[int, ...]):
        if slot == n:
            offsets = prefix
            cls, witness = _classify_offsets(offsets, N_k)
            out.append(IntersectionTuple(offsets, cls, witness))
            if len(out) > cap:
                raise CapacityError(f"enumeration exceeded cap of {cap} tuples")
            return
        for o in candidates(slot, lo, hi):
            s = start_of(slot, o)
            recurse(slot + 1, max(lo, s), min(hi, s + Gs[slot]), prefix + (o,))

    first = slot_offsets if slot_offsets is not None else range(M_k)
    for o in first:
        s = start_of(0, o)
        recurse(1, s, s + Gs[0], (o,))
    return out


def classify(
    tuples: Sequence[IntersectionTuple],
) -> tuple[list[IntersectionTuple], list[IntersectionTuple]]:
    """Partition an enumerated family into (F_int, F_tr)."""
    f_int = [t for t in tuples if t.cls == INTERNAL]
    f_tr = [t for t in tuples if t.cls == TRANSVERSE]
    return f_int, f_tr


def tangency_counts(
    cset: CantorSet, A: AffineTuple, n: int, k: int, cap: int = DEFAULT_TUPLE_CAP
) -> tuple[int, int]:
    """(L_int, L_tr): members of F_int / F_tr with every coordinate selected."""
    tuples = enumerate_F(n, k, A, cset.params, restrict_to=cset, cap=cap)
    f_int, f_tr = classify(tuples)
    return len(f_int), len(f_tr)


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


def proximity_check(A: AffineTuple, n: int, L_int: int) -> ProximityResult:
    """Internal tangencies force nearby translations: min gap <= min(4, 80n(n-1)/L)."""
    if n != A.n:
        raise DomainError(f"A has {A.n} pairs but n={n}")
    if L_int > 0:
        bound = min(Fraction(4), Fraction(80 * n * (n - 1), L_int))
    else:
        bound = Fraction(4)  # vacuous: translations live in a width-4 range
    gap = A.min_translation_gap()
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


def write_tuples_csv(
    path, tuples: Sequence[IntersectionTuple], k: int, params: ConstructionParams
) -> None:
    """One row per tuple: slot indices, class, witness pair."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        n = len(tuples[0].offsets) if tuples else 0
        w.writerow([f"i{j + 1}" for j in range(n)] + ["class", "witness"])
        for t in tuples:
            idx = t.indices(k, params)
            w.writerow(
                ["|".join(map(str, i)) for i in idx]
                + [t.cls, f"{t.witness[0]}-{t.witness[1]}" if t.witness else ""]
            )
