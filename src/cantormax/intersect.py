"""Counting and classification of n-fold affine interval intersections.

The family F[n, k; A] of index tuples whose transformed closed intervals
share a point is walked by one output-sensitive sweep (``_walk``): slots are
scanned in order, and each partial tuple narrows the admissible window
analytically, so only the (at most a handful of) indices whose intervals
meet the current window are ever touched.

Classifying A compares the number of internal tuples with a threshold, so
``count_internal`` counts them without listing any.  For n = 2 an internal
pair is (o1, o1 + delta) with |delta| <= 4 in one parent, and it is counted
in closed form: for each delta, meeting is two linear inequalities in o1,
so the meeting o1 form one interval, and the same-parent o1 are a window
of last digits; the count is a difference of two prefix counts.  Its cost
does not depend on the grid size M_k.  For larger n it counts the walk's
internal tuples.  Brute force over the full index power set, and a pass
over every first-slot offset for n = 2, are in the test suite as oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import CantorSet
from .errors import CapacityError, DomainError, InvalidIndexError
from .params import ConstructionParams

INTERNAL = "internal"
TRANSVERSE = "transverse"

DEFAULT_GRID_CAP = 1 << 21


@dataclass(frozen=True)
class AffineTuple:
    """n translation-dilation pairs (c, r) with c in [-4, 0], r in [1, 2]."""

    pairs: tuple[tuple[Fraction, Fraction], ...]
    level: int

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


def _slot_geometry(n: int, k: int, A: AffineTuple, params: ConstructionParams):
    """(M_k, Cs, Gs): slot l covers [C_l + G_l*(M_k+o), C_l + G_l*(M_k+o+1)] in units of 1/D."""
    if n < 2 or n % 2:
        raise DomainError("n must be an even integer >= 2")
    if n != A.n:
        raise DomainError(f"A has {A.n} pairs but n={n}")
    if k < 1:
        raise InvalidIndexError("k must be >= 1")
    M_k = params.M(k)
    D = 1
    for c, r in A.pairs:
        D = math.lcm(D, c.denominator, r.denominator * M_k)
    Cs = [c.numerator * (D // c.denominator) for c, _ in A.pairs]
    Gs = [r.numerator * (D // (r.denominator * M_k)) for _, r in A.pairs]
    return M_k, Cs, Gs


def _check_grid(k: int, M_k: int) -> None:
    if M_k > DEFAULT_GRID_CAP:
        raise CapacityError(
            f"level {k} index grid M_{k} = {M_k} exceeds cap {DEFAULT_GRID_CAP}"
        )


def _walk(
    n: int, k: int, A: AffineTuple, params: ConstructionParams, restrict_to: CantorSet | None
) -> Iterator[tuple[int, ...]]:
    """The offset tuples of F[n, k; A] in lexicographic order.

    The slots range over ``restrict_to``'s selected level-k offsets, or over
    the full index grid when it is None.  Arguments are checked on the call,
    before the first tuple is asked for.
    """
    M_k, Cs, Gs = _slot_geometry(n, k, A, params)
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
        last = slot == n - 1
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


def _digit_prefix(x: int, N_k: int, d_lo: int, d_hi: int) -> int:
    """#{0 <= o < x : d_lo <= o mod N_k <= d_hi}."""
    q, d = divmod(x, N_k)
    return q * (d_hi - d_lo + 1) + min(max(d - d_lo, 0), d_hi - d_lo + 1)


def count_internal(n: int, k: int, A: AffineTuple, params: ConstructionParams) -> int:
    """The number of internal tuples of F[n, k; A] over the full index grid.

    No tuple is listed.  For n = 2 the pair (o1, o1 + delta), delta in
    [-4, 4], meets iff (slot l's interval in units of 1/D as in
    ``_slot_geometry``)

        (G2 - G1)*o1 <= C1 - C2 + G1*(M_k + 1) - G2*(M_k + delta)
        (G1 - G2)*o1 <= C2 - C1 + G2*(M_k + delta + 1) - G1*M_k,

    an interval [lo, hi] of o1 found with one floor division per bound
    (for G1 = G2 each holds for every o1 or none).  Both offsets share a
    parent iff o1 mod N_k lies in [max(0, -delta), min(N_k - 1, N_k - 1 - delta)],
    so the pair count is a difference of two prefix counts of that digit
    window.  The work does not grow with M_k, but ``_check_grid`` still
    applies the grid cap, so n = 2 and n >= 4 reject the same levels with
    the same ``CapacityError`` (message and exit code).
    """
    if n != 2:
        walk = _walk(n, k, A, params, None)
        N_k = params.level_N(k)
        return sum(_classify_offsets(o, N_k)[0] == INTERNAL for o in walk)
    M_k, (C1, C2), (G1, G2) = _slot_geometry(n, k, A, params)
    _check_grid(k, M_k)
    N_k = params.level_N(k)
    total = 0
    for delta in range(-4, 5):
        d_lo, d_hi = max(0, -delta), min(N_k - 1, N_k - 1 - delta)
        if d_lo > d_hi:
            continue
        R1 = C1 - C2 + G1 * (M_k + 1) - G2 * (M_k + delta)
        R2 = C2 - C1 + G2 * (M_k + delta + 1) - G1 * M_k
        # a*o1 <= R_hi bounds o1 above, -a*o1 <= R_lo below, with a > 0
        a, R_hi, R_lo = G2 - G1, R1, R2
        if a < 0:
            a, R_hi, R_lo = -a, R2, R1
        lo, hi = 0, M_k - 1
        if a:
            lo, hi = max(lo, -(R_lo // a)), min(hi, R_hi // a)
        elif R1 < 0 or R2 < 0:
            continue
        if lo <= hi:
            total += _digit_prefix(hi + 1, N_k, d_lo, d_hi) - _digit_prefix(lo, N_k, d_lo, d_hi)
    return total
