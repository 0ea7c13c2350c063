"""Counting and classification of n-fold affine interval intersections.

The family F[n, k; A] holds the index tuples whose transformed closed
intervals share a point.  Classifying A compares the number of its internal
tuples (two slots in one parent, last digits within 4) with a threshold, so
``count_internal`` counts them without listing any.  For n = 2 the count is
a closed form whose cost does not depend on the grid size M_k.  For n >= 4
it is one array pass over the slots' breakpoints in the common range of
their segments, merged by the step-function kernels' seam
(``stepfn._merged_positions``): every tuple is the tuple of one cell of
their common refinement or a contact at one breakpoint, and no Python runs
per tuple.  A walk that lists F tuple by tuple, brute force over the index
power set, and a pass over every first-slot offset for n = 2 are in the
test suite as ``==`` oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import CapacityError, DomainError, InvalidIndexError
from .params import ConstructionParams
from .stepfn import _merged_positions, _scale

INTERNAL = "internal"
TRANSVERSE = "transverse"

DEFAULT_GRID_CAP = 1 << 21


@dataclass(frozen=True)
class AffineTuple:
    """n = len(pairs) translation-dilation pairs (c, r), n even and >= 2, with
    c in [-4, 0], r in [1, 2]; a level k is an argument of whatever reads it."""

    pairs: tuple[tuple[Fraction, Fraction], ...]

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

    @property
    def n(self) -> int:
        return len(self.pairs)

    def to_json_list(self) -> list[list[str]]:
        """The pairs as reports write them: [[str(c), str(r)], ...]."""
        return [[str(c), str(r)] for c, r in self.pairs]


def _slot_geometry(k: int, A: AffineTuple, params: ConstructionParams):
    """(M_k, Cs, Gs): slot l covers [C_l + G_l*(M_k+o), C_l + G_l*(M_k+o+1)] in units of 1/D,
    with (D, C_l, G_l) scaled from (c_l, r_l) over the grid 1/M_k by ``stepfn._scale``."""
    if k < 1:
        raise InvalidIndexError("k must be >= 1")
    M_k = params.M(k)
    _, scaled = _scale([(c, r, M_k) for c, r in A.pairs])
    Cs, Gs = zip(*scaled)
    return M_k, Cs, Gs


def _check_grid(k: int, M_k: int) -> None:
    if M_k > DEFAULT_GRID_CAP:
        raise CapacityError(
            f"level {k} index grid M_{k} = {M_k} exceeds cap {DEFAULT_GRID_CAP}"
        )


def _digit_prefix(x: int, N_k: int, d_lo: int, d_hi: int) -> int:
    """#{0 <= o < x : d_lo <= o mod N_k <= d_hi}."""
    q, d = divmod(x, N_k)
    return q * (d_hi - d_lo + 1) + min(max(d - d_lo, 0), d_hi - d_lo + 1)


def _near_siblings(offsets: list[np.ndarray], N_k: int) -> int:
    """The internal rows: some two slots in one parent, at most 4 apart."""
    parents = [o // N_k for o in offsets]
    near = np.zeros(len(offsets[0]), dtype=bool)
    for a, b in combinations(range(len(offsets)), 2):
        near |= (parents[a] == parents[b]) & (np.abs(offsets[a] - offsets[b]) <= 4)
    return int(np.count_nonzero(near))


def _count_merged(M_k: int, Cs: list[int], Gs: list[int], N_k: int) -> int:
    """The internal tuples of F, read from the slots' merged breakpoints.

    Slot l breaks at C_l + G_l*(M_k + j), j = 0..M_k, and tuples lie in the
    common range [lo, hi] of the segments.  At each breakpoint x there, j_l
    is the index of slot l's last breakpoint at or before x (at most
    M_k - 1), and a slot that breaks at x with 0 < j_l < M_k is free to take
    interval j_l - 1.  Each subset c of the free slots taking it is one
    tuple, except c = all free slots at x > lo: the cell before x, counted
    with c empty at the position that opens it.
    """
    lo = max(C + G * M_k for C, G in zip(Cs, Gs))
    hi = min(C + G * 2 * M_k for C, G in zip(Cs, Gs))
    if lo > hi:
        return 0
    firsts = [-((C - lo) // G) - M_k for C, G in zip(Cs, Gs)]
    sizes = [max((hi - C) // G - M_k - j0 + 1, 0) for C, G, j0 in zip(Cs, Gs, firsts)]
    runs = zip(Cs, Gs, firsts, sizes)
    parts = [(C + G * (M_k + j0) - lo, G, np.arange(j0, j0 + size)) for C, G, j0, size in runs if size]
    limbs, order = _merged_positions(parts)
    last = np.append(np.zeros(len(order) - 1, dtype=bool), True)  # the last breakpoint at each x
    for limb in limbs:
        pos = limb[order]
        last[:-1] |= pos[1:] != pos[:-1]
    owner = np.repeat(np.arange(len(Cs), dtype=np.int32), sizes)[order]
    del limbs, pos, order
    idx, free = [], []
    for l, j0 in enumerate(firsts):
        j = np.cumsum(owner == l, dtype=np.int32)[last]
        breaks = np.diff(j, prepend=0) > 0
        j += j0 - 1
        free.append(breaks & (j > 0) & (j < M_k))
        idx.append(np.minimum(j, M_k - 1, out=j))
    del owner, last
    # group the positions by their free slots, as rows of bits (one byte up to n = 8)
    bits = np.packbits(np.stack(free, axis=1), axis=1)
    patterns, which = np.unique(bits.view(f"V{bits.shape[1]}") if len(Cs) > 8 else bits, return_inverse=True)
    total = 0
    for i, row in enumerate(np.unpackbits(patterns.view(np.uint8).reshape(len(patterns), -1), axis=1)):
        at = np.flatnonzero(which == i)
        slots = np.flatnonzero(row[: len(Cs)]).tolist()
        for size in range(len(slots) + 1):
            keep = at if size < len(slots) else at[at == 0]
            for c in combinations(slots, size):
                total += _near_siblings([j[keep] - (l in c) for l, j in enumerate(idx)], N_k)
    return total


def count_internal(k: int, A: AffineTuple, params: ConstructionParams) -> int:
    """The number of internal tuples of F[n, k; A] over the full index grid,
    n = A.n.

    No tuple is listed.  For n = 2 the pair (o1, o1 + delta), delta in
    [-4, 4], meets iff (slot l's interval in units of 1/D as in
    ``_slot_geometry``)

        (G2 - G1)*o1 <= C1 - C2 + G1*(M_k + 1) - G2*(M_k + delta)
        (G1 - G2)*o1 <= C2 - C1 + G2*(M_k + delta + 1) - G1*M_k,

    an interval [lo, hi] of o1 found with one floor division per bound
    (for G1 = G2 each holds for every o1 or none).  Both offsets share a
    parent iff o1 mod N_k lies in [max(0, -delta), min(N_k - 1, N_k - 1 - delta)],
    so the pair count is a difference of two prefix counts of that digit
    window.  For n >= 4 see ``_count_merged``.  Every n applies
    ``_check_grid``'s cap, so all reject the same levels with the same
    ``CapacityError`` (message and exit code).
    """
    M_k, Cs, Gs = _slot_geometry(k, A, params)
    _check_grid(k, M_k)
    N_k = params.level_N(k)
    if A.n != 2:
        return _count_merged(M_k, Cs, Gs, N_k)
    (C1, C2), (G1, G2) = Cs, Gs
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
