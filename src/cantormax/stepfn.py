"""Exact step and piecewise-linear functions and their integration kernels.

A ``StepFunction`` is stored in cleared-denominator form and
dictionary-encoded: integer breakpoint numerators over one common
denominator (an int64 array, Python ints past it), the distinct value
numerators over another (its ``levels``, class 0 being zero) and one int64
class index per cell.  A ``PiecewiseLinear`` holds its nodes and node values
as cleared-denominator integers, unnormalized.  Every integral here is
computed in integer arithmetic, so results are exact Fractions with no
quadrature tolerance anywhere.  One array routine normalizes every step
function on its classes (equal neighbours merged, zero end cells stripped,
gcds divided out, classes renumbered), skipping each pass that would change
nothing: normalizing sigma_k or phi_k allocates no int64 array of its length.

The kernels ``product_integral``, ``power_integral``, ``linear_combination``
and ``antiderivative`` (which builds ``maxops.mk_adjoint``) get their
factors' transformed breakpoints C + G*u from one seam, ``_merge``, which
returns the gaps grouped by their key digits: the stored value class of
each lone factor, and how many members of each group of identical terms
(one function object with one multiplier) sit in each class.  Each kernel
multiplies, or weights and sums, the levels once per class of a class
digit and once per distinct value of a count digit, in Python ints.  The sums first add up equal terms: terms with
one function object and equal c and r are one term of the summed weight,
and a term whose weight sums to 0 is dropped, so the merge does not grow
with the number of copies.  One factor needs no merge: its groups are its
own value classes and its cells its own, moved to C + G*u.  Every other
merge encodes each factor's positions as offsets from one origin (the
smallest first position) and orders them in ``_merged_positions``, which
``intersect.count_internal`` shares for n >= 4: while ``_fits_limbs``
holds, in two int64 limbs (hi, lo) merged by one stable argsort of the
float64 keys hi*2^39 + lo, whose rounding never reverses the exact order
(runs of equal keys are reordered from the limbs), and else in one limb of
Python ints.  The rest is one code path: each gap is keyed by the
running sum of its digits' mixed-radix steps (``_key_digits``: a count
digit of radix s(s+1)^(L-2) + 1 for s members over L classes while that is
below L^s, else a class digit of radix L per member), in one array of int64
keys while the product of the radices is at most 2^62 and of Python ints
past it, the digits are read back from the key, and widths are summed per
key, limb by limb in the limb's own dtype.  The 16 equal-weight copies of
sigma_2 in a cellwise ``restricted_type_ratio`` draw on the N=8 set key in
radix 273, not 3^16, so densely.  The two-limb merge's traced peak is five
int64 arrays of the merged length: 27 MB and 18 ms (2-core x86-64 host) for
a whole sigma_2 pair of the N=16 set, 677,524 breakpoints.

A product vanishes off the common support of its factors, so
``product_integral`` first intersects the factors' support runs (maximal
runs of nonzero cells, kept per function as Python-int unit bounds) in
exact integers, returns 0 without a merge when they meet in a null set,
and otherwise merges only the cells that meet the intersection, in
consecutive batches of windows that keep about 2^16 factor cells each and
span less than the limbs take.  Its cost is O(runs + cells in the common
support), and its memory beyond the factors O(runs) plus one batch's
merge, whatever the overlap: the largest near-diagonal sigma_2 product of
the N=16 set (640,497 clipped breakpoints in 10 batches) has a traced peak
of 5.6 MB, where one merge of its common support took 35.9 MB.

``lp_power`` sums per value class (|level|^p times the class's width), as
a one-factor merge does.  ``PiecewiseLinear.lp_power`` sums all
pieces at once in object-dtype integers, by Horner's rule.  The ``units``
and ``val_nums`` tuples are views in Python ints, built on first use for
pointwise reads (``value_at``, ``cells``); no kernel reads them.
``run_coverage`` counts the runs covering each stretch between run ends, in
its argsort's buffer, for the common support of a product; ``CantorSet.sigma``
makes the same count over two presorted lists of run bounds without a sort.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import DomainError

_LIMB = 39
_LIMB_BASE = 1 << _LIMB
_SPAN_MAX = 1 << 25  # breakpoint span u[-1] - u[0] of one factor
_G_MAX = 1 << 62  # (u - u0) < 2^25 times G >> 25 < 2^37 stays below 2^62
_GU_MAX = 1 << 87
_C_MAX = 1 << 91  # offset from the origin; keeps hi < 2^53, so each float key is one rounding
_POS_MAX = 1 << 24  # merged breakpoints; keeps the low-limb sums in int64
_KEY_MAX = 1 << 62
_BATCH_CELLS = 1 << 16  # about the factor cells that product_integral merges at once
_GCD_PREFIX = 16  # units whose gcd with den _normalize takes before a full pass


def _clear_denominators(fracs) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(f) for f in fracs]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _int_array(values) -> np.ndarray:
    """Integers as int64, or as Python ints (object dtype) when they do not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


class StepFunction:
    """Compactly supported step function, zero outside its breakpoint span.

    Held as ``_u`` over ``den``, ``levels`` (0, then the nonzero values
    ascending) over ``val_den`` and one class index per cell in ``_cls``;
    ``units`` and ``val_nums`` are tuple views built on first use.
    """

    def __init__(self, units, den, val_nums, val_den):
        levels, classes = np.unique(_int_array(val_nums), return_inverse=True)
        self._store(units, den, levels, classes, val_den)

    @classmethod
    def from_classes(cls, units, den, levels, classes, val_den) -> "StepFunction":
        """Build from one index per cell into ``levels``, value numerators in
        any order; repeats and zero are allowed.  An ndarray argument
        that it keeps is made read-only (``_held``)."""
        fn = cls.__new__(cls)
        fn._store(units, den, levels, classes, val_den)
        return fn

    def _store(self, units, den, levels, classes, val_den):
        if den <= 0 or val_den <= 0:
            raise DomainError("denominators must be positive")
        if len(units) != len(classes) + 1 and (len(units) or len(classes)):
            raise DomainError("need one more breakpoint than cell values")
        self._u, self.den, self.levels, self._cls, self.val_den = _normalize(
            units, den, levels, classes, val_den
        )

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls((), 1, (), 1)

    @classmethod
    def from_breakpoints(cls, breakpoints, values) -> "StepFunction":
        return cls(*_clear_denominators(breakpoints), *_clear_denominators(values))

    @classmethod
    def indicator(cls, a, b) -> "StepFunction":
        return cls.from_breakpoints([Fraction(a), Fraction(b)], [Fraction(1)])

    # -- canonical views -------------------------------------------------

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(self._u.tolist())

    @cached_property
    def val_nums(self) -> tuple[int, ...]:
        return tuple(map(self.levels.__getitem__, self._cls.tolist()))

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.val_den) for v in self.val_nums)

    def cells(self):
        for i, v in enumerate(self.val_nums):
            yield (
                Fraction(self.units[i], self.den),
                Fraction(self.units[i + 1], self.den),
                Fraction(v, self.val_den),
            )

    @property
    def n_cells(self) -> int:
        return len(self._cls)

    @property
    def is_zero(self) -> bool:
        return not len(self._cls)

    def support(self):
        if self.is_zero:
            return None
        return Fraction(int(self._u[0]), self.den), Fraction(int(self._u[-1]), self.den)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        # canonical forms: equal exactly when the tuple views are
        return (
            self.den == other.den
            and self.val_den == other.val_den
            and self.levels == other.levels
            and np.array_equal(self._cls, other._cls)
            and np.array_equal(self._u, other._u)
        )

    def __hash__(self):
        u = tuple(self._u.tolist()) if self._u.dtype == object else self._u.tobytes()
        return hash((u, self.den, self.levels, self._cls.tobytes(), self.val_den))

    def __repr__(self):
        if self.is_zero:
            return "StepFunction(0)"
        lo, hi = self.support()
        return f"StepFunction({self.n_cells} cells on [{lo}, {hi}])"

    # -- pointwise -------------------------------------------------------

    def value_at(self, x) -> Fraction:
        """Value at x, the right limit at a breakpoint."""
        if self.is_zero:
            return Fraction(0)
        idx = bisect_right(self.units, Fraction(x) * self.den) - 1
        if 0 <= idx < self.n_cells:
            return Fraction(self.val_nums[idx], self.val_den)
        return Fraction(0)

    # -- exact integrals ---------------------------------------------------

    def linear_pieces(self):
        """(left, right, alpha, beta) per cell, with f(z) = alpha + beta z on
        [left, right]; beta is 0."""
        for lo, hi, v in self.cells():
            yield lo, hi, v, 0

    def lp_power(self, p: int) -> Fraction:
        """Exact integral of |f|^p for integer p >= 1: per value class,
        |level|^p times the total width of the class's cells."""
        if p < 1 or int(p) != p:
            raise DomainError("lp_power needs an integer p >= 1")
        total = sum(abs(v) ** p * w for v, w in zip(self.levels, self._class_widths()))
        return Fraction(total, self.den * self.val_den**p)

    def abs(self) -> "StepFunction":
        levels = [abs(v) for v in self.levels]
        return StepFunction.from_classes(self._u, self.den, levels, self._cls, self.val_den)

    # -- internal ----------------------------------------------------------

    def _span(self) -> int:
        return int(self._u[-1]) - int(self._u[0])

    def _class_widths(self) -> list[int]:
        """The total width of each value class's cells, in units."""
        u = self._u
        if u.dtype == object or len(u) and self._span() >= 1 << 63:
            u = u.astype(object)  # widths summed in Python ints
        widths = np.zeros(len(self.levels), dtype=u.dtype)
        np.add.at(widths, self._cls, np.diff(u))
        return widths.tolist()

    @cached_property
    def _run_bounds(self) -> np.ndarray:
        """The units that bound the maximal runs of nonzero cells of a
        nonzero function, start and end alternating, as Python ints.  In
        canonical form the end cells are nonzero and each zero cell parts
        two runs."""
        zero = np.flatnonzero(self._cls == 0)
        ends = np.empty(2 * len(zero) + 2, dtype=np.int64)
        ends[0], ends[1:-1:2], ends[2::2], ends[-1] = 0, zero, zero + 1, len(self._cls)
        return self._u[ends].astype(object)


def _normalize(units, den, levels, classes, val_den):
    """Canonical form of a dictionary-encoded step function: equal
    neighbours merged, zero end cells stripped, unused classes dropped, the
    classes renumbered to 0 first and the nonzero levels ascending, both gcds
    divided out.  A pass that changes nothing is skipped: the trim unless an
    end cell is zero, the merge unless two neighbours are equal, the
    renumbering gather where it is the identity on the used classes, and the
    gcd pass over all units unless the first ``_GCD_PREFIX`` leave a gcd > 1.

    Returns (units, den, levels, classes, val_den): units int64 whenever
    they fit, levels a tuple of Python ints, classes int64; both arrays
    read-only and, through ``_held``, not writable by the caller.
    """
    u = _int_array(units)
    if len(u) > 1 and not (u[1:] > u[:-1]).all():
        raise DomainError("breakpoints must be strictly increasing")
    cls = np.asarray(classes, dtype=np.int64)
    uniq, inv = np.unique(_int_array(levels), return_inverse=True)
    seen = np.bincount(cls, minlength=len(inv)) > 0
    used = (np.bincount(inv[seen], minlength=len(uniq)) > 0) & (uniq != 0)
    nums = uniq[used].tolist()
    if not nums:
        return np.empty(0, dtype=np.int64), 1, (0,), np.empty(0, dtype=np.int64), 1
    new = (np.cumsum(used) * used)[inv]  # each given class's canonical class
    if not new[cls[0]] or not new[cls[-1]]:
        live = (new != 0)[cls]
        first, last = int(live.argmax()), len(live) - int(live[::-1].argmax())
        u, cls = u[first : last + 1], cls[first:last]
    c = cls if (new[seen] == np.flatnonzero(seen)).all() else new[cls]
    keep = np.concatenate(([True], c[1:] != c[:-1], [True]))
    if not keep.all():
        u, c = u[keep], c[keep[:-1]]
    g = math.gcd(den, *u[:_GCD_PREFIX].tolist())
    g = math.gcd(g, int(np.gcd.reduce(u))) if g > 1 else g
    h = math.gcd(val_den, *nums)
    u = _int_array(u // g if g > 1 else u)  # int64 again once it fits
    return _held(u, units), den // g, (0, *(v // h for v in nums)), _held(c, classes), val_den // h


def _held(a: np.ndarray, given) -> np.ndarray:
    """``a`` read-only; where it is the caller's writable ``given`` or a view
    of it, ``given`` is frozen if it owns its data, and ``a`` copied if not."""
    if isinstance(given, np.ndarray) and given.flags.writeable and np.may_share_memory(a, given):
        if given.flags.owndata:
            given.flags.writeable = False
        else:
            a = a.copy()
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# merge kernels
# ---------------------------------------------------------------------------


def _scale(terms) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(C, G), ...]) for terms (c, r, den) of Fractions c, r and an int
    den: c = C/D and r/den = G/D, with D the least common denominator of
    every c and r/den.  A factor f((z - c)/r) whose breakpoints are u/den
    then breaks at (C + G*u)/D."""
    D, steps = 1, []
    for c, r, den in terms:
        c_num, c_den, r_num = c.numerator, c.denominator, r.numerator
        g = math.gcd(r_num, den)  # r/den in lowest terms: (r_num/g) / (r.den*den/g)
        s_den = r.denominator * (den // g)
        D = math.lcm(D, c_den, s_den)
        steps.append((c_num, c_den, r_num // g, s_den))
    return D, [(c_num * (D // c_den), s_num * (D // s_den)) for c_num, c_den, s_num, s_den in steps]


def _prepare_factors(entries):
    """Clear denominators for entries (fn, c, r) with r > 0.

    Returns (D, prepared) where prepared holds per factor the integer offset
    C, the integer step G, and the original function, so that the transformed
    breakpoints are exactly (C + G*u)/D over the fn's own units u (``_scale``).
    """
    entries = [(fn, Fraction(c), Fraction(r)) for fn, c, r in entries]
    if any(r <= 0 for _, _, r in entries):
        raise DomainError("affine factors need r > 0")
    D, scaled = _scale([(c, r, fn.den) for fn, c, r in entries])
    return D, [(C, G, fn) for (C, G), (fn, _, _) in zip(scaled, entries)]


def _encode_positions(C: int, G: int, u: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Write the exact encoding hi*2^39 + lo of C + G*(u - u[0]), for a span
    u[-1] - u[0] below 2^25 and 0 < G < 2^62, into the int64 slices hi and
    lo, with 0 <= lo < 2^39; one temporary of u's length."""
    Gq, Gr = divmod(G, 1 << 25)
    Chi, Clo = divmod(C, _LIMB_BASE)
    np.subtract(u, u[0], out=lo, casting="unsafe")  # below 2^25, from int64 or Python ints
    np.multiply(lo, Gq, out=hi)  # below 2^25 * 2^37 = 2^62; G*u = hi*2^25 + Gr*u
    lo *= Gr
    lo += Clo
    carry = (hi & ((1 << 14) - 1)) << 25
    lo += carry
    hi >>= 14
    hi += Chi
    np.right_shift(lo, _LIMB, out=carry)
    hi += carry
    lo &= _LIMB_BASE - 1


def _merged_order(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Exact ascending order of the positions hi*2^39 + lo.

    The float64 key is one correctly rounded value of each position, so it
    never reverses the exact order, and a stable argsort merges presorted
    runs in near-linear time.  Only runs of equal keys are then reordered,
    from the limbs.
    """
    key = hi.astype(np.float64)
    key *= _LIMB_BASE
    key += lo
    order = np.argsort(key, kind="stable")
    key = key[order]
    tie = key[1:] == key[:-1]
    if tie.any():
        run = np.cumsum(np.concatenate(([True], ~tie)))
        slots = np.flatnonzero(np.concatenate(([False], tie)) | np.concatenate((tie, [False])))
        sub = order[slots]
        order[slots] = sub[np.lexsort((lo[sub], hi[sub], run[slots]))]
    return order


def _key_digits(prepared, mults) -> list[tuple]:
    """The digits of a merge's gap keys, as (fn, mult, members, base, radix).

    The factors that are one function object with one multiplier form a
    group.  A group of s members over L classes takes one count digit while
    s(s+1)^(L-2) + 1 < L^s: base s + 1 and the digit sum_c n_c (s+1)^(c-1),
    with n_c the members in class c >= 1, below its radix s(s+1)^(L-2) + 1.
    Otherwise each member takes a class digit of its own: base 0, the digit
    its class, radix L.  So no merge's radix passes the product of its
    factors' class counts, and a lone factor keys as its class.  Digits are
    ordered by their first member.
    """
    groups: dict[tuple, list[int]] = {}
    for i, ((_, _, fn), m) in enumerate(zip(prepared, mults)):
        groups.setdefault((id(fn), m), []).append(i)
    digits = []
    for members in groups.values():
        fn, m, s = prepared[members[0]][2], mults[members[0]], len(members)
        L = len(fn.levels)
        radix = s * (s + 1) ** (L - 2) + 1
        if radix < L**s:
            digits.append((fn, m, members, s + 1, radix))
        else:
            digits += [(fn, m, [i], 0, L) for i in members]
    return sorted(digits, key=lambda digit: digit[2][0])


def _gap_keys(digits, bounds, order: np.ndarray):
    """Per merged gap, a key injective on its digits (``_key_digits``), and
    a function that reads each digit back from keys.

    Crossing a breakpoint changes one member's class, so its digit by the
    difference of the class weights: class c weighs c in a class digit, and
    (s+1)^(c-1) for c >= 1 (0 for c = 0) in a count digit.  The mixed-radix key is
    the running sum of these per-breakpoint steps in merged order, built in
    one array, gathered once and summed in place; a group's weighted classes
    are gathered once for all its members.  The keys are int64 while the
    product of the digits' radices is at most 2^62, and Python ints (object
    dtype) past it; each weight is cast to the key dtype before it meets its
    radix, so no int64 step overflows.
    """
    radices = list(accumulate((radix for *_, radix in digits), operator.mul, initial=1))
    dtype = np.int64 if radices[-1] <= _KEY_MAX else object
    steps = np.zeros(len(order), dtype=dtype)
    for (fn, _, members, base, _), radix in zip(digits, radices):
        w = fn._cls.astype(dtype, copy=False)
        if base:
            w = np.array([0, *(base**c for c in range(len(fn.levels) - 1))], dtype=dtype)[fn._cls]
        for i in members:
            s = steps[bounds[i] : bounds[i + 1]]  # the member's weighted class steps at its breakpoints
            s[0], s[-1] = w[0], -w[-1]
            np.subtract(w[1:], w[:-1], out=s[1:-1])
            s *= radix
    steps = steps[order]
    keys = np.cumsum(steps, out=steps)[:-1]

    def read(values: np.ndarray) -> list[tuple]:
        return [
            (fn, m, base, values // radix % digit_radix)
            for (fn, m, _, base, digit_radix), radix in zip(digits, radices)
        ]

    return keys, read


def _fits_limbs(parts) -> bool:
    """True when the int64 limbs hold the positions offset + G*(u - u[0]) of
    the parts (offset, G, u): at most 2^24 breakpoints in all, and per part
    a span below 2^25, 0 < G < 2^62, G*span < 2^87 and an offset below 2^91."""
    if sum(len(u) for _, _, u in parts) > _POS_MAX:
        return False
    return all(
        span < _SPAN_MAX and 0 < G < _G_MAX and G * span < _GU_MAX and offset < _C_MAX
        for offset, G, span in ((offset, G, int(u[-1]) - int(u[0])) for offset, G, u in parts)
    )


def _merged_positions(parts):
    """(limbs, order): the positions offset + G*(u - u[0]) of the parts
    (offset >= 0, G, u ascending and nonempty) in two int64 limbs (hi, lo)
    while ``_fits_limbs`` holds, else in one of Python ints (int64 while
    they fit), and their exact ascending order, equal positions adjacent."""
    if _fits_limbs(parts):
        bounds = np.cumsum([0, *(len(u) for _, _, u in parts)]).tolist()
        limbs = [np.empty(bounds[-1], dtype=np.int64), np.empty(bounds[-1], dtype=np.int64)]
        for (offset, G, u), a, b in zip(parts, bounds, bounds[1:]):
            _encode_positions(offset, G, u, limbs[0][a:b], limbs[1][a:b])
        return limbs, _merged_order(*limbs)
    pos = _int_array(np.concatenate([offset + G * (u.astype(object) - int(u[0])) for offset, G, u in parts]))
    return [pos], np.argsort(pos, kind="stable")


def _one_factor(C: int, G: int, fn: StepFunction, m: int):
    """The grouped triple of one factor, with no merge: its groups are its
    own value classes, of widths G times the class widths, keyed by one class
    digit, and its cells are C + G*u with its own class indices."""

    def cells():
        first, last = C + G * int(fn._u[0]), C + G * int(fn._u[-1])
        if -(1 << 62) <= first and last < 1 << 62:  # G*(u - u0) <= last - first < 2^63
            return first + G * (fn._u - fn._u[0]).astype(np.int64, copy=False), fn._cls
        return C + G * fn._u.astype(object), fn._cls

    widths = [G * w for w in fn._class_widths()]
    return widths, [(fn, m, 0, np.arange(len(fn.levels)))], cells


def _merge(prepared, mults):
    """The exact merge of the factors' transformed breakpoints C + G*u,
    with its gaps grouped by their key digits (``_key_digits``): the class
    of each lone factor, and how many members of each group of identical
    terms (one function object, one multiplier ``mults[i]``) sit in each
    class.

    One factor needs no merge (``_one_factor``).  Otherwise each factor's
    positions are encoded as offsets from one origin, the smallest first
    position, so far but close factors stay small, and ordered by
    ``_merged_positions``.  The rest is shared: the gap keys (int64, or
    Python ints past a radix of 2^62), numbered densely when sparse, the
    width sums per key in each limb's dtype, combined as hi*2^39 + lo, and
    ``cells()``, which adds the origin back, in int64 while the positions
    fit and in Python ints past them.  The 16 equal-weight copies of sigma_2
    in a cellwise ``restricted_type_ratio`` draw on the N=8 set key below
    273, 15-21 distinct keys among 190,319 gaps, so densely; one class digit
    per copy took a radix of 3^16 and 344-606 distinct keys, numbered by a
    sort.

    Returns (widths, digits, cells): ``widths[g]`` is the exact total width
    of group g; ``digits`` holds per key digit (fn, mult, base, d), with
    ``d[g]`` the digit on group g, read by ``_digit_values``; ``cells()``
    gives the distinct merged positions (int64, or Python ints past it) and
    the group of each cell between neighbours.  Groups are numbered by
    ascending gap key; the merged order, the key steps and each gap
    difference are dropped as soon as they are used.
    """
    if len(prepared) == 1:
        return _one_factor(*prepared[0], mults[0])
    bounds = np.cumsum([0, *(len(fn._u) for _, _, fn in prepared)]).tolist()
    firsts = [C + G * int(fn._u[0]) for C, G, fn in prepared]
    origin = min(firsts)
    parts = [(first - origin, G, fn._u) for (_, G, fn), first in zip(prepared, firsts)]
    limbs, order = _merged_positions(parts)
    keys, read_digits = _gap_keys(_key_digits(prepared, mults), bounds, order)
    for i in range(len(limbs)):
        limbs[i] = limbs[i][order]
    del order

    values = None
    if int(keys.max()) >= len(keys):  # sparse keys: number the present ones
        values = np.unique(keys)
        keys = np.searchsorted(values, keys)
    n_keys = int(keys.max()) + 1
    seen = np.zeros(n_keys, dtype=bool)
    seen[keys] = True
    present = np.flatnonzero(seen)
    # a gap is dhi*2^39 + dlo with dhi >= 0 and |dlo| < 2^39, so it is 0
    # exactly when both are, and its int64 sums stay inside int64; one int64
    # limb sums to at most the largest offset
    widths = [0] * len(present)
    for limb in limbs:  # the high limb first
        total = np.zeros(n_keys, dtype=limb.dtype)
        np.add.at(total, keys, np.diff(limb))
        widths = [(w << _LIMB) + t for w, t in zip(widths, total[present].tolist())]
    digits = read_digits(present if values is None else values)

    def cells():
        change = limbs[0][1:] != limbs[0][:-1]
        for limb in limbs[1:]:
            change |= limb[1:] != limb[:-1]
        live = np.flatnonzero(change)
        ends = np.append(live, len(keys))
        group = (np.cumsum(seen) - 1)[keys[live]]
        last = max(C + G * int(fn._u[-1]) for C, G, fn in prepared)
        fits = -(1 << 62) <= origin and last < 1 << 62  # last - origin < 2^63
        pos = limbs[0][ends].astype(np.int64 if fits else object, copy=False)
        for limb in limbs[1:]:
            pos <<= _LIMB
            pos += limb[ends]
        pos += origin
        return pos, group

    return widths, digits, cells


def _class_counts(base: int, digit: int) -> list[tuple[int, int]]:
    """(class, members) pairs of one count digit's value, class 0 first."""
    counts = []
    while digit:
        digit, n = divmod(digit, base)
        counts.append(n)
    return [(0, base - 1 - sum(counts)), *enumerate(counts, 1)]


def _digit_values(digits, product: bool) -> list[np.ndarray]:
    """Per key digit (fn, mult, base, d) of ``_merge``, its members' product
    of levels, or else mult times their sum, on each group as Python ints.
    A class digit gathers its class's value; a count digit's is computed
    once per distinct digit from its class counts n_c, as
    prod_c level_c^n_c or sum_c n_c mult level_c."""
    out = []
    for fn, m, base, d in digits:
        levels = fn.levels if product else [m * v for v in fn.levels]
        if base:
            present, d = np.unique(d, return_inverse=True)
            counts = [_class_counts(base, x) for x in present.tolist()]
            if product:
                table = [math.prod(levels[c] ** n for c, n in cn) for cn in counts]
            else:
                table = [sum(n * levels[c] for c, n in cn) for cn in counts]
        else:
            table, d = levels, d.astype(np.int64, copy=False)
        out.append(np.array(table, dtype=object)[d])
    return out


def run_coverage(parts) -> tuple[np.ndarray, np.ndarray]:
    """(ends, counts) for runs given as arrays of run starts and ends
    alternating: the distinct run ends ascending, and on each stretch between
    neighbouring ends the number of runs that cover it.

    Each start adds +1 and each end -1, and a stretch's count is the running
    sum in sorted order at the last slot of its left end, made in place in
    the argsort's buffer.  Runs need not nest; object arrays are taken too.
    """
    pos = np.concatenate(parts)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    order &= 1  # starts sit at even slots, ends at odd ones
    order *= -2
    order += 1
    last = np.append(pos[1:] != pos[:-1], True)  # the last slot of each position
    ends = pos[last]
    del pos
    return ends, np.cumsum(order, out=order)[last][:-1]


def _common_support(prepared):
    """The windows [lo, hi) in which the factors' support runs all overlap,
    in the common units of ``prepared``: an object array of Python ints
    holding every lo, then every hi - 1.

    The windows are the stretches of ``run_coverage`` that every factor
    covers.  Only run endpoints are Python ints, so this costs O(runs).
    """
    ends, counts = run_coverage([C + G * fn._run_bounds for C, G, fn in prepared])
    full = np.flatnonzero(counts == len(prepared))
    return np.concatenate((ends[full], ends[full + 1] - 1))


def _window_cells(C: int, G: int, fn: StepFunction, windows: np.ndarray):
    """Per window of ``_common_support``, the first of fn's cells whose image
    C + G*[u_j, u_j+1] meets it in positive length, and one past the last.

    Cell j meets [lo, hi) exactly when u_j+1 > floor((lo - C)/G) and
    u_j <= floor((hi - 1 - C)/G), so one ``searchsorted`` of the floors
    finds each window's cells.  The windows lie inside fn's support, so the
    floors fit fn's unit dtype.
    """
    u = fn._u
    ranks = np.searchsorted(u, ((windows - C) // G).astype(u.dtype), side="right")
    return ranks[: len(ranks) // 2] - 1, ranks[len(ranks) // 2 :]


def _clip(fn: StepFunction, first: np.ndarray, stop: np.ndarray) -> StepFunction:
    """fn restricted to its cells first[w] .. stop[w] - 1 of each window w
    (a slice of ``_window_cells``), zero elsewhere.

    Windows that share or abut a cell join one cell range; one range is a
    view on fn's arrays, and one class-0 cell parts neighbouring ranges, so
    a copy holds only the kept cells.  The result keeps fn's ``levels``,
    ``den`` and ``val_den`` and is not normalized, which no kernel minds.
    """
    u, cls = fn._u, fn._cls
    split = np.flatnonzero(first[1:] > stop[:-1])
    first, stop = first[np.concatenate(([0], split + 1))], stop[np.concatenate((split, [-1]))]
    if len(first) == 1:
        a, b = int(first[0]), int(stop[0])
        if a == 0 and b == len(cls):
            return fn
        u, cls = u[a : b + 1], cls[a:b]
    else:
        lengths = stop - first + 1  # units per range
        ends = np.cumsum(lengths)
        idx = np.arange(ends[-1]) + np.repeat(first - (ends - lengths), lengths)
        u, cls = u[idx], cls[idx[:-1]]
        cls[ends[:-1] - 1] = 0
    clipped = StepFunction.__new__(StepFunction)
    clipped._u, clipped._cls = u, cls
    clipped.den, clipped.levels, clipped.val_den = fn.den, fn.levels, fn.val_den
    return clipped


def _batch_cuts(prepared, cells) -> list[int]:
    """The window indices where ``product_integral``'s batches start, then
    the number of windows, given the factors' ``_window_cells``.

    A batch starts where the kept factor cells before a window pass a
    multiple of ``_BATCH_CELLS``.  When every window's cells fit the limbs'
    span on their own, a batch also starts where a factor's first cell
    meeting a window starts a further ``_SPAN_MAX`` / 2 units from the first
    window's; otherwise some batch merges as Python ints whatever the cuts,
    and more cuts would only add merges.  One window, or windows of which no
    cut can happen before the last, make one batch, returned before any
    cut array is built: most products fit one batch.
    """
    if len(cells[0][0]) == 1:
        return [0, 1]
    half = _SPAN_MAX // 2
    kept = sum(stop - first for first, stop in cells)
    starts = [fn._u[first] for (_, _, fn), (first, _) in zip(prepared, cells)]
    if kept[:-1].sum() < _BATCH_CELLS and all(u[-1] - u[0] < half for u in starts):
        return [0, len(kept)]
    cut = np.diff((np.cumsum(kept) - kept) // _BATCH_CELLS) != 0
    if all((fn._u[stop] - u).max() < half for (_, _, fn), (_, stop), u in zip(prepared, cells, starts)):
        for u in starts:
            cut |= np.diff((u - u[0]) // half) != 0
    return [0, *(np.flatnonzero(cut) + 1).tolist(), len(kept)]


def product_integral(entries: Sequence[tuple]) -> Fraction:
    """Exact integral of the product of f_i((z - c_i)/r_i) over all z.

    ``entries`` holds (StepFunction, c, r) triples with r > 0.  The product
    vanishes off the common support of the factors, so only the cells that
    meet its windows are merged, in consecutive batches of windows
    (``_batch_cuts``).  Each batch has a window, keeps fewer than
    ``_BATCH_CELLS`` cells beyond those of its last window, and stays inside
    the limbs' span unless that window is long, whatever the overlap.
    Between windows some factor is zero, so the factors clipped to one
    batch's windows have a product that vanishes outside them, also where a
    cell straddles a batch cut: the integral is the sum of the batch
    integrals, in Python ints over one denominator.  One batch holds every
    window when they fit, and one factor takes ``_merge``'s no-merge path;
    a batch past the limbs merges its positions as Python ints, in the same
    pass.  Closed endpoint contacts have zero width and contribute nothing.
    """
    if not entries:
        raise DomainError("product_integral needs at least one factor")
    for fn, _, _ in entries:
        if fn.is_zero:
            return Fraction(0)
    D, prepared = _prepare_factors(entries)
    windows = _common_support(prepared)
    if not len(windows):
        return Fraction(0)
    cells = [_window_cells(C, G, fn, windows) for C, G, fn in prepared]
    cuts = _batch_cuts(prepared, cells)
    total = 0
    for a, b in zip(cuts, cuts[1:]):
        clipped = [
            (C, G, _clip(fn, first[a:b], stop[a:b]))
            for (C, G, fn), (first, stop) in zip(prepared, cells)
        ]
        widths, digits, _ = _merge(clipped, [1] * len(clipped))
        acc = np.array(widths, dtype=object)
        for vals in _digit_values(digits, product=True):
            acc = acc * vals
        total += int(acc.sum())
    return Fraction(total, D * math.prod(fn.val_den for _, _, fn in prepared))


def _prepare_weighted(terms):
    """Common scaling for (weight, fn, c, r) terms of a linear combination,
    or None when no term is left.

    Equal terms are summed first: terms with one function object (keyed by
    ``id``, not by the hash of every cell) and equal c and r become one term
    of the summed weight, and a term whose weight sums to 0 is dropped.  So
    m copies of one affine image merge as one factor, which needs no merge.
    """
    summed: dict[tuple, list] = {}
    for w, fn, c, r in terms:
        w, c, r = Fraction(w), Fraction(c), Fraction(r)
        if fn.is_zero or w == 0:
            continue
        if r <= 0:
            raise DomainError("affine factors need r > 0")
        term = summed.setdefault((id(fn), c, r), [0, fn, c, r])
        term[0] += w
    cleaned = [term for term in summed.values() if term[0]]
    if not cleaned:
        return None
    D, prepared = _prepare_factors([(fn, c, r) for _, fn, c, r in cleaned])
    VW = 1
    for w, fn, _, _ in cleaned:
        VW = math.lcm(VW, w.denominator * fn.val_den)
    mults = [
        w.numerator * (VW // (w.denominator * fn.val_den)) for w, fn, _, _ in cleaned
    ]
    return D, VW, prepared, mults


def power_integral(terms: Sequence[tuple], p: int) -> Fraction:
    """Exact integral of |sum_i w_i f_i((z - c_i)/r_i)|^p for integer p >= 1."""
    if p < 1 or int(p) != p:
        raise DomainError("power_integral needs an integer p >= 1")
    prep = _prepare_weighted(terms)
    if prep is None:
        return Fraction(0)
    D, VW, prepared, mults = prep
    widths, digits, _ = _merge(prepared, mults)
    value = sum(_digit_values(digits, product=False))
    acc = abs(value) ** p * np.array(widths, dtype=object)
    return Fraction(int(acc.sum()), D * VW**p)


def _combination_cells(terms: Sequence[tuple]):
    """The cells of sum_i w_i f_i((z - c_i)/r_i) before normalization, or
    None when no term is nonzero.

    Returns (positions, group, value, D, VW): the sum is value[group[j]]/VW
    between the distinct merged breakpoints positions[j]/D and
    positions[j+1]/D, so equal neighbours and zero cells stay; ``value``
    holds one Python int per merge group.
    """
    prep = _prepare_weighted(terms)
    if prep is None:
        return None
    D, VW, prepared, mults = prep
    _, digits, cells = _merge(prepared, mults)
    positions, group = cells()
    return positions, group, sum(_digit_values(digits, product=False)), D, VW


def linear_combination(terms: Sequence[tuple]) -> StepFunction:
    """sum_i w_i f_i((z - c_i)/r_i) as an exact StepFunction."""
    cells = _combination_cells(terms)
    if cells is None:
        return StepFunction.zero()
    positions, group, value, D, VW = cells
    return StepFunction.from_classes(positions, D, value, group, VW)


class PiecewiseLinear:
    """Continuous piecewise-linear function, constant beyond its end nodes.

    Held like a ``StepFunction`` but unnormalized: node numerators ``units``
    over ``den`` and value numerators ``val_nums`` over ``val_den``, tuples of
    Python ints built on first use.  ``maxops.average`` integrates its linear
    pieces exactly, so the differentiation experiment checks 2*Lip*r
    exactly.
    """

    def __init__(self, units, den, val_nums, val_den):
        if den <= 0 or val_den <= 0:
            raise DomainError("denominators must be positive")
        if len(units) != len(val_nums) or len(units) < 2:
            raise DomainError("need matching node/value lists of length >= 2")
        u = _int_array(units)
        if not (u[1:] > u[:-1]).all():
            raise DomainError("nodes must be strictly increasing")
        if u.dtype != object and (u[0] < -(1 << 62) or u[-1] >= 1 << 62):
            u = u.astype(object)  # keeps the int64 widths below 2^63
        self._u, self._h = u, np.asarray(val_nums, dtype=object)  # what lp_power reads
        self.den, self.val_den = den, val_den

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(self._u.tolist())

    @cached_property
    def val_nums(self) -> tuple[int, ...]:
        return tuple(self._h.tolist())

    @classmethod
    def from_nodes(cls, nodes, values) -> "PiecewiseLinear":
        return cls(*_clear_denominators(nodes), *_clear_denominators(values))

    @property
    def nodes(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.den) for u in self.units)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.val_den) for v in self.val_nums)

    def value_at(self, x) -> Fraction:
        # clamped to the end pieces' ends: beyond the end nodes f is constant
        xs, us, hs = Fraction(x) * self.den, self.units, self.val_nums
        i = min(max(bisect_right(us, xs), 1), len(us) - 1)
        t = min(max((xs - us[i - 1]) / (us[i] - us[i - 1]), 0), 1)
        return Fraction(hs[i - 1] + (hs[i] - hs[i - 1]) * t, self.val_den)

    def linear_pieces(self):
        """(left, right, alpha, beta) per piece, with f(z) = alpha + beta z on
        [left, right]; the constant tails have left or right None."""
        xs, ys = self.nodes, self.values
        yield None, xs[0], ys[0], 0
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            beta = (y1 - y0) / (x1 - x0)
            yield x0, x1, y0 - beta * x0, beta
        yield xs[-1], None, ys[-1], 0

    def lipschitz_constant(self) -> Fraction:
        xs, ys = self.nodes, self.values
        return max(abs(y1 - y0) / (x1 - x0) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]))

    def lp_power(self, p: int) -> Fraction:
        """Exact integral of |f|^p for integer p >= 1; both end values must be 0.

        On a piece of width w from h0 to h1 the integral of h^p is
        w * sum_j h0^j h1^(p-j) / (p+1), summed in integers by Horner's rule.
        For odd p a piece on which h changes sign is split at its zero, which
        gives w (|h0|^(p+1) + |h1|^(p+1)) / ((|h0| + |h1|)(p+1)).
        """
        if p < 1 or int(p) != p:
            raise DomainError("lp_power needs an integer p >= 1")
        if self._h[0] or self._h[-1]:
            raise DomainError("lp_power diverges: an end value is nonzero")
        w = np.diff(self._u).astype(object)
        h0, h1 = self._h[:-1], self._h[1:]
        cross = ()
        if p % 2:
            cross = np.flatnonzero(h0 * h1 < 0)
            h0, h1 = abs(h0), abs(h1)
        poly, q = h0 + h1, h0
        for _ in range(p - 1):
            q = q * h0
            poly = poly * h1 + q
        split = Fraction(0)
        for i in cross:
            a, b = h0[i], h1[i]
            split += Fraction(w[i] * (a ** (p + 1) + b ** (p + 1)), a + b)
            poly[i] = 0
        return (int((w * poly).sum()) + split) / ((p + 1) * self.den * self.val_den**p)


def antiderivative(terms: Sequence[tuple]) -> PiecewiseLinear:
    """The antiderivative from -infinity of sum_i w_i f_i((z - c_i)/r_i).

    Its nodes are the distinct merged breakpoints and its values the running
    sum of width times slope, both unnormalized; zero gets the nodes 0, 1.
    """
    cells = _combination_cells(terms)
    if cells is None:
        return PiecewiseLinear((0, 1), 1, (0, 0), 1)
    Z, group, slope, D, VW = cells
    H = np.concatenate(([0], np.cumsum(np.diff(Z).astype(object) * slope[group])))
    return PiecewiseLinear(Z, D, H, D * VW)
