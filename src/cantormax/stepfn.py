"""Exact piecewise-constant functions and their integration kernels.

A ``StepFunction`` is stored in cleared-denominator form: integer breakpoint
numerators over one common denominator, and integer value numerators over
another.  Every integral here is computed in integer arithmetic, so results
are exact Fractions with no quadrature tolerance anywhere.  One array
routine normalizes every step function (equal neighbours merged, zero end
cells stripped, gcds divided out).

The kernels ``product_integral``, ``power_integral`` and
``linear_combination``, and through ``combination_cells`` the nodes of
``maxops.mk_adjoint``, get their factors' transformed breakpoints C + G*u
from one seam, ``_merge``, which returns the gaps grouped by the tuple of
their factors' value classes (a factor's distinct cell values, class 0
being zero).  Each kernel multiplies, or weights and sums, the class values
once per group in Python ints.  The vectorised merge encodes each factor
relative to its first unit in two int64 limbs (hi, lo), and one stable
argsort of the float64 keys hi*2^39 + lo merges the presorted factor runs:
rounding never reverses the exact order, and runs of equal keys are
reordered from the limbs; widths are summed per group in int64 limbs.  A
factor whose span, step G or offset leaves the limbs (span >= 2^25,
G >= 2^61, G*span >= 2^87 or |offset| >= 2^91), or more than 2^24
breakpoints in all, sends the merge to a pure-Python ``heapq`` sweep that
sums the widths per class tuple, so its memory grows with the number of
distinct tuples, not of gaps.

The methods are thin calls of these kernels: ``integral`` is a one-factor
``product_integral``, ``mass_between`` the product with an indicator, and
``affine_image`` and ``scale`` one-term ``linear_combination``s.  The one
per-cell loop left is ``lp_power``, which the adjoint checks compare the
kernels against.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError

_LIMB = 39
_LIMB_BASE = 1 << _LIMB
_SPAN_MAX = 1 << 25  # breakpoint span u[-1] - u[0] of one factor
_G_MAX = 1 << 61
_GU_MAX = 1 << 87
_C_MAX = 1 << 91  # keeps |hi| < 2^53, so each float key is one rounding
_POS_MAX = 1 << 24  # merged breakpoints; keeps the low-limb sums in int64
_KEY_MAX = 1 << 62


def _int_array(values) -> np.ndarray:
    """Integers as int64, or as Python ints (object dtype) when they do not fit."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


class StepFunction:
    """Compactly supported step function, zero outside its breakpoint span."""

    __slots__ = (
        "units",
        "den",
        "val_nums",
        "val_den",
        "_np_units",
        "_classes",
        "_float_bps",
    )

    def __init__(self, units, den, val_nums, val_den, *, _normalized=False):
        if den <= 0 or val_den <= 0:
            raise DomainError("denominators must be positive")
        if len(units) != len(val_nums) + 1 and (len(units) or len(val_nums)):
            raise DomainError("need one more breakpoint than cell values")
        if not _normalized:
            units, den, val_nums, val_den = _normalize(units, den, val_nums, val_den)
        self.units = tuple(units)
        self.den = den
        self.val_nums = tuple(val_nums)
        self.val_den = val_den
        self._np_units = None
        self._classes = None
        self._float_bps = None

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls((), 1, (), 1, _normalized=True)

    @classmethod
    def from_breakpoints(cls, breakpoints, values) -> "StepFunction":
        bps = [Fraction(b) for b in breakpoints]
        vals = [Fraction(v) for v in values]
        if len(bps) != len(vals) + 1 and bps:
            raise DomainError("need one more breakpoint than cell values")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        den = 1
        for b in bps:
            den = math.lcm(den, b.denominator)
        vden = 1
        for v in vals:
            vden = math.lcm(vden, v.denominator)
        units = [b.numerator * (den // b.denominator) for b in bps]
        nums = [v.numerator * (vden // v.denominator) for v in vals]
        return cls(units, den, nums, vden)

    @classmethod
    def from_cells(cls, cells) -> "StepFunction":
        """Build from (left, right, value) triples; gaps are filled with zero."""
        cells = sorted(
            ((Fraction(l), Fraction(r), Fraction(v)) for l, r, v in cells),
            key=lambda c: c[0],
        )
        bps: list[Fraction] = []
        vals: list[Fraction] = []
        for l, r, v in cells:
            if r <= l:
                raise DomainError(f"empty or inverted cell [{l}, {r}]")
            if bps:
                if l < bps[-1]:
                    raise DomainError("cells overlap")
                if l > bps[-1]:
                    vals.append(Fraction(0))
                    bps.append(l)
            else:
                bps.append(l)
            vals.append(v)
            bps.append(r)
        return cls.from_breakpoints(bps, vals)

    @classmethod
    def indicator(cls, a, b) -> "StepFunction":
        return cls.from_breakpoints([Fraction(a), Fraction(b)], [Fraction(1)])

    # -- canonical views -------------------------------------------------

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.den) for u in self.units)

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
        return len(self.val_nums)

    @property
    def is_zero(self) -> bool:
        return not self.val_nums

    def support(self):
        if self.is_zero:
            return None
        return Fraction(self.units[0], self.den), Fraction(self.units[-1], self.den)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (
            self.units == other.units
            and self.den == other.den
            and self.val_nums == other.val_nums
            and self.val_den == other.val_den
        )

    def __hash__(self):
        return hash((self.units, self.den, self.val_nums, self.val_den))

    def __repr__(self):
        if self.is_zero:
            return "StepFunction(0)"
        lo, hi = self.support()
        return f"StepFunction({self.n_cells} cells on [{lo}, {hi}])"

    # -- pointwise -------------------------------------------------------

    def value_at(self, x, side: str = "+") -> Fraction:
        """Value at x; at a breakpoint, `side` picks the right or left limit."""
        if self.is_zero:
            return Fraction(0)
        xs = Fraction(x) * self.den
        if side == "+":
            idx = bisect_right(self.units, xs) - 1
        else:
            idx = bisect_left(self.units, xs) - 1
        if 0 <= idx < len(self.val_nums):
            return Fraction(self.val_nums[idx], self.val_den)
        return Fraction(0)

    def value_at_float(self, x: float) -> float:
        if self._float_bps is None:
            self._float_bps = [u / self.den for u in self.units]
        idx = bisect_right(self._float_bps, x) - 1
        if 0 <= idx < len(self.val_nums):
            return self.val_nums[idx] / self.val_den
        return 0.0

    # -- exact integrals ---------------------------------------------------

    def integral(self) -> Fraction:
        return product_integral([(self, 0, 1)])

    def mass_between(self, a, b) -> Fraction:
        """Exact integral over [a, b]."""
        a, b = Fraction(a), Fraction(b)
        if b < a:
            raise DomainError("mass_between needs a <= b")
        if a == b:
            return Fraction(0)
        return product_integral([(self, 0, 1), (StepFunction.indicator(a, b), 0, 1)])

    def linear_pieces(self):
        """(left, right, alpha, beta) per cell, with f(z) = alpha + beta z on
        [left, right]; beta is 0."""
        for lo, hi, v in self.cells():
            yield lo, hi, v, 0

    def lp_power(self, p: int) -> Fraction:
        """Exact integral of |f|^p for integer p >= 1."""
        if p < 1 or int(p) != p:
            raise DomainError("lp_power needs an integer p >= 1")
        total = 0
        for i, v in enumerate(self.val_nums):
            total += abs(v) ** p * (self.units[i + 1] - self.units[i])
        return Fraction(total, self.den * self.val_den**p)

    def lp_norm(self, p) -> float:
        p = Fraction(p)
        if p < 1:
            raise DomainError("lp_norm needs p >= 1")
        if p.denominator == 1:
            return float(self.lp_power(int(p))) ** (1.0 / int(p))
        total = 0.0
        pf = float(p)
        for l, r, v in self.cells():
            total += abs(float(v)) ** pf * float(r - l)
        return total ** (1.0 / pf)

    # -- algebra -----------------------------------------------------------

    def affine_image(self, c, r) -> "StepFunction":
        """The function z -> f((z - c)/r) for r > 0."""
        if Fraction(r) <= 0:
            raise DomainError("affine_image needs r > 0")
        return linear_combination([(1, self, c, r)])

    def dilate_arg(self, factor) -> "StepFunction":
        """The function z -> f(z/factor) for factor > 0."""
        return self.affine_image(0, factor)

    def scale(self, s) -> "StepFunction":
        return linear_combination([(s, self, 0, 1)])

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return linear_combination([(1, self, 0, 1), (1, other, 0, 1)])

    def __sub__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return linear_combination([(1, self, 0, 1), (-1, other, 0, 1)])

    def abs(self) -> "StepFunction":
        return StepFunction(self.units, self.den, [abs(v) for v in self.val_nums], self.val_den)

    # -- internal ----------------------------------------------------------

    def _rel_units(self) -> np.ndarray:
        """Units minus the first unit, as int64; for spans below 2^62."""
        if self._np_units is None:
            u0 = self.units[0]
            if max(abs(u0), abs(self.units[-1])) < 1 << 62:
                self._np_units = np.asarray(self.units, dtype=np.int64) - u0
            else:
                self._np_units = np.fromiter((u - u0 for u in self.units), np.int64, len(self.units))
        return self._np_units

    def _class_table(self):
        """(values, table): the distinct cell values with 0 first, and for each
        cell its index into them, padded with class 0 on both sides."""
        if self._classes is None:
            uniq, inv = np.unique(_int_array(self.val_nums), return_inverse=True)
            nonzero = uniq != 0
            table = np.zeros(len(self.val_nums) + 2, dtype=np.int64)
            table[1:-1] = (np.cumsum(nonzero) * nonzero)[inv]
            self._classes = ([0, *uniq[nonzero].tolist()], table)
        return self._classes


def _normalize(units, den, val_nums, val_den):
    """Canonical form of a step function given as integer arrays: equal
    neighbours merged, zero end cells stripped, both gcds divided out.
    Returns Python-int lists."""
    u, v = _int_array(units), _int_array(val_nums)
    if len(u) > 1 and not (u[1:] > u[:-1]).all():
        raise DomainError("breakpoints must be strictly increasing")
    nonzero = np.flatnonzero(v != 0)
    if not len(nonzero):
        return [], 1, [], 1
    first, last = nonzero[0], nonzero[-1] + 1
    v = v[first:last]
    keep = np.concatenate(([True], v[1:] != v[:-1]))
    u = np.concatenate((u[first:last][keep], u[last : last + 1]))
    v = v[keep]
    g = math.gcd(den, int(np.gcd.reduce(u)))
    h = math.gcd(val_den, int(np.gcd.reduce(v)))
    return (u // g).tolist(), den // g, (v // h).tolist(), val_den // h


# ---------------------------------------------------------------------------
# merge kernels
# ---------------------------------------------------------------------------


def _prepare_factors(entries):
    """Clear denominators for entries (fn, c, r) with r > 0.

    Returns (D, prepared) where prepared holds per factor the integer offset
    C, the integer step G, and the original function, so that the transformed
    breakpoints are exactly (C + G*u)/D over the fn's own units u.
    """
    cleaned = []
    D = 1
    for fn, c, r in entries:
        c, r = Fraction(c), Fraction(r)
        if r <= 0:
            raise DomainError("affine factors need r > 0")
        cleaned.append((fn, c, r))
        D = math.lcm(D, c.denominator, r.denominator * fn.den)
    prepared = []
    for fn, c, r in cleaned:
        C = c.numerator * (D // c.denominator)
        G = r.numerator * (D // (r.denominator * fn.den))
        prepared.append((C, G, fn))
    return D, prepared


def _encode_positions(C: int, G: int, u: np.ndarray):
    """Exact encoding hi*2^39 + lo of C + G*u for 0 <= u < 2^25, with
    0 <= lo < 2^39, all int64 and computed in place."""
    Gq, Gr = divmod(G, 1 << 25)
    Chi, Clo = divmod(C, _LIMB_BASE)
    hi = u * Gq  # below 2^61; G*u = hi*2^25 + Gr*u
    lo = hi & ((1 << 14) - 1)
    lo <<= 25
    lo += Clo
    lo += u * Gr
    hi >>= 14
    hi += Chi
    hi += lo >> _LIMB
    lo &= _LIMB_BASE - 1
    return hi, lo


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


def _gap_keys(tables, order: np.ndarray) -> np.ndarray:
    """Per merged gap, an int64 key that is injective on its class tuple.

    Crossing a breakpoint changes one factor's class, so a mixed-radix key is
    the running sum of per-breakpoint steps in merged order.  Factors are
    keyed in chunks whose radix product fits; chunk keys are combined by rank.
    """
    chunks, radix = [], _KEY_MAX
    for i, (values, _) in enumerate(tables):
        if radix * len(values) > _KEY_MAX:
            chunks.append({})
            radix = 1
        chunks[-1][i] = radix
        radix *= len(values)
    keys = None
    for chunk in chunks:
        steps = np.concatenate([np.diff(t) * chunk.get(i, 0) for i, (_, t) in enumerate(tables)])
        part = np.cumsum(steps[order])[:-1]
        if keys is not None:
            a = np.unique(keys, return_inverse=True)[1]
            b = np.unique(part, return_inverse=True)[1]
            part = a * (b.max() + 1) + b
        keys = part
    return keys


def _merge_numpy(prepared):
    """The vectorised exact merge, with its gaps grouped by their tuple of
    value classes, or None when an input is out of the limb range.

    Returns (widths, classes, cells): ``widths[g]`` is the exact total width
    of group g and ``classes[i][g]`` factor i's class on it; ``cells()``
    gives the distinct merged positions (int64, or Python ints past it) and
    the group of each cell between neighbours.
    """
    sizes = [len(fn.units) for _, _, fn in prepared]
    if sum(sizes) > _POS_MAX:
        return None
    his, los = [], []
    for C, G, fn in prepared:
        span = fn.units[-1] - fn.units[0]
        C0 = C + G * fn.units[0]  # bias by the first unit
        if not (span < _SPAN_MAX and 0 < G < _G_MAX and G * span < _GU_MAX and abs(C0) < _C_MAX):
            return None
        hi, lo = _encode_positions(C0, G, fn._rel_units())
        his.append(hi)
        los.append(lo)
    hi, lo = np.concatenate(his), np.concatenate(los)
    order = _merged_order(hi, lo)
    hi, lo = hi[order], lo[order]
    # a gap is dhi*2^39 + dlo with dhi >= 0 and |dlo| < 2^39, so it is 0
    # exactly when both are, and its sums stay inside int64
    dhi, dlo = np.diff(hi), np.diff(lo)

    tables = [fn._class_table() for _, _, fn in prepared]
    keys = _gap_keys(tables, order)
    n_keys = int(keys.max()) + 1
    if n_keys > 2 * len(keys):
        keys = np.unique(keys, return_inverse=True)[1]
        n_keys = int(keys.max()) + 1
    sum_hi = np.zeros(n_keys, dtype=np.int64)
    sum_lo = np.zeros(n_keys, dtype=np.int64)
    np.add.at(sum_hi, keys, dhi)
    np.add.at(sum_lo, keys, dlo)
    rep = np.full(n_keys, -1, dtype=np.int64)
    rep[keys] = np.arange(len(keys))  # any gap of each present key
    present = np.flatnonzero(rep >= 0)
    widths = [(h << _LIMB) + l for h, l in zip(sum_hi[present].tolist(), sum_lo[present].tolist())]

    # gap j lies past factor i's breakpoints at merged slots <= j
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    bounds = np.cumsum([0, *sizes])
    classes = [
        table[np.searchsorted(rank[a:b], rep[present], side="right")]
        for (_, table), a, b in zip(tables, bounds, bounds[1:])
    ]

    def cells():
        live = np.flatnonzero((dhi != 0) | (dlo != 0))
        ends = np.append(live, len(hi) - 1)
        pos_hi, pos_lo = hi[ends], lo[ends]
        if np.abs(pos_hi).max() >= 1 << 23:
            pos_hi, pos_lo = pos_hi.astype(object), pos_lo.astype(object)
        group = np.empty(n_keys, dtype=np.int64)
        group[present] = np.arange(len(present))
        return pos_hi * _LIMB_BASE + pos_lo, group[keys[live]]

    return widths, classes, cells


def _sweep(prepared, radices):
    """Pure-Python exact merge: (start, end, key) per gap of positive width,
    key being the gap's class tuple in mixed radix, sum of class_i * radix_i."""
    streams = []
    for (C, G, fn), radix in zip(prepared, radices):
        steps = [d * radix for d in np.diff(fn._class_table()[1]).tolist()]
        streams.append(zip([C + G * u for u in fn.units], steps))
    key, prev = 0, min(C + G * fn.units[0] for C, G, fn in prepared)
    for pos, step in heapq.merge(*streams):
        if pos != prev:
            yield prev, pos, key
        key += step
        prev = pos


def _merge(prepared):
    """The exact merge of the factors' transformed breakpoints, grouped by
    class tuple: the triple (widths, classes, cells) of ``_merge_numpy``.

    Inputs out of the limb range take the ``heapq`` sweep, which sums each
    gap's width into its class tuple's group; ``cells()`` replays it.
    """
    merged = _merge_numpy(prepared)
    if merged is not None:
        return merged
    sizes = [len(fn._class_table()[0]) for _, _, fn in prepared]
    radices = [math.prod(sizes[:i]) for i in range(len(sizes))]
    widths: dict[int, int] = {}
    for start, end, key in _sweep(prepared, radices):
        widths[key] = widths.get(key, 0) + (end - start)
    classes = [
        np.array([key // radix % size for key in widths], dtype=np.int64)
        for radix, size in zip(radices, sizes)
    ]

    def cells():
        group = {key: g for g, key in enumerate(widths)}
        positions, ids = [], []
        for start, end, key in _sweep(prepared, radices):
            positions.append(start)
            ids.append(group[key])
        positions.append(end)
        return _int_array(positions), np.array(ids, dtype=np.int64)

    return list(widths.values()), classes, cells


def _class_values(prepared, classes, mults) -> list[np.ndarray]:
    """Per factor, its weighted class value on each group, as Python ints."""
    return [
        np.array([m * v for v in fn._class_table()[0]], dtype=object)[cls]
        for (_, _, fn), m, cls in zip(prepared, mults, classes)
    ]


def product_integral(entries: Sequence[tuple]) -> Fraction:
    """Exact integral of the product of f_i((z - c_i)/r_i) over all z.

    ``entries`` holds (StepFunction, c, r) triples with r > 0.  A single
    merge of all transformed breakpoints is used; closed endpoint contacts
    have zero width and contribute nothing.
    """
    if not entries:
        raise DomainError("product_integral needs at least one factor")
    for fn, _, _ in entries:
        if fn.is_zero:
            return Fraction(0)
    D, prepared = _prepare_factors(entries)
    vden = math.prod(fn.val_den for _, _, fn in prepared)
    widths, classes, _ = _merge(prepared)
    acc = np.array(widths, dtype=object)
    for vals in _class_values(prepared, classes, [1] * len(prepared)):
        acc = acc * vals
    return Fraction(int(acc.sum()), D * vden)


def _prepare_weighted(terms):
    """Common scaling for (weight, fn, c, r) terms of a linear combination."""
    cleaned = []
    for w, fn, c, r in terms:
        w = Fraction(w)
        if fn.is_zero or w == 0:
            continue
        cleaned.append((w, fn, Fraction(c), Fraction(r)))
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
    widths, classes, _ = _merge(prepared)
    value = sum(_class_values(prepared, classes, mults))
    acc = abs(value) ** p * np.array(widths, dtype=object)
    return Fraction(int(acc.sum()), D * VW**p)


def combination_cells(terms: Sequence[tuple]):
    """The cells of sum_i w_i f_i((z - c_i)/r_i) before normalization, or
    None when no term is nonzero.

    Returns (positions, values, D, VW): the sum is values[j]/VW between the
    distinct merged breakpoints positions[j]/D and positions[j+1]/D, so equal
    neighbours and zero cells stay.  Package-internal, not exported.
    """
    prep = _prepare_weighted(terms)
    if prep is None:
        return None
    D, VW, prepared, mults = prep
    _, classes, cells = _merge(prepared)
    positions, group = cells()
    value = _int_array(sum(_class_values(prepared, classes, mults)).tolist())
    return positions, value[group], D, VW


def linear_combination(terms: Sequence[tuple]) -> StepFunction:
    """sum_i w_i f_i((z - c_i)/r_i) as an exact StepFunction."""
    cells = combination_cells(terms)
    if cells is None:
        return StepFunction.zero()
    positions, values, D, VW = cells
    return StepFunction(positions, D, values, VW)


def inner_product(f: StepFunction, g: StepFunction) -> Fraction:
    """Exact integral of f*g."""
    return product_integral([(f, 0, 1), (g, 0, 1)])


class PiecewiseLinear:
    """Continuous piecewise-linear function, constant beyond its end nodes.

    Genuinely Lipschitz, unlike a step function; interval masses are exact
    (trapezoid rule is exact on linear pieces).  Used by the differentiation
    experiment, where the error bound 2*Lip*r is checked with zero tolerance.
    """

    __slots__ = ("nodes", "values")

    def __init__(self, nodes, values):
        nodes = [Fraction(v) for v in nodes]
        values = [Fraction(v) for v in values]
        if len(nodes) != len(values) or len(nodes) < 2:
            raise DomainError("need matching node/value lists of length >= 2")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise DomainError("nodes must be strictly increasing")
        self.nodes = tuple(nodes)
        self.values = tuple(values)

    def value_at(self, x, side: str = "+") -> Fraction:
        x = Fraction(x)
        if x <= self.nodes[0]:
            return self.values[0]
        if x >= self.nodes[-1]:
            return self.values[-1]
        i = bisect_right(self.nodes, x) - 1
        x0, x1 = self.nodes[i], self.nodes[i + 1]
        y0, y1 = self.values[i], self.values[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

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
        return max(
            abs(y1 - y0) / (x1 - x0)
            for x0, x1, y0, y1 in zip(self.nodes, self.nodes[1:], self.values, self.values[1:])
        )

    def mass_between(self, a, b) -> Fraction:
        """Exact integral over [a, b]."""
        a, b = Fraction(a), Fraction(b)
        if b < a:
            raise DomainError("mass_between needs a <= b")
        i0, i1 = bisect_right(self.nodes, a), bisect_left(self.nodes, b)
        cuts = [a, *self.nodes[i0:i1], b]
        vals = [self.value_at(a), *self.values[i0:i1], self.value_at(b)]
        total = Fraction(0)
        for lo, hi, y0, y1 in zip(cuts, cuts[1:], vals, vals[1:]):
            total += (y0 + y1) / 2 * (hi - lo)
        return total
