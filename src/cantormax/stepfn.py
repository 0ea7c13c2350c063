"""Exact piecewise-constant functions and their integration kernels.

A ``StepFunction`` is stored in cleared-denominator form: integer breakpoint
numerators over one common denominator, and integer value numerators over
another.  Every integral here is computed in integer arithmetic, so results
are exact Fractions with no quadrature tolerance anywhere.

The merge kernels (n-fold product integrals, powers of linear combinations)
vectorise with numpy when the scaled positions fit two 64-bit limbs, which
covers all the operational parameter ranges; otherwise they fall back to a
pure-Python sweep with the same semantics.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

_LIMB = 39
_LIMB_BASE = 1 << _LIMB
_U_MAX = 1 << 25  # |breakpoint numerator| bound for the vectorised path
_G_MAX = 1 << 61
_GU_MAX = 1 << 87
_C_MAX = 1 << 99


def _gcd_all(values: Iterable[int], start: int = 0) -> int:
    g = start
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


class StepFunction:
    """Compactly supported step function, zero outside its breakpoint span."""

    __slots__ = (
        "units",
        "den",
        "val_nums",
        "val_den",
        "_np_units",
        "_prefix",
        "_float_bps",
    )

    def __init__(self, units, den, val_nums, val_den, *, _normalized=False):
        units = list(units)
        val_nums = list(val_nums)
        if den <= 0 or val_den <= 0:
            raise DomainError("denominators must be positive")
        if len(units) != len(val_nums) + 1 and not (len(units) == 0 and not val_nums):
            raise DomainError("need one more breakpoint than cell values")
        if not _normalized:
            units, den, val_nums, val_den = _normalize(units, den, val_nums, val_den)
        self.units = tuple(units)
        self.den = den
        self.val_nums = tuple(val_nums)
        self.val_den = val_den
        self._np_units = None
        self._prefix = None
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

    @classmethod
    def _from_gaps(cls, gaps, den, val_den) -> "StepFunction":
        """Build from (start_int, end_int, value_int) gaps over fixed denominators."""
        units: list[int] = []
        nums: list[int] = []
        for start, end, value in gaps:
            if end <= start:
                continue
            if units and start > units[-1]:
                nums.append(0)
                units.append(start)
            elif not units:
                units.append(start)
            nums.append(value)
            units.append(end)
        return cls(units, den, nums, val_den)

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

    def _prefix_ints(self):
        if self._prefix is None:
            pre = [0]
            for i, v in enumerate(self.val_nums):
                pre.append(pre[-1] + v * (self.units[i + 1] - self.units[i]))
            self._prefix = pre
        return self._prefix

    def integral(self) -> Fraction:
        return Fraction(self._prefix_ints()[-1], self.den * self.val_den)

    def mass_below(self, x) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        xs = Fraction(x) * self.den
        pre = self._prefix_ints()
        idx = bisect_right(self.units, xs) - 1
        if idx < 0:
            return Fraction(0)
        if idx >= len(self.val_nums):
            return Fraction(pre[-1], self.den * self.val_den)
        part = pre[idx] + self.val_nums[idx] * (xs - self.units[idx])
        return part / (self.den * self.val_den)

    def mass_between(self, a, b) -> Fraction:
        a, b = Fraction(a), Fraction(b)
        if b < a:
            raise DomainError("mass_between needs a <= b")
        return self.mass_below(b) - self.mass_below(a)

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
        c, r = Fraction(c), Fraction(r)
        if r <= 0:
            raise DomainError("affine_image needs r > 0")
        if self.is_zero:
            return StepFunction.zero()
        D = math.lcm(c.denominator, r.denominator * self.den)
        C = c.numerator * (D // c.denominator)
        G = r.numerator * (D // (r.denominator * self.den))
        units = [C + G * u for u in self.units]
        return StepFunction(units, D, self.val_nums, self.val_den)

    def dilate_arg(self, factor) -> "StepFunction":
        """The function z -> f(z/factor) for factor > 0."""
        return self.affine_image(0, factor)

    def scale(self, s) -> "StepFunction":
        s = Fraction(s)
        if self.is_zero or s == 0:
            return StepFunction.zero()
        nums = [v * s.numerator for v in self.val_nums]
        return StepFunction(self.units, self.den, nums, self.val_den * s.denominator)

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

    # -- serialization -----------------------------------------------------

    def to_json_cells(self) -> list[dict]:
        out = []
        for l, r, v in self.cells():
            if v != 0:
                out.append(
                    {
                        "left": f"{l.numerator}/{l.denominator}",
                        "right": f"{r.numerator}/{r.denominator}",
                        "value": f"{v.numerator}/{v.denominator}",
                    }
                )
        return out

    @classmethod
    def from_json_cells(cls, cells: list[dict]) -> "StepFunction":
        return cls.from_cells(
            (Fraction(c["left"]), Fraction(c["right"]), Fraction(c["value"])) for c in cells
        )

    # -- internal ----------------------------------------------------------

    def _units_np(self):
        if self._np_units is None:
            if self.units and max(abs(self.units[0]), abs(self.units[-1])) < 2**62:
                self._np_units = np.asarray(self.units, dtype=np.int64)
            else:
                self._np_units = False
        return self._np_units


def _normalize(units, den, val_nums, val_den):
    if any(nxt <= cur for cur, nxt in zip(units, units[1:])):
        raise DomainError("breakpoints must be strictly increasing")
    merged_u: list[int] = []
    merged_v: list[int] = []
    for i, v in enumerate(val_nums):
        if merged_v and merged_v[-1] == v:
            merged_u[-1] = units[i + 1]
            continue
        if not merged_u:
            merged_u = [units[i], units[i + 1]]
        else:
            merged_u.append(units[i + 1])
        merged_v.append(v)
    while merged_v and merged_v[0] == 0:
        merged_v.pop(0)
        merged_u.pop(0)
    while merged_v and merged_v[-1] == 0:
        merged_v.pop()
        merged_u.pop()
    if not merged_v:
        return [], 1, [], 1
    g = _gcd_all(merged_u, den)
    if g > 1:
        merged_u = [u // g for u in merged_u]
        den //= g
    h = _gcd_all(merged_v, val_den)
    if h > 1:
        merged_v = [v // h for v in merged_v]
        val_den //= h
    return merged_u, den, merged_v, val_den


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


def _encodable(C: int, G: int, fn: StepFunction) -> bool:
    if fn._units_np() is False:
        return False
    umax = max(abs(fn.units[0]), abs(fn.units[-1])) if fn.units else 0
    return umax < _U_MAX and 0 <= G < _G_MAX and G * umax < _GU_MAX and abs(C) < _C_MAX


def _encode_positions(C: int, G: int, u: np.ndarray):
    """Exact two-limb base-2^39 encoding of C + G*u, all int64."""
    Gq, Gr = divmod(G, 1 << 25)
    Chi, Clo = divmod(C, _LIMB_BASE)
    t = Gq * u
    tq = t >> 14
    tr = t & ((1 << 14) - 1)
    lo_acc = Clo + (tr << 25) + Gr * u
    hi_acc = Chi + tq
    carry = lo_acc >> _LIMB
    lo = lo_acc - (carry << _LIMB)
    hi = hi_acc + carry
    return hi, lo


class _MergedCells:
    """Sorted merge of several transformed breakpoint families.

    Exposes per-gap factor region indices plus exact gap widths as object
    (arbitrary-precision) integers over the common denominator.
    """

    __slots__ = ("n_gaps", "regs", "width_obj")

    def __init__(self, n_gaps, regs, width_obj):
        self.n_gaps = n_gaps
        self.regs = regs
        self.width_obj = width_obj


def _merge_numpy(prepared) -> _MergedCells | None:
    his, los, srcs = [], [], []
    for i, (C, G, fn) in enumerate(prepared):
        if not _encodable(C, G, fn):
            return None
        hi, lo = _encode_positions(C, G, fn._units_np())
        his.append(hi)
        los.append(lo)
        srcs.append(np.full(len(fn.units), i, dtype=np.int64))
    hi = np.concatenate(his)
    lo = np.concatenate(los)
    src = np.concatenate(srcs)
    order = np.lexsort((lo, hi))
    hi_s, lo_s, src_s = hi[order], lo[order], src[order]
    if len(hi_s) < 2:
        return _MergedCells(0, [], np.empty(0, dtype=object))
    regs = []
    for i in range(len(prepared)):
        cum = np.cumsum(src_s == i) - 1
        regs.append(cum[:-1])
    dhi = hi_s[1:] - hi_s[:-1]
    dlo = lo_s[1:] - lo_s[:-1]
    width = dhi.astype(object) * _LIMB_BASE + dlo.astype(object)
    return _MergedCells(len(width), regs, width)


def _affine_stream(C, G, units, i):
    return ((C + G * u, i) for u in units)


def _merge_python_gaps(prepared):
    """Yield (start, end, regs_tuple) over exact integer positions."""
    streams = [
        _affine_stream(C, G, fn.units, i) for i, (C, G, fn) in enumerate(prepared)
    ]
    regs = [-1] * len(prepared)
    prev = None
    for pos, i in heapq.merge(*streams):
        if prev is not None and pos != prev:
            yield prev, pos, tuple(regs)
        regs[i] += 1
        prev = pos


def _padded_value_obj(fn: StepFunction, multiplier: int = 1) -> np.ndarray:
    vals = [v * multiplier for v in fn.val_nums]
    vals.append(0)  # sentinel for out-of-support gaps
    return np.array(vals, dtype=object)


def product_integral(entries: Sequence[tuple]) -> Fraction:
    """Exact integral of the product of f_i((z - c_i)/r_i) over all z.

    ``entries`` holds (StepFunction, c, r) triples with r > 0.  A single
    merged sweep over all transformed breakpoints is used; closed endpoint
    contacts have zero width and contribute nothing.
    """
    if not entries:
        raise DomainError("product_integral needs at least one factor")
    for fn, _, _ in entries:
        if fn.is_zero:
            return Fraction(0)
    D, prepared = _prepare_factors(entries)
    vden = 1
    for _, _, fn in prepared:
        vden *= fn.val_den
    merged = _merge_numpy(prepared)
    if merged is not None:
        if merged.n_gaps == 0:
            return Fraction(0)
        nf = len(prepared)
        mask = None
        gathered = []
        for i, (_, _, fn) in enumerate(prepared):
            reg = merged.regs[i]
            n_cells = len(fn.val_nums)
            valid = (reg >= 0) & (reg < n_cells)
            idx = np.where(valid, reg, n_cells)
            vals = _padded_value_obj(fn)[idx]
            nz = vals != 0
            mask = nz if mask is None else (mask & nz)
            gathered.append(vals)
        live = np.flatnonzero(mask)
        if len(live) == 0:
            return Fraction(0)
        acc = merged.width_obj[live]
        for vals in gathered:
            acc = acc * vals[live]
        return Fraction(int(acc.sum()), D * vden)
    # exact fallback
    total = 0
    fns = [fn for _, _, fn in prepared]
    for start, end, regs in _merge_python_gaps(prepared):
        prod = end - start
        for i, fn in enumerate(fns):
            r = regs[i]
            if 0 <= r < len(fn.val_nums) and fn.val_nums[r] != 0:
                prod *= fn.val_nums[r]
            else:
                prod = 0
                break
        total += prod
    return Fraction(total, D * vden)


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
    merged = _merge_numpy(prepared)
    if merged is not None:
        if merged.n_gaps == 0:
            return Fraction(0)
        value = None
        for i, (_, _, fn) in enumerate(prepared):
            reg = merged.regs[i]
            n_cells = len(fn.val_nums)
            idx = np.where((reg >= 0) & (reg < n_cells), reg, n_cells)
            vals = _padded_value_obj(fn, mults[i])[idx]
            value = vals if value is None else (value + vals)
        live = np.flatnonzero(value != 0)
        if len(live) == 0:
            return Fraction(0)
        v = value[live]
        acc = abs(v) ** p * merged.width_obj[live] if p > 1 else abs(v) * merged.width_obj[live]
        return Fraction(int(acc.sum()), D * VW**p)
    total = 0
    fns = [fn for _, _, fn in prepared]
    for start, end, regs in _merge_python_gaps(prepared):
        v = 0
        for i, fn in enumerate(fns):
            r = regs[i]
            if 0 <= r < len(fn.val_nums):
                v += mults[i] * fn.val_nums[r]
        if v:
            total += abs(v) ** p * (end - start)
    return Fraction(total, D * VW**p)


def linear_combination(terms: Sequence[tuple]) -> StepFunction:
    """sum_i w_i f_i((z - c_i)/r_i) as an exact StepFunction."""
    prep = _prepare_weighted(terms)
    if prep is None:
        return StepFunction.zero()
    D, VW, prepared, mults = prep

    def gaps():
        fns = [fn for _, _, fn in prepared]
        for start, end, regs in _merge_python_gaps(prepared):
            v = 0
            for i, fn in enumerate(fns):
                r = regs[i]
                if 0 <= r < len(fn.val_nums):
                    v += mults[i] * fn.val_nums[r]
            yield start, end, v

    return StepFunction._from_gaps(gaps(), D, VW)


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
