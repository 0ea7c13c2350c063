"""Exact representation of the nested interval iteration.

Level-k selections are stored as sorted integer offsets o in [0, M_k): the
selected interval is [1 + o*delta_k, 1 + (o+1)*delta_k], and a multi-index
(i_1, ..., i_k) with 1-based digits corresponds to
o = sum_j (i_j - 1) * M_k/M_j.  Offsets keep deep levels compact while every
derived quantity (densities, masses, defects) stays an exact rational.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CantorError,
    DegenerateMeasureError,
    FormatError,
    InsufficientDepthError,
    InvalidIndexError,
    StructureError,
)
from .params import ConstructionParams, REGIME_FIXED_DIM, REGIME_ONE_DIM
from .stepfn import StepFunction, _int_array

MultiIndex = tuple[int, ...]

SET_SCHEMA_VERSION = 1


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


def index_of(offset: int, k: int, params: ConstructionParams) -> MultiIndex:
    digits = []
    for j in range(k, 0, -1):
        N_j = params.level_N(j)
        offset, d = divmod(offset, N_j)
        digits.append(d + 1)
    if offset:
        raise InvalidIndexError("offset out of range for level")
    return tuple(reversed(digits))


def alpha(i: MultiIndex, params: ConstructionParams) -> Fraction:
    """Left endpoint of the basic interval of i: 1 + sum (i_j - 1)/M_j."""
    o = offset_of(i, params)
    return 1 + Fraction(o, params.M(len(i)))


def interval_of(i: MultiIndex, params: ConstructionParams) -> tuple[Fraction, Fraction]:
    a = alpha(i, params)
    return a, a + params.delta(len(i))


@dataclass(frozen=True)
class CantorLevel:
    k: int
    N_k: int
    M_k: int
    offsets: tuple[int, ...]  # sorted, distinct, in [0, M_k)

    @property
    def P(self) -> int:
        return len(self.offsets)

    @property
    def delta(self) -> Fraction:
        return Fraction(1, self.M_k)

    @property
    def measure(self) -> Fraction:
        """|S_k| = P_k * delta_k."""
        return Fraction(self.P, self.M_k)

    def runs(self) -> np.ndarray:
        """Maximal runs of consecutive offsets, as an (n, 2) array of
        half-open [start, end) offset pairs."""
        if not self.offsets:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.asarray(self.offsets, dtype=np.int64)
        breaks = np.flatnonzero(np.diff(arr) > 1)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [len(arr) - 1]))
        return np.stack([arr[starts], arr[ends] + 1], axis=1)


class RunMoments:
    """Exact prefix moments of one level's runs [s_i, e_i), in grid units
    u = M_k (y - 1).

    ``c0[i]`` is the total length of the first i runs and ``c1[i]`` the sum
    of e_j^2 - s_j^2 over them (the integral of 2u du).  A cut at any
    rational u then costs one bisect plus the partial run it lands in.  ``c1`` is
    bounded by M_k^2, so it stays int64 while M_k < 2^31 and holds Python
    ints beyond.
    """

    __slots__ = ("starts", "ends", "c0", "c1")

    def __init__(self, runs: np.ndarray, M_k: int):
        self.starts, self.ends = runs[:, 0], runs[:, 1]
        dtype = np.int64 if M_k < 1 << 31 else object
        s, e = self.starts.astype(dtype), self.ends.astype(dtype)
        self.c0 = np.concatenate(([0], np.cumsum(e - s))).astype(dtype)
        self.c1 = np.concatenate(([0], np.cumsum((e - s) * (e + s)))).astype(dtype)

    def below(self, u) -> tuple:
        """(length, integral of 2u du) of the runs inside [0, u], exact, for
        0 <= u <= M_k."""
        j = int(np.searchsorted(self.ends, math.floor(u), side="right"))
        m0, m1 = int(self.c0[j]), int(self.c1[j])
        if j < len(self.starts):
            s = int(self.starts[j])
            if u > s:
                m0 += u - s
                m1 += u * u - s * s
        return m0, m1


class CantorSet:
    """Nested selected-interval family S_1 ⊇ ... ⊇ S_K.

    Immutable after construction; all derived objects are cached.
    """

    def __init__(
        self,
        params: ConstructionParams,
        levels: list[CantorLevel],
        accepted_retries: tuple[int, ...] | None = None,
        validate: bool = True,
    ):
        self.params = params
        self.levels = tuple(levels)
        self.accepted_retries = accepted_retries
        self._sigma_cache: dict[int, StepFunction] = {}
        self._density_cache: dict[int, StepFunction] = {}
        self._moments_cache: dict[int, RunMoments] = {}
        if validate:
            problems = self.structure_problems()
            if problems:
                raise StructureError("; ".join(problems))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, k: int) -> CantorLevel:
        if not (1 <= k <= self.depth):
            raise InvalidIndexError(f"level {k} outside 1..{self.depth}")
        return self.levels[k - 1]

    def P(self, k: int) -> int:
        return self.level(k).P

    @property
    def degenerate(self) -> bool:
        """True when some level selected nothing (flagged, still representable)."""
        return any(lv.P == 0 for lv in self.levels)

    def Q(self, k: int) -> float:
        """Conditional expectation of P_k given the previous level, as a float."""
        prev = self.P(k - 1) if k >= 2 else 1
        return prev * self.params.expected_growth_float(k)

    def Q_exact(self, k: int) -> Fraction | None:
        growth = self.params.expected_growth(k)
        if growth is None:
            return None
        prev = self.P(k - 1) if k >= 2 else 1
        return prev * growth

    # -- structure ----------------------------------------------------------

    def structure_problems(self) -> list[str]:
        problems = []
        parents = None
        for idx, lv in enumerate(self.levels):
            k = idx + 1
            if lv.k != k:
                problems.append(f"level list out of order at {k}")
            if lv.N_k != self.params.level_N(k) or lv.M_k != self.params.M(k):
                problems.append(f"level {k} subdivision disagrees with params")
            arr = np.asarray(lv.offsets, dtype=np.int64)
            if (np.diff(arr) <= 0).any():
                problems.append(f"level {k} offsets not sorted/distinct")
            in_range = (arr >= 0) & (arr < lv.M_k)
            if not in_range.all():
                problems.append(f"level {k} offset out of range")
            if parents is not None:
                # only an offset in range can be decoded into an index
                orphan = in_range & np.isin(arr // lv.N_k, parents, invert=True)
                if orphan.any():
                    bad = index_of(lv.offsets[int(np.argmax(orphan))], k, self.params)
                    problems.append(f"index {bad} at level {k} has unselected parent")
            parents = arr
        return problems

    def selection(self, k: int) -> set[MultiIndex]:
        return {index_of(o, k, self.params) for o in self.level(k).offsets}

    def run_moments(self, k: int) -> RunMoments:
        """Prefix moments of the runs of S_k, built on first use."""
        if k not in self._moments_cache:
            lv = self.level(k)
            self._moments_cache[k] = RunMoments(lv.runs(), lv.M_k)
        return self._moments_cache[k]

    # -- densities -----------------------------------------------------------

    def density(self, k: int) -> StepFunction:
        """phi_k = 1_{S_k}/|S_k|, exact."""
        lv = self.level(k)
        if lv.P == 0:
            raise DegenerateMeasureError(f"level {k} is empty; phi_{k} undefined")
        if k not in self._density_cache:
            # (P_k delta_k)^{-1} on each run of S_k, 0 on the gaps between runs
            runs = lv.runs()
            value = Fraction(lv.M_k, lv.P)
            vals = _int_array([value.numerator, 0])[np.arange(2 * len(runs) - 1) % 2]
            self._density_cache[k] = StepFunction(
                runs.ravel() + lv.M_k, lv.M_k, vals, value.denominator
            )
        return self._density_cache[k]

    def sigma(self, k: int) -> StepFunction:
        """sigma_k = phi_{k+1} - phi_k, exact; support inside S_k."""
        if k + 1 > self.depth:
            raise InsufficientDepthError(f"sigma_{k} needs level {k + 1}")
        parent, child = self.level(k), self.level(k + 1)
        if parent.P == 0 or child.P == 0:
            raise DegenerateMeasureError(f"sigma_{k} needs nonempty levels {k} and {k + 1}")
        if k in self._sigma_cache:
            return self._sigma_cache[k]
        N_next = child.N_k
        M_next = child.M_k
        on_child = Fraction(M_next, child.P) - Fraction(parent.M_k, parent.P)
        off_child = -Fraction(parent.M_k, parent.P)
        vden = math.lcm(on_child.denominator, off_child.denominator)
        a_num = on_child.numerator * (vden // on_child.denominator)
        b_num = off_child.numerator * (vden // off_child.denominator)

        parent_runs = parent.runs() * N_next  # scaled to the child grid
        child_runs = child.runs()
        bps = np.sort(np.concatenate([parent_runs.ravel(), child_runs.ravel()]), kind="stable")
        bps = bps[np.concatenate(([True], bps[1:] != bps[:-1]))]
        starts = bps[:-1]
        in_parent = (
            np.searchsorted(parent_runs[:, 0], starts, side="right")
            - np.searchsorted(parent_runs[:, 1], starts, side="right")
        ) == 1
        in_child = (
            np.searchsorted(child_runs[:, 0], starts, side="right")
            - np.searchsorted(child_runs[:, 1], starts, side="right")
        ) == 1
        # 0 off S_k, b_num on S_k minus S_{k+1}, a_num on S_{k+1}
        vals = _int_array([0, b_num, a_num])[np.where(in_child, 2, in_parent.astype(np.int64))]
        fn = StepFunction(bps + M_next, M_next, vals, vden)
        self._sigma_cache[k] = fn
        return fn

    # -- measures ------------------------------------------------------------

    def nu_interval(self, J: tuple) -> Fraction:
        """Depth-K mass of an interval J ⊆ [1,2] under the level-K weights.

        Interior basic intervals contribute P_K^{-1} each; boundary cells
        contribute their fractional overlap, which makes this exactly the
        phi_K mass of J.
        """
        a, b = Fraction(J[0]), Fraction(J[1])
        if not (1 <= a <= b <= 2):
            raise InvalidIndexError("nu_interval needs J = [a, b] inside [1, 2]")
        lv = self.level(self.depth)
        if lv.P == 0:
            raise DegenerateMeasureError("depth-K level is empty")
        moments = self.run_moments(self.depth)
        lo, _ = moments.below((a - 1) * lv.M_k)
        hi, _ = moments.below((b - 1) * lv.M_k)
        return Fraction(hi - lo) / lv.P

    def weak_star_defect(self, k: int, k2: int) -> Fraction:
        """Sum over selected level-k intervals of |∫ (phi_k2 - phi_k)|, exact."""
        if not (1 <= k <= k2 <= self.depth):
            raise InsufficientDepthError(f"need 1 <= k <= k' <= {self.depth}")
        lv, lv2 = self.level(k), self.level(k2)
        if lv.P == 0 or lv2.P == 0:
            raise DegenerateMeasureError("defect needs nonempty levels")
        if k == k2:
            return Fraction(0)
        ratio = lv2.M_k // lv.M_k
        anc = np.asarray(lv2.offsets, dtype=np.int64) // ratio
        uniq, counts = np.unique(anc, return_counts=True)
        desc = dict(zip((int(u) for u in uniq), (int(c) for c in counts)))
        P, P2 = lv.P, lv2.P
        total = 0
        for o in lv.offsets:
            cnt = desc.get(o, 0)
            total += abs(cnt * P - P2)
        return Fraction(total, P * P2)

    # -- covering counts -------------------------------------------------------

    def box_count(self, k: int) -> int:
        """Number of level-k grid cells meeting S_K."""
        lv = self.level(k)
        deepest = self.level(self.depth)
        ratio = deepest.M_k // lv.M_k
        arr = np.asarray(deepest.offsets, dtype=np.int64)
        if len(arr) == 0:
            return 0
        return int(len(np.unique(arr // ratio)))

    def box_count_report(self) -> dict:
        counts = [self.box_count(k) for k in range(1, self.depth + 1)]
        xs = [math.log(self.params.M(k)) for k in range(1, self.depth + 1)]
        ys = [math.log(c) if c > 0 else float("-inf") for c in counts]
        slope = _least_squares_slope(xs, ys)
        return {"counts": counts, "log_scales": xs, "slope": slope}

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SET_SCHEMA_VERSION,
            "params": self.params.to_json_dict(),
            "accepted_retries": list(self.accepted_retries) if self.accepted_retries else None,
            "levels": [
                {
                    "k": lv.k,
                    "N_k": lv.N_k,
                    "P_k": lv.P,
                    # offsets encode multi-indices: o = sum (i_j - 1) M_k/M_j
                    "selected": [int(o) for o in lv.offsets],
                }
                for lv in self.levels
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "CantorSet":
        """Parse and check a set file; a malformed one raises ``FormatError``,
        a well-formed one that is not a nested family ``StructureError``."""
        try:
            if not isinstance(d, dict):
                raise FormatError(f"set file must hold a JSON object, not {type(d).__name__}")
            if d.get("schema_version") != SET_SCHEMA_VERSION:
                raise FormatError(f"unsupported schema_version {d.get('schema_version')!r}")
            params = ConstructionParams.from_json_dict(d["params"])
            ks = [entry["k"] for entry in d["levels"]]
            # the count first: params.depth may be far too large to list
            if (
                len(ks) != params.depth
                or set(map(type, ks)) - {int}
                or ks != list(range(1, params.depth + 1))
            ):
                raise FormatError(f"set file levels {ks} do not match params.depth = {params.depth}")
            levels = []
            for k, entry in zip(ks, d["levels"]):
                selected = entry["selected"]
                if not isinstance(selected, list) or set(map(type, selected)) - {int}:
                    raise FormatError(f"level {k} selected offsets must be a list of integers")
                # a recorded N_k or P_k that disagrees with params or offsets is refused
                for key, want in (("N_k", params.level_N(k)), ("P_k", len(selected))):
                    if type(entry[key]) is not int or entry[key] != want:
                        raise FormatError(f"level {k} {key} = {entry[key]!r} does not match {want}")
                levels.append(
                    CantorLevel(
                        k=k,
                        N_k=params.level_N(k),
                        M_k=params.M(k),
                        offsets=tuple(selected),
                    )
                )
            retries = d.get("accepted_retries")
            if retries is not None and not (
                isinstance(retries, list)
                and len(retries) == params.depth
                and all(type(a) is int and 0 <= a < params.max_retries for a in retries)
            ):
                raise FormatError(
                    f"accepted_retries must be null or {params.depth} integers "
                    f"in [0, {params.max_retries})"
                )
            return cls(
                params,
                levels,
                accepted_retries=tuple(retries) if retries else None,
            )
        except CantorError:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
            raise FormatError(f"malformed set file: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "CantorSet":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"set file is not valid JSON: {exc}") from exc
        return cls.from_json_dict(d)


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
            CantorLevel(k=k, N_k=params.level_N(k), M_k=params.M(k), offsets=tuple(sorted(offsets)))
        )
    return CantorSet(params, levels)


# ---------------------------------------------------------------------------
# dimension bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionReport:
    upper_quotients: tuple[float, ...]  # log P_k / log M_k, k = 1..K
    lower_quotients: tuple[float, ...]  # log(P_k/N_k) / log M_{k-1}, k = 2..K
    upper: float
    lower: float


def dim_bounds(cset: CantorSet) -> DimensionReport:
    """Finite-depth proxies for the two dimension quotient sequences.

    No extrapolation: raw quotients plus their minima.  At tiny depth the
    lower proxy may exceed the upper one; both are reported as computed.
    """
    if cset.depth < 2:
        raise InsufficientDepthError("dimension bounds need K >= 2")
    for k in range(1, cset.depth + 1):
        if cset.P(k) == 0:
            raise DegenerateMeasureError(f"level {k} is empty")
    uppers = tuple(
        math.log(cset.P(k)) / math.log(cset.params.M(k)) for k in range(1, cset.depth + 1)
    )
    lowers = tuple(
        math.log(cset.P(k) / cset.params.level_N(k)) / math.log(cset.params.M(k - 1))
        for k in range(2, cset.depth + 1)
    )
    return DimensionReport(uppers, lowers, upper=min(uppers), lower=min(lowers))


def dimension_limit_symbolic(params: ConstructionParams) -> dict[str, Fraction]:
    """Deep limits of the two quotient sequences, by exact algebra.

    With P_k replaced by its expected scale prod N_j^(1-eps_j) (the bounded
    2^{±k} factor drops out against log M_k ~ k^2), both quotients become
    ratios of quadratics in k; the limit is the ratio of leading
    coefficients.  Only the two named regimes admit a closed form.
    """
    if params.regime == REGIME_ONE_DIM:
        # numerator exponent sum:   sum_{j<=k} j          = k^2/2 + ...
        # denominator exponent sum: sum_{j<=k} (j+1)      = k^2/2 + ...
        upper = Fraction(1)
        # lower: (sum_{j<=k} j - (k+1)) / sum_{j<=k-1} (j+1)
        lower = Fraction(1)
        return {"upper": upper, "lower": lower}
    if params.regime == REGIME_FIXED_DIM:
        eps = Fraction(params.epsilon)
        # numerator (1-eps) sum j vs denominator sum j: leading ratio 1-eps
        upper = 1 - eps
        # lower: ((1-eps) k(k+1)/2 - k) / ((k-1)k/2): leading ratio 1-eps
        lower = 1 - eps
        return {"upper": upper, "lower": lower}
    raise InsufficientDepthError("symbolic limits exist only for the named regimes")


def _least_squares_slope(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx if sxx else float("nan")
