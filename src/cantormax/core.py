"""Exact representation of the nested interval iteration.

Level-k selections are stored as sorted integer offsets o in [0, M_k): the
selected interval is [1 + o*delta_k, 1 + (o+1)*delta_k], and a multi-index
(i_1, ..., i_k) with 1-based digits corresponds to
o = sum_j (i_j - 1) * M_k/M_j.  Offsets keep deep levels compact while every
derived quantity (densities, masses) stays an exact rational.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

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
from .stepfn import StepFunction, _clear_denominators

MultiIndex = tuple[int, ...]

SET_SCHEMA_VERSION = 1


def index_of(offset: int, k: int, params: ConstructionParams) -> MultiIndex:
    digits = []
    for j in range(k, 0, -1):
        N_j = params.level_N(j)
        offset, d = divmod(offset, N_j)
        digits.append(d + 1)
    if offset:
        raise InvalidIndexError("offset out of range for level")
    return tuple(reversed(digits))


@dataclass(frozen=True, eq=False)
class CantorLevel:
    k: int
    N_k: int
    M_k: int
    offsets: np.ndarray  # sorted, distinct, in [0, M_k); int64, read-only

    def __post_init__(self):
        arr = np.asarray(self.offsets, dtype=np.int64)
        if arr is self.offsets and arr.flags.writeable:
            arr = arr.copy()  # the caller's array stays writeable
        arr.flags.writeable = False
        object.__setattr__(self, "offsets", arr)

    def __eq__(self, other):
        if not isinstance(other, CantorLevel):
            return NotImplemented
        same = (self.k, self.N_k, self.M_k) == (other.k, other.N_k, other.M_k)
        return same and np.array_equal(self.offsets, other.offsets)

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
        return self._runs

    @cached_property
    def _runs(self) -> np.ndarray:
        arr = self.offsets
        if not len(arr):
            return np.empty((0, 2), dtype=np.int64)
        last = np.flatnonzero(np.diff(arr) > 1)  # the last offset of every run but the last
        runs = np.empty((len(last) + 1, 2), dtype=np.int64)
        runs[0, 0], runs[-1, 1] = arr[0], arr[-1]
        # every index is below len(arr); "wrap" spares take its buffered bounds check
        np.take(arr, last, out=runs[:-1, 1], mode="wrap")
        last += 1
        np.take(arr, last, out=runs[1:, 0], mode="wrap")
        runs[:, 1] += 1
        runs.flags.writeable = False
        return runs


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
        """What breaks the nesting, order, range or subdivision of the
        levels; checked once per set."""
        return list(self._problems)

    @cached_property
    def _problems(self) -> list[str]:
        problems = []
        parents, parents_clean = None, False
        for idx, lv in enumerate(self.levels):
            k = idx + 1
            if lv.k != k:
                problems.append(f"level list out of order at {k}")
            if lv.N_k != self.params.level_N(k) or lv.M_k != self.params.M(k):
                problems.append(f"level {k} subdivision disagrees with params")
            arr = lv.offsets
            ordered = bool((arr[1:] > arr[:-1]).all())
            if not ordered:
                problems.append(f"level {k} offsets not sorted/distinct")
            in_range = not len(arr) or bool(arr.min() >= 0 and arr.max() < lv.M_k)
            if not in_range:
                problems.append(f"level {k} offset out of range")
            if parents is not None:
                # with the children ascending and the parents ascending and in
                # range (so that p * N_k cannot wrap), no child is an orphan
                # when the parents' windows [p N_k, (p + 1) N_k) hold them all
                starts = parents * lv.N_k
                if not (ordered and parents_clean) or len(arr) != int(
                    (np.searchsorted(arr, starts + lv.N_k) - np.searchsorted(arr, starts)).sum()
                ):
                    # only an offset in range can be decoded into an index
                    orphan = (arr >= 0) & (arr < lv.M_k) & np.isin(arr // lv.N_k, parents, invert=True)
                    if orphan.any():
                        bad = index_of(int(arr[np.argmax(orphan)]), k, self.params)
                        problems.append(f"index {bad} at level {k} has unselected parent")
            parents, parents_clean = arr, ordered and in_range
        return problems

    def run_moments(self, k: int) -> RunMoments:
        """Prefix moments of the runs of S_k, built on first use."""
        if k not in self._moments_cache:
            lv = self.level(k)
            self._moments_cache[k] = RunMoments(lv.runs(), lv.M_k)
        return self._moments_cache[k]

    # -- densities -----------------------------------------------------------

    def density_integral(self, k: int) -> Fraction:
        """The integral of phi_k = 1_{S_k}/|S_k|, exact: the total length of
        the runs of S_k over P_k, read without building phi_k."""
        lv = self.level(k)
        if lv.P == 0:
            raise DegenerateMeasureError(f"level {k} is empty; phi_{k} undefined")
        runs = lv.runs()
        return Fraction(int((runs[:, 1] - runs[:, 0]).sum()), lv.P)

    def sigma(self, k: int) -> StepFunction:
        """sigma_k = phi_{k+1} - phi_k, exact; support inside S_k.

        A stretch between run bounds on the child grid has the class of the
        number of runs covering it: 0 off S_k, 1 (b = -M_k/P_k) on S_k minus
        S_{k+1} and 2 (a = M_{k+1}/P_{k+1} + b) on S_{k+1}.  Both levels' run
        bounds ascend, so one ``searchsorted`` places the parent bounds among
        the child bounds, and the count is the running sum of +1 at starts
        and -1 at ends.  Assumes that level k+1 nests in level k, which
        ``structure_problems`` checks: a child run outside every parent run
        is covered once, so it gets b there, not phi_(k+1) - phi_k."""
        if k in self._sigma_cache:
            return self._sigma_cache[k]
        if k + 1 > self.depth:
            raise InsufficientDepthError(f"sigma_{k} needs level {k + 1}")
        parent, child = self.level(k), self.level(k + 1)
        if parent.P == 0 or child.P == 0:
            raise DegenerateMeasureError(f"sigma_{k} needs nonempty levels {k} and {k + 1}")
        b = -Fraction(parent.M_k, parent.P)
        levels, vden = _clear_denominators([0, b, Fraction(child.M_k, child.P) + b])
        bounds = child.runs().ravel()
        parent_bounds = (parent.runs() * child.N_k).ravel()
        at = np.searchsorted(bounds, parent_bounds)
        # a parent bound that equals a child bound shares its slot; any other
        # takes a slot of its own, after the parent bounds before it
        new = bounds[np.minimum(at, len(bounds) - 1)] != parent_bounds
        slots = at + np.cumsum(new) - new
        of_child = np.ones(len(bounds) + int(new.sum()), dtype=bool)
        of_child[slots[new]] = False
        ends = np.empty(len(of_child), dtype=np.int64)
        ends[of_child] = bounds
        ends[slots] = parent_bounds
        ends += child.M_k
        # a start steps the covering count by +1, an end by -1; the count
        # reaches 2 at most, as neither level's runs overlap
        start_end = np.array([1, -1], dtype=np.int8)
        steps = np.zeros(len(of_child), dtype=np.int8)
        steps[of_child] = np.tile(start_end, len(bounds) // 2)
        steps[slots] += np.tile(start_end, len(parent_bounds) // 2)
        classes = np.cumsum(steps[:-1], dtype=np.int8)
        fn = StepFunction.from_classes(ends, child.M_k, levels, classes, vden)
        self._sigma_cache[k] = fn
        return fn

    # -- measures ------------------------------------------------------------

    def descendant_counts(self, k: int, k2: int) -> np.ndarray:
        """Selected level-k2 offsets under each selected level-k offset, in
        level-k order, for k <= k2."""
        ratio = self.level(k2).M_k // self.level(k).M_k
        parents = self.level(k).offsets * ratio
        children = self.level(k2).offsets
        return np.searchsorted(children, parents + ratio) - np.searchsorted(children, parents)

    # -- covering counts -------------------------------------------------------

    def box_count(self, k: int) -> int:
        """Number of level-k grid cells meeting S_K."""
        lv = self.level(k)
        deepest = self.level(self.depth)
        ratio = deepest.M_k // lv.M_k
        return len(np.unique(deepest.offsets // ratio))

    def box_count_report(self) -> dict:
        counts = [self.box_count(k) for k in range(1, self.depth + 1)]
        xs = [math.log(self.params.M(k)) for k in range(1, self.depth + 1)]
        ys = [math.log(c) if c > 0 else float("-inf") for c in counts]
        slope = _least_squares_slope(xs, ys)
        return {"counts": counts, "log_scales": xs, "slope": slope}

    # -- serialization ---------------------------------------------------------

    def to_json_bytes(self) -> bytes:
        """The set file: the bytes of ``json.dumps`` with ``sort_keys=True``
        and ``separators=(",", ":")`` of the object holding
        ``schema_version``, ``params``, ``accepted_retries`` (a list, or null
        when there are none) and per level ``k``, ``N_k``, ``P_k`` and
        ``selected``, the list of its offsets.  Only the small rest goes
        through ``json.dumps``, with an empty list in each ``selected``; the
        offsets are written from the int64 arrays by ``_offset_blocks``,
        which needs them ascending in [0, M_k): a set that fails the (cached)
        structure check raises ``StructureError`` and writes nothing."""
        problems = self.structure_problems()
        if problems:
            raise StructureError("; ".join(problems))
        skeleton = {
            "schema_version": SET_SCHEMA_VERSION,
            "params": self.params.to_json_dict(),
            "accepted_retries": list(self.accepted_retries) if self.accepted_retries else None,
            "levels": [
                # offsets encode multi-indices: o = sum (i_j - 1) M_k/M_j
                {"k": lv.k, "N_k": lv.N_k, "P_k": lv.P, "selected": []}
                for lv in self.levels
            ],
        }
        text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
        head, *tails = text.split('"selected":[]')
        parts = [head.encode("ascii")]
        for lv, tail in zip(self.levels, tails, strict=True):
            parts += [b'"selected":[', *_offset_blocks(lv.offsets), b"]", tail.encode("ascii")]
        return b"".join(parts)

    @classmethod
    def from_json_dict(cls, d: dict) -> "CantorSet":
        """Parse and check a set file; a malformed one raises ``FormatError``,
        a well-formed one that is not a nested family ``StructureError``.

        A level's ``selected`` is a list of ints or a one-dimensional int64
        array; either way its ``N_k``, ``P_k`` and the structure are checked."""
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
                if isinstance(selected, np.ndarray):
                    ints = selected.dtype == np.int64 and selected.ndim == 1
                else:
                    ints = isinstance(selected, list) and not set(map(type, selected)) - {int}
                if not ints:
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
                        offsets=selected,
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
    def from_json(cls, data: bytes | str) -> "CantorSet":
        """Parse and check a set file, given as its bytes or its text.
        Offset lists in the writer's compact form are read straight into
        int64 arrays (``_compact_set_dict``); any other input is decoded as
        UTF-8 and goes through ``json.loads`` whole, with the same checks."""
        raw = data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
        d = _compact_set_dict(raw)
        if d is None:
            try:
                text = data if isinstance(data, str) else data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"set file is not UTF-8: {exc}") from exc
            try:
                d = json.loads(text)
            except json.JSONDecodeError as exc:
                raise FormatError(f"set file is not valid JSON: {exc}") from exc
        return cls.from_json_dict(d)


def _compact_set_dict(data: bytes) -> dict | None:
    """``json.loads`` of a set file's bytes with each level's ``selected``
    as an int64 array, or None unless every ``"selected":[...]`` list in
    the bytes is plain (see ``_offset_list``) and is the ``selected`` of
    its own level.

    The lists are cut out of the bytes, and the small rest is decoded as
    UTF-8 and parsed with a ``NaN`` in place of each; ``parse_constant``
    turns every ``NaN`` into a fresh marker, so a list is used only where
    its own marker comes back."""
    pieces, arrays = [], []
    at = 0
    while (start := data.find(b'"selected":[', at)) >= 0:
        start += len(b'"selected":')
        end = data.find(b"]", start)
        offsets = _offset_list(data, start + 1, end) if end >= 0 else None
        if offsets is None:
            return None
        pieces += [data[at:start], b"NaN"]
        arrays.append(offsets)
        at = end + 1
    pieces.append(data[at:])
    markers = []

    def marker(_):
        markers.append(object())
        return markers[-1]

    try:
        # a decoding error is a ValueError too
        d = json.loads(b"".join(pieces).decode("utf-8"), parse_constant=marker)
    except ValueError:
        return None
    entries = d.get("levels") if isinstance(d, dict) else None
    if not (
        isinstance(entries, list)
        and len(entries) == len(markers) == len(arrays)
        and all(isinstance(e, dict) and e.get("selected") is m for e, m in zip(entries, markers))
    ):
        return None
    for entry, offsets in zip(entries, arrays):
        entry["selected"] = offsets
    return d


# 10, 10^2, ..., 10^18: the least values of 2, ..., 19 digits
_DIGIT_EDGES = 10 ** np.arange(1, 19, dtype=np.int64)
_PIECE = 1 << 16


def _offset_list(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The int64 array of the JSON list body ``data[start:end]``, or None
    unless it is ascending fields of 1-18 ASCII digits without a leading
    zero, comma-separated: plain ints below 10^18.

    ``np.fromstring`` parses the body, and one length identity accepts it:
    no byte is above ``9``, there are n values for the n - 1 bytes below
    ``0``, they ascend from >= 0 to < 10^18, and the values' digit counts
    plus n - 1 make up the body.  Each value after the first needs a comma
    before it, so the n - 1 bytes below ``0`` are all commas and the rest
    are digits.  A field is at least as long as its value's digits, and as
    long only without a leading zero, so the identity holds exactly when
    every field is its value's text.  A field that ``np.fromstring``
    saturates to 2^63 - 1 can have as many digits as that value, so the
    bound below 10^18 is what refuses it.  The
    bytes are counted and parsed about 65,536 at a time, cut at commas, so
    the array is the one full-size allocation."""
    if start == end:
        return np.empty(0, dtype=np.int64)
    b = np.frombuffer(data, dtype=np.uint8, count=end - start, offset=start)
    if b.max() > ord("9"):
        return None
    commas = sum(np.count_nonzero(b[at : at + _PIECE] < ord("0")) for at in range(0, len(b), _PIECE))
    n = commas + 1
    offsets = np.empty(n, dtype=np.int64)
    filled = 0
    while start < end:
        cut = data.find(b",", start + _PIECE, end)
        cut = end if cut < 0 else cut
        try:
            part = np.fromstring(data[start:cut], dtype=np.int64, sep=",")
        except ValueError:
            return None
        # every value after the first follows a comma: never more than n
        offsets[filled : filled + len(part)] = part
        filled += len(part)
        start = cut + 1
    if filled != n or offsets[0] < 0 or offsets[-1] >= 10**18:
        return None
    if not (offsets[1:] > offsets[:-1]).all():
        return None
    # a value's digit count is 1 + the edges at or below it
    digits = 19 * n - int(np.searchsorted(offsets, _DIGIT_EDGES).sum())
    if digits + commas != len(b):
        return None
    offsets.flags.writeable = False  # handed to its level as it is
    return offsets


@cache
def _digit_groups() -> np.ndarray:
    """The ASCII text of 0000..9999, four bytes in one uint32 each."""
    text = "".join(f"{i:04d}" for i in range(10000))
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


def _offset_blocks(offsets: np.ndarray) -> list:
    """The body of the JSON list of an int64 array that ascends from 0 or
    more, as a checked level's offsets do, as bytes-like blocks to join: the
    text ``json.dumps`` gives each value, comma-separated.

    The array is cut wherever the length of the values' text changes (one
    ``searchsorted`` of ``_DIGIT_EDGES``) and every 65,536 values (small
    temporaries).  Each piece is written at once: its values split into
    groups of four digits by integer division, each group's ASCII bytes
    gathered from ``_digit_groups``, and one strided slice of the rows keeps
    each value's text with a comma before it."""
    n = len(offsets)
    if not n:
        return []
    cuts = sorted({*np.searchsorted(offsets, _DIGIT_EDGES).tolist(), *range(0, n, _PIECE), n})
    blocks = [_field_block(offsets[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    blocks[0] = memoryview(blocks[0])[1:]  # no comma before the first value
    return blocks


def _field_block(values: np.ndarray) -> bytes:
    """Each value's text with a comma before it, for values >= 0 whose text
    has one length."""
    field = str(int(values[0]))
    groups = -(-len(field) // 4)
    table = _digit_groups()
    # a row is one spare uint32 for the comma, then the groups
    rows = np.empty((len(values), groups + 1), dtype=np.uint32)
    rest = values.view(np.uint64)
    # every index is below 10000; "wrap" spares take its buffered bounds check
    for j in range(groups, 1, -1):
        high = rest // 10000
        low = high * 10000
        np.subtract(rest, low, out=low)
        np.take(table, low.view(np.int64), out=rows[:, j], mode="wrap")
        rest = high
    np.take(table, rest.view(np.int64), out=rows[:, 1], mode="wrap")
    row_bytes = rows.view(np.uint8)
    block = row_bytes[:, row_bytes.shape[1] - len(field) - 1 :]
    block[:, 0] = ord(",")
    return block.tobytes()


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
