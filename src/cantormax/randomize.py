"""Randomized layer-by-layer selection with rejection against acceptance gates.

Each level k+1 is an iid Bernoulli layer with success probability
p_{k+1} = N_{k+1}^(-eps_{k+1}) over the children of selected parents; a drawn
layer is kept only if the count gates (a)-(b), the per-parent deviation gate
(d) and the sampled correlation gate (c) all pass, otherwise it is redrawn
with a fresh derived stream.  Earlier levels are never revisited.

Threshold arithmetic: comparisons that admit integer forms are exact; the
ones involving logs or square roots are evaluated in floats nudged in the
acceptance-unfavorable direction, so float error can only cause a false
rejection, never a false acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CantorLevel, CantorSet
from .correlation import _transverse_scan, c0_constant
from .errors import CapacityError, ConstructionFailure, DomainError, EmptySampleError
from .params import ConstructionParams, nudge

GATE_C_STREAM_TAG = 7
TRANSCRIPT_SCHEMA_VERSION = 1


@dataclass
class GateReport:
    """Measured-vs-threshold record for one gate evaluation."""

    level: int
    gate: str  # "a" | "b" | "c" | "d" | "boundedness"
    measured: float | None
    threshold: float | None
    passed: bool
    detail: str = ""
    measured_exact: str | None = None
    attempt: int | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": TRANSCRIPT_SCHEMA_VERSION,
            "level": self.level,
            "gate": self.gate,
            "measured": self.measured,
            "threshold": self.threshold,
            "passed": self.passed,
            "detail": self.detail,
            "measured_exact": self.measured_exact,
            "attempt": self.attempt,
            **({"extras": self.extras} if self.extras else {}),
        }


# ---------------------------------------------------------------------------
# deterministic random streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """Root of a deterministic stream tree: identical (seed, path) gives
    identical draws."""

    seed: int

    def child(self, *path: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(path))
        return np.random.Generator(np.random.PCG64(ss))


DRAW_CAP = 10**9
DRAW_CHUNK = 8_000_000  # uniforms drawn per block of parents


def bernoulli_layer(
    parent_offsets,
    N_next: int,
    p: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent child draws under every selected parent.

    Children of unselected parents are never drawn.  Returns sorted child
    offsets; ``parent_offsets=None`` draws the root layer over N_next slots.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability {p} outside [0, 1]")
    if parent_offsets is None:
        if N_next > DRAW_CAP:
            raise CapacityError(f"root layer needs {N_next} draws, above {DRAW_CAP}")
        mask = rng.random(N_next) < p
        return np.flatnonzero(mask).astype(np.int64)
    parents = np.asarray(parent_offsets, dtype=np.int64)
    if len(parents) * N_next > DRAW_CAP:
        raise CapacityError(
            f"layer needs {len(parents) * N_next} draws, above {DRAW_CAP}"
        )
    if len(parents) == 0:
        return np.empty(0, dtype=np.int64)
    out = []
    per_block = max(1, DRAW_CHUNK // N_next)
    for i in range(0, len(parents), per_block):
        block = parents[i : i + per_block]
        mask = rng.random(len(block) * N_next) < p
        hits = np.flatnonzero(mask)
        out.append(block[hits // N_next] * N_next + hits % N_next)
    return np.sort(np.concatenate(out)) if out else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _growth_product_bounds(params: ConstructionParams, k: int):
    """Integer data for prod_{j<=k} N_j^(1-eps_j) comparisons."""
    B = 1
    for j in range(1, k + 1):
        B = math.lcm(B, params.level_eps(j).denominator)
    prod_pow = 1  # prod N_j^((1-eps_j) * B), an exact integer
    for j in range(1, k + 1):
        e = (1 - params.level_eps(j)) * B
        prod_pow *= params.level_N(j) ** int(e)
    return B, prod_pow


def gate_counts(cset: CantorSet, k: int) -> tuple[GateReport, GateReport]:
    """Gates (a) and (b) at level k, with exact comparisons where possible."""
    params = cset.params
    P = cset.P(k)
    B_lcm, prod_pow = _growth_product_bounds(params, k)
    # (a):  2^-k prod <= P_k <= 2^k prod
    lower_ok = prod_pow <= (P << k) ** B_lcm if P > 0 else False
    upper_ok = P**B_lcm <= (1 << (k * B_lcm)) * prod_pow
    growth = math.exp(math.log(prod_pow) / B_lcm)
    rep_a = GateReport(
        level=k,
        gate="a",
        measured=float(P),
        threshold=None,
        passed=lower_ok and upper_ok,
        detail=f"bounds [{growth / 2**k:.6g}, {growth * 2**k:.6g}] (exact comparison)",
        measured_exact=str(P),
        extras={"lower_ok": lower_ok, "upper_ok": upper_ok},
    )
    # (b):  |P_k - Q_k| <= B sqrt(Q_k)
    Q_exact = cset.Q_exact(k)
    Bc = params.B
    if Q_exact is not None:
        dev = abs(P - Q_exact)
        passed = dev * dev <= Bc * Bc * Q_exact
        rep_b = GateReport(
            level=k,
            gate="b",
            measured=float(dev),
            threshold=float(Bc) * math.sqrt(float(Q_exact)),
            passed=passed,
            detail="exact comparison of squared deviation",
            measured_exact=f"{dev.numerator}/{dev.denominator}",
        )
    else:
        Q = cset.Q(k)
        dev_hi = max(abs(P - nudge(Q, up=False)), abs(P - nudge(Q, up=True)))
        thr_lo = nudge(float(Bc) * math.sqrt(nudge(Q, up=False)), up=False)
        rep_b = GateReport(
            level=k,
            gate="b",
            measured=dev_hi,
            threshold=thr_lo,
            passed=dev_hi <= thr_lo,
            detail="float comparison, rounded against acceptance",
        )
    return rep_a, rep_b


def gate_deviation(cset: CantorSet, k_child: int) -> GateReport:
    """Gate (d) for the layer into level k_child: per-parent count deviation."""
    if k_child < 2:
        raise DomainError("gate (d) applies to levels >= 2")
    params = cset.params
    parent = cset.level(k_child - 1)
    child = cset.level(k_child)
    N_next = child.N_k
    parents = np.asarray(parent.offsets, dtype=np.int64)
    counts = np.zeros(len(parents), dtype=np.int64)
    if child.P:
        owner = np.asarray(child.offsets, dtype=np.int64) // N_next
        pos = np.searchsorted(parents, owner)
        counts = np.bincount(pos, minlength=len(parents))
    cmax = int(counts.max()) if len(counts) else 0
    cmin = int(counts.min()) if len(counts) else 0
    growth = params.expected_growth(k_child)  # N^(1-eps), exact when rational
    if growth is not None:
        dev = max(abs(cmax - growth), abs(cmin - growth))
        measured = float(dev)
        measured_exact = f"{dev.numerator}/{dev.denominator}"
    else:
        g = params.expected_growth_float(k_child)
        dev = max(abs(c - nudge(g, up)) for c in (cmax, cmin) for up in (False, True))
        measured = dev
        measured_exact = None
    ln_arg = 4.0 * float(params.B) * max(parent.P, 1)
    thr = nudge(math.sqrt(8.0 * params.expected_growth_float(k_child) * math.log(ln_arg)), up=False)
    passed = (float(dev) if growth is None else dev) <= thr
    return GateReport(
        level=k_child,
        gate="d",
        measured=measured,
        threshold=thr,
        passed=bool(passed),
        detail=f"sup over {len(parents)} parents of |sum (X - p)|",
        measured_exact=measured_exact,
        extras={"count_max": cmax, "count_min": cmin},
    )


def gate_correlation(
    cset: CantorSet,
    k: int,
    n: int,
    budget: int,
    rng: np.random.Generator,
) -> GateReport:
    """Gate (c): sup over transverse tuples of |Lambda(A; sigma_k)| vs C0.

    The sup comes from the transverse scan shared with
    ``correlation.sup_lambda_tr``: exhaustive over the grid when it is tiny,
    sampled otherwise, with the coverage mode recorded — a sampled sup is never certified.  A sample
    with no transverse tuples passes vacuously (the sup over the empty set
    is 0) and says so.
    """
    if budget < 1:
        raise EmptySampleError("gate (c) needs a sampling budget >= 1")
    c0_gate = c0_constant(cset.params, n, k, rounding="down")
    scan = _transverse_scan(cset, n, k, budget, rng)
    best, seen, total = scan.max_abs, scan.transverse_seen, len(scan.candidates)
    passed = best <= c0_gate
    detail = f"{seen}/{total} tuples transverse; {scan.coverage['mode']} coverage"
    extras = {"n": n, "coverage": scan.coverage, "transverse_seen": seen}
    if scan.witness is not None and not passed:
        extras["witness"] = [[str(c), str(r)] for c, r in scan.witness.pairs]
    if seen == 0:
        detail = f"no transverse tuples among {total}; gate passes vacuously"
    return GateReport(
        level=k + 1,
        gate="c",
        measured=float(best),
        threshold=c0_gate,
        passed=passed,
        detail=detail,
        measured_exact=f"{best.numerator}/{best.denominator}",
        extras=extras,
    )


def boundedness_check(params: ConstructionParams) -> GateReport:
    """Schedule condition sup_k 2^((5+gamma)k) ln(M_k) / N_{k+1}^(1-eps_{k+1}) <= 1/32,
    over k <= K = params.depth."""
    K = params.depth
    limit = params.schedule_len()
    k_max = K if limit is None else min(K, limit - 1)
    worst = 0.0
    worst_k = 0
    for k in range(1, k_max + 1):
        lhs = nudge(
            2.0 ** ((5 + float(params.gamma)) * k)
            * math.log(params.M(k))
            / params.expected_growth_float(k + 1),
            up=True,
        )
        if lhs > worst:
            worst, worst_k = lhs, k
    detail = f"max attained at k={worst_k} over k<=K={k_max}"
    if limit is not None and k_max < K:
        detail += f" (custom schedule ends at N_{limit})"
    return GateReport(
        level=worst_k,
        gate="boundedness",
        measured=worst,
        threshold=1.0 / 32.0,
        passed=worst <= 1.0 / 32.0,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# large-deviation utility bounds
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
# construction loop
# ---------------------------------------------------------------------------


def _level_gates(cset, k, attempt, stream, gate_c_n, gate_c_budget) -> list[GateReport]:
    """The gates of level k in order: counts, then from level 2 on deviation
    and, when levels k-1 and k are nonempty, correlation of sigma_(k-1) on
    the attempt's own stream."""
    reports = list(gate_counts(cset, k))
    if k >= 2:
        reports.append(gate_deviation(cset, k))
        if cset.P(k) > 0 and cset.P(k - 1) > 0:
            rng = stream.child(k, attempt, GATE_C_STREAM_TAG)
            reports.append(gate_correlation(cset, k - 1, gate_c_n, gate_c_budget, rng))
    return reports


def construct(
    params: ConstructionParams,
    gate_c_n: int = 2,
    gate_c_budget: int = 8,
) -> tuple[CantorSet, list[GateReport]]:
    """Draw levels, redrawing each until its gates pass; deterministic in seed.

    Per level at most ``params.max_retries`` attempts are made; failure raises
    ConstructionFailure carrying the full transcript.  Earlier levels are
    never revisited.
    """
    stream = RngStream(params.seed)
    levels: list[CantorLevel] = []
    retries: list[int] = []
    transcript: list[GateReport] = []
    for lev in range(1, params.depth + 1):
        accepted = False
        for attempt in range(params.max_retries):
            rng = stream.child(lev, attempt)
            if lev == 1:
                offsets = bernoulli_layer(None, params.level_N(1), params.p_float(1), rng)
            else:
                offsets = bernoulli_layer(
                    levels[-1].offsets, params.level_N(lev), params.p_float(lev), rng
                )
            cand_level = CantorLevel(
                k=lev,
                N_k=params.level_N(lev),
                M_k=params.M(lev),
                offsets=tuple(int(o) for o in offsets),
            )
            cand = CantorSet(params, levels + [cand_level], validate=False)
            reports = _level_gates(cand, lev, attempt, stream, gate_c_n, gate_c_budget)
            for rep in reports:
                rep.attempt = attempt
            transcript.extend(reports)
            if all(rep.passed for rep in reports):
                levels.append(cand_level)
                retries.append(attempt)
                accepted = True
                break
        if not accepted:
            raise ConstructionFailure(
                f"level {lev}: gates failed in all {params.max_retries} attempts",
                transcript,
            )
    cset = CantorSet(params, levels, accepted_retries=tuple(retries))
    return cset, transcript


def verify_set(
    cset: CantorSet,
    gate_c_n: int = 2,
    gate_c_budget: int = 8,
) -> tuple[bool, list[GateReport]]:
    """Re-run every gate and core invariant on a stored set from scratch.

    Gate (c) replays the construction's derived sampling streams (recorded
    accepted-retry indices), so an accepted set reproduces its transcript.
    """
    reports: list[GateReport] = []
    problems = cset.structure_problems()
    reports.append(
        GateReport(
            level=0,
            gate="structure",
            measured=float(len(problems)),
            threshold=0.0,
            passed=not problems,
            detail="; ".join(problems) if problems else "nesting/tiling/counts ok",
        )
    )
    norm_ok = True
    detail = []
    for k in range(1, cset.depth + 1):
        if cset.P(k) == 0:
            norm_ok = False
            detail.append(f"level {k} empty")
            continue
        if cset.density(k).integral() != 1:
            norm_ok = False
            detail.append(f"integral phi_{k} != 1")
    for k in range(1, cset.depth):
        if cset.P(k) and cset.P(k + 1) and cset.sigma(k).integral() != 0:
            norm_ok = False
            detail.append(f"integral sigma_{k} != 0")
    reports.append(
        GateReport(
            level=0,
            gate="normalization",
            measured=None,
            threshold=None,
            passed=norm_ok,
            detail="; ".join(detail) if detail else "exact normalization holds",
        )
    )
    stream = RngStream(cset.params.seed)
    retries = cset.accepted_retries or (0,) * cset.depth
    for k in range(1, cset.depth + 1):
        reports.extend(_level_gates(cset, k, retries[k - 1], stream, gate_c_n, gate_c_budget))
    ok = all(rep.passed for rep in reports)
    return ok, reports
