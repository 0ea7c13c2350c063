"""Parameter schedules for the nested random subdivision.

Two named regimes are supported besides fully custom schedules:

* ``one-dimensional``:  N_k = N^(k+1), eps_k = 1/(k+1)   (limit set of full dimension)
* ``fixed-dimension``:  N_k = N^k,     eps_k = eps        (limit set of dimension 1-eps)

All schedule values are exact rationals; the per-level selection probability
p_k = N_k^(-eps_k) is irrational in general and only ever used as a sampling
probability or inside conservative float bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

REGIME_ONE_DIM = "one-dimensional"
REGIME_FIXED_DIM = "fixed-dimension"
REGIME_CUSTOM = "custom"

_REGIMES = (REGIME_ONE_DIM, REGIME_FIXED_DIM, REGIME_CUSTOM)


def nudge(x: float, up: bool) -> float:
    """x moved 8 ulps up or down.

    Float thresholds are nudged against acceptance, so float error can only
    cause a false rejection, never a false acceptance.
    """
    target = math.inf if up else -math.inf
    for _ in range(8):
        x = math.nextafter(x, target)
    return x


def _integer_root(x: int, n: int) -> int:
    """Floor n-th root by Newton iteration; exact for any size of x.

    Starts from a power-of-two upper bound, from which the integer Newton
    step decreases monotonically to within one of the root.
    """
    if x < 2 or n == 1:
        return x
    guess = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            break
        guess = nxt
    while guess**n > x:
        guess -= 1
    while (guess + 1) ** n <= x:
        guess += 1
    return guess


def exact_pow(base: int, exponent: Fraction) -> Fraction | None:
    """base**exponent as an exact rational, or None when irrational.

    Works by extracting an exact integer root of base**numerator.
    """
    if base <= 0:
        raise ParameterError(f"exact_pow needs a positive base, got {base}")
    exponent = Fraction(exponent)
    num, den = exponent.numerator, exponent.denominator
    invert = num < 0
    num = abs(num)
    power = base**num
    root = _integer_root(power, den)
    if root**den != power:
        return None
    return Fraction(1, root) if invert else Fraction(root)


@dataclass(frozen=True)
class ConstructionParams:
    """All scalar knobs of the iteration.

    ``depth`` is the number of constructed levels K.  For the named regimes
    the schedules extend past K on demand (needed e.g. by the boundedness
    check, which looks at N_(K+1)).
    """

    regime: str
    N: int | None = None
    epsilon: Fraction | None = None
    level_counts: tuple[int, ...] = ()
    epsilon_schedule: tuple[Fraction, ...] = ()
    depth: int = 3
    B: Fraction = Fraction(10)
    L: int = 2
    epsilon0: Fraction = Fraction(1, 2)
    gamma: Fraction = Fraction(1)
    seed: int = 0
    max_retries: int = 50

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise ParameterError(f"unknown regime {self.regime!r}; expected one of {_REGIMES}")
        if self.depth < 1:
            raise ParameterError("depth K must be >= 1")
        if self.B <= 0:
            raise ParameterError("B must be positive")
        if self.L < 1:
            raise ParameterError("L must be a positive integer")
        if not (0 < self.epsilon0 < 1):
            raise ParameterError("epsilon0 must lie in (0, 1)")
        if self.gamma <= 0:
            raise ParameterError("gamma must be positive")
        if self.max_retries < 0:
            raise ParameterError("max_retries must be >= 0")
        if not (0 <= self.seed < 2**64):
            raise ParameterError("seed must lie in [0, 2^64)")
        if self.regime in (REGIME_ONE_DIM, REGIME_FIXED_DIM):
            if self.N is None or self.N < 2:
                raise ParameterError(f"regime {self.regime} needs an integer base N >= 2")
        if self.regime == REGIME_FIXED_DIM:
            if self.epsilon is None or not (0 < self.epsilon < Fraction(1, 3)):
                raise ParameterError("fixed-dimension regime needs 0 < epsilon < 1/3")
        if self.regime == REGIME_CUSTOM:
            if not self.level_counts or not self.epsilon_schedule:
                raise ParameterError("custom regime needs level_counts and epsilon_schedule")
            if len(self.level_counts) < self.depth or len(self.epsilon_schedule) < self.depth:
                raise ParameterError("custom schedules must cover all K levels")
            for N_k in self.level_counts:
                if N_k < 2:
                    raise ParameterError("every N_k must be an integer >= 2")
            for eps in self.epsilon_schedule:
                # The one-dimensional regime starts at eps_1 = 1/2, so the
                # closed right endpoint is deliberate.
                if not (0 < eps <= Fraction(1, 2)):
                    raise ParameterError("every eps_k must lie in (0, 1/2]")

    # -- schedules ---------------------------------------------------------

    def schedule_len(self) -> int | None:
        """Largest level with a defined N_k; None when unbounded (named regimes)."""
        if self.regime == REGIME_CUSTOM:
            return len(self.level_counts)
        return None

    def level_N(self, k: int) -> int:
        if k < 1:
            raise ParameterError("levels are 1-based")
        if self.regime == REGIME_ONE_DIM:
            return self.N ** (k + 1)
        if self.regime == REGIME_FIXED_DIM:
            return self.N**k
        try:
            return self.level_counts[k - 1]
        except IndexError:
            raise ParameterError(f"custom schedule has no N_{k}") from None

    def level_eps(self, k: int) -> Fraction:
        if k < 1:
            raise ParameterError("levels are 1-based")
        if self.regime == REGIME_ONE_DIM:
            return Fraction(1, k + 1)
        if self.regime == REGIME_FIXED_DIM:
            return Fraction(self.epsilon)
        try:
            return Fraction(self.epsilon_schedule[k - 1])
        except IndexError:
            raise ParameterError(f"custom schedule has no eps_{k}") from None

    def M(self, k: int) -> int:
        """M_k = N_1 N_2 ... N_k (M_0 = 1)."""
        out = 1
        for j in range(1, k + 1):
            out *= self.level_N(j)
        return out

    def delta(self, k: int) -> Fraction:
        return Fraction(1, self.M(k))

    def p_float(self, k: int) -> float:
        """Selection probability p_k = N_k^(-eps_k), as a float in [0, 1]."""
        N_k, eps = self.level_N(k), self.level_eps(k)
        p = math.exp(-float(eps) * math.log(N_k))
        return min(1.0, max(0.0, p))

    def expected_growth(self, k: int) -> Fraction | None:
        """N_k^(1-eps_k) exactly when it is rational, else None."""
        return exact_pow(self.level_N(k), 1 - self.level_eps(k))

    def expected_growth_float(self, k: int) -> float:
        N_k, eps = self.level_N(k), self.level_eps(k)
        return math.exp((1.0 - float(eps)) * math.log(N_k))

    @property
    def q_epsilon(self) -> Fraction | None:
        """(1+eps)/(2 eps), reported for fixed-dimension runs."""
        if self.regime == REGIME_FIXED_DIM and self.epsilon:
            return (1 + self.epsilon) / (2 * self.epsilon)
        return None

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "N": self.N,
            "epsilon": _frac_str(self.epsilon),
            "level_counts": list(self.level_counts),
            "epsilon_schedule": [_frac_str(e) for e in self.epsilon_schedule],
            "depth": self.depth,
            "B": _frac_str(self.B),
            "L": self.L,
            "epsilon0": _frac_str(self.epsilon0),
            "gamma": _frac_str(self.gamma),
            "seed": self.seed,
            "max_retries": self.max_retries,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstructionParams":
        return cls(
            regime=d["regime"],
            N=d.get("N"),
            epsilon=_frac_parse(d.get("epsilon")),
            level_counts=tuple(d.get("level_counts") or ()),
            epsilon_schedule=tuple(_frac_parse(e) for e in d.get("epsilon_schedule") or ()),
            depth=d["depth"],
            B=_frac_parse(d["B"]),
            L=d["L"],
            epsilon0=_frac_parse(d["epsilon0"]),
            gamma=_frac_parse(d["gamma"]),
            seed=d["seed"],
            max_retries=d["max_retries"],
        )


def _frac_str(x: Fraction | None) -> str | None:
    if x is None:
        return None
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _frac_parse(s) -> Fraction | None:
    return None if s is None else Fraction(s)


def one_dimensional(N: int, depth: int, **kw) -> ConstructionParams:
    return ConstructionParams(regime=REGIME_ONE_DIM, N=N, depth=depth, **kw)


def fixed_dimension(N: int, epsilon, depth: int, **kw) -> ConstructionParams:
    return ConstructionParams(
        regime=REGIME_FIXED_DIM, N=N, epsilon=Fraction(epsilon), depth=depth, **kw
    )


def custom(level_counts, epsilon_schedule, depth: int | None = None, **kw) -> ConstructionParams:
    counts = tuple(int(n) for n in level_counts)
    eps = tuple(Fraction(e) for e in epsilon_schedule)
    return ConstructionParams(
        regime=REGIME_CUSTOM,
        level_counts=counts,
        epsilon_schedule=eps,
        depth=depth if depth is not None else len(counts),
        **kw,
    )
