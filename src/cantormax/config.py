"""Run configuration: one self-describing key-value file per run.

Format: ``section.key = value`` lines, ``#`` comments, blank lines ignored.
Rationals are written ``num/den``; lists are comma separated.  Individual
keys can be overridden from the command line; parse -> serialize -> parse
is the identity on every field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction

from .errors import ConfigError
from .params import ConstructionParams, REGIME_CUSTOM, REGIME_FIXED_DIM


@dataclass
class ConstructionConfig:
    regime: str = REGIME_FIXED_DIM
    N: int = 16
    epsilon: Fraction = Fraction(1, 4)
    K: int = 3
    level_counts: tuple[int, ...] = ()
    epsilon_schedule: tuple[Fraction, ...] = ()
    B: Fraction = Fraction(10)
    L: int = 2
    epsilon0: Fraction = Fraction(1, 2)
    gamma: Fraction = Fraction(1)
    seed: int = 1
    max_retries: int = 50
    gate_c_n: int = 2
    gate_c_budget: int = 8

    def to_params(self) -> ConstructionParams:
        try:
            if self.regime == REGIME_CUSTOM:
                return ConstructionParams(
                    regime=self.regime,
                    level_counts=self.level_counts,
                    epsilon_schedule=self.epsilon_schedule,
                    depth=self.K,
                    B=self.B,
                    L=self.L,
                    epsilon0=self.epsilon0,
                    gamma=self.gamma,
                    seed=self.seed,
                    max_retries=self.max_retries,
                )
            return ConstructionParams(
                regime=self.regime,
                N=self.N,
                epsilon=self.epsilon if self.regime == REGIME_FIXED_DIM else None,
                depth=self.K,
                B=self.B,
                L=self.L,
                epsilon0=self.epsilon0,
                gamma=self.gamma,
                seed=self.seed,
                max_retries=self.max_retries,
            )
        except Exception as exc:
            raise ConfigError(str(exc), field="construction") from exc


@dataclass
class CorrelateConfig:
    n: int = 2
    budget: int = 64
    k: int = 1
    seed: int = 0


@dataclass
class MaximalConfig:
    p: Fraction = Fraction(2)
    q: Fraction = Fraction(2)
    r_count: int = 9
    m_min: int = 0
    m_max: int = 0
    points: int = 25


@dataclass
class DifferentiateConfig:
    r_sequence: tuple[Fraction, ...] = (
        Fraction(1, 8),
        Fraction(1, 16),
        Fraction(1, 32),
        Fraction(1, 64),
    )
    point_count: int = 50
    function: str = "hat"  # hat | indicator


@dataclass
class DemoConfig:
    depth: int = 4
    rho0: Fraction | None = None  # default: delta_depth of the set
    r: Fraction = Fraction(1, 2)


@dataclass
class ReportConfig:
    outdir: str = "out"
    formats: tuple[str, ...] = ("json", "csv")


@dataclass
class RunConfig:
    construction: ConstructionConfig = field(default_factory=ConstructionConfig)
    correlate: CorrelateConfig = field(default_factory=CorrelateConfig)
    maximal: MaximalConfig = field(default_factory=MaximalConfig)
    differentiate: DifferentiateConfig = field(default_factory=DifferentiateConfig)
    demo: DemoConfig = field(default_factory=DemoConfig)
    report: ReportConfig = field(default_factory=ReportConfig)
    workers: int = 1


_SECTIONS = ("construction", "correlate", "maximal", "differentiate", "demo", "report")


def _parse_value(raw: str, kind, line_no: int, key: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is str:
            return raw
        if kind is Fraction:
            return Fraction(raw)
        if kind == "fraction_or_none":
            return None if raw in ("", "none", "auto") else Fraction(raw)
        if kind == "int_tuple":
            return tuple(int(v) for v in raw.split(",") if v.strip()) if raw else ()
        if kind == "fraction_tuple":
            return tuple(Fraction(v) for v in raw.split(",") if v.strip()) if raw else ()
        if kind == "str_tuple":
            return tuple(v.strip() for v in raw.split(",") if v.strip()) if raw else ()
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}", line=line_no, field=key) from exc
    raise ConfigError(f"unhandled kind {kind}", line=line_no, field=key)


_FIELD_KINDS = {
    ("construction", "regime"): str,
    ("construction", "N"): int,
    ("construction", "epsilon"): Fraction,
    ("construction", "K"): int,
    ("construction", "level_counts"): "int_tuple",
    ("construction", "epsilon_schedule"): "fraction_tuple",
    ("construction", "B"): Fraction,
    ("construction", "L"): int,
    ("construction", "epsilon0"): Fraction,
    ("construction", "gamma"): Fraction,
    ("construction", "seed"): int,
    ("construction", "max_retries"): int,
    ("construction", "gate_c_n"): int,
    ("construction", "gate_c_budget"): int,
    ("correlate", "n"): int,
    ("correlate", "budget"): int,
    ("correlate", "k"): int,
    ("correlate", "seed"): int,
    ("maximal", "p"): Fraction,
    ("maximal", "q"): Fraction,
    ("maximal", "r_count"): int,
    ("maximal", "m_min"): int,
    ("maximal", "m_max"): int,
    ("maximal", "points"): int,
    ("differentiate", "r_sequence"): "fraction_tuple",
    ("differentiate", "point_count"): int,
    ("differentiate", "function"): str,
    ("demo", "depth"): int,
    ("demo", "rho0"): "fraction_or_none",
    ("demo", "r"): Fraction,
    ("report", "outdir"): str,
    ("report", "formats"): "str_tuple",
}


def apply_key(cfg: RunConfig, dotted: str, raw: str, line_no: int | None = None) -> None:
    if dotted == "workers":
        cfg.workers = _parse_value(raw, int, line_no, dotted)
        return
    if "." not in dotted:
        raise ConfigError(f"key {dotted!r} needs a section prefix", line=line_no, field=dotted)
    section, key = dotted.split(".", 1)
    if section not in _SECTIONS:
        raise ConfigError(f"unknown section {section!r}", line=line_no, field=dotted)
    kind = _FIELD_KINDS.get((section, key))
    if kind is None:
        raise ConfigError(f"unknown key {dotted!r}", line=line_no, field=dotted)
    setattr(getattr(cfg, section), key, _parse_value(raw, kind, line_no, dotted))


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=line_no)
        dotted, raw = (part.strip() for part in stripped.split("=", 1))
        apply_key(cfg, dotted, raw, line_no)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Reject values outside the domains of the maximal and differentiate runs."""
    mc, dc = cfg.maximal, cfg.differentiate
    if mc.r_count < 1:
        raise ConfigError("maximal.r_count must be >= 1", field="maximal.r_count")
    if not 1 < mc.p <= mc.q:
        raise ConfigError("maximal needs 1 < p <= q", field="maximal.p")
    if mc.m_min > mc.m_max:
        raise ConfigError("maximal needs m_min <= m_max", field="maximal.m_min")
    if dc.point_count < 1:
        raise ConfigError("differentiate.point_count must be >= 1", field="differentiate.point_count")
    rs = dc.r_sequence
    if not rs or rs[-1] <= 0 or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ConfigError(
            "differentiate.r_sequence must be nonempty, positive and strictly decreasing",
            field="differentiate.r_sequence",
        )


def _format_value(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if value is None:
        return "auto"
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    lines = ["# cantormax run configuration"]
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        lines.append("")
        for f in fields(obj):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    lines.append("")
    lines.append(f"workers = {cfg.workers}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
