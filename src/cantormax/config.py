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
from .params import ConstructionParams, REGIME_CUSTOM, REGIME_FIXED_DIM, _frac_str


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
        is_custom = self.regime == REGIME_CUSTOM
        try:
            return ConstructionParams(
                regime=self.regime,
                N=None if is_custom else self.N,
                epsilon=self.epsilon if self.regime == REGIME_FIXED_DIM else None,
                level_counts=self.level_counts if is_custom else (),
                epsilon_schedule=self.epsilon_schedule if is_custom else (),
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


def _items(raw: str, item) -> tuple:
    return tuple(item(v) for v in raw.split(",") if v.strip()) if raw else ()


# one parser per field annotation of the config dataclasses
_PARSERS = {
    "int": int,
    "str": str,
    "Fraction": Fraction,
    "Fraction | None": lambda raw: None if raw in ("", "none", "auto") else Fraction(raw),
    "tuple[int, ...]": lambda raw: _items(raw, int),
    "tuple[Fraction, ...]": lambda raw: _items(raw, Fraction),
    "tuple[str, ...]": lambda raw: _items(raw, str.strip),
}


def apply_key(cfg: RunConfig, dotted: str, raw: str, line_no: int | None = None) -> None:
    if dotted == "workers":
        target, key = cfg, dotted
    else:
        if "." not in dotted:
            raise ConfigError(f"key {dotted!r} needs a section prefix", line=line_no, field=dotted)
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}", line=line_no, field=dotted)
        target = getattr(cfg, section)
    kind = {f.name: f.type for f in fields(target)}.get(key)
    if kind is None:
        raise ConfigError(f"unknown key {dotted!r}", line=line_no, field=dotted)
    raw = raw.strip()
    try:
        value = _PARSERS[kind](raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}", line=line_no, field=dotted) from exc
    setattr(target, key, value)


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
    """Reject values outside the domains of the runs; ranges that depend on
    a set file are checked by the command that loads it."""
    cs, cc, mc, dc, dm = cfg.construction, cfg.correlate, cfg.maximal, cfg.differentiate, cfg.demo
    for key, seed in (("construction.seed", cs.seed), ("correlate.seed", cc.seed)):
        if not 0 <= seed < 2**64:
            raise ConfigError(f"{key} must lie in [0, 2^64)", field=key)
    if cs.gate_c_n < 2 or cs.gate_c_n % 2:
        raise ConfigError("construction.gate_c_n must be an even integer >= 2", field="construction.gate_c_n")
    if cs.gate_c_budget < 1:
        raise ConfigError("construction.gate_c_budget must be >= 1", field="construction.gate_c_budget")
    if cc.n < 2 or cc.n % 2:
        raise ConfigError("correlate.n must be an even integer >= 2", field="correlate.n")
    if cc.k < 0:
        raise ConfigError("correlate.k must be >= 0", field="correlate.k")
    if cc.budget < 1:
        raise ConfigError("correlate.budget must be >= 1", field="correlate.budget")
    if mc.r_count < 1:
        raise ConfigError("maximal.r_count must be >= 1", field="maximal.r_count")
    if not 1 < mc.p <= mc.q:
        raise ConfigError("maximal needs 1 < p <= q", field="maximal.p")
    if mc.m_min > mc.m_max:
        raise ConfigError("maximal needs m_min <= m_max", field="maximal.m_min")
    if mc.points < 1:
        raise ConfigError("maximal.points must be >= 1", field="maximal.points")
    if dc.function not in ("hat", "indicator"):
        raise ConfigError(f"unknown test function {dc.function!r}", field="differentiate.function")
    if dc.point_count < 1:
        raise ConfigError("differentiate.point_count must be >= 1", field="differentiate.point_count")
    rs = dc.r_sequence
    if not rs or rs[-1] <= 0 or any(b >= a for a, b in zip(rs, rs[1:])):
        raise ConfigError(
            "differentiate.r_sequence must be nonempty, positive and strictly decreasing",
            field="differentiate.r_sequence",
        )
    if dm.depth < 1:
        raise ConfigError("demo.depth must be >= 1", field="demo.depth")
    if dm.r <= 0:
        raise ConfigError("demo.r must be > 0", field="demo.r")
    if dm.rho0 is not None and dm.rho0 <= 0:
        raise ConfigError("demo.rho0 must be > 0", field="demo.rho0")


def _format_value(value) -> str:
    if isinstance(value, Fraction):
        return _frac_str(value)
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
