"""Command-line front end.

Commands: construct, verify, correlate, maximal, dimension, differentiate,
demo-l1.  One config file drives a run; --set key=value overrides single
fields.  Exit codes are a stable contract: 0 success, 1 gate/check failure,
2 usage/config error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import core, maxops
from .config import RunConfig, apply_key, load_config, serialize_config, validate
from .correlation import (
    sup_lambda_tr,
    trivial_bound,
    write_reports_csv,
)
from .errors import (
    CantorError,
    CapacityError,
    ConfigError,
    ConstructionFailure,
    EmptySampleError,
    FormatError,
    ParameterError,
)
from .randomize import RngStream, boundedness_check, construct, verify_set
from .stepfn import PiecewiseLinear, StepFunction

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

REPORT_SCHEMA_VERSION = 1


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        dotted, raw = (part.strip() for part in item.split("=", 1))
        apply_key(cfg, dotted, raw)
    validate(cfg)
    return cfg


def _outdir(cfg: RunConfig, args) -> Path:
    out = Path(args.outdir or cfg.report.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_set(path) -> core.CantorSet:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read set file: {exc}") from exc
    return core.CantorSet.from_json(text)


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_jsonl(path: Path, reports) -> None:
    """One sorted-key JSON object per line, from each report's ``to_json_dict``."""
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    params = cfg.construction.to_params()
    try:
        cset, transcript = construct(
            params,
            gate_c_n=cfg.construction.gate_c_n,
            gate_c_budget=cfg.construction.gate_c_budget,
        )
    except ConstructionFailure as exc:
        _write_jsonl(out / "transcript.jsonl", exc.transcript)
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    (out / "set.json").write_text(cset.to_json())
    _write_jsonl(out / "transcript.jsonl", transcript)
    (out / "config.txt").write_text(serialize_config(cfg))
    print(f"accepted set with P = {[cset.P(k) for k in range(1, cset.depth + 1)]}")
    print(f"wrote {out / 'set.json'} and {out / 'transcript.jsonl'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    cset = _load_set(args.set_file)
    ok, reports = verify_set(
        cset,
        gate_c_n=cfg.construction.gate_c_n,
        gate_c_budget=cfg.construction.gate_c_budget,
    )
    bc = boundedness_check(cset.params)
    q_eps = cset.params.q_epsilon
    payload = {
        "passed": ok,
        "boundedness": bc.to_json_dict(),
        "q_epsilon": f"{q_eps.numerator}/{q_eps.denominator}" if q_eps else None,
        "checks": [rep.to_json_dict() for rep in reports],
    }
    _write_json(out / "verify.json", payload)
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{status}  gate {rep.gate} level {rep.level}: {rep.detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_correlate(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    cset = _load_set(args.set_file)
    cc = cfg.correlate
    if cc.k >= cset.depth:
        raise ConfigError(f"correlate.k must lie in 0..{cset.depth - 1} for this set", field="correlate.k")
    # k = 0 sweeps every level with a difference function (the decay curve)
    ks = list(range(1, cset.depth)) if cc.k == 0 else [cc.k]
    all_reports = []
    summaries = []
    for k in ks:
        rng = RngStream(cc.seed).child(90, k)
        result = sup_lambda_tr(cset, cc.n, k, cc.budget, rng)
        all_reports.extend(result.reports)
        summaries.append(
            {
                "k": k,
                "n": cc.n,
                "sup_abs_lambda": float(result.max_abs),
                "sup_abs_lambda_exact": (
                    f"{result.max_abs.numerator}/{result.max_abs.denominator}"
                ),
                "trivial_bound": float(trivial_bound(cset, cc.n, k)),
                "coverage": result.coverage,
                "transverse_seen": result.transverse_seen,
                "witness": [[str(c), str(r)] for c, r in result.witness.pairs],
            }
        )
        print(
            f"k={k}: sup |Lambda| = {float(result.max_abs):.6g} over "
            f"{result.transverse_seen} transverse tuples ({result.coverage['mode']})"
        )
    _write_jsonl(out / "correlation.jsonl", all_reports)
    write_reports_csv(out / "correlation.csv", all_reports)
    _write_json(out / "correlate.json", {"levels": summaries})
    return EXIT_OK


def _sample_points(n: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    return [lo + (hi - lo) * Fraction(2 * i + 1, 2 * n) for i in range(n)]


def cmd_maximal(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    cset = _load_set(args.set_file)
    mc = cfg.maximal
    query = maxops.MaximalQuery(
        points=tuple(_sample_points(mc.points, Fraction(-4), Fraction(0))),
        r_grid=maxops.dyadic_r_grid(mc.r_count),
        p=mc.p,
        q=mc.q,
        m_min=mc.m_min,
        m_max=mc.m_max,
    )
    f = StepFunction.indicator(0, 1)
    sweep = maxops.maximal_sweep(f, cset, query, {0, *range(mc.m_min, mc.m_max + 1)})
    restricted = sweep.restricted()
    with open(out / "maximal.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "r_or_m", "x", "value"])
        for x in query.points:
            for k in range(1, sweep.k_top + 1):
                for r in query.r_grid:
                    w.writerow([k, float(r), float(x), float(sweep.averages[x, 0, k, r])])
        for x, v in restricted:
            w.writerow(["max", "", float(x), float(v)])
        for x, v in sweep.windowed():
            w.writerow(["max_windowed", f"{mc.m_min}..{mc.m_max}", float(x), v])
    print(f"wrote {out / 'maximal.csv'} ({len(restricted)} points, a = {query.a})")
    return EXIT_OK


def cmd_dimension(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    cset = _load_set(args.set_file)
    rep = core.dim_bounds(cset)
    box = cset.box_count_report()
    payload = {
        "upper_quotients": list(rep.upper_quotients),
        "lower_quotients": list(rep.lower_quotients),
        "upper": rep.upper,
        "lower": rep.lower,
        "box_counts": box["counts"],
        "box_slope": box["slope"],
    }
    try:
        limits = core.dimension_limit_symbolic(cset.params)
        payload["symbolic_limits"] = {k: str(v) for k, v in limits.items()}
    except CantorError:
        payload["symbolic_limits"] = None
    _write_json(out / "dimension.json", payload)
    print(
        f"quotient bounds: lower {rep.lower:.4f}, upper {rep.upper:.4f}; "
        f"box slope {box['slope']:.4f}"
    )
    return EXIT_OK


def _test_function(name: str):
    if name == "indicator":
        return StepFunction.indicator(0, 1)
    if name == "hat":
        return PiecewiseLinear(
            [Fraction(-4), Fraction(-2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]
        )
    raise ConfigError(f"unknown test function {name!r}", field="differentiate.function")


def cmd_differentiate(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    cset = _load_set(args.set_file)
    dc = cfg.differentiate
    f = _test_function(dc.function)
    points = _sample_points(dc.point_count, Fraction(-3), Fraction(-1))
    rows = maxops.differentiation_experiment(f, cset, points, dc.r_sequence)
    maxops.write_diff_csv(out / "differentiate.csv", rows)
    lip_ok = None
    if isinstance(f, PiecewiseLinear):
        lip = f.lipschitz_constant()
        lip_ok = all(row.sup_error <= 2 * lip * row.r for row in rows)
    worst = max(float(row.sup_error) for row in rows)
    _write_json(
        out / "differentiate.json",
        {
            "function": dc.function,
            "rows": len(rows),
            "max_sup_error": worst,
            "lipschitz_bound_holds": lip_ok,
        },
    )
    print(f"wrote {out / 'differentiate.csv'}; max sup error {worst:.6g}")
    if lip_ok is False:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_demo_l1(args) -> int:
    cfg = _load_run_config(args)
    out = _outdir(cfg, args)
    cset = _load_set(args.set_file)
    dc = cfg.demo
    depth = min(dc.depth, cset.depth)
    rho0 = dc.rho0 if dc.rho0 is not None else cset.params.delta(depth)
    result = maxops.l1_divergence_demo(cset, depth, rho0, r=dc.r)
    payload = {
        "x0": str(result.x0),
        "r": str(result.r),
        "rho0": str(result.rho0),
        "table": [{"k": k, "value": v} for k, v in result.rows],
        "growth_factor": result.growth_factor,
        "ball_masses": result.ball_masses,
        "eta_estimates": result.eta_estimates,
    }
    _write_json(out / "demo_l1.json", payload)
    with open(out / "demo_l1.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "value"])
        for k, v in result.rows:
            w.writerow([k, v])
    print(
        f"singular-profile averages grew by {result.growth_factor:.2f}x "
        f"from k=1 to k={depth} (rho0 = {result.rho0})"
    )
    return EXIT_OK


def cmd_init_config(args) -> int:
    text = serialize_config(RunConfig())
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantormax",
        description="Randomized sparse Cantor constructions and maximal-operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_set_file=False):
        p.add_argument("-c", "--config", help="key-value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
        p.add_argument("-o", "--outdir", help="output directory (default from config)")
        if with_set_file:
            p.add_argument("set_file", help="stored set JSON from `construct`")

    common(sub.add_parser("construct", help="draw a set through the acceptance gates"))
    common(sub.add_parser("verify", help="re-run all gates on a stored set"), with_set_file=True)
    common(sub.add_parser("correlate", help="sampled transverse correlation sup"), with_set_file=True)
    common(sub.add_parser("maximal", help="restricted/windowed maximal sweeps"), with_set_file=True)
    common(sub.add_parser("dimension", help="dimension quotients and box slope"), with_set_file=True)
    common(sub.add_parser("differentiate", help="differentiation error table"), with_set_file=True)
    common(sub.add_parser("demo-l1", help="singular-profile divergence table"), with_set_file=True)
    init = sub.add_parser("init-config", help="print a default config file")
    init.add_argument("-o", "--output", help="write to file instead of stdout")
    return parser


_COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "correlate": cmd_correlate,
    "maximal": cmd_maximal,
    "dimension": cmd_dimension,
    "differentiate": cmd_differentiate,
    "demo-l1": cmd_demo_l1,
    "init-config": cmd_init_config,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParameterError, FormatError, EmptySampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CantorError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
