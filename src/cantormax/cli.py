"""Command-line front end, and the one module that writes report files.

Commands: construct, verify, correlate, maximal, dimension, differentiate,
demo-l1, init-config, each declared once in ``_COMMANDS``.  One config file
drives a run; --set key=value overrides single fields.  Exit codes are a
stable contract: 0 success, 1 gate/check failure, 2 usage/config error,
3 capacity error.
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
from .correlation import sup_lambda_tr, trivial_bound
from .errors import (
    CantorError,
    CapacityError,
    ConfigError,
    ConstructionFailure,
    EmptySampleError,
    FormatError,
    ParameterError,
)
from .params import _frac_str
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


def _load_set(path) -> core.CantorSet:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read set file: {exc}") from exc
    return core.CantorSet.from_json(text)


def _new_file(path: Path) -> Path:
    """``path``, its directory made first: a run that stops before it writes leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": REPORT_SCHEMA_VERSION, **payload}
    _new_file(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_jsonl(path: Path, reports) -> None:
    """One sorted-key JSON object per line, from each report's ``to_json_dict``."""
    with open(_new_file(path), "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(_new_file(path), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_construct(cfg: RunConfig, out: Path) -> int:
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
    _new_file(out / "set.json").write_bytes(cset.to_json_bytes())
    _write_jsonl(out / "transcript.jsonl", transcript)
    (out / "config.txt").write_text(serialize_config(cfg))
    print(f"accepted set with P = {[cset.P(k) for k in range(1, cset.depth + 1)]}")
    print(f"wrote {out / 'set.json'} and {out / 'transcript.jsonl'}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path, cset: core.CantorSet) -> int:
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
        "q_epsilon": _frac_str(q_eps) if q_eps else None,
        "checks": [rep.to_json_dict() for rep in reports],
    }
    _write_json(out / "verify.json", payload)
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{status}  gate {rep.gate} level {rep.level}: {rep.detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_correlate(cfg: RunConfig, out: Path, cset: core.CantorSet) -> int:
    cc = cfg.correlate
    if cset.depth < 2:  # sigma_k needs level k + 1
        raise ConfigError(f"correlate needs 2 or more levels; the set has {cset.depth}", field="correlate.k")
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
                "sup_abs_lambda_exact": _frac_str(result.max_abs),
                "trivial_bound": float(trivial_bound(cset, cc.n, k)),
                "coverage": result.coverage,
                "transverse_seen": result.transverse_seen,
                "witness": result.witness.to_json_list(),
            }
        )
        print(
            f"k={k}: sup |Lambda| = {float(result.max_abs):.6g} over "
            f"{result.transverse_seen} transverse tuples ({result.coverage['mode']})"
        )
    _write_jsonl(out / "correlation.jsonl", all_reports)
    _write_csv(
        out / "correlation.csv",
        ["k", "n", "class", "lambda", "trivial_bound", "c0"],
        ([r.k, r.A.n, r.cls, float(r.lam), float(r.trivial), r.c0] for r in all_reports),
    )
    _write_json(out / "correlate.json", {"levels": summaries})
    return EXIT_OK


def _sample_points(n: int, lo: Fraction, hi: Fraction) -> list[Fraction]:
    return [lo + (hi - lo) * Fraction(2 * i + 1, 2 * n) for i in range(n)]


def cmd_maximal(cfg: RunConfig, out: Path, cset: core.CantorSet) -> int:
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
    rows = [
        [k, float(r), float(x), float(sweep.averages[x, 0, k, r])]
        for x in query.points
        for k in range(1, sweep.k_top + 1)
        for r in query.r_grid
    ]
    rows += [["max", "", float(x), float(v)] for x, v in restricted]
    rows += [["max_windowed", f"{mc.m_min}..{mc.m_max}", float(x), v] for x, v in sweep.windowed()]
    _write_csv(out / "maximal.csv", ["k", "r_or_m", "x", "value"], rows)
    print(f"wrote {out / 'maximal.csv'} ({len(restricted)} points, a = {query.a})")
    return EXIT_OK


def cmd_dimension(cfg: RunConfig, out: Path, cset: core.CantorSet) -> int:
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


def _test_function(name: str, r_first: Fraction):
    """The named test function and the window its points are sampled in;
    ``config.validate`` admits no other name.

    The hat is sampled on [-3, -1].  The indicator of [0, 1] is sampled on
    [-2 r_1, 0), r_1 the largest r: there x + r_1 [1, 2] meets its jump at 0,
    and for theta in [1, 2] and r <= 1/2, A_r[k] 1_[0,1](-theta r) is
    mu_k([theta, 2]).
    """
    if name == "indicator":
        return StepFunction.indicator(0, 1), (-2 * r_first, Fraction(0))
    return PiecewiseLinear.from_nodes([-4, -2, 0], [0, 1, 0]), (Fraction(-3), Fraction(-1))


def cmd_differentiate(cfg: RunConfig, out: Path, cset: core.CantorSet) -> int:
    dc = cfg.differentiate
    f, window = _test_function(dc.function, dc.r_sequence[0])
    points = _sample_points(dc.point_count, *window)
    rows = maxops.differentiation_experiment(f, cset, points, dc.r_sequence)
    _write_csv(
        out / "differentiate.csv",
        ["k", "r", "x", "value"],
        (
            [k, float(row.r), float(row.x), float(err)]
            for row in rows
            for k, err in [*enumerate(row.per_level, start=1), ("sup", row.sup_error)]
        ),
    )
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


def cmd_demo_l1(cfg: RunConfig, out: Path, cset: core.CantorSet) -> int:
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
    _write_csv(out / "demo_l1.csv", ["k", "value"], result.rows)
    print(
        f"singular-profile averages grew by {result.growth_factor:.2f}x "
        f"from k=1 to k={depth} (rho0 = {result.rho0})"
    )
    return EXIT_OK


def cmd_init_config(output: str | None) -> int:
    text = serialize_config(RunConfig())
    if output:
        Path(output).write_text(text)
        print(f"wrote {output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# name -> (handler, help text, reads a set file); handlers take the run
# config and the output directory, and the loaded set when they read one
_COMMANDS = {
    "construct": (cmd_construct, "draw a set through the acceptance gates", False),
    "verify": (cmd_verify, "re-run all gates on a stored set", True),
    "correlate": (cmd_correlate, "sampled transverse correlation sup", True),
    "maximal": (cmd_maximal, "restricted/windowed maximal sweeps", True),
    "dimension": (cmd_dimension, "dimension quotients and box slope", True),
    "differentiate": (cmd_differentiate, "differentiation error table", True),
    "demo-l1": (cmd_demo_l1, "singular-profile divergence table", True),
    "init-config": (cmd_init_config, "print a default config file", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantormax",
        description="Randomized sparse Cantor constructions and maximal-operator experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads_set) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "init-config":
            p.add_argument("-o", "--output", help="write to file instead of stdout")
            continue
        p.add_argument("-c", "--config", help="key-value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
        p.add_argument("-o", "--outdir", help="output directory (default from config)")
        if reads_set:
            p.add_argument("set_file", help="stored set JSON from `construct`")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, reads_set = _COMMANDS[args.command]
    try:
        if args.command == "init-config":
            return handler(args.output)
        cfg = _load_run_config(args)
        out = Path(args.outdir or cfg.report.outdir)
        if reads_set:
            return handler(cfg, out, _load_set(args.set_file))
        return handler(cfg, out)
    except (ConfigError, ParameterError, FormatError, EmptySampleError, OSError) as exc:
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
