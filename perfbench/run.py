#!/usr/bin/env python3
"""Command-level benchmark of cantormax on the production-size set.

    python3 perfbench/run.py --workload construct-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and scratch files go to ``.perfbench_work/``
in the checkout, which is removed before exit.

One single-threaded process builds the workload's inputs from the seed
(``setup_s``, the median of several builds), then runs the workload's cycle
of tasks until ``--seconds`` is spent, timing each with ``clock.timed``
(seconds adjusted for contention).  Each task's exact outputs are
hashed and compared with the other cycles that ran the same inputs and with
the digests recorded in ``digests.json``; a mismatch, an exception or a
non-zero exit fails the task and the run.  With ``--trace 1`` untraced and
traced cycles alternate on the same inputs, and the per-layer metrics come
from the traced ones (see ``spans.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics).  The lines before it give each metric by its task
name with sample counts, the problem sizes, the digests and the tracing
overhead.  Exit status: 0 when every task was correct, 1 when any failed,
2 when the program or the arguments are missing.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
LEVELS = 3

END_TO_END = {"first_task_s": "s", "second_task_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    import spans

    units = {}
    for _, _, name, _, keys in spans.LAYERS:
        units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
        units.update({f"{name}.{key}": "count" for key in keys})
    units["randomize.attempts"] = "count"
    units["randomize.accept_ratio"] = "1"
    units["correlation.transverse_ratio"] = "1"
    units[f"{spans.ROOT}.s"] = "s"
    units[f"{spans.ROOT}.self_s"] = "s"
    for k in range(1, LEVELS + 1):
        units[f"sizes.P_{k}"] = "count"
        units[f"sizes.runs_{k}"] = "count"
        if k < LEVELS:
            units[f"sizes.sigma_cells_{k}"] = "count"
        units[f"sizes.attempts_{k}"] = "count"
    return units


def digest_of(output) -> str:
    """SHA-256 of bytes, or of every file under a directory with its relative path."""
    h = hashlib.sha256()
    if isinstance(output, bytes):
        h.update(output)
        return h.hexdigest()
    for path in sorted(p for p in Path(output).rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(output).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def attempts_by_level(transcript: Path) -> dict[int, int]:
    """Level -> number of draws made, from a construct transcript."""
    seen = {}
    for line in transcript.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("attempt") is not None:
            seen[rec["level"]] = max(seen.get(rec["level"], 0), rec["attempt"] + 1)
    return seen


def percentile_note(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.4f} s"
    return "no percentile has 10 samples beyond it"


def report(name: str, timings: list) -> float:
    """Print a timing's median, percentile and sample count; return the median."""
    adjusted = [t.adjusted_s for t in timings]
    median = statistics.median(adjusted)
    raw = statistics.median(t.raw_s for t in timings)
    print(f"{name} = {median:.4f} s adjusted for contention ({raw:.4f} s raw), median of "
          f"{len(timings)} samples; {percentile_note(adjusted)}; samples "
          + " ".join(f"{t.adjusted_s:.3f}/{t.raw_s:.3f}" for t in timings))
    return median


class Check:
    """Compares task digests with earlier cycles and with recorded digests."""

    def __init__(self, recorded: dict | None, required: bool):
        self.recorded = recorded
        self.required = required
        self.seen: dict[str, str] = {}
        self.failures: list[str] = []

    def __call__(self, label: str, digest: str) -> bool:
        problem = None
        if self.seen.setdefault(label, digest) != digest:
            problem = f"{label}: digest {digest[:12]} differs from the first run's {self.seen[label][:12]}"
        elif self.recorded is not None and label in self.recorded:
            if self.recorded[label] != digest:
                problem = f"{label}: digest {digest[:12]} != recorded {self.recorded[label][:12]}"
        elif self.required:
            problem = f"{label}: no recorded digest"
        if problem:
            self.failures.append(problem)
        return problem is None


def run(workload, work: Path, seconds: float, trace: bool, check: Check, record: bool) -> dict:
    import clock
    import spans

    res = {"attempted": 0, "failed": 0, "setup": [], "samples": {t: [] for t in workload.tasks},
           "traced": {t: [] for t in workload.tasks}, "tracer": spans.Tracer(),
           "traced_cycles": 0, "attempts": 0, "levels_accepted": 0, "primary": None}

    def attempt(label, fn):
        """Run one task or set-up; its Timing, or None when it failed."""
        res["attempted"] += 1
        try:
            out, timing = clock.timed(fn)
        except Exception as exc:  # counted as a failed task
            check.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            res["failed"] += 1
            return None
        if not check(label, digest_of(out)):
            res["failed"] += 1
        return timing

    inputs = None
    while not res["setup"] or not record and (
        len(res["setup"]) < SETUP_REPEATS or sum(t.raw_s for t in res["setup"]) < SETUP_SECONDS
    ):
        setup_dir = work / f"setup{len(res['setup'])}"
        built = []
        timing = attempt("setup", lambda: built.append(workload.setup(setup_dir)) or setup_dir)
        if timing is None:
            return res
        res["setup"].append(timing)
        if inputs is None:
            inputs = built[0]
        else:
            shutil.rmtree(setup_dir)
    if inputs.set_file is not None:
        res["primary"] = inputs.set_file.parent

    tracer = res["tracer"]
    t_start = time.perf_counter()
    cycle = 0
    while not check.failures:
        variant = cycle % workload.variants
        for with_trace in (False, True) if trace else (False,):
            cycle_dir = work / f"cycle{cycle}{'t' if with_trace else ''}"
            cycle_dir.mkdir(parents=True)
            if with_trace:
                tracer.install()
            try:
                for task, fn in workload.cycle(inputs, variant, cycle_dir):
                    if with_trace:
                        fn = functools.partial(tracer.timed, spans.ROOT, fn)
                    timing = attempt(f"{task}@{variant}", fn)
                    if timing is None:
                        break
                    res["traced" if with_trace else "samples"][task].append(timing)
            finally:
                tracer.remove()
            if with_trace:
                res["traced_cycles"] += 1
                for transcript in cycle_dir.glob("*/transcript.jsonl"):
                    per_level = attempts_by_level(transcript)
                    res["attempts"] += sum(per_level.values())
                    res["levels_accepted"] += len(per_level)
            if res["primary"] is None and (cycle_dir / "construct" / "set.json").exists():
                res["primary"] = cycle_dir / "construct"
            elif res["primary"] is None or res["primary"].parent != cycle_dir:
                shutil.rmtree(cycle_dir)
        cycle += 1
        elapsed = time.perf_counter() - t_start
        if record:
            if cycle >= workload.variants:
                break
        elif elapsed + elapsed / cycle / 2 > seconds:
            break  # ends within half a cycle of --seconds on average
    return res


def problem_sizes(primary: Path) -> dict[str, int]:
    """Sizes of the set in the directory ``construct`` wrote it to."""
    from cantormax.core import CantorSet

    cset = CantorSet.from_json((primary / "set.json").read_text())
    attempts = attempts_by_level(primary / "transcript.jsonl")
    sizes = {}
    for k in range(1, LEVELS + 1):
        sizes[f"sizes.P_{k}"] = cset.P(k)
        sizes[f"sizes.runs_{k}"] = len(cset.level(k).runs())
        if k < LEVELS:
            sizes[f"sizes.sigma_cells_{k}"] = cset.sigma(k).n_cells
        sizes[f"sizes.attempts_{k}"] = attempts.get(k, 0)
    return sizes


def layer_metrics(res: dict, sizes: dict[str, int]) -> dict[str, float]:
    import spans

    tracer = res["tracer"]
    cycles = max(res["traced_cycles"], 1)
    values = {}
    for name in per_layer_units():
        base, _, field = name.rpartition(".")
        if name in sizes:
            values[name] = sizes[name]
        elif field == "calls":
            values[name] = tracer.calls.get(base, 0) / cycles
        elif field == "s":
            values[name] = tracer.inclusive.get(base, 0.0) / cycles
        elif field == "self_s":
            values[name] = tracer.self_time.get(base, 0.0) / cycles
        elif name == "randomize.attempts":
            values[name] = res["attempts"] / cycles
        elif name == "randomize.accept_ratio":
            values[name] = res["levels_accepted"] / res["attempts"] if res["attempts"] else 0.0
        elif name == "correlation.transverse_ratio":
            tried = tracer.calls.get("correlation.classify_A", 0)
            hit = tracer.counts.get("correlation.classify_A.transverse", 0)
            values[name] = hit / tried if tried else 0.0
        else:
            values[name] = tracer.counts.get(name, 0) / cycles
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="production", help="production, or small for the self-test")
    parser.add_argument("--digests", default=str(DIGESTS), help="recorded digests file")
    parser.add_argument("--record", action="store_true",
                        help="run every input variant once and record its digests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cantormax" / "__init__.py").is_file():
        print(f"error: no cantormax sources under {src}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import cantormax

    if Path(cantormax.__file__).resolve().parent != (src / "cantormax").resolve():
        print(f"error: imported cantormax from {cantormax.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.size not in workloads.SCALES:
        print(f"error: unknown size {args.size!r}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    workload = workloads.WORKLOADS[args.workload](workloads.SCALES[args.size], seed)

    digest_path = Path(args.digests)
    table = json.loads(digest_path.read_text()) if digest_path.exists() else {}
    recorded = table.get(args.size, {}).get(args.workload, {}).get(str(seed))
    required = args.size == "production" and seed == DEFAULT_SEED and not args.record
    check = Check(None if args.record else recorded, required)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        res = run(workload, work, args.seconds, bool(args.trace), check, args.record)
        sizes = problem_sizes(res["primary"]) if args.trace and not check.failures else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}")
    for problem in check.failures:
        print(f"FAILED {problem}")
    correct = not check.failures
    metrics = {}
    if correct:
        slots = dict(zip(("first_task_s", "second_task_s"), workload.tasks))
        for slot, task in slots.items():
            metrics[slot] = report(f"{task}_s ({slot})", res["samples"][task])
        metrics["setup_s"] = report("setup_s", res["setup"])
        metrics["peak_rss_mb"] = peak_mb
        print(f"peak_rss_mb = {peak_mb:.1f} MB")
    print(f"failed_ratio = {res['failed']}/{res['attempted']}")
    print("digests " + json.dumps(check.seen, sort_keys=True))
    if args.record and correct:
        table.setdefault(args.size, {}).setdefault(args.workload, {})[str(seed)] = check.seen
        digest_path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(check.seen)} digests in {digest_path}")

    if args.trace and correct:
        for task in workload.tasks:
            plain = statistics.median(t.adjusted_s for t in res["samples"][task])
            with_trace = statistics.median(t.adjusted_s for t in res["traced"][task])
            print(f"tracing overhead {task}_s: {with_trace:.4f} s traced vs {plain:.4f} s untraced "
                  f"({100 * (with_trace / plain - 1):+.1f}%)")
        print("tracing overhead setup_s: none, set-up is never traced")
        print("sizes " + json.dumps(sizes, sort_keys=True))
        values = layer_metrics(res, sizes)
        units = per_layer_units()
        out_metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        out_metrics = {name: {"value": metrics[name], "unit": unit}
                       for name, unit in END_TO_END.items() if name in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"] if correct else max(res["failed"], 1),
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
