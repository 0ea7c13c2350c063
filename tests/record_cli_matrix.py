"""Record the CLI matrix: SHA-256 digests of every output of 65 CLI runs.

The matrix runs ``construct``, ``verify`` (gate (c) at n=2, and at n=4),
``correlate`` (k=0, k=1, and n=4 at k=1 and at k=2), ``maximal`` (the
defaults, m in [-1, 1], and m in [-1, 1] at 3 points and 2 radii),
``differentiate`` (the hat and the indicator, at the default 50 points and
at 5), ``dimension``, ``demo-l1`` and three usage errors
(``correlate.k=5``, ``correlate.n=3`` and ``demo.depth=0``) on three sets:
the fixed-dimension N=16 seed-1 set (gate (c) budget 6), the N=8 seed-11
set (budget 4) and the one-dimensional N=4, K=3 seed-1 set (budget 8), with
``correlate.budget = 8`` on all three.  A fourth set, in the custom regime
(N = 8, 4, 16 with eps = 1/4, 1/5, 1/4, seed 2, budget 4), runs only
``construct``, ``verify``, ``maximal`` (m in [-1, 1] at 3 points and 2
radii) and ``differentiate`` (the hat at 5 points).  Two more sets run
only ``construct``: the one-dimensional N=4, K=3 seed-3 set and a custom
one (N = 8, 8, 8 with eps = 1/4, seed 23), both at budget 4.
``init-config`` runs once to stdout and once to a file.  Each run calls
``cantormax.cli.main`` in-process and writes into its own directory; every
command after ``construct`` reads the set file that ``construct`` wrote.

A run's manifest entry holds the SHA-256 hex digests of its exit code (the
decimal text), its stdout and its stderr (with the run's output directory
replaced by ``<out>``) and of every file it wrote, by path relative to its
output directory.  This module defines that serialization; the manifest is
``cli_matrix.json`` beside it, and ``test_cli_matrix.py`` re-runs the matrix
and compares every entry.

Run from the repository root to rewrite the manifest:

    PYTHONPATH=src python3 tests/record_cli_matrix.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cantormax import cli

MANIFEST = Path(__file__).with_name("cli_matrix.json")

SETS = {
    "n16": ["construction.N=16", "construction.seed=1", "construction.gate_c_budget=6", "correlate.budget=8"],
    "n8": ["construction.N=8", "construction.seed=11", "construction.gate_c_budget=4", "correlate.budget=8"],
    "od4": [
        "construction.regime=one-dimensional",
        "construction.N=4",
        "construction.K=3",
        "construction.seed=1",
        "construction.gate_c_budget=8",
        "correlate.budget=8",
    ],
    "cu": [
        "construction.regime=custom",
        "construction.level_counts=8,4,16",
        "construction.epsilon_schedule=1/4,1/5,1/4",
        "construction.K=3",
        "construction.seed=2",
        "construction.gate_c_budget=4",
    ],
    "od4s3": [
        "construction.regime=one-dimensional",
        "construction.N=4",
        "construction.K=3",
        "construction.seed=3",
        "construction.gate_c_budget=4",
    ],
    "cu8": [
        "construction.regime=custom",
        "construction.level_counts=8,8,8",
        "construction.epsilon_schedule=1/4,1/4,1/4",
        "construction.K=3",
        "construction.seed=23",
        "construction.gate_c_budget=4",
    ],
}

# run name -> (command, config overrides on top of its set's)
RUNS = {
    "construct": ("construct", []),
    "verify": ("verify", []),
    "verify_n4": ("verify", ["construction.gate_c_n=4"]),
    "corr_k0": ("correlate", ["correlate.k=0"]),
    "corr_k1": ("correlate", ["correlate.k=1"]),
    "corr_n4": ("correlate", ["correlate.k=1", "correlate.n=4"]),
    "corr_n4_k2": ("correlate", ["correlate.k=2", "correlate.n=4"]),
    "maximal": ("maximal", []),
    "maximal_m": ("maximal", ["maximal.m_min=-1", "maximal.m_max=1"]),
    "maximal_small": ("maximal", ["maximal.points=3", "maximal.r_count=2", "maximal.m_min=-1", "maximal.m_max=1"]),
    "diff_hat": ("differentiate", ["differentiate.function=hat"]),
    "diff_ind": ("differentiate", ["differentiate.function=indicator"]),
    "diff_hat5": ("differentiate", ["differentiate.point_count=5"]),
    "diff_ind5": ("differentiate", ["differentiate.point_count=5", "differentiate.function=indicator"]),
    "dimension": ("dimension", []),
    "demo": ("demo-l1", []),
    # usage errors: each exits 2 with one stderr line and writes nothing
    "corr_k5": ("correlate", ["correlate.k=5"]),
    "corr_n3": ("correlate", ["correlate.n=3"]),
    "demo_depth0": ("demo-l1", ["demo.depth=0"]),
}

# the runs of a set that does not run all of RUNS
SET_RUNS = {
    "cu": ("construct", "verify", "maximal_small", "diff_hat5"),
    "od4s3": ("construct",),
    "cu8": ("construct",),
}

ENTRIES = [f"{name}/{run}" for name in SETS for run in SET_RUNS.get(name, RUNS)]
ENTRIES += ["init-config/stdout", "init-config/file"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(entry: str, workdir: Path) -> dict:
    """Run one matrix entry with its outputs under ``workdir/<set>/<run>``,
    constructing the set first if ``workdir`` holds no set file for it, and
    return the entry's digests."""
    name, run = entry.split("/")
    out = workdir / name / run
    if name == "init-config":
        out.mkdir(parents=True)
        argv = [name] + (["-o", str(out / "config.txt")] if run == "file" else [])
    else:
        command, overrides = RUNS[run]
        set_file = workdir / name / "construct" / "set.json"
        if run != "construct" and not set_file.exists():
            run_entry(f"{name}/construct", workdir)
        argv = [command]
        if run != "construct":
            argv.append(str(set_file))
        for item in SETS[name] + overrides:
            argv += ["--set", item]
        argv += ["-o", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return {
        "exit": _sha(str(code).encode()),
        "stdout": _sha(stdout.getvalue().replace(str(out), "<out>").encode()),
        "stderr": _sha(stderr.getvalue().replace(str(out), "<out>").encode()),
        "files": {
            path.relative_to(out).as_posix(): _sha(path.read_bytes())
            for path in sorted(out.rglob("*"))
            if path.is_file()
        },
    }


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {entry: run_entry(entry, Path(tmp)) for entry in ENTRIES}


def main() -> int:
    MANIFEST.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ENTRIES)} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
