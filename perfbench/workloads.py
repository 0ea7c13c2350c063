"""The benchmark's workloads: set-up from a seed, then a cycle of tasks.

Every CLI task calls ``cantormax.cli.main`` in-process on files written
during set-up, so argument and config parsing, set loading, the lazy ``core``
builds and report writing are paid the way a user pays for them.  The one
task without a CLI command (``adjoint``) calls ``maxops`` directly.

Set sizes are held fixed while the seed varies.  At N=16 the level-1 count
ranges over 4..10 and every later level scales with it, so an unscreened seed
moves task times by up to 2x.  A set is therefore drawn from the first
candidate seeds whose accepted level 1 has the count of the tests' fixture
and whose level 2 lies in a narrow range (``Scale.sizes``); P_3 then stays
within about 2% of its mean.  The default seed 1 passes both screens and keeps the
fixtures' seeds.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cantormax import cli, maxops
from cantormax.core import CantorSet
from cantormax.errors import ConstructionFailure
from cantormax.grids import DiscretizationGrid
from cantormax.params import fixed_dimension
from cantormax.randomize import RngStream, construct

# Candidate seeds screened per pool; a pool holds about ten hits at either N.
SCREEN_POOL = 256
SEED_STRIDE = 1000
# The N=8 adjoint set's candidates start here, so workload seed 1 maps to
# seed 11, the tests' N=8 fixture.
ADJOINT_SEED_OFFSET = 10
OMEGA_CELLS = 32
OMEGA_SIZE = 8
# The seed picks the sets; the samplers keep the CLI's default seed 0, as
# `correlate.seed` does, so that a seed does not also change how many
# tuples or adjoint terms a task evaluates.
SAMPLER_SEED = 0


class TaskFailed(Exception):
    """A task exited non-zero, raised, or broke an exact identity."""


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one run of the benchmark."""

    name: str
    N: int
    gate_c_budget: int
    sizes: tuple[int, int, int]  # P_1, and the range of P_2, of the screened sets
    adjoint_N: int
    adjoint_sizes: tuple[int, int, int]
    adjoint_gate_c_budget: int
    correlate_budget: int
    maximal_points: int
    maximal_r_count: int
    adjoint_budget: int
    adjoint_draws: int
    construct_variants: int


# The production-size set (fixed-dimension, N=16, eps=1/4, K=3) at the level-1
# count of the tests' z16_set (seed 1, P_1 = 6), and the N=8 set at the count
# of the tests' z8_set (seed 11, P_1 = 3).
PRODUCTION = Scale(
    name="production",
    N=16,
    gate_c_budget=6,
    sizes=(6, 377, 391),
    adjoint_N=8,
    adjoint_sizes=(3, 69, 70),
    adjoint_gate_c_budget=4,
    correlate_budget=8,
    maximal_points=2,
    maximal_r_count=9,
    adjoint_budget=8,
    adjoint_draws=4,
    construct_variants=4,
)

# Small N=8 sets for the harness self-test; every task takes well under 1 s.
SMALL = Scale(
    name="small",
    N=8,
    gate_c_budget=4,
    sizes=(3, 66, 70),
    adjoint_N=8,
    adjoint_sizes=(3, 69, 70),
    adjoint_gate_c_budget=4,
    correlate_budget=8,
    maximal_points=1,
    maximal_r_count=2,
    adjoint_budget=2,
    adjoint_draws=1,
    construct_variants=2,
)

SCALES = {s.name: s for s in (PRODUCTION, SMALL)}


def config_text(scale: Scale) -> str:
    return "\n".join(
        [
            "construction.regime = fixed-dimension",
            f"construction.N = {scale.N}",
            "construction.epsilon = 1/4",
            "construction.K = 3",
            "construction.B = 10",
            "construction.max_retries = 50",
            f"construction.gate_c_budget = {scale.gate_c_budget}",
            "correlate.k = 0",
            "correlate.n = 2",
            f"correlate.budget = {scale.correlate_budget}",
            f"maximal.points = {scale.maximal_points}",
            f"maximal.r_count = {scale.maximal_r_count}",
            "differentiate.point_count = 1",
            "differentiate.r_sequence = 1/8",
            "differentiate.function = hat",
            "",
        ]
    )


def screened_seeds(first: int, N: int, gate_c_budget: int, sizes: tuple, count: int) -> list[int]:
    """The first ``count`` candidate seeds whose accepted levels 1 and 2 fit ``sizes``.

    ``sizes`` is (P_1, lowest P_2, highest P_2).  Candidates are first,
    first + 1000, first + 2000, ...; whole pools are screened, so that set-up
    does the same work whatever the seed.
    """
    p1, p2_lo, p2_hi = sizes
    hits: list[int] = []
    start = 0
    while len(hits) < count:
        for j in range(start, start + SCREEN_POOL):
            seed = first + SEED_STRIDE * j
            if _level_counts(seed, N, gate_c_budget, 1) != (p1,):
                continue
            if p2_lo <= _level_counts(seed, N, gate_c_budget, 2)[1] <= p2_hi:
                hits.append(seed)
        start += SCREEN_POOL
    return hits[:count]


def _level_counts(seed: int, N: int, gate_c_budget: int, depth: int) -> tuple[int, ...]:
    """Level counts of the set accepted at this depth; earlier levels do not
    depend on the depth, so they match those of the full K=3 set."""
    params = fixed_dimension(N, Fraction(1, 4), depth, seed=seed, max_retries=50)
    try:
        cset, _ = construct(params, gate_c_budget=gate_c_budget)
    except ConstructionFailure:
        return ()
    return tuple(cset.P(k) for k in range(1, depth + 1))


def run_cli(argv: list[str], outdir: Path) -> Path:
    """cantormax.cli.main(argv) writing into outdir; a non-zero exit fails."""
    outdir.mkdir(parents=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([*argv, "-o", str(outdir)])
    if code != 0:
        raise TaskFailed(f"cantormax {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return outdir


def adjoint_task(set_file: Path, scale: Scale) -> bytes:
    """Restricted-type ratios at k=1, 2 and the exact adjoint norm identity.

    For each level, ``adjoint_draws`` seeded (omega, assignment) draws check
    that the materialised Phi_k* 1_omega has integral of its square equal to
    ``phi_star_norm_power(..., 2)``.  Returns the exact outputs as text.
    """
    cset = CantorSet.from_json(set_file.read_text())
    out = []
    for k in (1, 2):
        res = maxops.restricted_type_ratio(
            cset, k, 2, scale.adjoint_budget, RngStream(SAMPLER_SEED).child(82, k), n_cells=OMEGA_CELLS
        )
        out.append(f"ratio k={k} max={res.max_ratio!r} " + " ".join(repr(s.ratio) for s in res.samples))
        grid = DiscretizationGrid.for_level(cset.params, k)
        for j in range(scale.adjoint_draws):
            rng = RngStream(SAMPLER_SEED).child(83, k, j)
            pairs = [
                (grid.c_value(int(ci)), grid.r_value(int(ri)))
                for ci, ri in zip(
                    rng.integers(1, grid.n_c + 1, size=OMEGA_CELLS),
                    rng.integers(1, grid.n_r + 1, size=OMEGA_CELLS),
                )
            ]
            assign = maxops.uniform_assignment(cset, k, OMEGA_CELLS, pairs.__getitem__)
            omega = sorted(int(i) for i in rng.choice(OMEGA_CELLS, size=OMEGA_SIZE, replace=False))
            materialised = maxops.phi_star(omega, cset, k, assign).lp_power(2)
            direct = maxops.phi_star_norm_power(omega, cset, k, assign, 2)
            if materialised != direct:
                raise TaskFailed(f"adjoint k={k} draw {j}: {materialised} != {direct}")
            out.append(f"norm k={k} draw={j} {direct.numerator}/{direct.denominator}")
    return ("\n".join(out) + "\n").encode()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    config: Path
    seeds: list[int]  # construct-verify: one construction seed per variant
    set_file: Path | None = None
    adjoint_set_file: Path | None = None


class Workload:
    """A workload builds its inputs in ``setup`` and runs ``cycle`` repeatedly.

    ``tasks`` names the two kinds of task in a cycle: the first is reported
    as ``first_task_s`` and the second as ``second_task_s``.
    """

    name = ""
    tasks: tuple[str, str] = ("", "")

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed

    @property
    def variants(self) -> int:
        return 1

    def _write_config(self, setup_dir: Path) -> Path:
        setup_dir.mkdir(parents=True)
        config = setup_dir / "run.txt"
        config.write_text(config_text(self.scale))
        return config

    def _production_set(self, setup_dir: Path, config: Path) -> Path:
        s = self.scale
        (seed,) = screened_seeds(self.seed, s.N, s.gate_c_budget, s.sizes, 1)
        out = run_cli(["construct", "-c", str(config), "--set", f"construction.seed={seed}"],
                      setup_dir / "set")
        return out / "set.json"

    def setup(self, setup_dir: Path) -> Inputs:
        raise NotImplementedError

    def cycle(self, inputs: Inputs, variant: int, cycle_dir: Path) -> list:
        """[(task name, callable)]: each callable returns an output dir or bytes."""
        raise NotImplementedError


class ConstructVerify(Workload):
    """The only workload that writes sets: randomize draws, the core
    sigma/density builds and gate (c) merges; no maxops averaging."""

    name = "construct-verify"
    tasks = ("construct", "verify")

    @property
    def variants(self) -> int:
        return self.scale.construct_variants

    def setup(self, setup_dir):
        s = self.scale
        config = self._write_config(setup_dir)
        seeds = screened_seeds(self.seed, s.N, s.gate_c_budget, s.sizes, s.construct_variants)
        (setup_dir / "seeds.txt").write_text(" ".join(map(str, seeds)) + "\n")
        return Inputs(config, seeds)

    def cycle(self, inputs, variant, cycle_dir):
        built = cycle_dir / "construct"
        seed = inputs.seeds[variant]
        return [
            ("construct", lambda: run_cli(
                ["construct", "-c", str(inputs.config), "--set", f"construction.seed={seed}"], built)),
            ("verify", lambda: run_cli(
                ["verify", str(built / "set.json"), "-c", str(inputs.config)], cycle_dir / "verify")),
        ]


class Operators(Workload):
    """maxops averaging on one production set, by merges against the S_3
    indicator (maximal) and by the Fraction run loop (differentiate)."""

    name = "operators"
    tasks = ("maximal", "differentiate")

    def setup(self, setup_dir):
        config = self._write_config(setup_dir)
        return Inputs(config, [], self._production_set(setup_dir, config))

    def cycle(self, inputs, variant, cycle_dir):
        # maximal runs on both sides of the 12 s differentiate, so that a run
        # of one cycle still has two maximal samples 12 s apart
        args = [str(inputs.set_file), "-c", str(inputs.config)]
        return [
            ("maximal", lambda: run_cli(["maximal", *args], cycle_dir / "maximal")),
            ("differentiate", lambda: run_cli(["differentiate", *args], cycle_dir / "differentiate")),
            ("maximal", lambda: run_cli(["maximal", *args], cycle_dir / "maximal-again")),
        ]


class CorrelationAdjoint(Workload):
    """enumerate_F, classify_A and the merge kernels as two-factor and
    32-term reductions and as a materialised sum (Phi_k*)."""

    name = "correlation-adjoint"
    tasks = ("correlate", "adjoint")

    def setup(self, setup_dir):
        s = self.scale
        config = self._write_config(setup_dir)
        set_file = self._production_set(setup_dir, config)
        (seed8,) = screened_seeds(
            self.seed + ADJOINT_SEED_OFFSET, s.adjoint_N, s.adjoint_gate_c_budget, s.adjoint_sizes, 1
        )
        small = run_cli(
            [
                "construct", "-c", str(config),
                "--set", f"construction.N={s.adjoint_N}",
                "--set", f"construction.gate_c_budget={s.adjoint_gate_c_budget}",
                "--set", f"construction.seed={seed8}",
            ],
            setup_dir / "adjoint-set",
        )
        return Inputs(config, [], set_file, small / "set.json")

    def cycle(self, inputs, variant, cycle_dir):
        return [
            ("correlate", lambda: run_cli(
                ["correlate", str(inputs.set_file), "-c", str(inputs.config)], cycle_dir / "correlate")),
            ("adjoint", lambda: adjoint_task(inputs.adjoint_set_file, self.scale)),
        ]


WORKLOADS = {w.name: w for w in (ConstructVerify, Operators, CorrelationAdjoint)}
