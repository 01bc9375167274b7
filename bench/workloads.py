"""Seeded inputs and the operations of each benchmark workload.

Every workload runs every timed operation, so that every end-to-end metric
is measured on every workload.  Each operation comes in two sizes: the
workload's focus operations run at full size and dominate its time, the
others run at a probe size that keeps their metric alive for little time.

The seed draws the inputs (grid offsets, Delta_p cuts, U/J ratios, NLSE
depth); the package sees only the configs and arguments made
from them.  All operations are expected to succeed: CLI calls exit 0 and
library calls return.  Cuts are drawn where a root is known to exist:
Mott cuts from Delta_p in [5, 100], where U/J - 3.85 changes sign over
Omega in [0.5, 3]; pinning cuts from Delta_p in [5.5, 9.9], inside the
window [5.25, 10.1] where that Omega range brackets the sine-Gordon
transition.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Baseline optics knobs, written out in every config.
OPTICS = {"gamma_1d_ratio": 0.2, "delta0": 5.0, "delta_small": 0.01,
          "n0": 1e7, "n1_fraction": 0.1, "n_ph": 1e3}
BRACKET = (0.5, 3.0)
ED_N_MAX = 4
# Lanczos matvecs per ED point grow by ~30% from U/J = 1 to 8, so the ED
# ratios are drawn from a window where the cost is near flat.
ED_RATIOS = (2.5, 4.5)
# Times a cycle an op runs: more samples steady its median.  Cheap probe ops
# repeat, and so do focus ops, fewer times in the solvers workload, whose
# cycle is dominated by the seconds-long estimate_critical_ratio.
PROBE_REPEATS = 4
FOCUS_REPEATS = {"phase-map": 3, "solvers": 2}
# Over depths 2.1-2.5 at this coupling the imaginary-time relaxation takes a
# near-constant ~2700 steps, so the drawn depth does not move the timings.
NLSE_COUPLING = 0.2

# The operations each workload runs at full size; BENCHMARK.json says why.
FOCUS = {
    "phase-map": {"sweep", "phase", "crossing", "pinning"},
    "solvers": {"ed_small", "ed_large", "critical_ratio", "nlse_relax",
                "nlse_evolve"},
}


@dataclass
class Op:
    """One timed operation: a CLI invocation, a named library call, or a
    batch of either (`calls` of them, timed together)."""

    metric: str                       # end-to-end metric its time feeds
    run: Callable[[], object]         # returns the exit code or the result
    check: Callable[[object], str]    # "" when the output is right
    expect_exit: int | None = 0       # CLI exit code; None: library call
    outs: tuple[Path, ...] = ()       # CLI output directories
    style: str = "mixed"              # calibration kernel part (run.py)
    nodes: int = 0                    # grid nodes of a sweep or phase op
    steps: int = 0                    # NLSE real-time steps
    calls: int = 1                    # calls timed together


@dataclass(frozen=True)
class Inputs:
    grid_offsets: tuple[float, float]
    mott_cuts: tuple[float, ...]
    pinning_cuts: tuple[float, ...]
    ed_small_ratio: float
    ed_large_ratio: float
    critical_ratios: tuple[float, ...]
    nlse_depth: float


def draw(seed: int) -> Inputs:
    """The workload inputs of one seed; the same seed gives the same inputs."""
    rng = random.Random(seed)
    offsets = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.1))
    mott = tuple(rng.uniform(5.0, 100.0) for _ in range(16))
    pinning = tuple(rng.uniform(5.5, 9.9) for _ in range(32))
    ed_small, ed_large = rng.uniform(*ED_RATIOS), rng.uniform(*ED_RATIOS)
    start, step = rng.uniform(1.0, 1.5), rng.uniform(1.3, 1.5)
    critical = tuple(start + k * step for k in range(5))
    return Inputs(offsets, mott, pinning, ed_small, ed_large, critical,
                  rng.uniform(2.1, 2.5))


class _OpList:
    def __init__(self, pkg, workdir: Path, ed_ref: ref.EdReference):
        self.pkg = pkg
        self.workdir = workdir
        self.ed_ref = ed_ref
        self.ops: list[Op] = []

    def cli(self, metric, subcommand, doc, check, **extra) -> None:
        tag = f"{len(self.ops):03d}-{subcommand}"
        cfg = self.workdir / f"{tag}.json"
        cfg.write_text(json.dumps(doc, indent=1) + "\n")
        out = self.workdir / tag
        argv = [subcommand, "--config", str(cfg), "--out", str(out)]
        pkg = self.pkg
        self.ops.append(Op(metric, lambda: pkg.cli.main(argv),
                           lambda _: check(out), outs=(out,), **extra))

    def library(self, metric, call, check) -> None:
        self.ops.append(Op(metric, call, check, expect_exit=None))

    def batch(self, count: int) -> None:
        """Fold the last `count` ops into one op that runs them in turn.

        Millisecond calls are timed as a batch: one sample spans enough
        time for the calibration kernel around it to see the same load.
        """
        parts, self.ops[-count:] = self.ops[-count:], []

        def check(results):
            for op, res in zip(parts, results):
                if op.expect_exit is not None and res != op.expect_exit:
                    return f"exit {res}, expected {op.expect_exit}"
                reason = op.check(res)
                if reason:
                    return reason
            return ""

        self.ops.append(Op(parts[0].metric,
                           lambda: [op.run() for op in parts], check,
                           expect_exit=None,
                           outs=tuple(o for op in parts for o in op.outs),
                           calls=len(parts)))


def plan(workload: str, seed: int, pkg, workdir: Path) -> list[Op]:
    """Write the configs of one run and return its operations in round order.

    References for the output checks are computed here, before timing.
    """
    focus = FOCUS[workload]
    full = lambda metric: metric in focus
    times = lambda metric: (FOCUS_REPEATS[workload] if full(metric)
                            else PROBE_REPEATS)
    inp = draw(seed)
    b = _OpList(pkg, workdir, ref.EdReference())

    def repeat(times):
        """Run the op added last `times` times a cycle."""
        b.ops.extend([b.ops[-1]] * (times - 1))

    n = 60 if full("sweep") else 20
    dp0, om0 = inp.grid_offsets
    grid = {"delta_p_range": [2.0 + dp0, 100.0 + dp0, n],
            "omega_range": [BRACKET[0] + om0, BRACKET[1] + om0, n]}
    grid_ref = ref.phase_reference(OPTICS, np.linspace(*grid["delta_p_range"]),
                                   np.linspace(*grid["omega_range"]))
    doc = {"optics": OPTICS, "sweep": grid}
    b.cli("sweep_s", "sweep", doc,
          lambda out: ref.check_grid(out / "sweep.csv", grid_ref, n * n),
          nodes=n * n)
    repeat(times("sweep"))
    b.cli("phase_s", "phase", doc,
          lambda out: ref.check_grid(out / "phase_grid.csv", grid_ref, n * n)
          or ref.check_boundaries(out / "phase_boundaries.json", grid_ref),
          nodes=n * n)
    repeat(times("phase"))

    mott_cuts = inp.mott_cuts
    for dp in mott_cuts:
        root = ref.mott_root(OPTICS, dp, BRACKET)
        b.cli("crossing_s", "crossing",
              {"optics": {**OPTICS, "delta_p": dp},
               "sweep": {"omega_range": [*BRACKET, 50]}},
              lambda out, root=root: ref.check_mott_root(
                  out / "crossing_root.json", root))
    b.batch(len(mott_cuts))
    repeat(times("crossing"))

    base = pkg.optics.OpticalConfig(**OPTICS)
    pinning_cuts = inp.pinning_cuts[:None if full("pinning") else 8]
    for dp in pinning_cuts:
        root = ref.pinning_root(OPTICS, dp, BRACKET)
        b.library("pinning_s",
                  lambda dp=dp: pkg.sweep.find_pinning_crossing(base, dp,
                                                                BRACKET),
                  lambda res, root=root: ref.check_root(res[0], root))
    b.batch(len(pinning_cuts))
    repeat(times("pinning"))

    def ed_op(metric, sizes, ratios, style="mixed"):
        expected = [(L, ED_N_MAX, r) for L in sizes for r in ratios]
        b.cli(metric, "ed", {"ed": {"sizes": sizes, "ratios": list(ratios),
                                    "n_max": ED_N_MAX}},
              lambda out: ref.check_ed(out / "ed.csv", b.ed_ref, expected),
              style=style)
        for L, n_max, r in expected:
            b.ed_ref.point(L, n_max, r)

    # At L = 6 (bases of 246-666 states) dense eigh is ~80% of the time; at
    # L = 4 (<= 52 states) Python is.
    if full("ed_small"):
        ed_op("ed_small_s", [4, 6], [inp.ed_small_ratio], style="dense")
    else:
        ed_op("ed_small_s", [4], [inp.ed_small_ratio])
    repeat(times("ed_small"))
    ed_op("ed_large_s", [8], [inp.ed_large_ratio])
    repeat(times("ed_large") if full("ed_large") else 1)

    sizes = [4, 6, 8] if full("critical_ratio") else [3, 4]
    ratios = list(inp.critical_ratios)
    crit = b.ed_ref.critical_mean(sizes, ratios, ED_N_MAX)
    b.library("critical_ratio_s",
              lambda: pkg.bh_ed.estimate_critical_ratio(sizes, ratios,
                                                        n_max=ED_N_MAX),
              lambda res: ref.check_critical(res.mean, crit))
    repeat(1 if full("critical_ratio") else PROBE_REPEATS)

    s, g = inp.nlse_depth, NLSE_COUPLING
    n_evolve, steps = (1024, 4000) if full("nlse_evolve") else (256, 1000)
    for metric, points, n_steps in (("nlse_relax_s", 256, 200),
                                    ("nlse_evolve_s", n_evolve, steps)):
        energy = ref.nlse_ground_energy(s, g, points, 8)
        b.cli(metric, "nlse",
              {"nlse": {"v1_over_er": s, "g_int": g, "n_periods": 8,
                        "grid_points": points, "steps": n_steps}},
              lambda out, energy=energy: ref.check_nlse(
                  out / "nlse_trajectory.csv", energy),
              steps=n_steps)
        repeat(times(metric[:-2]) if full(metric[:-2]) else 1)
    return b.ops
