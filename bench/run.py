"""Benchmark of the polariton-phases toolkit, end to end and layer by layer.

    python3 bench/run.py --workload phase-map --seed 1 --seconds 52 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same tree; nothing is installed or built.  One warm benchmark process with
single-threaded BLAS calls ``polariton_phases.cli.main(argv)`` or the named
library function, one call after another (a closed loop with one caller),
cycling through the workload's operations until ``--seconds`` have passed.
Every output is checked against an independent reference
(``reference.py``); a wrong output or exit code is a failed operation.

``--trace 0`` reports the end-to-end metrics: for each operation kind the
median time per call over the run, the set-up time of a fresh interpreter
(median of several), peak memory and the share of operations that
succeeded.  Times are contention-corrected.  On a shared machine co-tenant
load slows the CPU by up to 1.8x, in stretches from milliseconds to minutes,
so raw times of the same code differ by a quarter from run to run.  A fixed
calibration kernel (``Kernel``: the styles of work the program does) is
therefore timed before and after every operation, and each operation's time
is scaled by KERNEL_REF_S / (mean of those two kernel times), using the
kernel part that matches the operation's style.  A value reads as the
seconds the operation takes when the kernel runs at its reference speed.
The kernel is benchmark code, so a change to the program moves only the
operation's time.  The raw medians are printed on the ``wall_s`` line.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (raw times) from the traced ones, as totals per round
(``tracer.py``).  The last line of standard output is the result as one
JSON object; the line before it is the provenance record.  Samples,
provenance and spans are also written to ``bench/_out/``.
"""

import os

# Pin BLAS to one thread before numpy loads: one single-threaded process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import collections
import gc
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 7
# Times of the two kernel parts at the reference speed: their fastest times
# on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, OpenBLAS, one thread).
KERNEL_REF_S = {"mixed": 0.0128, "dense": 0.0131}
SETUP_CODE = ("import sys, polariton_phases.cli as cli; "
              "cli.load_config(sys.argv[1])")


def _load_package():
    """Import the package from this tree's src/, or None if it is absent."""
    if not (SRC / "polariton_phases" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    pkg = importlib.import_module("polariton_phases")
    for name in ("cli", "config", "optics", "many_body", "sweep", "nlse",
                 "bh_ed"):
        importlib.import_module(f"polariton_phases.{name}")
    return pkg


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned value."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return int(BLAS_THREADS)
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line and ".so" in line}
    counts = []
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                counts.append(getattr(handle, sym)())
                break
    return max(counts) if counts else int(BLAS_THREADS)


def provenance(workload, seed, seconds, trace):
    import numpy
    import scipy
    try:
        # The ceiling keeps git from searching above the tree.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu_max = None
    for files in (["cpu.max"],
                  ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            cpu_max = " ".join(Path("/sys/fs/cgroup", f).read_text().strip()
                               for f in files)
            break
        except OSError:
            pass
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": _blas_threads(),
        "machine": platform.machine(),
    }


class Kernel:
    """Fixed calibration work in the program's styles.  A call returns the
    wall times of its two parts: "mixed" (scalar Python, FFTs, small dense
    and sparse linear algebra) and "dense" (one full eigendecomposition of
    a 300x300 matrix, the work of `ed` at L <= 6, which co-tenant load slows
    far less).  Its inputs never change, so its times track the machine."""

    def __init__(self):
        import numpy as np
        import scipy.linalg
        import scipy.sparse
        rng = np.random.default_rng(0)
        self.np = np
        self.full_eigh = scipy.linalg.eigh
        self.wave = rng.random(1024) + 0j
        a = rng.random((160, 160))
        self.sym = a + a.T
        a = rng.random((300, 300))
        self.big = a + a.T
        self.sparse = scipy.sparse.random(3000, 3000, density=0.003,
                                          random_state=1, format="csr")
        self.vec = rng.random(3000)

    @staticmethod
    def _scalar(x: float, coef: tuple) -> float:
        return math.sqrt(coef[0] * x + coef[1]) / (1.0 + x * x)

    def __call__(self) -> dict:
        np, fft = self.np, self.np.fft
        t0 = time.perf_counter()
        total, coef = 0.0, (0.5, 2.0)
        for i in range(12000):
            total += self._scalar(i * 1e-3, coef)
        for _ in range(60):
            total += float(np.abs(fft.ifft(fft.fft(self.wave)
                                           * self.wave)[0]) ** 2)
        for _ in range(2):
            total += float(np.linalg.eigh(self.sym)[0][0])
        for _ in range(60):
            total += float((self.sparse @ self.vec)[0])
        t1 = time.perf_counter()
        total += float(self.full_eigh(self.big)[0][0])
        t2 = time.perf_counter()
        if not math.isfinite(total):
            raise ArithmeticError("calibration kernel went non-finite")
        return {"mixed": t1 - t0, "dense": t2 - t1}


def corrected(seconds: float, kernel_before: dict, kernel_after: dict,
              style: str = "mixed") -> float:
    """An operation's time scaled to the reference speed of the kernel part
    of its style."""
    return seconds * KERNEL_REF_S[style] \
        / ((kernel_before[style] + kernel_after[style]) / 2)


def measure_setup(config_path: Path, tally, kernel) -> tuple[list, list]:
    """Times of fresh interpreters that import the package and load a
    config, each between two kernel runs: (corrected, raw)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fixed, raw = [], []
    k_before = kernel()
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE,
                               str(config_path)], env=env, cwd=ROOT,
                              capture_output=True, timeout=120)
        raw.append(time.perf_counter() - t0)
        k_after = kernel()
        fixed.append(corrected(raw[-1], k_before, k_after))
        k_before = k_after
        tally.record("setup_s", proc.stderr.decode()[-200:]
                     if proc.returncode else "")
    return fixed, raw


class TailLog:
    """A write-only text stream that keeps its last lines in memory."""

    def __init__(self, keep: int = 200):
        self.lines = collections.deque(maxlen=keep)

    def write(self, text: str) -> int:
        self.lines.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, what: str, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            self.reasons.append(f"{what}: {reason}")


def run_op(op):
    """Time one operation; return (seconds, failure reason or "")."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except SystemExit as exc:
        return time.perf_counter() - t0, f"SystemExit {exc.code}"
    except Exception as exc:  # a traceback is a failed operation
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if op.expect_exit is not None and result != op.expect_exit:
        return elapsed, f"exit {result}, expected {op.expect_exit}"
    return elapsed, op.check(result)


def run_round(ops, tally, per_op=None):
    """Run every op once; return the round's wall time.

    per_op, when given, is called after each op (for per-op counters).
    """
    gc.collect()
    t0 = time.perf_counter()
    for op in ops:
        tally.record(op.metric, run_op(op)[1])
        if per_op is not None:
            per_op(op)
    return time.perf_counter() - t0


def out_bytes(op) -> int:
    return sum(p.stat().st_size for out in op.outs if out.is_dir()
               for p in out.iterdir() if p.is_file())


def layer_metrics(tracer, rounds, extra) -> dict:
    """Per-layer metrics: times and counts as totals per traced round,
    ratios over all traced rounds, bytes from the first traced round."""
    st, lay, wi = tracer.stat, tracer.layer, tracer.within_stat
    per = lambda x: x / rounds
    ratio = lambda a, b: a / b if b else 0.0
    optics, many_body = lay("optics."), lay("many_body.")
    optics_calls = st("optics.validate_config").calls
    mott, pin = st("sweep.find_mott_crossing"), \
        st("sweep.find_pinning_crossing")
    dense, lanczos = st("bh_ed.eig_dense"), st("bh_ed.eig_lanczos")
    diag = st("bh_ed.diagnostics")
    solves = wi("bh_ed.eig_dense", "bh_ed.diagnostics").calls \
        + wi("bh_ed.eig_lanczos", "bh_ed.diagnostics").calls
    ground = st("nlse.ground_state")
    evolve = st("nlse.evolve")
    return {
        "config.load_s": per(st("config.load_config").total),
        "optics.calls": per(optics_calls),
        "optics.self_s": per(optics.self_time),
        "optics.us_per_call": 1e6 * ratio(optics.self_time, optics_calls),
        "optics.errors": per(optics.errors),
        "many_body.calls": per(many_body.calls),
        "many_body.self_s": per(many_body.self_time),
        "sweep.sweep_grid_s": per(st("sweep.sweep_grid").total),
        "sweep.phase_boundaries_s": per(st("sweep.phase_boundaries").total),
        "sweep.self_s": per(lay("sweep.").self_time),
        "sweep.evals_per_node.sweep": extra["evals_per_node"].get("sweep_s",
                                                                  0.0),
        "sweep.evals_per_node.phase": extra["evals_per_node"].get("phase_s",
                                                                  0.0),
        "sweep.mott_root_s": per(mott.total),
        "sweep.mott_evals_per_root": ratio(
            wi("optics.validate_config", "sweep.find_mott_crossing").calls,
            mott.calls),
        "sweep.pinning_root_s": per(pin.total),
        "sweep.pinning_evals_per_root": ratio(
            wi("optics.validate_config", "sweep.find_pinning_crossing").calls,
            pin.calls),
        "cli.self_s": per(st("cli.main").self_time),
        "cli.bytes_written": extra["bytes_written"],
        "nlse.ground_state_s": per(ground.total),
        "nlse.imag_steps": per(wi("nlse.norm_of", "nlse.ground_state").calls
                               - ground.calls),
        "nlse.energy_of_s": per(wi("nlse.energy_of",
                                   "nlse.ground_state").total),
        "nlse.evolve_s": per(evolve.total),
        "nlse.steps_per_s": ratio(extra["steps"], evolve.total),
        "bh_ed.eig_dense_s": per(dense.total),
        "bh_ed.eig_dense_calls": per(dense.calls),
        "bh_ed.eig_lanczos_s": per(lanczos.total),
        "bh_ed.eig_lanczos_calls": per(lanczos.calls),
        "bh_ed.hamiltonian_s": per(st("bh_ed.hamiltonian").total),
        "bh_ed.hamiltonian_calls": per(st("bh_ed.hamiltonian").calls),
        "bh_ed.basis_s": per(st("bh_ed.basis").total),
        "bh_ed.basis_calls": per(st("bh_ed.basis").calls),
        "bh_ed.solves_per_point": ratio(solves, diag.calls),
        "bh_ed.diagnostics_self_s": per(diag.self_time),
        "bh_ed.max_dim": tracer.gauges.get("bh_ed.max_dim", 0),
        "trace.overhead_s": extra["overhead_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = _load_package()
    if pkg is None:
        print(f"package source not found under {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads
    if args.workload not in workloads.FOCUS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.FOCUS)}", file=sys.stderr)
        return 2

    # One CPU for the whole run, children included: the calibration kernel
    # then always sees the load of the CPU the operations ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = BENCH / "_work" / f"{tag}-{os.getpid()}"
    outdir = BENCH / "_out"
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    # The program logs every defaulted config key.  Its stderr is kept in
    # memory, so a log line costs its formatting, not a disk write.
    program_log = TailLog()
    real_stderr, sys.stderr = sys.stderr, program_log
    try:
        report = _measure(args, pkg, tracing, workloads, workdir)
    finally:
        sys.stderr = real_stderr
        shutil.rmtree(workdir, ignore_errors=True)

    report["provenance"] = provenance(args.workload, args.seed, args.seconds,
                                      args.trace)
    (outdir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    for reason in report["reasons"][:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if report["reasons"]:
        print("program stderr, last lines:\n" + "".join(program_log.lines),
              file=sys.stderr)
    if "wall_s" in report:
        print("wall_s " + json.dumps(report["wall_s"], sort_keys=True))
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


def _measure(args, pkg, tracing, workloads, workdir) -> dict:
    ops = workloads.plan(args.workload, args.seed, pkg, workdir)
    tally = Tally()
    report = {"rounds": 0}

    if args.trace == 0:
        kernel = Kernel()
        kernel()                                    # warm-up
        samples, raw = {}, {}
        samples["setup_s"], raw["setup_s"] = measure_setup(
            workdir / "000-sweep.json", tally, kernel)
        kernel_s = []
        # Cycle through the ops, the kernel timed between every two; after
        # the first full cycle, stop before an op whose previous time
        # would overrun the budget.
        last = [0.0] * len(ops)
        start = time.perf_counter()
        done = 0
        while done < len(ops) or time.perf_counter() - start \
                + last[done % len(ops)] <= args.seconds:
            k = done % len(ops)
            if k == 0:
                gc.collect()
                kernel_s.append(kernel())
            elapsed, reason = run_op(ops[k])
            kernel_s.append(kernel())
            tally.record(ops[k].metric, reason)
            per_call = elapsed / ops[k].calls
            samples.setdefault(ops[k].metric, []).append(
                corrected(per_call, kernel_s[-2], kernel_s[-1],
                          ops[k].style))
            raw.setdefault(ops[k].metric, []).append(per_call)
            last[k] = elapsed + sum(kernel_s[-1].values())
            done += 1
        report["rounds"] = done / len(ops)
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = 1 - tally.failed / tally.attempted
        declared = "end_to_end"
        report["samples"] = samples
        report["raw_samples"] = raw
        report["kernel_s"] = kernel_s
        report["wall_s"] = {name: statistics.median(v)
                            for name, v in raw.items()}
        for part in KERNEL_REF_S:
            report["wall_s"][f"kernel.{part}"] = statistics.median(
                k[part] for k in kernel_s)
    else:
        tracer = tracing.Tracer()
        plain, traced = [], []
        extra = {"bytes_written": 0, "evals_per_node": {}}
        steps = sum(op.steps for op in ops)
        make_point = lambda: tracer.stat("many_body.make_point").calls
        before = {}

        def per_op(op):
            # Float repr lengths in the ed CSVs vary with ARPACK's random
            # start vector, so bytes come from the first traced round only
            # and may differ by a few bytes between runs of one seed.
            if not traced:
                extra["bytes_written"] += out_bytes(op)
            if op.nodes:
                extra["evals_per_node"][op.metric] = \
                    (make_point() - before["make_point"]) / op.nodes
            before["make_point"] = make_point()

        start = time.perf_counter()
        while not traced or time.perf_counter() - start + plain[-1] \
                + traced[-1] <= args.seconds:
            plain.append(run_round(ops, tally))
            before["make_point"] = make_point()
            tracing.install(tracer, pkg)
            try:
                traced.append(run_round(ops, tally, per_op=per_op))
            finally:
                tracer.uninstall()
            report["rounds"] += 1
        extra["steps"] = steps * report["rounds"]
        extra["overhead_s"] = statistics.median(traced) \
            - statistics.median(plain)
        metrics = layer_metrics(tracer, report["rounds"], extra)
        declared = "per_layer"
        report["counts"] = tracer.counts()
        report["spans"] = tracer.spans
        report["round_s"] = {"untraced": plain, "traced": traced}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[declared]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ between BENCHMARK.json and the run")
    report["reasons"] = tally.reasons
    report["result"] = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return report


if __name__ == "__main__":
    sys.exit(main())
