"""becmirror benchmark: sweep throughput and stochastic verification.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads, metrics, units and regression bounds are defined in
``BENCHMARK.json``.  One client thread drives the public entry point
``becmirror.cli.main(argv)`` in-process in a closed loop: the next command
set starts when the previous one has returned.  Commands run with CLI
defaults, except that a sweep gets ``--workers 1`` while the CLI has that
option (see ``workloads.serial_args``).  Every output is checked; the last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Diagnostics and the machine's provenance go to
standard error.

``--trace 0`` reports the end-to-end metrics with tracing off: ``setup_s``
(median wall time over fresh interpreters of import plus config load),
``cpu_ref`` and ``peak_rss_mb``.  ``cpu_ref`` is the mean over the run of
the process CPU seconds (user plus system) of one command set, divided by
the mean time of a fixed loop of small numpy steps that ``probe.HostProbe``
samples ten times a second while the sets run: the cost of a set in units
of that loop.  CPU time leaves out the time the host withholds the processor
(steal); the division takes out how fast the host lets this machine run
code at the time, which on a shared host swings by a third from one run to
the next and would otherwise hide a regression of that size.  The mean, not
the median, is used over the sets because the host's slow spells make the
per-set times bimodal, and a median jumps between the two modes.

``--trace 1`` alternates untraced command sets with sets that record spans
around every public call into the package layers, and reports the
per-layer metrics.  These include ``wall_s`` and ``cpu_s`` (in seconds, as
a user sees them, without the probe) and the throughputs
``sweep_points_per_s`` and ``sde_relax_per_s`` (from the untraced sets) and
``failed_frac``; the throughputs are zero on the workloads they do not
apply to.  A traced sweep run ends with a few untraced sets at the CLI's
default workers, which give ``sweep.pool_points_per_s`` and must reproduce
the serial output byte for byte.  Spans stay in memory; the last traced
set's spans are written to ``.bench_out/trace-<workload>.jsonl`` after a
summary line with per-function call counts and self times.

A check that documents a known defect of the program (the homodyne
reconstruction on ``sde_readout``; a few sweep error rows where the residual
gate refuses a stable point and the replay does too) is reported as failing
on standard error and in ``failed_frac``, ``stochastic.reconstruct_rel_err``
and ``sweep.error_points``, but does not count in ``failed``/``correct``,
which gate regressions against checks the program passes today.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spec as bench_spec  # sibling modules: this script's directory is on sys.path
from probe import HostProbe
from tracing import Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
#: untraced sets run with the sweep's default thread pool in a traced run
POOLED_SETS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from becmirror.cli import load_config; load_config(sys.argv[2])"
)


def _stability_hook(tracer, args, kwargs, result):
    tracer.count("dynamics.checks")
    if getattr(result, "is_stable", False):
        tracer.count("dynamics.stable")


def _residual_hook(tracer, args, kwargs, result):
    tracer.observe("lyapunov.residual", float(result))


def _emit_hook(tracer, args, kwargs, result):
    tracer.count("sweep.emit_rows", len(args[0].rows))


def _simulate_hook(tracer, args, kwargs, result):
    tracer.count("stochastic.steps", sum(len(record.times) - 1 for record in result))


#: public calls timed in the traced run, as "module.function" -> return hook
TRACED = {
    "cli.main": None,
    "cli.load_config": None,
    "cli.cmd_sweep": None,
    "cli.cmd_sde_verify": None,
    "cli.cmd_homodyne_sim": None,
    "params.derive_parameters": None,
    "params.model_params": None,
    "dynamics.build_drift": None,
    "dynamics.build_diffusion": None,
    "dynamics.check_stability_eigen": _stability_hook,
    "lyapunov.solve_steady_covariance": None,
    "lyapunov.residual": _residual_hook,
    "entanglement.reduce_to_modes": None,
    "entanglement.entanglement_result": None,
    "effective.effective_parameters": None,
    "sweep.run_sweep": None,
    "sweep.evaluate_point": None,
    "sweep.emit": _emit_hook,
    "stochastic.simulate_trajectories": _simulate_hook,
    "stochastic.simulate_trajectory": None,
    "stochastic.ensemble_covariance": None,
    "stochastic.homodyne_output": None,
    "stochastic.reconstruct_correlations": None,
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def provenance(definition: dict) -> dict:
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or platform.machine(),
        "blas": None,
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "sweep_pool_default_workers": None,
        "workloads": {w["name"]: w["why"] for w in definition["workloads"]},
    }
    with ThreadPoolExecutor() as pool:  # the sweep's pool size when workers=None
        info["sweep_pool_default_workers"] = pool._max_workers
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return info


class SetupSampler:
    """Seconds from a fresh interpreter to a loaded config.

    Samples are spread over the measured run (one between command sets when
    due) so that they see the same machine conditions as ``cpu_s``; the
    first start, which compiles bytecode that users pay once, is discarded.
    """

    def __init__(self, config: str) -> None:
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC), config]
        self.samples: list[float] = []
        self._spawn()

    def _spawn(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, timeout=60)
        return time.perf_counter() - start

    def sample_due(self, fraction: float) -> None:
        """Take samples until ``fraction`` of them have been taken."""
        while len(self.samples) < SETUP_SAMPLES * min(fraction, 1.0):
            self.samples.append(self._spawn())

    def median(self) -> float:
        self.sample_due(1.0)
        return statistics.median(self.samples)


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


class Checker:
    """Checks each command set's outputs and keeps the operation counts.

    The first command set is checked in full and becomes the reference;
    later sets must reproduce it byte for byte (the sweep and the seeded
    stochastic commands are deterministic).
    """

    def __init__(self, workload, expected_rows, oracle) -> None:
        self.workload = workload
        self.expected_rows = expected_rows
        self.oracle = oracle
        self.reference = None
        self.reference_verdicts = None
        self.attempted = self.failed = self.known_failed = 0
        self.notes: set[str] = set()
        self.stderr: set[str] = set()

    def _check(self, outputs):
        import workloads

        verdicts = []
        for command, (rc, blob, _err) in zip(self.workload.commands, outputs):
            if command.kind == "sweep":
                verdicts.append(workloads.check_sweep(self.workload.sweep, blob, rc,
                                                      self.expected_rows, self.oracle))
            else:
                verdicts.append(workloads.check_sde(self.workload, command.kind,
                                                    blob.decode(), rc))
        return verdicts

    def add(self, outputs) -> None:
        key = [(rc, blob) for rc, blob, _ in outputs]
        if self.reference is None:
            self.reference = key
            verdicts = self.reference_verdicts = self._check(outputs)
        elif key == self.reference:
            verdicts = self.reference_verdicts
        else:
            verdicts = self._check(outputs)
            for verdict in verdicts:
                verdict.failed = verdict.ops
            self.notes.add("output differs from the first run of the same inputs")
        for verdict in verdicts:
            self.attempted += verdict.ops
            self.failed += verdict.failed
            self.known_failed += verdict.known_failed
            self.notes.update(verdict.notes)
        for _rc, _blob, err in outputs:
            if err.strip():
                self.stderr.add(err.strip().splitlines()[-1])

    def value(self, key: str) -> float:
        return sum(v.values.get(key, 0.0) for v in self.reference_verdicts)


@dataclass
class Sample:
    wall: float  # seconds for the command set
    cpu: float  # process CPU seconds for the command set, all threads, less the probe's


def run_set(cli, workload, probe: HostProbe | None = None) -> tuple[Sample, list]:
    """Run the command set once, sampling host speed with ``probe`` if given;
    returns its timings and outputs."""
    spent = probe.spent if probe else 0.0
    start, cpu_start = time.perf_counter(), time.process_time()
    with probe or contextlib.nullcontext():
        results = [invoke(cli, command.argv) for command in workload.commands]
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    sample = Sample(wall, cpu - ((probe.spent - spent) if probe else 0.0))
    outputs = []
    for command, (rc, out, err) in zip(workload.commands, results):
        blob = out.encode()
        if command.out is not None:
            blob = command.out.read_bytes() if command.out.exists() else None
            command.out.unlink(missing_ok=True)
        outputs.append((rc, blob, err))
    return sample, outputs


def measure(cli, workload, checker: Checker, seconds: float, tracer: Tracer | None = None,
            setup: SetupSampler | None = None, probe: HostProbe | None = None):
    """Closed loop over the command set for about ``seconds``.

    A set (or, with a tracer, a pair of sets) starts only if it is expected
    to end less than half a set past ``seconds``.  With a tracer, untraced
    and traced sets alternate, so both see the same machine conditions.
    Returns the samples of the untraced and of the traced sets.
    """
    plain: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.run = len(traced)
            tracer.install("becmirror", TRACED)
            try:
                sample, outputs = run_set(cli, workload)
            finally:
                tracer.uninstall()
            traced.append(sample)
        else:
            sample, outputs = run_set(cli, workload, probe)
            plain.append(sample)
        checker.add(outputs)
        elapsed = time.perf_counter() - start
        if tracer is None or len(traced) == len(plain):
            step = elapsed / (len(plain) + len(traced))
            if elapsed + step * (0.5 if tracer is None else 1.0) >= seconds:
                return plain, traced
        if setup is not None:
            setup.sample_due(elapsed / seconds)


def layer_metrics(tracer: Tracer, iterations: int) -> tuple[dict, dict]:
    """Per-layer values from the traced spans, and a per-function table.

    Per-call ``*_us`` figures are CPU self time (busy time); the waiting a
    pooled call does shows in ``sweep.point_wait_frac`` and the point
    latency percentiles.  Wall self time feeds ``cli.overhead_s`` and
    ``sweep.emit_us_per_row``.
    """
    selfs = self_times(tracer.spans)
    table = {name: {"calls": 0, "total_s": 0.0, "cpu_s": 0.0, "self_s": 0.0, "cpu_self_s": 0.0}
             for name in TRACED if name not in tracer.absent}
    points = []
    for span in tracer.spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["cpu_s"] += span.cpu
        row["self_s"] += selfs[span.id][0]
        row["cpu_self_s"] += selfs[span.id][1]
        if span.name == "sweep.evaluate_point":
            points.append(span.end - span.start)

    def total(key, *names):
        return sum(table[n][key] for n in names if n in table)

    def busy_us(names, per=None):
        n = total("calls", *(per or names))
        return 1e6 * total("cpu_self_s", *names) / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    point = "sweep.evaluate_point"
    sim = total("total_s", "stochastic.simulate_trajectories")
    steps = tracer.counts["stochastic.steps"]
    values = {
        "params.derive_us": busy_us(["params.derive_parameters"]),
        "params.model_params_us": busy_us(["params.model_params"]),
        "params.derive_calls": total("calls", "params.derive_parameters") / iterations,
        "dynamics.build_us": busy_us(["dynamics.build_drift", "dynamics.build_diffusion"]),
        "dynamics.stability_us": busy_us(["dynamics.check_stability_eigen"]),
        "dynamics.stable_frac": ratio(tracer.counts["dynamics.stable"],
                                      tracer.counts["dynamics.checks"]),
        "lyapunov.solve_us": busy_us(["lyapunov.solve_steady_covariance"]),
        "lyapunov.residual_us": busy_us(["lyapunov.residual"]),
        "lyapunov.solves": total("calls", "lyapunov.solve_steady_covariance") / iterations,
        "lyapunov.max_residual": max(tracer.values.get("lyapunov.residual") or [0.0]),
        "entanglement.measure_us": busy_us(
            ["entanglement.reduce_to_modes", "entanglement.entanglement_result"],
            per=["entanglement.entanglement_result"]),
        "effective.params_us": busy_us(["effective.effective_parameters"]),
        "sweep.point_us_p50": 1e6 * float(np.percentile(points or [0.0], 50)),
        "sweep.point_us_p99": 1e6 * float(np.percentile(points or [0.0], 99)),
        "sweep.point_wait_frac": max(0.0, 1.0 - ratio(total("cpu_s", point),
                                                      total("total_s", point)))
        if points else 0.0,
        "sweep.emit_us_per_row": 1e6 * ratio(total("self_s", "sweep.emit"),
                                             tracer.counts["sweep.emit_rows"]),
        "stochastic.simulate_s": sim / iterations,
        "stochastic.steps": steps / iterations,
        "stochastic.steps_per_s": ratio(steps, sim),
        "stochastic.ensemble_s": total("total_s", "stochastic.ensemble_covariance") / iterations,
        "stochastic.readout_s": total("total_s", "stochastic.homodyne_output",
                                      "stochastic.reconstruct_correlations") / iterations,
        "cli.load_config_us": busy_us(["cli.load_config"]),
        "cli.overhead_s": total("self_s", "cli.main", "cli.cmd_sweep", "cli.cmd_sde_verify",
                                "cli.cmd_homodyne_sim") / iterations,
    }
    return values, table


def write_trace(tracer: Tracer, header: dict, workload: str) -> Path:
    path = OUT_DIR / f"trace-{workload}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            if span.run == tracer.run:
                fh.write(json.dumps(span.as_dict()) + "\n")
    return path


def parse_args(argv, definition):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in definition["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    definition = bench_spec.load(ROOT / "BENCHMARK.json")
    args = parse_args(argv, definition)
    if not (SRC / "becmirror" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        log(f"error: no becmirror source tree at {SRC} (run from a full checkout)")
        return 2
    sys.path.insert(0, str(SRC))
    import becmirror.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        log(f"error: imported becmirror from {cli.__file__}, not from {SRC}")
        return 2
    import workloads

    info = provenance(definition)
    log("provenance: " + json.dumps(info))
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.GENERATORS[args.workload](args.seed, ROOT, work)
        setup = None if args.trace else SetupSampler(workload.config)
        expected, serial_s = (workloads.replay(workload.sweep) if workload.sweep
                              else (None, 0.0))
        oracle = workloads.oracle_nu_minus(workload.sweep, expected) if expected else {}
        checker = Checker(workload, expected, oracle)
        if expected:
            log(f"serial replay: {len(expected)} points in {serial_s:.3f} s; "
                f"oracle nu_- at {len(oracle)} stable points")
        if not args.trace:
            probe = HostProbe()
            sets, _ = measure(cli, workload, checker, args.seconds, setup=setup, probe=probe)
            cpu_s = statistics.fmean(x.cpu for x in sets)
            values = {
                "setup_s": setup.median(),
                "cpu_ref": cpu_s / probe.mean(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            log(f"host probe: {len(probe.samples)} samples, mean {probe.mean() * 1e3:.3f} ms, "
                f"median {statistics.median(probe.samples) * 1e3:.3f} ms; "
                f"cpu_s {cpu_s:.4f}, cpu_ref {values['cpu_ref']:.2f}")
            log(f"setup: median {values['setup_s']:.4f} s over {len(setup.samples)} "
                "interpreters: " + " ".join(f"{v:.3f}" for v in setup.samples))
            for key in ("wall", "cpu"):
                series = [getattr(x, key) for x in sets]
                log(f"{len(sets)} sets {key} mean {statistics.fmean(series):.4f}, median "
                    f"{statistics.median(series):.4f}: "
                    + " ".join(f"{v:.3f}" for v in series))
        else:
            clamps = getattr(sys.modules.get("becmirror.entanglement"), "CLAMP_EVENTS", None)
            clamps_before = getattr(clamps, "count", 0)
            tracer = Tracer()
            plain, traced = measure(cli, workload, checker, args.seconds, tracer)
            walls = [x.wall for x in traced]
            untraced = statistics.median(x.wall for x in plain)
            if clamps is None:
                tracer.absent.append("entanglement.CLAMP_EVENTS")
            values, table = layer_metrics(tracer, len(walls))
            pooled = []
            if workload.pooled:
                pooled_sets = replace(workload, commands=workload.pooled)
                for _ in range(POOLED_SETS):
                    sample, outputs = run_set(cli, pooled_sets)
                    checker.add(outputs)
                    pooled.append(sample.wall)
                log("default-pool sets, wall: " + " ".join(f"{w:.3f}" for w in pooled))
            values.update({
                "entanglement.clamps": (getattr(clamps, "count", 0) - clamps_before)
                / (len(plain) + len(walls) + len(pooled)),
                "sweep.serial_points_per_s": len(expected) / serial_s if expected else 0.0,
                "sweep.pool_points_per_s": workload.points / statistics.median(pooled)
                if pooled else 0.0,
                "sweep.error_points": checker.value("error_points"),
                "stochastic.max_abs_z": checker.value("max_abs_z"),
                "stochastic.reconstruct_rel_err": checker.value("reconstruct_rel_err"),
                "trace.overhead_frac": statistics.median(walls) / untraced,
                "wall_s": untraced,
                "cpu_s": statistics.fmean(x.cpu for x in plain),
                "sweep_points_per_s": workload.points / untraced,
                "sde_relax_per_s": workload.relax / untraced,
                "failed_frac": (checker.failed + checker.known_failed) / checker.attempted,
            })
            header = {"workload": args.workload, "seed": args.seed, "provenance": info,
                      "absent": tracer.absent, "traced_sets": len(walls),
                      "functions": table, "metrics": values}
            log(f"trace written to {write_trace(tracer, header, args.workload)}")
            if tracer.absent:
                log("absent from this version: " + ", ".join(tracer.absent))
            for name, row in table.items():
                log(f"  {name:38s} calls/set {row['calls'] / len(walls):9.1f}  self/set "
                    f"wall {row['self_s'] / len(walls):8.5f} s, cpu "
                    f"{row['cpu_self_s'] / len(walls):8.5f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in sorted(checker.stderr):
        log(f"program stderr: {line}")
    for note in sorted(checker.notes):
        log(f"FAIL {note}")
    log(f"checks: {checker.attempted} operations, {checker.failed} failed, "
        f"{checker.known_failed} failed on known defects")
    print(bench_spec.result_line(definition, bool(args.trace), checker.failed == 0,
                                 checker.attempted, checker.failed, values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
