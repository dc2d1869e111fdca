#!/usr/bin/env python3
"""linewatch benchmark: closed-loop `linewatch run` on one workload.

    python3 perfbench/run.py --workload gas_leak [--seed 11] [--seconds 30] [--trace 0]

One client calls ``linewatch.cli.main(["run", <workload.yaml>, "-o", <dir>])``
in this process, one run at a time, BLAS pinned to one thread, and
checks every run's outputs.  ``--trace 0`` reports the end-to-end
metrics, timing each run against the reference clock of refclock.py;
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics (see perfbench/README.md).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

linewatch is imported from ``src/`` of the checkout that holds this
directory; inputs, outputs and spans go to ``.perfbench_work/`` there.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import yaml

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = sorted(p.stem for p in (BENCH_DIR / "workloads").glob("*.yaml"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
LEDGER_BOUND = 1e-8     # worst step ledger residual, relative to linepack
REL_TOL = 1e-9

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import linewatch
linewatch.load_scenario(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """Import linewatch.cli from this checkout's src/, or exit with an error."""
    if not (SRC / "linewatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no linewatch sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import linewatch.cli
    return linewatch.cli


# ------------------------------------------------------------------ inputs

def default_seed(workload):
    return int(workload_config(workload)["seed"])


def workload_config(workload):
    with open(BENCH_DIR / "workloads" / f"{workload}.yaml") as fh:
        return yaml.safe_load(fh)


def scenario_file(workload, seed):
    """Write the workload's scenario with ``seed`` into the work directory."""
    raw = workload_config(workload)
    raw["seed"] = int(seed)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{workload}-{seed}.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return path


# ------------------------------------------------------------------ running

def run_once(cli, scenario, outdir, tracer=None):
    """One `linewatch run`; returns (exit code, wall seconds)."""
    shutil.rmtree(outdir, ignore_errors=True)
    argv = ["run", str(scenario), "-o", str(outdir)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv) if tracer is None else tracer.span("linewatch.run", cli.main, argv)
        elapsed = time.perf_counter() - t0
    return rc, elapsed


def check_outputs(outdir, reference):
    """Problems with one run's outputs (empty when correct), and the
    sha256 of its report.json.  ``reference`` is the workload's recorded
    verdict when the run used the reference seed, else None."""
    try:
        blob = (outdir / "report.json").read_bytes()
        report = json.loads(blob)
    except (OSError, ValueError) as e:
        return [f"report.json unreadable: {e}"], None
    problems = []
    if report["run"]["solver_failure"]:
        problems.append(f"solver failure: {report['run']['solver_failure']}")
    ledger = report["mass_ledger"]["max_step_residual_relative"]
    if not ledger <= LEDGER_BOUND:
        problems.append(f"step ledger residual {ledger:.3e} of linepack > {LEDGER_BOUND:g}")
    if not (outdir / "telemetry.csv").is_file():
        problems.append("telemetry.csv missing")
    if reference is not None:
        problems += compare_verdict(verdict_of(report), reference)
    return problems, hashlib.sha256(blob).hexdigest()


def verdict_of(report):
    rtm, bal = report["rtm"], report["balance"]
    return {
        "declared_time": rtm["declared_time"],
        "size_estimate": rtm["size_estimate"],
        "location_estimate": rtm["location_estimate"],
        "balance_first_alarm_time": bal.get("first_alarm_time"),
        "alarm_condition_polls": len(rtm["alarm_condition_polls"]),
    }


def compare_verdict(got, want):
    problems = []
    if got["declared_time"] != want["declared_time"]:
        problems.append(f"declared_time {got['declared_time']!r} != "
                        f"reference {want['declared_time']!r}")
    if want["alarm_condition_polls"] == 0 and got["alarm_condition_polls"]:
        problems.append(f"{got['alarm_condition_polls']} alarm-condition polls, reference none")
    for key in ("size_estimate", "location_estimate", "balance_first_alarm_time"):
        a, b = got[key], want[key]
        if (a is None) != (b is None) or (a is not None and not math.isclose(a, b, rel_tol=REL_TOL)):
            problems.append(f"{key} {a!r} != reference {b!r} (rel {REL_TOL:g})")
    return problems


class Loop:
    """Closed-loop runner: runs, times and checks, one at a time."""

    def __init__(self, cli, scenario, reference):
        self.cli = cli
        self.scenario = scenario
        self.reference = reference
        self.outdir = WORK / f"out-{scenario.stem}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report_hashes = set()

    def run(self, tracer=None, clock=None):
        """One checked run; returns its wall seconds, less the time the
        reference ``clock`` (a refclock.Sampler) took when one is given."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with clock or contextlib.nullcontext():
                rc, elapsed = run_once(self.cli, self.scenario, self.outdir, tracer)
        except Exception:
            traceback.print_exc()
            self.fail(["exception"])
            return time.perf_counter() - t0
        if clock is not None:
            elapsed -= clock.spent
        found, digest = check_outputs(self.outdir, self.reference)
        if rc != 0:
            found.insert(0, f"exit code {rc}")
        self.report_hashes.add(digest)
        if len(self.report_hashes) > 1:
            found.append("report.json differs from an earlier run with the same seed")
        if found:
            self.fail(found)
        return elapsed

    def fail(self, found):
        self.failed += 1
        self.problems.append(f"run {self.attempted}: " + "; ".join(found))

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


def setup_once(scenario):
    """Seconds of one fresh-process `import linewatch` + load_scenario."""
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(scenario)],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_end_to_end(loop, scenario, seconds):
    """Timed runs for ``seconds``, each against the reference clock, with
    SETUP_REPEATS set-up processes spread evenly over the same window;
    returns (metrics, details)."""
    import refclock            # imports numpy, so only after pin_threads()
    setup_once(scenario)       # compiles bytecode: not timed
    loop.run()                 # warm-up: checked, not timed
    runs, ref_means, setups = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and runs and len(setups) >= SETUP_REPEATS:
            break
        if len(setups) < min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * elapsed / seconds)):
            setups.append(setup_once(scenario))
        if elapsed < seconds or not runs:
            clock = refclock.Sampler()
            runs.append(loop.run(clock=clock))
            ref_means.append(clock.mean())

    tail_s, tail_pct = spans.tail(runs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_rel": (statistics.median(t / r for t, r in zip(runs, ref_means)), "x"),
        "run_s": (statistics.median(runs), "s"),
        "run_min_s": (min(runs), "s"),
        "run_tail_s": (tail_s, "s"),
        "ref_kernel_ms": (1e3 * statistics.median(ref_means), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"setup_s_samples": setups, "run_s_samples": runs,
               "ref_kernel_s_samples": ref_means, "run_tail_percentile": tail_pct}
    return metrics, details


def measure_traced(loop, seconds):
    """Alternate untraced and traced runs for ``seconds``, until two
    traced runs exist; returns (metrics, details)."""
    loop.run()                 # warm-up: checked, not timed
    untraced, traced = [], []
    per_run_layers = []
    last_tracer = None
    start = time.perf_counter()

    while time.perf_counter() - start < seconds or len(traced) < 2:
        if len(traced) < len(untraced):
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(loop.run(tracer))
            finally:
                tracer.uninstall()
            per_run_layers.append(tracer.layer_metrics("linewatch.run"))
            last_tracer = tracer
        else:
            untraced.append(loop.run())

    metrics = {}
    for name, (value, unit) in per_run_layers[0].items():
        values = [m[name][0] for m in per_run_layers]
        if unit == "count":
            if len(set(values)) != 1:
                loop.problems.append(f"{name} differs between traced runs: {values}")
        else:
            value = statistics.median(values)
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    spans_path = WORK / f"spans-{loop.scenario.stem}.jsonl"
    last_tracer.write(spans_path)
    details = {
        "run_s_untraced": untraced,
        "run_s_traced": traced,
        "linalg_entry_points": {k: v or "absent" for k, v in last_tracer.linalg_found.items()},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(last_tracer.spans),
    }
    return metrics, details


# ------------------------------------------------------------------ stamp

def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(workload, seed, load_start):
    import numpy
    import scipy
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
    }


# ------------------------------------------------------------------ main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the seed in its YAML)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = list(os.getloadavg())
    pin_threads()
    cli = import_cli()
    seed = default_seed(args.workload) if args.seed is None else args.seed
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    reference = references[args.workload]
    scenario = scenario_file(args.workload, seed)

    loop = Loop(cli, scenario, reference["verdict"] if seed == reference["seed"] else None)
    try:
        if args.trace:
            metrics, details = measure_traced(loop, args.seconds)
        else:
            metrics, details = measure_end_to_end(loop, scenario, args.seconds)
    finally:
        loop.close()
    failed_ratio = loop.failed / loop.attempted
    env = environment(args.workload, seed, load_start)

    for problem in loop.problems:
        print("FAILED " + problem, file=sys.stderr)
    print(f"workload {args.workload} seed {seed} trace {args.trace}: "
          f"{loop.attempted} runs, {loop.failed} failed, failed_ratio {failed_ratio:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  run_tail_s is the p{details['run_tail_percentile']:.1f} of "
              f"{len(details['run_s_samples'])} runs")
    else:
        print(f"  linalg entry points: {details['linalg_entry_points']}")
    print("env " + json.dumps(env, sort_keys=True))

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    full = dict(result, all_metrics=metrics, failed_ratio=failed_ratio, env=env,
                details=details, problems=loop.problems)
    (WORK / f"result-{args.workload}-{seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
