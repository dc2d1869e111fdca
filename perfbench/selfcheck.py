#!/usr/bin/env python3
"""Determinism self-check of the benchmark's tracing.

    python3 perfbench/selfcheck.py

Runs gas_leak at its default seed once untraced, once under the
reference clock and twice traced, and fails (exit 1) unless the two
traced runs give identical counts and a byte-identical report.json, and
the clocked and traced reports equal the untraced one.  Tracing and the
reference clock must observe the program, never change what it computes.
"""

import contextlib
import shutil
import sys

import run
from spans import Tracer

WORKLOAD = "gas_leak"


def report_of(cli, scenario, outdir, tracer=None, clock=None):
    with clock or contextlib.nullcontext():
        rc, _ = run.run_once(cli, scenario, outdir, tracer)
    problems, _ = run.check_outputs(outdir, None)
    if rc != 0 or problems:
        raise SystemExit(f"run failed: exit code {rc}, {problems}")
    return (outdir / "report.json").read_bytes()


def main():
    run.pin_threads()
    cli = run.import_cli()
    scenario = run.scenario_file(WORKLOAD, run.default_seed(WORKLOAD))
    outdir = run.WORK / "selfcheck"
    try:
        untraced = report_of(cli, scenario, outdir)
        import refclock    # imports numpy, so only after pin_threads()
        clock = refclock.Sampler()
        clocked = report_of(cli, scenario, outdir, clock=clock)
        reports, counts = [], []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                reports.append(report_of(cli, scenario, outdir, tracer))
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics("linewatch.run")
            counts.append({k: v for k, (v, unit) in layers.items() if unit == "count"})
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failures = []
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        failures.append(f"traced counts differ: {diff}")
    if reports[0] != reports[1]:
        failures.append("the two traced report.json files differ")
    if reports[0] != untraced:
        failures.append("traced report.json differs from the untraced one")
    if clocked != untraced:
        failures.append("report.json under the reference clock differs from the untraced one")
    if len(clock.samples) < 2:
        failures.append(f"the reference clock ticked {len(clock.samples)} times in a run")
    if not counts[0]["hydraulics.linalg.solves"]:
        failures.append("no banded solve was traced")
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print(f"PASS {WORKLOAD}: {len(counts[0])} counts identical over two traced runs; "
              f"traced, clocked ({len(clock.samples)} ticks) and untraced report.json "
              "byte-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
