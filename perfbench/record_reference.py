#!/usr/bin/env python3
"""Record each workload's verdict at its default seed into reference.json.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter detection results; the
benchmark compares every default-seed run against this file.
"""

import json
import shutil

import run


def main():
    run.pin_threads()
    cli = run.import_cli()
    references = {}
    for workload in run.WORKLOADS:
        seed = run.default_seed(workload)
        outdir = run.WORK / f"reference-{workload}"
        rc, _ = run.run_once(cli, run.scenario_file(workload, seed), outdir)
        problems, _ = run.check_outputs(outdir, None)
        if rc != 0 or problems:
            raise SystemExit(f"{workload}: exit code {rc}, {problems}")
        report = json.loads((outdir / "report.json").read_text())
        references[workload] = {"seed": seed, "verdict": run.verdict_of(report)}
        shutil.rmtree(outdir)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(references, indent=2) + "\n")


if __name__ == "__main__":
    main()
