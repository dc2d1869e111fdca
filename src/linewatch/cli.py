"""Command-line scenario runner: run, sweep, and validate subcommands."""

import argparse
import csv
import logging
import sys
from pathlib import Path

from .errors import SOLVER_FAILURES, ConfigurationError
from .scenario import (RunReport, load_scenario, read_yaml_mapping, run_scenario, start_plant,
                       sweep)

logger = logging.getLogger("linewatch")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linewatch",
        description="Pipeline transient simulation, SCADA telemetry synthesis, "
        "and leak detection (RTM, line balance, negative pressure wave).",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario end to end")
    run_p.add_argument("scenario", help="scenario YAML file")
    run_p.add_argument("-o", "--output-dir", default="out", help="output directory")
    run_p.add_argument("--dump-states", action="store_true",
                       help="also dump solver states as columnar text")

    sweep_p = sub.add_parser("sweep", help="run a parameter grid over a scenario template")
    sweep_p.add_argument("scenario", help="template scenario YAML file")
    sweep_p.add_argument("--grid", required=True,
                         help="YAML file mapping dotted config paths to value lists")
    sweep_p.add_argument("-o", "--output-dir", default="out", help="output directory")

    val_p = sub.add_parser("validate", help="check a scenario file, its plant's steady start "
                           "and its detectors, and exit")
    val_p.add_argument("scenario", help="scenario YAML file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)-7s %(name)s: %(message)s",
    )
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except SOLVER_FAILURES as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args):
    scenario = load_scenario(args.scenario)
    start_plant(scenario)
    print(f"{args.scenario}: OK ({scenario.name}, config {scenario.config_hash[:12]})")
    return 0


def _cmd_run(args):
    scenario = load_scenario(args.scenario)
    logger.info("running scenario %s (seed %d)", scenario.name, scenario.seed)
    report = run_scenario(scenario, dump_states=args.dump_states)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    write_report(outdir / "report.json", report)
    note = _note(report.scenario_name, report.config_hash)
    for name, pieces in report.csv_tables():
        write_text(outdir / name, note, pieces)
    for name, header, rows in _tables(report):
        write_table(outdir / name, note, header, rows)
    if report.states:
        write_states(outdir / "states.dat", report)
    logger.info("report and logs written to %s", outdir)

    if report.run.get("solver_failure"):
        print(f"solver failure during run: {report.run['solver_failure']}", file=sys.stderr)
        return 1
    _print_summary(report)
    return 0


def _cmd_sweep(args):
    scenario = load_scenario(args.scenario)
    grid_spec, _ = read_yaml_mapping(args.grid)
    rows = sweep(scenario.raw, grid_spec)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sweep.csv"
    columns = list(dict.fromkeys(key for row in rows for key in row))
    write_table(path, _note(scenario.name, scenario.config_hash), columns,
                ([int(v) if isinstance(v, bool) else v for v in map(row.get, columns)]
                 for row in rows))
    failures = sum(1 for r in rows if r.get("error"))
    print(f"sweep: {len(rows)} cells, {failures} failed -> {path}")
    return 0 if failures == 0 else 1


def _print_summary(report):
    print(f"scenario: {report.scenario_name}  (config {report.config_hash[:12]})")
    truth = report.truth["leaks"]
    print(f"truth: {len(truth)} leak(s)" + (f" first at {truth[0]['position']:.0f} m, "
          f"{truth[0]['mass_rate']} kg/s from t={truth[0]['start_time']} s" if truth else ""))
    if report.rtm.get("enabled"):
        if report.rtm["declared"]:
            size = report.rtm.get("size_estimate")
            loc = report.rtm.get("location_estimate")
            print(
                "rtm: ALARM at t=%.1f s, size %s kg/s, location %s m"
                % (
                    report.rtm["declared_time"],
                    "n/a" if size is None else f"{size:.3f}",
                    "n/a" if loc is None else f"{loc:.0f}",
                )
            )
        else:
            print("rtm: no alarm")
    if report.balance.get("enabled"):
        t = report.balance.get("first_alarm_time")
        print("balance: " + ("ALARM at window ending t=%.0f s" % t if t else "no alarm"))
    for det in report.acoustic.get("detections", []):
        lat = det["latency"]
        loc = det["localization"]
        print(
            "acoustic: leak@%.0f m -> latency %s, location %s"
            % (
                det["leak_position"],
                "none" if lat is None else f"{lat:.2f} s",
                "none" if loc is None else f"{loc['position']:.0f} m",
            )
        )
    if report.metrics:
        parts = ", ".join(f"{k}={v:.4g}" for k, v in sorted(report.metrics.items()))
        print(f"metrics: {parts}")


# ------------------------------------------------------------------- writers

def _note(scenario_name, config_hash):
    return f"# scenario={scenario_name} config_sha256={config_hash}\n"


def write_report(path, report: RunReport):
    """report.json: the report's JSON text and a newline, written in the
    pieces it is encoded in."""
    with open(path, "w") as fh:
        fh.writelines(report.json_pieces())
        fh.write("\n")


def write_table(path, note, header, rows):
    """One CSV table under its provenance line ``note``; None is written
    empty.  The rows come with their booleans already as 0/1."""
    with open(path, "w", newline="") as fh:
        fh.write(note)
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_text(path, note, pieces):
    """One CSV table under its provenance line ``note``, from the text
    pieces it is formatted in (see :meth:`RunReport.csv_tables`)."""
    with open(path, "w", newline="") as fh:
        fh.write(note)
        fh.writelines(pieces)


def _tables(report: RunReport):
    """(file name, header, rows) of each CSV table the run has that is not
    formatted from its columns, with each boolean column written as 0/1."""
    if report.balance.get("enabled"):
        keys = ["start", "end", "v_in", "v_out", "delta_inventory", "imbalance"]
        header = ["start", "end", "v_in_kg", "v_out_kg", "delta_inventory_kg", "imbalance_kg",
                  "indeterminate", "alarm"]
        yield "balance_windows.csv", header, (
            [w[k] for k in keys] + [int(w["indeterminate"]), int(w["alarm"])]
            for w in report.balance["windows"])
    if report.acoustic.get("enabled"):
        keys = ["leak_position", "sensor", "sensor_position", "arrival_time", "amplitude"]
        yield "acoustic_events.csv", keys + ["triggered"], (
            [ev[k] for k in keys] + [int(ev["triggered"])] for ev in report.acoustic["events"])
    if report.availability:
        keys = ["name", "elements", "rank", "product", "approximate"]
        yield "availability.csv", ["chain"] + keys[1:] + ["approximate_valid"], (
            [row[k] for k in keys] + [int(row["approximate_valid"])] for row in report.availability)


def write_states(path, report: RunReport):
    with open(path, "w") as fh:
        fh.write(_note(report.scenario_name, report.config_hash))
        fh.write("t x P V T rho\n")
        for st in report.states:
            for i in range(st.x.size):
                fh.write(f"{st.t} {st.x[i]} {st.P[i]} {st.V[i]} {st.T[i]} {st.rho[i]}\n")


if __name__ == "__main__":
    sys.exit(main())
