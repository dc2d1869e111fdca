import copy
import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import linewatch.scenario as scenario_module
from conftest import set_noise_scale, standard_config
from linewatch.cli import main
from linewatch.errors import ConfigurationError, InfeasibleScenarioError
from linewatch.fluid import GasEos
from linewatch.scenario import load_scenario, run_scenario, scenario_from_dict, sweep

GOLDEN = Path(__file__).parent / "golden" / "standard_leak_report.json"


class TestParsing:
    def test_standard_config_parses(self):
        s = scenario_from_dict(standard_config())
        assert s.pipeline.length == 10000.0
        assert len(s.instruments) == 6
        assert s.rtm is not None and s.balance is not None and s.acoustic is not None

    def test_missing_required_field_names_path(self):
        cfg = standard_config()
        del cfg["fluid"]
        with pytest.raises(ConfigurationError, match="fluid"):
            scenario_from_dict(cfg)

    def test_bad_boundary_kind_names_path(self):
        cfg = standard_config()
        cfg["boundaries"]["inlet"]["kind"] = "head"
        with pytest.raises(ConfigurationError, match="boundaries.inlet"):
            scenario_from_dict(cfg)

    def test_leak_outside_line_names_path(self):
        cfg = standard_config()
        cfg["leaks"] = [{"position": 20000.0, "start_time": 10.0, "mass_rate": 1.0}]
        with pytest.raises(ConfigurationError, match=r"leaks\[0\]"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("section,key,points,path", [
        ("boundaries.inlet", "series", [[0.0, "x"]], "boundaries.inlet.series[0]"),
        ("boundaries.inlet", "series", [[0.0, 1.0e6], [0.0]], "boundaries.inlet.series[1]"),
        ("pipeline", "elevation", [[0.0, 0.0, 5.0]], "pipeline.elevation[0]"),
    ], ids=["non_number", "short_point", "long_point"])
    def test_malformed_point_names_path(self, section, key, points, path):
        cfg = standard_config()
        node = cfg
        for part in section.split("."):
            node = node[part]
        node[key] = points
        with pytest.raises(ConfigurationError, match=re.escape(path)):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("section,edit,message", [
        ("pipeline", {"diameter": -1}, "pipeline: diameter must be > 0, got -1.0"),
        ("fluid", {"bulk_modulus": -5}, "fluid: bulk modulus B must be > 0"),
        ("fluid", {"kind": "gas", "R": 500.0, "k": 1.0e-6},
         "fluid: Z-correlation constant k=1e-06 applies only"),
        ("balance", {"mode": "smple"}, "balance.mode: must be 'model' or 'simple', got 'smple'"),
        ("balance", {"threshold": 0}, "balance.threshold: must be > 0, got 0.0"),
        ("balance", {"threshold": -5}, "balance.threshold: must be > 0, got -5.0"),
        ("balance", {"window": -1}, "balance.window: must be > 0, got -1.0"),
        ("acoustic", {"initial_amplitude": 0},
         "acoustic.initial_amplitude: must be > 0, got 0.0"),
        ("pipeline", {"segments": [{"start": 0.0, "end": 5000.0},
                                   {"start": 6000.0, "end": 5000.0}]},
         "pipeline.segments[1]: segment bounds (6000.0, 5000.0)"),
        ("availability", {"per_unit": 1.5},
         "availability.per_unit: flowmeter: availability must be in [0, 1]"),
        ("availability", {"per_unit": "high"},
         "availability.per_unit: expected a number, got 'high'"),
        ("availability", {"chains": "mass_flow"}, "availability.chains: expected a list"),
        ("availability", {"chains": ["pressure", ["mass_flow"]]},
         "availability.chains[1]: unknown availability chain preset ['mass_flow']"),
        # the outlet flow meter moved to 2 km of 10 km: the meters no longer bracket the line
        ("instruments", lambda cfg: cfg["instruments"][1].update(position=2000.0),
         "balance: line balance needs a flow meter in each half of the line"),
    ], ids=["pipeline_diameter", "liquid_bulk_modulus", "gas_k", "balance_mode",
            "balance_threshold_zero", "balance_threshold_negative", "balance_window",
            "acoustic_amplitude", "segment_bounds", "availability_per_unit",
            "availability_per_unit_not_a_number", "availability_chains_not_a_list",
            "availability_chain_not_a_name", "balance_meters_not_bracketing"])
    def test_model_error_names_section(self, section, edit, message):
        cfg = standard_config()
        if callable(edit):
            edit(cfg)
        else:
            cfg.setdefault(section, {}).update(edit)
        with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
            scenario_from_dict(cfg)

    def test_rtm_passes_on_only_the_options_set(self):
        cfg = standard_config()
        cfg["rtm"] = {"flow_threshold": 0.25, "substeps": 2}
        s = scenario_from_dict(cfg)
        assert set(s.rtm) == {"policy", "substeps"}
        assert s.rtm["substeps"] == 2

    @pytest.mark.parametrize("edit,path", [
        (lambda c: c["pipeline"].update(diamter=0.5), "pipeline.diamter"),
        (lambda c: c["rtm"].update(flow_treshold=99), "rtm.flow_treshold"),
        (lambda c: c["instruments"][2].update(sigm=1.0), "instruments[2].sigm"),
        (lambda c: c["boundaries"]["inlet"].update(series=[[0.0, 1.0e6]]),
         "boundaries.inlet.value"),
        (lambda c: c.update(horizn=60.0), "horizn"),
        (lambda c: c["telemetry"].update(plausibility={"flow": {"mx": 1.0}}),
         "telemetry.plausibility.flow.mx"),
    ], ids=["pipeline", "rtm", "instrument", "value_beside_series", "top_level", "nested"])
    def test_unread_key_names_path(self, edit, path):
        cfg = standard_config()
        edit(cfg)
        with pytest.raises(ConfigurationError, match="^" + re.escape(path + ": unknown key")):
            scenario_from_dict(cfg)

    def test_first_unread_key_in_document_order(self):
        cfg = standard_config()
        cfg["pipeline"]["diamter"] = 0.5
        cfg["rtm"]["flow_treshold"] = 99
        with pytest.raises(ConfigurationError, match="^pipeline.diamter"):
            scenario_from_dict(cfg)

    def test_disabled_section_keeps_its_keys(self):
        cfg = standard_config()
        cfg["acoustic"]["enabled"] = False
        cfg["acoustic"]["atenuation"] = 1.0
        assert scenario_from_dict(cfg).acoustic is None

    def test_shipped_scenarios_read_every_key(self):
        root = Path(__file__).parents[1]
        for path in sorted(root.glob("demos/scenarios/*.yaml")):
            load_scenario(path)

    def test_leak_must_start_after_zero(self):
        cfg = standard_config()
        cfg["leaks"] = [{"position": 5000.0, "start_time": 0.0, "mass_rate": 1.0}]
        with pytest.raises(ConfigurationError, match="start_time"):
            scenario_from_dict(cfg)

    def test_poll_must_be_multiple_of_dt(self):
        cfg = standard_config()
        cfg["solver"]["dt"] = 3.0
        with pytest.raises(ConfigurationError, match="multiple"):
            scenario_from_dict(cfg)

    def test_balance_model_mode_needs_rtm(self):
        cfg = standard_config()
        cfg["rtm"] = {"enabled": False}
        with pytest.raises(ConfigurationError, match="shadow"):
            scenario_from_dict(cfg)

    def test_unit_conversion(self):
        cfg = standard_config()
        cfg["units"] = {"pressure": "bar", "length": "km", "temperature": "degC"}
        cfg["pipeline"]["length"] = 10.0
        cfg["boundaries"]["inlet"]["value"] = 10.0
        cfg["boundaries"]["outlet"]["value"] = 6.7
        cfg["boundaries"]["temperature"]["value"] = 26.85
        cfg["fluid"]["P0"] = 1.0
        cfg["fluid"]["T0"] = 26.85
        cfg["pipeline"]["ground_temperature"] = 15.0
        for inst in cfg["instruments"]:
            inst["position"] /= 1000.0
        cfg["leaks"][0]["position"] = 5.0
        cfg["rtm"]["pressure_threshold"] = 0.025
        cfg["acoustic"]["initial_amplitude"] = 0.5
        for sens in cfg["acoustic"]["sensors"]:
            sens["position"] /= 1000.0
            sens["threshold"] = 0.05
        cfg["solver"]["target_dx"] = 0.1
        s = scenario_from_dict(cfg)
        assert s.pipeline.length == 10000.0
        assert s.bc.inlet.series.at(0.0) == pytest.approx(1.0e6)
        assert s.bc.temperature.at(0.0) == pytest.approx(300.0)
        assert s.fluid.eos.T0 == pytest.approx(300.0)
        assert s.leaks[0].position == 5000.0
        assert s.rtm["policy"].pressure_threshold == pytest.approx(2500.0)

    def test_gas_fluid_section(self):
        cfg = standard_config()
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0, "y": 1.0,
            "z_reference": {"P": 5.0e6, "T": 300.0, "Z": 0.9},
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        cfg["boundaries"]["inlet"]["value"] = 6.0e6
        cfg["boundaries"]["outlet"]["value"] = 5.0e6
        s = scenario_from_dict(cfg)
        assert isinstance(s.fluid.eos, GasEos) and s.fluid.eos.k > 0


_PRESSURE_SI = {"Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "bar": 1e5, "psi": 6894.757293168}
_LENGTH_SI = {"m": 1.0, "km": 1e3}
_KELVIN_AT_ZERO = {"K": 0.0, "degC": 273.15}

_PLAUSIBILITY = {
    "pressure": {"min": 0.0, "max": 5.0e6, "max_rate": 1.0e5},
    "flow": {"min": -150.0, "max": 150.0, "max_rate": 50.0},
    "temperature": {"min": 200.0, "max": 400.0, "max_rate": 2.0},
}


def _in_units(si_cfg, pressure, length, temperature):
    """Re-express an SI scenario dict in the given units, field by field."""
    cfg = copy.deepcopy(si_cfg)
    cfg["units"] = {"pressure": pressure, "length": length, "temperature": temperature}
    p = lambda v: v / _PRESSURE_SI[pressure]
    m = lambda v: v / _LENGTH_SI[length]
    k = lambda v: v - _KELVIN_AT_ZERO[temperature]

    def conv(node, f, *keys):
        for key in keys:
            if key in node:
                node[key] = f(node[key])

    def value_or_series(node, f):
        conv(node, f, "value")
        if "series" in node:
            node["series"] = [[t, f(v)] for t, v in node["series"]]

    fl = cfg["fluid"]
    conv(fl, p, "P0", "bulk_modulus", "critical_pressure")
    conv(fl, k, "T0", "critical_temperature")
    conv(fl.get("z_reference", {}), p, "P")
    conv(fl.get("z_reference", {}), k, "T")
    pl = cfg["pipeline"]
    conv(pl, m, "length")
    conv(pl, k, "ground_temperature")
    if "elevation" in pl:
        pl["elevation"] = [[m(x), h] for x, h in pl["elevation"]]
    for seg in pl.get("segments", []):
        conv(seg, m, "start", "end")
    for inst in cfg["instruments"]:
        conv(inst, m, "position")
        if inst["kind"] == "pressure":
            conv(inst, p, "sigma", "bias")
    for end in ("inlet", "outlet"):
        leg = cfg["boundaries"][end]
        value_or_series(leg, p if leg["kind"] == "pressure" else float)
    value_or_series(cfg["boundaries"]["temperature"], k)
    for leak in cfg["leaks"]:
        conv(leak, m, "position")
    plaus = cfg["telemetry"].get("plausibility", {})
    conv(plaus.get("pressure", {}), p, "min", "max", "max_rate")
    conv(plaus.get("temperature", {}), k, "min", "max")
    conv(cfg["rtm"], p, "pressure_threshold")
    ac = cfg["acoustic"]
    conv(ac, p, "initial_amplitude")
    conv(ac, lambda v: v * _LENGTH_SI[length], "attenuation")
    for sensor in ac["sensors"]:
        conv(sensor, m, "position")
        conv(sensor, p, "threshold")
    conv(cfg["solver"], m, "target_dx")
    return cfg


def _every_dimension_config(gas, explicit_pressure_threshold):
    cfg = standard_config()
    if gas:
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0, "y": 1.0,
            "z_reference": {"P": 5.0e6, "T": 300.0, "Z": 0.9},
            "critical_pressure": 4.6e6, "critical_temperature": 190.6,
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        cfg["boundaries"]["inlet"]["value"] = 6.0e6
        cfg["boundaries"]["outlet"] = {"kind": "pressure", "series": [[0.0, 5.0e6], [300.0, 4.9e6]]}
    else:
        cfg["boundaries"]["outlet"] = {"kind": "pressure", "series": [[0.0, 6.7e5], [300.0, 6.5e5]]}
    cfg["pipeline"]["elevation"] = [[0.0, 0.0], [4000.0, 12.0], [10000.0, 5.0]]
    cfg["pipeline"]["segments"] = [
        {"start": 2000.0, "end": 3000.0, "friction_factor": 0.03, "diameter": 0.3, "U": 1.5}]
    bias = {"flow": 0.05, "pressure": 300.0, "temperature": 0.02}
    for inst in cfg["instruments"]:
        inst["bias"] = bias[inst["kind"]]
    cfg["boundaries"]["temperature"] = {"series": [[0.0, 300.0], [600.0, 301.5]]}
    cfg["telemetry"]["plausibility"] = copy.deepcopy(_PLAUSIBILITY)
    if not explicit_pressure_threshold:
        del cfg["rtm"]["pressure_threshold"]  # defaults to 3x the pressure sigma
    cfg["acoustic"]["speed"] = 1400.0
    return cfg


def _assert_same_si(path, expected, actual):
    if isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), path
    elif isinstance(expected, np.ndarray):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0, err_msg=path)
    elif isinstance(expected, dict):
        assert sorted(expected) == sorted(actual), path
        for key in expected:
            _assert_same_si(f"{path}.{key}", expected[key], actual[key])
    elif isinstance(expected, (list, tuple)):
        assert len(expected) == len(actual), path
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same_si(f"{path}[{i}]", e, a)
    elif hasattr(expected, "__dict__"):
        assert type(expected) is type(actual), path
        _assert_same_si(path, vars(expected), vars(actual))
    else:
        assert expected == actual, path


class TestUnits:
    @settings(max_examples=40, deadline=None)
    @given(
        pressure=st.sampled_from(sorted(_PRESSURE_SI)),
        length=st.sampled_from(sorted(_LENGTH_SI)),
        temperature=st.sampled_from(sorted(_KELVIN_AT_ZERO)),
        gas=st.booleans(),
        explicit_pressure_threshold=st.booleans(),
    )
    def test_declared_units_parse_to_the_same_si_scenario(
            self, pressure, length, temperature, gas, explicit_pressure_threshold):
        si_cfg = _every_dimension_config(gas, explicit_pressure_threshold)
        si = vars(scenario_from_dict(si_cfg))
        declared = vars(scenario_from_dict(_in_units(si_cfg, pressure, length, temperature)))
        for name in ("raw", "config_hash"):
            del si[name], declared[name]
        _assert_same_si("scenario", si, declared)

    @pytest.mark.parametrize("units, match", [
        ({"presure": "bar"}, r"units\.presure"),
        ({"pressure": "atm"}, r"units\.pressure: unknown unit 'atm'"),
        ("bar", r"units: expected a mapping"),
    ])
    def test_bad_units_section_names_path(self, units, match):
        with pytest.raises(ConfigurationError, match=match):
            scenario_from_dict(standard_config(units=units))

    def test_raw_reparses_and_sweeps_in_declared_units(self, monkeypatch):
        s = scenario_from_dict(_in_units(standard_config(horizon=130.0), "Pa", "km", "K"))
        assert scenario_from_dict(s.raw).pipeline.length == 10000.0
        swept = []
        real_run = scenario_module.run_scenario
        monkeypatch.setattr(scenario_module, "run_scenario",
                            lambda sc: swept.append(sc) or real_run(sc))
        rows = sweep(s.raw, {"leaks.0.position": [5.0]})
        assert rows[0]["error"] is None
        assert swept[0].leaks[0].position == 5000.0
        assert swept[0].pipeline.length == 10000.0

    def test_bar_km_degc_run_matches_si_run(self):
        si_cfg = standard_config()
        si_cfg["telemetry"]["plausibility"] = copy.deepcopy(_PLAUSIBILITY)
        si = run_scenario(scenario_from_dict(si_cfg))
        declared = run_scenario(scenario_from_dict(_in_units(si_cfg, "bar", "km", "degC")))
        assert declared.rtm["declared_time"] == 185.0
        assert all(r.quality == "good" for f in declared.frames for r in f.readings)
        expected, actual = si.to_dict(), declared.to_dict()
        expected["config_sha256"] = actual["config_sha256"] = "pinned"
        _assert_same_structure("report", expected, actual)


class TestRunning:
    def test_no_leak_run_all_detectors_silent(self):
        cfg = standard_config(horizon=420.0)
        cfg["leaks"] = []
        report = run_scenario(scenario_from_dict(cfg))
        assert not report.rtm["declared"]
        assert report.balance["first_alarm_time"] is None
        assert report.acoustic["detections"] == []
        assert report.metrics == {}
        assert report.truth["leaks"] == []

    def test_identical_seed_byte_identical_reports(self):
        a = run_scenario(scenario_from_dict(standard_config(horizon=420.0)))
        b = run_scenario(scenario_from_dict(standard_config(horizon=420.0)))
        assert a.to_json() == b.to_json()

    def test_standard_leak_detected_with_truth_metrics(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        assert report.rtm["declared"]
        assert 0 < report.metrics["rtm_detection_latency"] <= 600.0
        assert report.metrics["acoustic_detection_latency"] == pytest.approx(
            5000.0 / 1414.2, abs=0.02)
        assert report.mass_ledger["max_step_residual_relative"] < 1e-8

    def test_ground_truth_echoed_verbatim(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        assert report.truth["leaks"][0] == {
            "position": 5000.0, "start_time": 120.0, "mass_rate": 0.70}

    def test_golden_report_schema_stable(self):
        cfg = standard_config(horizon=420.0, seed=2025)
        report = run_scenario(scenario_from_dict(cfg)).to_dict()
        report["config_sha256"] = "pinned"
        golden = json.loads(GOLDEN.read_text())
        _assert_same_structure("report", golden, report)

    def test_availability_section_in_report(self):
        cfg = standard_config(horizon=60.0)
        cfg["leaks"] = []
        cfg["availability"] = {"per_unit": 0.99}
        report = run_scenario(scenario_from_dict(cfg))
        rows = {r["name"]: r for r in report.availability}
        assert rows["mass_flow"]["product"] == pytest.approx(0.99**11, abs=1e-12)
        assert rows["acoustic"]["rank"] == 1


def _assert_same_structure(path, expected, actual):
    if isinstance(expected, bool) or isinstance(actual, bool):
        assert expected == actual, path
        return
    if isinstance(expected, float) and isinstance(actual, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
        return
    assert type(expected) is type(actual), f"{path}: {type(expected)} vs {type(actual)}"
    if isinstance(expected, dict):
        assert sorted(expected) == sorted(actual), f"{path}: key set changed"
        for k in expected:
            _assert_same_structure(f"{path}.{k}", expected[k], actual[k])
    elif isinstance(expected, list):
        assert len(expected) == len(actual), f"{path}: length changed"
        for i, (e, a) in enumerate(zip(expected, actual)):
            _assert_same_structure(f"{path}[{i}]", e, a)
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-12), path
    else:
        assert expected == actual, path


class TestSweep:
    def test_empty_grid_is_template_run(self):
        cfg = standard_config(horizon=420.0)
        rows = sweep(cfg, {})
        assert len(rows) == 1 and rows[0]["error"] is None

    def test_leak_size_grid(self):
        cfg = standard_config(horizon=480.0)
        set_noise_scale(cfg, 0.0)
        rows = sweep(cfg, {"leaks.0.mass_rate": [1.4, 3.5]})
        assert [r["leaks.0.mass_rate"] for r in rows] == [1.4, 3.5]
        lat = [r.get("metric_rtm_detection_latency") for r in rows]
        assert all(l is not None for l in lat)
        assert lat[0] >= lat[1]  # bigger leak found no later

    def test_cell_failure_recorded_not_fatal(self):
        cfg = standard_config(horizon=420.0)
        rows = sweep(cfg, {"leaks.0.position": [5000.0, 99999.0]})
        assert rows[0]["error"] is None
        assert "ConfigurationError" in rows[1]["error"]

    def test_leak_size_sweep_latency_monotone(self):
        # 0.5% / 1% / 2% / 5% of rated flow at zero noise; an undetected
        # leak counts as infinite time-to-alarm
        cfg = standard_config(horizon=480.0)
        set_noise_scale(cfg, 0.0)
        sizes = [0.005 * 70.0, 0.01 * 70.0, 0.02 * 70.0, 0.05 * 70.0]
        rows = sweep(cfg, {"leaks.0.mass_rate": sizes})
        latencies = [
            row.get("metric_rtm_detection_latency")
            if row.get("metric_rtm_detection_latency") is not None else math.inf
            for row in rows
        ]
        assert all(a >= b for a, b in zip(latencies, latencies[1:]))
        assert math.isinf(latencies[0])   # 0.5% sits below the scenario thresholds
        assert latencies[-1] < latencies[1]


class TestCli:
    def write_cfg(self, tmp_path, cfg):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(cfg))
        return path

    def test_validate_ok(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, standard_config())
        assert main(["validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        cfg = standard_config()
        cfg["pipeline"]["diameter"] = -1.0
        path = self.write_cfg(tmp_path, cfg)
        assert main(["validate", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path):
        cfg = standard_config(horizon=420.0)
        path = self.write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 0
        for name in ("report.json", "telemetry.csv", "rtm_trace.csv",
                     "balance_windows.csv", "acoustic_events.csv"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "standard-leak"
        first = (out / "telemetry.csv").read_text().splitlines()[0]
        assert report["config_sha256"] in first  # provenance hash on outputs

    def test_every_csv_cell_is_a_number(self, tmp_path):
        cfg = standard_config(horizon=660.0)   # one full 600 s balance window
        cfg["availability"] = {"per_unit": 0.99}
        path = self.write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == 0
        text_columns = {"instrument", "quality", "sensor", "chain"}
        written = sorted(out.glob("*.csv"))
        assert [p.name for p in written] == [
            "acoustic_events.csv", "availability.csv", "balance_windows.csv",
            "rtm_trace.csv", "telemetry.csv",
        ]
        for csv_path in written:
            lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("#")]
            rows = list(csv.DictReader(lines))
            assert rows, csv_path.name
            for row in rows:
                for column, cell in row.items():
                    if column not in text_columns and cell != "":
                        float(cell)  # raises on e.g. "np.float64(0.42)"

    def test_run_dump_states(self, tmp_path):
        cfg = standard_config(horizon=60.0)
        cfg["leaks"] = []
        cfg["output"] = {"state_stride": 12}
        path = self.write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out), "--dump-states"]) == 0
        lines = (out / "states.dat").read_text().splitlines()
        assert lines[1].split() == ["t", "x", "P", "V", "T", "rho"]
        assert len(lines) > 10

    def test_sweep_command(self, tmp_path):
        cfg = standard_config(horizon=420.0)
        path = self.write_cfg(tmp_path, cfg)
        grid = tmp_path / "grid.yaml"
        grid.write_text(yaml.safe_dump({"seed": [1, 2]}))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--grid", str(grid), "-o", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4  # note + header + 2 cells
        declared = [row["rtm_declared"] for row in csv.DictReader(rows[1:])]
        assert len(declared) == 2 and set(declared) <= {"0", "1"}  # as every run table


class TestSpecInvariantsEndToEnd:
    def test_zero_noise_no_leak_run_marks_nothing_suspect(self):
        cfg = standard_config(horizon=300.0)
        set_noise_scale(cfg, 0.0)
        cfg["leaks"] = []
        cfg["telemetry"]["plausibility"] = {
            "pressure": {"min": 0.0, "max": 5.0e6, "max_rate": 1.0e5},
            "flow": {"min": -150.0, "max": 150.0, "max_rate": 50.0},
            "temperature": {"min": 200.0, "max": 400.0},
        }
        report = run_scenario(scenario_from_dict(cfg))
        for frame in report.frames:
            for r in frame.readings:
                assert r.quality == "good", (frame.poll_time, r)

    def test_near_critical_gas_rejected_at_load(self):
        cfg = standard_config()
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0, "z_mode": "ideal",
            "critical_pressure": 1.0e6, "critical_temperature": 305.0,
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        with pytest.raises(ConfigurationError, match="critical"):
            scenario_from_dict(cfg)

    def test_gas_k_without_correlated_z_rejected(self):
        cfg = standard_config()
        cfg["fluid"] = {
            "kind": "gas", "R": 500.0, "k": 1.0e-6,
            "specific_heat": 2200.0, "sound_speed": 380.0,
        }
        with pytest.raises(ConfigurationError, match="correlated"):
            scenario_from_dict(cfg)

    def test_balance_never_reports_location(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        for w in report.balance["windows"]:
            assert "location" not in w

    def test_rtm_beats_balance_on_the_standard_leak(self):
        report = run_scenario(scenario_from_dict(standard_config()))
        assert report.balance["first_alarm_time"] is not None
        assert report.rtm["declared_time"] <= report.balance["first_alarm_time"]


class TestPartialFailure:
    def test_mid_run_solver_failure_yields_partial_report(self):
        cfg = standard_config(horizon=600.0)
        cfg["leaks"] = []
        # operator drives the outlet below vacuum at t ~ 200 s
        cfg["boundaries"]["outlet"] = {
            "kind": "pressure", "series": [[0.0, 6.7e5], [180.0, 6.7e5], [220.0, -5.0e4]],
        }
        report = run_scenario(scenario_from_dict(cfg))
        assert report.run["solver_failure"] is not None
        assert "node" in report.run["solver_failure"]
        assert 0 < report.run["polls"] < 600.0 / 5.0 + 1  # stopped early, kept what it had
        assert not report.rtm["declared"]

    def test_cli_exit_code_on_solver_failure(self, tmp_path):
        cfg = standard_config(horizon=600.0)
        cfg["leaks"] = []
        cfg["boundaries"]["outlet"] = {
            "kind": "pressure", "series": [[0.0, 6.7e5], [180.0, 6.7e5], [220.0, -5.0e4]],
        }
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1

    def test_flow_against_the_temperature_end_is_rejected_at_start(self, tmp_path, capsys):
        # A 60 m rise outweighs the 3.3 bar drive: the steady flow runs from
        # the outlet to the inlet, where the temperature is held.
        cfg = standard_config()
        cfg["pipeline"]["elevation"] = [[0.0, 0.0], [10000.0, 60.0]]
        with pytest.raises(InfeasibleScenarioError, match="runs from the outlet to the inlet"):
            run_scenario(scenario_from_dict(cfg))
        path = tmp_path / "uphill.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "inlet pressure 1000000 Pa" in err and "outlet pressure 670000 Pa" in err
        assert "static head of the 60 m rise" in err


class TestSimpleBalanceStandalone:
    def test_simple_mode_runs_without_rtm(self):
        cfg = standard_config(horizon=900.0)
        set_noise_scale(cfg, 0.0)
        cfg["rtm"] = {"enabled": False}
        cfg["balance"] = {"window": 600.0, "threshold": 150.0, "mode": "simple"}
        cfg["leaks"] = [{"position": 5000.0, "start_time": 60.0, "mass_rate": 1.0}]
        report = run_scenario(scenario_from_dict(cfg))
        assert not report.rtm["enabled"]
        # simple mode assumes steady inventory: the leak shows as pure meter loss
        w = report.balance["windows"][0]
        assert w["delta_inventory"] == 0.0
        assert w["imbalance"] == pytest.approx(1.0 * 540.0, rel=0.08)
        assert report.balance["first_alarm_time"] is not None

    def test_report_carries_indicator_trace(self):
        report = run_scenario(scenario_from_dict(standard_config(horizon=300.0)))
        trace = report.rtm["indicator_trace"]
        assert len(trace) == report.rtm["polls"]
        warm = [e for e in trace if e["normalized"].get("flow_in") is not None]
        assert warm, "smoothed indicators never warmed up"
